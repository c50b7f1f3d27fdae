"""Automorphisms of a right-angled Artin group as generator-image maps.

Provides composition, an exact innerness decision by length descent that
holds on every defining graph (:func:`inner_conjugator`), the construction
of the standard commuting generator set (partial conjugations plus
transvections onto nodes outside the core subgraph) with an innerness
decision for every commutator, the exact inner rank (one integer solve,
:func:`inner_vectors`, which :func:`inner_lattice` and the partially
symmetric family share, on the echelon of :mod:`raagvcd.zmatrix`) that
turns that set into a lower-bound witness, and the projection to / lift
from the free groups on vertex links used in the tree case.  A projection
is itself a :class:`RaagAutomorphism`, over the edgeless graph on the
link: an automorphism of the link's free group.

Conventions fixed once here: ``compose(phi, psi)`` applies ``psi`` first,
and conjugation by a word ``w`` sends ``x`` to ``w x w^-1``.

A map stores images only for its *support*, the nodes it moves: a dict
from node code to the reduced image as signed codes of the graph (see
:mod:`raagvcd.words`), the identity on every other node implicit.  The
constructor reduces what it is given and :func:`compose` keeps the reduced
results of applying ``phi`` without reducing them again.
Reduced words for one element are shuffles of one another, so a reduced
image equals ``x`` exactly when it is the one-letter word ``x``, and that
image is not stored.  ``images`` and ``inverse_images`` read as maps from
every node name to a word.  Work is done over supports only:

* ``compose(phi, psi)`` maps only ``psi``'s support through ``phi``; any
  other ``x`` has ``psi(x) = x``, so ``phi(psi(x))`` is ``phi``'s image
  of ``x``, stored or implicit.
* ``equals`` compares the union of the two supports; outside it both
  images are ``x``.  Stored images are reduced, so they go to the
  equality routes of :mod:`raagvcd.words` as they are.
* ``respects_relations`` checks the edges that meet the support; the
  images of an edge with both ends fixed are its ends, which commute.

Both commuting families, the generator set of Out(A_Gamma) and the
partially symmetric family of ``psigma``, are checked by one loop,
:func:`pairwise_commutation`, over the pairs in which one map touches what
the other moves, listed from an index of nodes to maps
(:func:`meeting_pairs`); every other pair commutes exactly.  A meeting
pair of maps that each send every moved node ``x`` to ``l x r``, for one
pair of words per map, commutes exactly when one of two lemmas on masks
holds (:func:`_commute_by_flanks`, with the proofs); that settles almost
every pair of a generator set.  Every other meeting pair builds its two
composites, and a composite keeps a factor's stored image object wherever
the other factor fixes all of its letters, so most of their node
comparisons are of one object with itself.  The loop keeps one table of
those self-comparisons and passes it to ``equals`` (which says why that is
exact); the table holds only images the maps already store.
:func:`inner_vectors` keeps none: it compares composites with targets
built apart from the generators, which never share an image object with
them.

A map is a value: every slot is set once, when it is built, and no method
writes one afterwards.  Transvections, partial conjugations and
:func:`inner_automorphism` store inverse images, and ``inverse()`` swaps
them with the images.  A composite records its two factors instead, and
its ``inverse()`` is ``compose(psi.inverse(), phi.inverse())``, built
again on every call.  The conjugations that :func:`inner_lattice` and
``psigma.outer_rank`` solve for, and :func:`project_local`'s maps, store
images only: nothing reads their inverses.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .graph_core import (
    CoreSubgraph,
    DefiningGraph,
    GraphError,
    PieceDecomposition,
    StructureAnomalyError,
    _codes,
    _components,
    _leaf_mask,
    gamma_zero,
    pieces,
)
from .words import (
    RaagWord,
    _equal_codes,
    _front_positions,
    _inverse,
    _reduced_codes,
    _word,
    empty_word,
    equal,
    generator,
)
from .zmatrix import echelon

Images = dict[int, tuple[int, ...]]
# Self-comparisons already decided: ``id(image) -> image`` (see ``equals``).
Decided = dict[int, tuple[int, ...]]


class AutomorphismError(GraphError):
    """Construction or composition over mismatched graphs, or a base edge
    or core subgraph that cannot carry the generator set."""


class LiftError(AutomorphismError):
    """Lift construction failed or violated its projection postconditions."""


def _image_map(g: DefiningGraph, moved: Images) -> Mapping[str, RaagWord]:
    """Every node, in graph order, to its image word."""
    code = g.code
    return MappingProxyType(
        {x: _word(g, moved.get(code[x], (code[x],))) for x in g.nodes}
    )


class RaagAutomorphism:
    """An endomorphism given by generator images, usually with stored
    inverse images (or, for a composite, two invertible factors) certifying
    that it is an automorphism.

    Images are stored reduced for the moved nodes only.  The slots are set
    at construction and never written again; equal maps are compared with
    :meth:`equals`, not by identity.
    """

    __slots__ = ("graph", "_images", "_inverse_images", "_factors")

    def __init__(
        self,
        graph: DefiningGraph,
        images: Mapping[str, RaagWord],
        inverse_images: Mapping[str, RaagWord] | None = None,
    ):
        self.graph, self._images = graph, _moved_images(graph, images)
        self._inverse_images = (
            None if inverse_images is None else _moved_images(graph, inverse_images)
        )
        self._factors: tuple[RaagAutomorphism, RaagAutomorphism] | None = None

    @property
    def images(self) -> Mapping[str, RaagWord]:
        """Every node to its image word.  Each read builds the full map, so
        bind it once, or read one image with :meth:`image_of`."""
        return _image_map(self.graph, self._images)

    def image_of(self, node: str) -> RaagWord:
        code = self.graph.code[node]
        return _word(self.graph, self._images.get(code, (code,)))

    def apply(self, w: RaagWord) -> RaagWord:
        """The image of ``w``, reduced."""
        if w.graph is not self.graph:
            raise AutomorphismError("word over a different graph")
        return _word(self.graph, _apply(self, _reduced_codes(self.graph, w.codes)))

    @property
    def inverse_images(self) -> Mapping[str, RaagWord] | None:
        """The images of the inverse, or ``None`` if there is no inverse; a
        composite builds its inverse on each read."""
        return self.inverse().images if self._invertible() else None

    def _invertible(self) -> bool:
        """Whether :meth:`inverse` would succeed, without building it."""
        return self._inverse_images is not None or self._factors is not None

    def inverse(self) -> "RaagAutomorphism":
        if self._inverse_images is not None:
            return _wrap(self.graph, self._inverse_images, self._images)
        if self._factors is not None:
            phi, psi = self._factors
            return compose(psi.inverse(), phi.inverse())
        raise AutomorphismError("no stored inverse")

    def is_identity(self) -> bool:
        """Whether every generator is fixed: the support is empty."""
        return not self._images

    def moved_nodes(self) -> tuple[str, ...]:
        """Nodes whose image is not the generator itself, in graph order."""
        code = self.graph.code
        return tuple(x for x in self.graph.nodes if code[x] in self._images)

    def equals(
        self, other: "RaagAutomorphism", decided: Decided | None = None
    ) -> bool:
        """Equality as maps, decided by both routes of :func:`equal` on
        every node either map moves; every other node is sent to itself by
        both.  The stored images are reduced, so they go to the routes as
        they are.

        ``decided`` is a table of self-comparisons that a caller keeps over
        a loop of calls.  When both maps hold one image object at a node,
        the first comparison runs both routes, and only once they have said
        equal is the object recorded, by identity; later comparisons of that
        object with itself are skipped.  That is exact: an image is an
        immutable tuple, so the decision on it cannot change, and the table
        holds the object, so its ``id`` is not reused while the table lives.
        The table holds only images that the maps already store.
        """
        if self.graph is not other.graph:
            return False
        g, mine, theirs = self.graph, self._images, other._images
        for c in sorted(mine.keys() | theirs.keys()):
            u, v = mine.get(c, (c,)), theirs.get(c, (c,))
            same = u is v and decided is not None
            if same and id(u) in decided:
                continue
            if not _equal_codes(g, u, v):
                return False
            if same:
                decided[id(u)] = u
        return True

    def respects_relations(self) -> bool:
        """Adjacent generators must have commuting images.  An edge with
        both ends fixed maps to itself, so only edges at the support are
        checked, each once."""
        g, images = self.graph, self._images
        for x, u in images.items():
            nbrs = g.adj[x]
            while nbrs:
                y = (nbrs & -nbrs).bit_length()  # the code of the lowest bit
                nbrs &= nbrs - 1
                if y in images and y < x:
                    continue
                v = images.get(y, (y,))
                uv, vu = _reduced_codes(g, u + v), _reduced_codes(g, v + u)
                if not _equal_codes(g, uv, vu):
                    return False
        return True

    def has_verified_inverse(self) -> bool:
        if not self._invertible():
            return False
        inv = self.inverse()
        return compose(self, inv).is_identity() and compose(inv, self).is_identity()

    def __repr__(self) -> str:
        moved = {x: str(self.image_of(x)) for x in self.moved_nodes()}
        return f"RaagAutomorphism({moved or 'identity'})"


def _moved_images(g: DefiningGraph, images: Mapping[str, RaagWord]) -> Images:
    """The reduced images of the nodes that ``images`` moves, by code."""
    out: Images = {}
    for x, img in images.items():
        if x not in g.code:
            raise AutomorphismError(f"image given for non-node {x!r}")
        if img.graph is not g:
            raise AutomorphismError("image word over a different graph")
        code = g.code[x]
        reduced = tuple(_reduced_codes(g, img.codes))
        if reduced != (code,):
            out[code] = reduced
    return out


def _wrap(
    g: DefiningGraph,
    images: Images,
    inverse_images: Images | None,
    factors: tuple[RaagAutomorphism, RaagAutomorphism] | None = None,
) -> RaagAutomorphism:
    """A map from support images already reduced over ``g``, taken as
    they are."""
    phi = object.__new__(RaagAutomorphism)
    phi.graph, phi._images, phi._inverse_images = g, images, inverse_images
    phi._factors = factors
    return phi


def _apply(phi: RaagAutomorphism, codes: Sequence[int]) -> tuple[int, ...]:
    """``phi`` applied to reduced codes, reduced; codes with no letter in
    the support come back as they are."""
    images = phi._images
    out: list[int] = []
    moved = False
    for c in codes:
        img = images.get(c if c > 0 else -c)
        if img is None:
            out.append(c)
        else:
            out.extend(img if c > 0 else _inverse(img))
            moved = True
    return tuple(_reduced_codes(phi.graph, out)) if moved else tuple(codes)


def identity_automorphism(g: DefiningGraph) -> RaagAutomorphism:
    return RaagAutomorphism(g, {}, {})


def _flanking(
    g: DefiningGraph,
    left: tuple[int, ...],
    nodes: Sequence[int],
    right: tuple[int, ...],
    inverse: bool = True,
) -> RaagAutomorphism:
    """``x -> left x right`` on the node codes ``nodes``, every other node
    fixed: the one builder of transvections (one node, one side empty),
    partial conjugations (``right = left^-1``) and inner maps (every node).

    With ``inverse`` the map stores ``x -> left^-1 x right^-1`` as its
    inverse images, which are the inverse's when the map fixes ``left`` and
    ``right``, as for every caller (``has_verified_inverse`` checks it);
    without, it stores images only.

    When ``left`` and ``right`` hold one letter between them, of a
    generator that is not a node of ``nodes``, as for a transvection, every
    image is two letters of distinct generators and has no cancellable
    pair, so none is reduced; partial conjugations and inner maps are.
    """
    if len(left) + len(right) == 1 and abs((left or right)[0]) not in nodes:
        back_left, back_right = _inverse(left), _inverse(right)
        return _wrap(
            g,
            {c: (*left, c, *right) for c in nodes},
            {c: (*back_left, c, *back_right) for c in nodes} if inverse else None,
        )

    def flank(a: tuple[int, ...], b: tuple[int, ...]) -> Images:
        out: Images = {}
        for c in nodes:
            img = _reduced_codes(g, (*a, c, *b))
            if img != [c]:
                out[c] = tuple(img)
        return out

    return _wrap(
        g, flank(left, right), flank(_inverse(left), _inverse(right)) if inverse else None
    )


def inner_automorphism(g: DefiningGraph, w: RaagWord) -> RaagAutomorphism:
    """Conjugation by ``w``: every node maps to ``w x w^-1``."""
    if w.graph is not g:
        raise AutomorphismError("word over a different graph")
    return _flanking(g, w.codes, range(1, g.num_nodes + 1), _inverse(w.codes))


def partial_conjugation(
    g: DefiningGraph, by: str, support: Iterable[str]
) -> RaagAutomorphism:
    """Conjugate the nodes of ``support`` by the generator ``by``."""
    t = generator(g, by).codes
    support = sorted(support)
    unknown = set(support) - g.code.keys()
    if unknown:
        raise AutomorphismError(f"cannot conjugate non-nodes {sorted(unknown)}")
    return _flanking(g, t, [g.code[x] for x in support], _inverse(t))


def transvection(
    g: DefiningGraph, node: str, target: str, side: str = "right"
) -> RaagAutomorphism:
    """``node -> node*target`` (right) or ``node -> target*node`` (left)."""
    if side not in ("right", "left"):
        raise AutomorphismError(f"bad transvection side {side!r}")
    x, t = generator(g, node).codes, generator(g, target).codes
    return _flanking(g, (), x, t) if side == "right" else _flanking(g, t, x, ())


def compose(phi: RaagAutomorphism, psi: RaagAutomorphism) -> RaagAutomorphism:
    """``compose(phi, psi)(x) = phi(psi(x))``: right-to-left application.

    Only ``psi``'s support is mapped through ``phi``; every other node
    keeps ``phi``'s image.  When both factors are invertible the result
    keeps them, and its inverse is ``compose(psi.inverse(), phi.inverse())``.
    """
    if psi.graph is not phi.graph:
        raise AutomorphismError("automorphisms over different graphs")
    images = dict(phi._images)
    for code, img in psi._images.items():
        mapped = _apply(phi, img)
        if mapped == (code,):
            images.pop(code, None)
        else:
            images[code] = mapped
    factors = (phi, psi) if phi._invertible() and psi._invertible() else None
    return _wrap(phi.graph, images, None, factors)


def _verifies_conjugator(phi: RaagAutomorphism, cand: RaagWord) -> bool:
    """Whether conjugation by ``cand`` gives ``phi``'s image on every node,
    the moved ones first."""
    g, images = phi.graph, phi._images
    c, c_inv = cand.codes, _inverse(cand.codes)
    nodes = sorted(range(1, len(g.names) + 1), key=lambda x: x not in images)
    return all(
        _equal_codes(
            g, images.get(x, (x,)), tuple(_reduced_codes(g, (*c, x, *c_inv)))
        )
        for x in nodes
    )


def inner_conjugator(phi: RaagAutomorphism) -> RaagWord | None:
    """Decide whether ``phi`` is inner: return a word ``g`` with
    ``phi(x) = g x g^-1`` for every generator, or ``None`` if there is none.

    Greedy length descent on ``L(phi)``, the sum over nodes of the reduced
    lengths ``|phi(x)|``: while ``phi`` is not the identity, replace it by
    ``x -> a^-1 phi(x) a`` for the first candidate ``a`` that lowers ``L``,
    the candidates being the first letters of the images in (name,
    exponent) order.  The answer is the product of the chosen letters,
    verified once against every generator; a failed verification raises
    :class:`StructureAnomalyError`.

    The decision is exact on every defining graph.  If ``phi`` is inner, let
    ``g`` be a shortest conjugator.  Its first letter ``a`` is not central,
    or ``a^-1 g`` would be a shorter conjugator.  That letter leads
    ``phi(x)`` for every ``x`` outside ``st(a)``, so conjugating back by
    ``a`` shortens each of those images by 2 and lengthens none inside
    ``st(a)``: some candidate lowers ``L`` until ``phi`` is the identity.
    Composing with an inner map keeps a map inner and a non-inner map
    non-inner, so the loop ends after at most ``L/2`` steps, at the
    identity exactly when ``phi`` is inner.
    """
    g = phi.graph
    images = [phi._images.get(x, (x,)) for x in range(1, len(g.names) + 1)]
    chosen: list[int] = []
    while any(img != (x,) for x, img in enumerate(images, 1)):
        length = sum(map(len, images))
        firsts = {img[i] for img in images for i in _front_positions(g, img)}
        for a in sorted(firsts, key=lambda c: (abs(c), c)):
            trial = [tuple(_reduced_codes(g, (-a, *img, a))) for img in images]
            if sum(map(len, trial)) < length:
                images = trial
                chosen.append(a)
                break
        else:
            return None
    conjugator = _word(g, tuple(_reduced_codes(g, chosen)))
    if not _verifies_conjugator(phi, conjugator):
        raise StructureAnomalyError(
            f"length descent produced {conjugator}, which fails verification"
        )
    return conjugator


def _orient_toward(core: CoreSubgraph, base: tuple[int, int]) -> dict[int, int]:
    """Breadth-first search over the core from both ends of ``base``,
    neighbours in code (so sorted) order: each core node's parent, the ends
    each other's, all by code."""
    g = core.graph
    v0, w0 = base
    left = core.nodes ^ g.bit[v0] ^ g.bit[w0]
    parent = {v0: w0, w0: v0}
    queue = [v0, w0]
    for u in queue:  # grows as the search reaches new nodes
        reached = g.adj[u] & left
        left ^= reached
        for c in _codes(reached):
            parent[c] = u
            queue.append(c)
    if left:
        raise AutomorphismError("core subgraph is not connected")
    return parent


KIND_PARTIAL_CONJUGATION = "partial_conjugation"
KIND_LEAF_RIGHT_NEIGHBOR = "leaf_transvection_neighbor"
KIND_LEAF_RIGHT_TOWARD = "leaf_transvection_toward_base"
KIND_TRANSVECTION_RIGHT = "transvection_right"
KIND_TRANSVECTION_LEFT = "transvection_left"


@dataclass(frozen=True)
class GeneratorEntry:
    kind: str
    label: str
    automorphism: RaagAutomorphism


@dataclass(frozen=True)
class CommutationCertificate:
    """Innerness decision for one commutator of generators.

    ``exact`` means the commutator is the identity map; otherwise
    ``conjugator`` realizes it as a conjugation, and ``conjugator is None``
    (``certified`` false) means the commutator is not inner.
    """

    left: int
    right: int
    conjugator: RaagWord | None
    exact: bool

    @property
    def certified(self) -> bool:
        return self.conjugator is not None

    def to_dict(self) -> dict:
        return {
            "pair": [self.left, self.right],
            "conjugator": str(self.conjugator) if self.conjugator else None,
            "exact": self.exact,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class InnerLatticeResult:
    """Exponent pairs (a, b) such that conjugation by ``v0^a w0^b`` lies
    in the generated subgroup, with the realizing vectors.  The decision is
    exact, so ``complete`` is always true."""

    rank: int
    witnesses: Mapping[tuple[int, int], tuple[int, ...]]
    complete: bool


@dataclass(frozen=True)
class GeneratorSet:
    graph: DefiningGraph
    base_edge: tuple[str, str]
    entries: tuple[GeneratorEntry, ...]
    certificates: Mapping[tuple[int, int], CommutationCertificate] | None
    inner: InnerLatticeResult | None

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def inner_rank(self) -> int:
        if self.inner is None:
            raise AutomorphismError("inner lattice was not computed")
        return self.inner.rank

    @property
    def outer_rank(self) -> int:
        return self.count - self.inner_rank

    def automorphisms(self) -> list[RaagAutomorphism]:
        return [entry.automorphism for entry in self.entries]

    def uncertified_pairs(self) -> list[tuple[int, int]]:
        if self.certificates is None:
            return []
        return sorted(k for k, c in self.certificates.items() if not c.certified)

    def to_dict(self) -> dict:
        out: dict = {
            "base_edge": list(self.base_edge),
            "generators": [{"kind": e.kind, "label": e.label} for e in self.entries],
            "count": self.count,
        }
        if self.certificates is not None:
            out["commutation_certificates"] = [
                c.to_dict() for _, c in sorted(self.certificates.items())
            ]
        if self.inner is not None:
            out["inner_rank"] = self.inner.rank
            out["outer_rank"] = self.outer_rank
            out["inner_witnesses"] = {
                f"{a},{b}": list(vec) for (a, b), vec in sorted(self.inner.witnesses.items())
            }
        return out


def generator_count(
    g: DefiningGraph, core: CoreSubgraph, decomposition: PieceDecomposition
) -> int:
    """The size of the set :func:`build_generator_set` emits for ``g``:
    ``(pieces - 1) + 2(nodes - core nodes)``, known before any map is
    built."""
    return (decomposition.count - 1) + 2 * (g.num_nodes - core.num_nodes)


def build_generator_set(
    g: DefiningGraph,
    core: CoreSubgraph | None = None,
    decomposition: PieceDecomposition | None = None,
    base_edge: tuple[str, str] | None = None,
    *,
    certify: bool = True,
) -> GeneratorSet:
    """Emit the commuting generator set attached to ``base_edge``.

    ``base_edge`` must be an edge of the core subgraph.  By default it is
    the edge with the fewest hub endpoints, least by name among those,
    which realizes the strongest lower-bound case reachable for the graph.
    Each core node's toward-base neighbour is its parent in the
    breadth-first search of the core from both base endpoints, neighbours
    in sorted order, the endpoints pointing at each other.  Each non-leaf
    node outside the core is transvected by a dominating core node: the
    least by name among the unique-maximal ones, or among all core nodes
    if none is unique-maximal.

    One partial conjugation per (core node, component of the graph minus it
    not containing its toward-base neighbour); two transvections per leaf;
    two per non-leaf node outside the core.  The count must come out to
    ``(pieces - 1) + 2(nodes - core nodes)``, and every generator must
    respect the relations and have a verified inverse; these are internal
    invariants, so a failure raises :class:`StructureAnomalyError`.  With
    ``certify`` set the commutation certificates and inner lattice rank are
    populated.
    """
    if core is None:
        core = gamma_zero(g)
    if decomposition is None:
        decomposition = pieces(g)
    if core.graph is not g or decomposition.graph is not g:
        raise AutomorphismError("core or decomposition of another graph")
    if not core.edges:
        raise AutomorphismError("core subgraph has no edges")
    names, bit, rows = g.names, g.bit, g.adj
    if base_edge is None:
        # The edges are sorted, so the first with the fewest hub ends is the
        # least by name among those.
        hubs = decomposition.hubs
        base = min(
            core.edges, key=lambda e: ((bit[e[0]] | bit[e[1]]) & hubs).bit_count()
        )
        base_edge = (names[base[0] - 1], names[base[1] - 1])
    # ``get``: a name that is not a node is refused as not a core edge.
    elif tuple(sorted(g.code.get(v, 0) for v in base_edge)) not in core.edges:
        raise AutomorphismError(
            f"base edge {base_edge} is not an edge of the core subgraph"
        )
    toward = _orient_toward(core, (g.code[base_edge[0]], g.code[base_edge[1]]))

    # Every map is built from codes by ``_flanking``, as the public
    # constructors build it once they have resolved the names.
    entries: list[GeneratorEntry] = []
    for c in _codes(core.nodes):
        t = toward[c]
        for comp in _components(rows, g.full ^ bit[c]):
            if not comp & bit[t]:
                support = list(_codes(comp))
                phi = _flanking(g, (t,), support, (-t,))
                label = f"conj[{names[t - 1]}]({','.join(names[s - 1] for s in support)})"
                entries.append(GeneratorEntry(KIND_PARTIAL_CONJUGATION, label, phi))

    leaves = _leaf_mask(g)
    for c in _codes(leaves):
        u, nbr = names[c - 1], rows[c].bit_length()  # its one neighbour
        targets = (KIND_LEAF_RIGHT_NEIGHBOR, nbr), (KIND_LEAF_RIGHT_TOWARD, toward[nbr])
        for kind, t in targets:
            phi = _flanking(g, (), (c,), (t,))
            label = f"transv_right({u} by {names[t - 1]})"
            entries.append(GeneratorEntry(kind, label, phi))

    for c in _codes(g.full & ~core.nodes & ~leaves):
        # The other nodes whose links contain p's: its dominators.
        p, doms = names[c - 1], g.above(rows[c]) & ~bit[c]
        pick = doms & core.unique_maximal or doms & core.nodes
        if not pick:
            raise AutomorphismError(f"no core node dominates {p!r}")
        t = (pick & -pick).bit_length()
        sides = (
            (KIND_TRANSVECTION_RIGHT, "right", (), (t,)),
            (KIND_TRANSVECTION_LEFT, "left", (t,), ()),
        )
        for kind, side, left, right in sides:
            phi = _flanking(g, left, (c,), right)
            label = f"transv_{side}({p} by {names[t - 1]})"
            entries.append(GeneratorEntry(kind, label, phi))

    expected = generator_count(g, core, decomposition)
    if len(entries) != expected:
        raise StructureAnomalyError(
            f"generator count {len(entries)} != expected {expected}"
        )
    for entry in entries:
        if not entry.automorphism.respects_relations():
            raise StructureAnomalyError(
                f"generator {entry.label} does not respect the relations"
            )
        if not entry.automorphism.has_verified_inverse():
            raise StructureAnomalyError(
                f"generator {entry.label} has no verified inverse"
            )

    gs = GeneratorSet(g, base_edge, tuple(entries), certificates=None, inner=None)
    if certify:
        gs = replace(gs, certificates=verify_commuting(gs), inner=inner_lattice(gs))
    return gs


def meeting_pairs(maps: Sequence[RaagAutomorphism]) -> list[tuple[int, int]]:
    """The pairs ``i < j`` of ``maps``, over one graph, in order, in which
    one map moves a node that the other moves or holds in an image.

    Every other pair commutes exactly: each composite would keep the other
    factor's image object at every node.  The pairs are read from an index
    of each node to the maps that move it and the maps that reach it (move
    it or hold it in an image), as bit masks over the maps, so no pair that
    does not meet is visited.
    """
    if not maps:
        return []
    size = maps[0].graph.num_nodes + 1
    movers, reachers = [0] * size, [0] * size
    reach = []
    for i, a in enumerate(maps):
        letters = {abs(c) for x, w in a._images.items() for c in (x, *w)}
        for x in a._images:
            movers[x] |= 1 << i
        for y in letters:
            reachers[y] |= 1 << i
        reach.append(letters)
    pairs = []
    for i, a in enumerate(maps):
        meet = 0
        for y in reach[i]:
            meet |= movers[y]
        for x in a._images:
            meet |= reachers[x]
        meet >>= i + 1
        while meet:
            low = meet & -meet
            pairs.append((i, i + low.bit_length()))
            meet ^= low
    return pairs


# A map's flank shape ``(S, F, L, st(l), R, st(r), conj)``: see _flank_shape.
Flanks = tuple[int, int, int, int, int, int, bool]


def _flank_shape(a: RaagAutomorphism) -> Flanks | None:
    """The flank shape of ``a``: words ``l`` and ``r`` such that every
    stored image is exactly ``l x r``, read from the first image split at
    its first ``x`` and checked on the others; ``None`` if there are none
    (an inner map whose images reduced unevenly, say) or ``a`` moves no
    node.

    Returned as masks: the support ``S``; the letters ``F`` of ``l`` and
    ``r``; the letters ``L`` of ``l`` and ``st(l)``, the nodes that commute
    with every one of them; the same two for ``r``; and whether
    ``r = l^-1``.  The nodes ``a`` moves or holds are ``S | F``.
    """
    images = a._images
    if not images:
        return None
    x, w = next(iter(images.items()))
    if x not in w:
        return None
    k = w.index(x)
    left, right = w[:k], w[k + 1 :]
    g = a.graph
    bit, star = g.bit, g.star
    support = 0
    for y, v in images.items():
        if v != (*left, y, *right):
            return None
        support |= bit[y]
    letters_l = letters_r = 0
    st_l = st_r = g.full
    for c in left:
        letters_l |= bit[c]
        st_l &= star[c]
    for c in right:
        letters_r |= bit[c]
        st_r &= star[c]
    return (
        support, letters_l | letters_r, letters_l, st_l, letters_r, st_r,
        right == _inverse(left),
    )


def _commute_by_flanks(a: Flanks | None, b: Flanks | None) -> bool:
    """Whether two maps with the flank shapes ``a`` and ``b`` commute by
    one of two lemmas.  ``False`` says only that neither lemma applies.

    Write ``a(x) = l_a x r_a`` on ``S_a`` and ``a(x) = x`` elsewhere, and
    likewise ``b``.

    *Flank lemma.*  Let ``F_a`` miss ``S_b`` and ``F_b`` miss ``S_a``, so
    each map fixes the other's flank letters.  On ``S_b`` outside ``S_a``,
    ``a(b(x)) = a(l_b x r_b) = l_b x r_b = b(a(x))``; symmetrically on
    ``S_a`` outside ``S_b``, and both send any other node to itself.  On
    ``S_a & S_b``, ``a(b(x)) = l_b l_a x r_a r_b`` and ``b(a(x)) = l_a l_b
    x r_b r_a``, which are equal when every letter of ``l_a`` commutes
    with every letter of ``l_b`` and likewise ``r_a`` with ``r_b``: both
    are ``l_a l_b x r_b r_a``.

    *Conjugation lemma, either way round.*  Let ``r_a = l_a^-1 = u^-1``,
    let ``b`` move no letter of ``u``, and let every node ``b`` moves or
    holds (``S_b | F_b``) lie in ``S_a`` or in ``st(u)``.  Then ``a`` acts
    as conjugation by ``u`` on each of those nodes: by its images on
    ``S_a``, and on ``st(u)`` because it fixes the node, which commutes
    with ``u``.  So on ``S_b``, ``a(b(x)) = u b(x) u^-1``, and ``b(a(x)) =
    b(u x u^-1) = u b(x) u^-1`` since ``b`` fixes ``u``.  Off ``S_b``,
    ``b`` fixes ``x`` and, on ``S_a``, ``u x u^-1``: both composites give
    ``a(x)``.
    """
    if a is None or b is None:
        return False
    sa, fa, la, st_la, ra, st_ra, conj_a = a
    sb, fb, lb, st_lb, rb, st_rb, conj_b = b
    a_fixes_fb, b_fixes_fa = not fb & sa, not fa & sb
    return (
        a_fixes_fb
        and b_fixes_fa
        and (not sa & sb or not (lb & ~st_la or rb & ~st_ra))
        or b_fixes_fa and conj_a and not (sb | fb) & ~(sa | st_la)
        or a_fixes_fb and conj_b and not (sa | fa) & ~(sb | st_lb)
    )


def pairwise_commutation(maps: Sequence[RaagAutomorphism]) -> Iterator[tuple[int, int, bool]]:
    """Yield ``(i, j, exact)`` for each of the :func:`meeting_pairs` of
    ``maps``, in order: whether the pair's two composites are equal maps.
    A pair that :func:`_commute_by_flanks` settles from the flank shapes,
    read once per loop, builds no composite; the comparisons of every other
    pair's composites share one table of decided self-comparisons."""
    shapes = [_flank_shape(a) for a in maps]
    decided: Decided = {}
    for i, j in meeting_pairs(maps):
        a, b = maps[i], maps[j]
        settled = _commute_by_flanks(shapes[i], shapes[j])
        yield i, j, settled or compose(a, b).equals(compose(b, a), decided)


def verify_commuting(gs: GeneratorSet) -> dict[tuple[int, int], CommutationCertificate]:
    """Decide innerness of every pairwise commutator of the generators.

    A pair that does not meet commutes exactly (:func:`meeting_pairs`);
    :func:`pairwise_commutation` decides the others.  The exact pairs'
    certificates share one empty conjugator (words are immutable); the
    commutator ``ab (ba)^-1`` of any other pair goes to
    :func:`inner_conjugator`.
    """
    autos, certs = gs.automorphisms(), {}
    identity = empty_word(gs.graph)
    verdicts = {(i, j): exact for i, j, exact in pairwise_commutation(autos)}
    for i, j in combinations(range(len(autos)), 2):
        exact = verdicts.get((i, j), True)
        if exact:
            conj = identity
        else:
            a, b = autos[i], autos[j]
            conj = inner_conjugator(compose(compose(a, b), compose(b, a).inverse()))
        certs[(i, j)] = CommutationCertificate(i, j, conj, exact)
    return certs


def _lattice_invariant(phi: RaagAutomorphism) -> dict[tuple, int]:
    """The additive invariant ``c(phi)`` that :func:`inner_lattice` solves
    over, as a sparse map from key to value.

    For each node ``x`` in the stored support of ``phi``, the reduced
    image must hold the letter ``x`` exactly once, with exponent +1;
    anything else is an unreadable image and raises
    :class:`StructureAnomalyError`.  Every other letter ``h`` of the image
    adds its exponent under ``(x, h)``, and, when ``h`` is outside
    ``st(x)``, also under ``(x, h, "L")`` or ``(x, h, "R")`` by its side of
    ``x``.  Keys hold node codes; names appear only in the error message.
    Reduced words for one element are shuffles of one another and ``h``
    never passes ``x``, so the sides are well defined.
    """
    g = phi.graph
    star, bit = g.star, g.bit
    out: dict[tuple, int] = {}
    for x, letters in phi._images.items():
        at = [i for i, c in enumerate(letters) if c == x or c == -x]
        if len(at) != 1 or letters[at[0]] != x:
            name = g.names[x - 1]
            raise StructureAnomalyError(
                f"image {_word(g, letters)} of {name!r} does not hold {name!r} "
                "exactly once with exponent +1"
            )
        (k,) = at
        for i, c in enumerate(letters):
            if i == k:
                continue
            e, key = (1 if c > 0 else -1), (x, abs(c))
            out[key] = out.get(key, 0) + e
            if not star[x] & bit[c]:
                key = (*key, "L" if i < k else "R")
                out[key] = out.get(key, 0) + e
    return {key: v for key, v in out.items() if v}


def _solve_over_z(
    columns: Sequence[Mapping[tuple, int]], rhs: Sequence[Mapping[tuple, int]]
) -> list[tuple[int, ...] | None]:
    """For each right-hand side ``b``, the integer vector ``e`` with
    ``sum_i e[i] * columns[i] == b``, or ``None`` if there is none.

    One :func:`~raagvcd.zmatrix.echelon` over the unknowns' columns serves
    every right-hand side.  Its integer row operations keep the set of
    integer solutions, so back substitution that divides exactly finds the
    solution whenever there is one.  The columns must be independent, which
    makes that solution unique; if they are not (a column has no pivot),
    :class:`StructureAnomalyError` is raised.
    """
    n = len(columns)
    rows_by_key: dict[tuple, dict[int, int]] = {}
    for j, col in enumerate((*columns, *rhs)):
        for key, v in col.items():
            rows_by_key.setdefault(key, {})[j] = v
    pivots, rest = echelon(list(rows_by_key.values()), range(n))
    if len(pivots) < n:
        raise StructureAnomalyError("inner-lattice columns are dependent")

    def back_substitute(k: int) -> tuple[int, ...] | None:
        if any(k in r for r in rest):
            return None  # inconsistent in a row with no pivot
        e = [0] * n
        for j in reversed(range(n)):
            pivot = pivots[j]
            s = pivot.get(k, 0) - sum(
                v * e[i] for i, v in pivot.items() if j < i < n
            )
            if s % pivot[j]:
                return None
            e[j] = s // pivot[j]
        return tuple(e)

    return [back_substitute(k) for k in range(n, n + len(rhs))]


def inner_vectors(
    autos: Sequence[RaagAutomorphism], targets: Sequence[RaagAutomorphism]
) -> list[tuple[int, ...] | None]:
    """For each target, the exponent vector ``e`` such that the composite
    applying ``autos[0]^e[0]`` first and ``autos[-1]^e[-1]`` last equals
    it, or ``None`` if there is none.

    The caller vouches that :func:`_lattice_invariant` is additive on the
    subgroup the maps generate and on the targets.  Then a target equal to
    a product has ``c(target) = sum_i e[i] c(autos[i])``.  The columns
    ``c(autos[i])`` must be independent (:func:`_solve_over_z` raises
    :class:`StructureAnomalyError` otherwise), so ``e`` is the only
    candidate, and it is kept only if the full composition equals the
    target.
    """
    solutions = _solve_over_z(
        [_lattice_invariant(a) for a in autos],
        [_lattice_invariant(t) for t in targets],
    )
    out: list[tuple[int, ...] | None] = []
    for target, vector in zip(targets, solutions):
        if vector is not None:
            # Bracketed from the last factor, each compose maps only one
            # factor's support.
            full = identity_automorphism(target.graph)
            for a, e in reversed(list(zip(autos, vector))):
                if e:
                    full = compose(full, _power_automorphism(a, e))
            if not full.equals(target):
                vector = None
        out.append(vector)
    return out


def inner_lattice(gs: GeneratorSet) -> InnerLatticeResult:
    """Decide which conjugations by ``v0^a w0^b``, for ``(a, b)`` in
    (1, 0), (0, 1), (1, 1) and (1, -1), lie in the subgroup ``H`` generated
    by the generator set, and return the rank of those pairs.

    The decision is one linear solve over the integers.  The invariant ``c``
    of :func:`_lattice_invariant` is additive on ``H``:

    * every letter other than ``x`` in the image of ``x`` under a generator
      is a core node (the partial-conjugation targets, the leaf targets and
      the dominating targets all are), and every generator sends each core
      node to a conjugate of itself by core letters;
    * so ``H`` keeps the class in ``H_1`` of every word in core letters.
      For ``x`` outside the core, ``P(Q(x)) = P(u) P(x) P(v)`` when
      ``Q(x) = u x v``, with ``P(u)`` and ``u`` of one class and no ``x`` in
      either, and letters outside ``st(x)`` never cross ``x`` while the word
      reduces: ``c(PQ) = c(P) + c(Q)`` at ``x``;
    * for ``x`` in the core, every ``P`` in ``H`` sends ``x`` to
      ``g x g^-1`` with ``g`` in core letters, and ``g_PQ = P(g_Q) g_P``
      modulo the centraliser ``<st(x)>``.  Killing ``st(x)`` minus ``x``
      makes ``x`` a free factor, so a readable image ``u x v`` has the class
      of ``g`` on ``u`` and minus it on ``v`` outside ``st(x)``, and the
      totals at ``x`` are zero: again additive.

    So if conjugation by ``t`` equals ``P(e)``, the product of generator
    powers with exponent vector ``e``, then ``c(conj t) = A e`` with the
    columns ``c(a_i)`` of the generators; :func:`inner_vectors` solves for
    ``e`` and re-checks it.  ``complete`` is always true.
    """
    g = gs.graph
    v0, w0 = (g.code[x] for x in gs.base_edge)
    nodes = range(1, g.num_nodes + 1)
    pairs = ((1, 0), (0, 1), (1, 1), (1, -1))
    # Images only: nothing reads a target's inverse.
    targets = [
        _flanking(g, w, nodes, _inverse(w), inverse=False)
        for w in ((v0,) * a + (w0 if b > 0 else -w0,) * abs(b) for a, b in pairs)
    ]
    solutions = inner_vectors(gs.automorphisms(), targets)
    witnesses = {
        pair: vector for pair, vector in zip(pairs, solutions) if vector is not None
    }

    found = [{i: x for i, x in enumerate(pair) if x} for pair in witnesses]
    rank = len(echelon(found, range(2))[0])
    return InnerLatticeResult(rank=rank, witnesses=witnesses, complete=True)


def _power_automorphism(a: RaagAutomorphism, n: int) -> RaagAutomorphism:
    if n == 0:
        return identity_automorphism(a.graph)
    base = a if n > 0 else a.inverse()
    result = base
    for _ in range(abs(n) - 1):
        result = compose(base, result)
    return result


def project_local(phi: RaagAutomorphism, v: str) -> RaagAutomorphism:
    """The map ``phi`` induces on the free group of the link of ``v``.

    Each link node's image is ``phi``'s image with every letter outside the
    link deleted, freely reduced.  The link spans no edges in a
    triangle-free graph, so its group is free, and the result is a map over
    the edgeless graph on the link: the automorphism of the link's free
    group that ``phi`` induces.  It stores no inverse images, so its
    :meth:`~RaagAutomorphism.inverse` raises.
    """
    g = phi.graph
    lk = sorted(g.link(v))
    if not lk:
        raise AutomorphismError(f"{v!r} has an empty link")
    local = DefiningGraph(tuple(lk), frozenset())
    keep = set(lk)
    images = {
        w: RaagWord(
            local,
            tuple((gen, exp) for gen, exp in phi.image_of(w).letters if gen in keep),
        )
        for w in lk
    }
    return RaagAutomorphism(local, images)


def lift_local(
    g: DefiningGraph,
    v: str,
    conjugators: Mapping[str, RaagWord],
) -> RaagAutomorphism:
    """Lift a link-local conjugating map on a tree to the whole group.

    ``conjugators`` assigns each link node ``w`` a word over the link; the
    lift fixes ``v``, conjugates ``w`` by its word, and conjugates every
    node beyond ``w`` (in the component of the tree minus ``v`` containing
    ``w``) by the same word.  The projection back to ``v`` must reproduce
    the input and every other interior node's projection must be inner
    (:func:`inner_conjugator` finds a conjugator); otherwise
    :class:`LiftError` is raised.
    """
    if not (g.is_connected() and g.num_edges == g.num_nodes - 1):
        raise LiftError("lift construction requires a tree")
    lk = g.link(v)
    if set(conjugators) != set(lk):
        raise LiftError("conjugator data must cover exactly the link")
    words_over_g: dict[str, RaagWord] = {}
    for w_node, c in conjugators.items():
        if any(gen not in lk for gen, _ in c.letters):
            raise LiftError(
                f"conjugator for {w_node!r} uses letters outside the link"
            )
        words_over_g[w_node] = RaagWord(g, c.letters)

    images: dict[str, RaagWord] = {v: generator(g, v)}
    for comp in g.components(without=v):
        anchors = sorted(comp & lk)
        if len(anchors) != 1:
            raise LiftError("component of the tree minus the node has no anchor")
        c = words_over_g[anchors[0]]
        c_inv = c.inverse()
        for u in comp:
            images[u] = c * generator(g, u) * c_inv
    lifted = RaagAutomorphism(g, images)

    back = project_local(lifted, v)
    for w_node in sorted(lk):
        local_c = RaagWord(back.graph, conjugators[w_node].letters)
        expected = local_c * generator(back.graph, w_node) * local_c.inverse()
        if not equal(back.image_of(w_node), expected):
            raise LiftError(
                f"projection at {v!r} does not reproduce the input on {w_node!r}"
            )
    interior = [u for u in g.nodes if g.degree(u) >= 2 and u != v]
    for u in interior:
        if inner_conjugator(project_local(lifted, u)) is None:
            raise LiftError(
                f"projection at {u!r} is not an inner map of its link"
            )
    return lifted
