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
  images are ``x``.
* ``respects_relations`` checks the edges that meet the support; the
  images of an edge with both ends fixed are its ends, which commute.

A map is a value: every slot is set once, when it is built, and no method
writes one afterwards.  ``inverse()`` swaps the stored images and inverse
images.  A composite records its two factors instead of inverse images,
and its ``inverse()`` is ``compose(psi.inverse(), phi.inverse())``, built
again on every call.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .graph_core import (
    CoreSubgraph,
    DefiningGraph,
    GraphError,
    PieceDecomposition,
    StructureAnomalyError,
    domination_order,
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


class AutomorphismError(GraphError):
    """Construction or composition over mismatched graphs, bad choices."""


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

    def equals(self, other: "RaagAutomorphism") -> bool:
        """Equality as maps, decided by both routes of :func:`equal` on
        every node either map moves; every other node is sent to itself by
        both."""
        if self.graph is not other.graph:
            return False
        mine, theirs = self._images, other._images
        return all(
            _equal_codes(self.graph, mine.get(c, (c,)), theirs.get(c, (c,)))
            for c in sorted(mine.keys() | theirs.keys())
        )

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
                if not _equal_codes(g, u + v, v + u):
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


def _conjugation(
    g: DefiningGraph, w: RaagWord, nodes: Iterable[str]
) -> RaagAutomorphism:
    """Conjugation by ``w`` on ``nodes``: ``x -> w x w^-1``, every other
    node fixed."""
    if w.graph is not g:
        raise AutomorphismError("word over a different graph")
    unknown = set(nodes) - g.code.keys()
    if unknown:
        raise AutomorphismError(f"cannot conjugate non-nodes {sorted(unknown)}")

    def conjugates(a: tuple[int, ...], b: tuple[int, ...]) -> Images:
        images = {c: _reduced_codes(g, (*a, c, *b)) for c in map(g.code.get, nodes)}
        return {x: tuple(img) for x, img in images.items() if img != [x]}

    inv = _inverse(w.codes)
    return _wrap(g, conjugates(w.codes, inv), conjugates(inv, w.codes))


def inner_automorphism(g: DefiningGraph, w: RaagWord) -> RaagAutomorphism:
    """Conjugation by ``w``: every node maps to ``w x w^-1``."""
    return _conjugation(g, w, g.nodes)


def partial_conjugation(
    g: DefiningGraph, by: str, support: Iterable[str]
) -> RaagAutomorphism:
    """Conjugate the nodes of ``support`` by the generator ``by``."""
    return _conjugation(g, generator(g, by), sorted(support))


def transvection(
    g: DefiningGraph, node: str, target: str, side: str = "right"
) -> RaagAutomorphism:
    """``node -> node*target`` (right) or ``node -> target*node`` (left)."""
    if side not in ("right", "left"):
        raise AutomorphismError(f"bad transvection side {side!r}")
    x = generator(g, node)
    t = generator(g, target)
    if side == "right":
        return RaagAutomorphism(g, {node: x * t}, {node: x * t.inverse()})
    return RaagAutomorphism(g, {node: t * x}, {node: t.inverse() * x})


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
        _equal_codes(g, images.get(x, (x,)), (*c, x, *c_inv)) for x in nodes
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


@dataclass(frozen=True)
class GeneratorChoices:
    """The discrete choices the generator set depends on.

    ``base_edge`` is an edge of the core subgraph; ``spanning_tree`` a
    spanning tree of the core containing it.  ``toward_base`` maps each core
    node to its tree-neighbor one step closer to the base edge (the two base
    endpoints point at each other); ``dominating_rep`` assigns each node
    outside the core a dominating core node.
    """

    base_edge: tuple[str, str]
    spanning_tree: frozenset[frozenset[str]]
    toward_base: Mapping[str, str]
    dominating_rep: Mapping[str, str]


def default_choices(
    g: DefiningGraph,
    core: CoreSubgraph,
    decomposition: PieceDecomposition,
    base_edge: tuple[str, str] | None = None,
    spanning_tree: Iterable[frozenset[str]] | None = None,
) -> GeneratorChoices:
    """Build choices; the default base edge prefers non-hub endpoints.

    Preferring an edge whose endpoints are not hubs realizes the strongest
    lower-bound case reachable for the graph.
    """
    core_edges = core.edges
    if not core_edges:
        raise AutomorphismError("core subgraph has no edges")

    if base_edge is None:
        def score(e: frozenset[str]) -> tuple[int, tuple[str, str]]:
            hubs = sum(1 for v in e if decomposition.is_hub(v))
            return (hubs, tuple(sorted(e)))

        best = min(core_edges, key=score)
        v0, w0 = sorted(best)
    else:
        v0, w0 = base_edge
        if frozenset((v0, w0)) not in core_edges:
            raise AutomorphismError(
                f"base edge {base_edge} is not an edge of the core subgraph"
            )

    if spanning_tree is None:
        toward = _orient_toward(core_edges, (v0, w0), core.nodes)
        if len(toward) != core.num_nodes:
            raise AutomorphismError("core subgraph is not connected")
        tree = frozenset(frozenset(e) for e in toward.items())
    else:
        tree = frozenset(frozenset(e) for e in spanning_tree)
        toward = _validate_tree(core, tree, (v0, w0))

    order = domination_order(g)
    dominating: dict[str, str] = {}
    for p in g.nodes:
        if p in core.nodes:
            continue
        doms = order.dominators(p)
        in_unique = sorted(doms & core.unique_maximal)
        in_core = sorted(doms & core.nodes)
        if in_unique:
            dominating[p] = in_unique[0]
        elif in_core:
            dominating[p] = in_core[0]
        else:
            raise AutomorphismError(f"no core node dominates {p!r}")

    return GeneratorChoices(
        base_edge=(v0, w0),
        spanning_tree=tree,
        toward_base=MappingProxyType(toward),
        dominating_rep=MappingProxyType(dominating),
    )


def _validate_tree(
    core: CoreSubgraph, tree: frozenset[frozenset[str]], base: tuple[str, str]
) -> dict[str, str]:
    """Check that ``tree`` spans the core through ``base``; return each core
    node's tree neighbour toward ``base``."""
    if frozenset(base) not in tree:
        raise AutomorphismError("spanning tree does not contain the base edge")
    if not tree <= core.edges:
        raise AutomorphismError("spanning tree uses non-core edges")
    if len(tree) != len(core.nodes) - 1:
        raise AutomorphismError("spanning tree has the wrong number of edges")
    toward = _orient_toward(tree, base, core.nodes)
    if len(toward) != len(core.nodes):
        raise AutomorphismError("spanning tree does not span the core subgraph")
    return toward


def _orient_toward(
    edges: frozenset[frozenset[str]], base: tuple[str, str], nodes: frozenset[str]
) -> dict[str, str]:
    """Breadth-first search over ``edges`` from both ends of ``base``,
    neighbours in sorted order: each reached node's parent, the ends each
    other's."""
    v0, w0 = base
    adj: dict[str, list[str]] = {v: [] for v in nodes}
    for e in edges:
        a, b = sorted(e)
        adj[a].append(b)
        adj[b].append(a)
    toward = {v0: w0, w0: v0}
    queue = [v0, w0]
    while queue:
        u = queue.pop(0)
        for nbr in sorted(adj[u]):
            if nbr not in toward:
                toward[nbr] = u
                queue.append(nbr)
    return toward


KIND_PARTIAL_CONJUGATION = "partial_conjugation"
KIND_LEAF_RIGHT_NEIGHBOR = "leaf_transvection_neighbor"
KIND_LEAF_RIGHT_TOWARD = "leaf_transvection_toward_base"
KIND_TRANSVECTION_RIGHT = "transvection_right"
KIND_TRANSVECTION_LEFT = "transvection_left"


@dataclass(frozen=True)
class GeneratorEntry:
    kind: str
    automorphism: RaagAutomorphism
    provenance: Mapping[str, object]

    def describe(self) -> str:
        p = self.provenance
        if self.kind == KIND_PARTIAL_CONJUGATION:
            supp = ",".join(p["support"])
            return f"conj[{p['by']}]({supp})"
        side = "left" if self.kind == KIND_TRANSVECTION_LEFT else "right"
        return f"transv_{side}({p['node']} by {p['target']})"


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
    choices: GeneratorChoices
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
            "base_edge": list(self.choices.base_edge),
            "generators": [
                {"kind": e.kind, "label": e.describe()} for e in self.entries
            ],
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


def build_generator_set(
    g: DefiningGraph,
    core: CoreSubgraph | None = None,
    decomposition: PieceDecomposition | None = None,
    choices: GeneratorChoices | None = None,
    *,
    certify: bool = True,
) -> GeneratorSet:
    """Emit the commuting generator set determined by ``choices``.

    One partial conjugation per (core node, component of the graph minus it
    not containing its toward-base neighbor); two transvections per leaf;
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
    if choices is None:
        choices = default_choices(g, core, decomposition)
    else:
        _validate_tree(core, choices.spanning_tree, choices.base_edge)

    entries: list[GeneratorEntry] = []

    for v in sorted(core.nodes):
        target = choices.toward_base[v]
        for comp in g.components(without=v):
            if target in comp:
                continue
            entries.append(
                GeneratorEntry(
                    kind=KIND_PARTIAL_CONJUGATION,
                    automorphism=partial_conjugation(g, target, comp),
                    provenance={
                        "node": v,
                        "by": target,
                        "support": tuple(sorted(comp)),
                    },
                )
            )

    for u in sorted(g.leaves):
        (neighbor,) = g.link(u)
        for kind, target in (
            (KIND_LEAF_RIGHT_NEIGHBOR, neighbor),
            (KIND_LEAF_RIGHT_TOWARD, choices.toward_base[neighbor]),
        ):
            entries.append(
                GeneratorEntry(
                    kind=kind,
                    automorphism=transvection(g, u, target, "right"),
                    provenance={"node": u, "target": target},
                )
            )

    outside = sorted(set(g.nodes) - core.nodes - g.leaves)
    for p in outside:
        target = choices.dominating_rep[p]
        for kind, side in (
            (KIND_TRANSVECTION_RIGHT, "right"),
            (KIND_TRANSVECTION_LEFT, "left"),
        ):
            entries.append(
                GeneratorEntry(
                    kind=kind,
                    automorphism=transvection(g, p, target, side),
                    provenance={"node": p, "target": target},
                )
            )

    expected = (decomposition.count - 1) + 2 * (g.num_nodes - core.num_nodes)
    if len(entries) != expected:
        raise StructureAnomalyError(
            f"generator count {len(entries)} != expected {expected}"
        )
    for entry in entries:
        if not entry.automorphism.respects_relations():
            raise StructureAnomalyError(
                f"generator {entry.describe()} does not respect the relations"
            )
        if not entry.automorphism.has_verified_inverse():
            raise StructureAnomalyError(
                f"generator {entry.describe()} has no verified inverse"
            )

    gs = GeneratorSet(
        graph=g,
        choices=choices,
        entries=tuple(entries),
        certificates=None,
        inner=None,
    )
    if certify:
        certs = verify_commuting(gs)
        inner = inner_lattice(gs)
        gs = GeneratorSet(
            graph=g,
            choices=choices,
            entries=gs.entries,
            certificates=certs,
            inner=inner,
        )
    return gs


def verify_commuting(gs: GeneratorSet) -> dict[tuple[int, int], CommutationCertificate]:
    """Decide innerness of every pairwise commutator of the generators.

    A pair commutes exactly when its two composites are equal maps; only
    for the other pairs is the commutator ``ab (ba)^-1`` built and handed
    to :func:`inner_conjugator`.
    """
    autos = gs.automorphisms()
    certs: dict[tuple[int, int], CommutationCertificate] = {}
    for i, a in enumerate(autos):
        for j in range(i + 1, len(autos)):
            b = autos[j]
            ab, ba = compose(a, b), compose(b, a)
            exact = ab.equals(ba)
            comm = None if exact else compose(ab, ba.inverse())
            conj = empty_word(gs.graph) if exact else inner_conjugator(comm)
            certs[(i, j)] = CommutationCertificate(i, j, conj, exact)
    return certs


def _lattice_invariant(phi: RaagAutomorphism) -> dict[tuple, int]:
    """The additive invariant ``c(phi)`` that :func:`inner_lattice` solves
    over, as a sparse map from key to value.

    For each node ``x`` that ``phi`` moves, the reduced image must hold the
    letter ``x`` exactly once, with exponent +1; anything else is an
    unreadable image and raises :class:`StructureAnomalyError`.  Every other
    letter ``h`` of the image adds its exponent under ``(x, h)``, and, when
    ``h`` is outside ``st(x)``, also under ``(x, h, "L")`` or
    ``(x, h, "R")`` by its side of ``x``.  Reduced words for one element are
    shuffles of one another and ``h`` never passes ``x``, so the sides are
    well defined.
    """
    g = phi.graph
    out: dict[tuple, int] = {}
    for x in phi.moved_nodes():
        code = g.code[x]
        letters = phi._images[code]
        at = [i for i, c in enumerate(letters) if c in (code, -code)]
        if len(at) != 1 or letters[at[0]] != code:
            raise StructureAnomalyError(
                f"image {_word(g, letters)} of {x!r} does not hold {x!r} "
                "exactly once with exponent +1"
            )
        for i, c in enumerate(letters):
            if i == at[0]:
                continue
            h = g.names[abs(c) - 1]
            keys = [(x, h)]
            if not g.star[code] & g.bit[c]:
                keys.append((x, h, "L" if i < at[0] else "R"))
            for key in keys:
                out[key] = out.get(key, 0) + (1 if c > 0 else -1)
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
    v0, w0 = gs.choices.base_edge
    pairs = ((1, 0), (0, 1), (1, 1), (1, -1))
    targets = [
        inner_automorphism(
            g, RaagWord(g, ((v0, 1),) * a + ((w0, 1 if b > 0 else -1),) * abs(b))
        )
        for a, b in pairs
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
