"""Blow-up combinatorics at a graph node: ideal edges and their complexes.

The half-edges at a node split into ``r`` inverse pairs (those traversed by
a marked cycle) and ``s`` unpaired ones.  An *ideal edge* is a bipartition
of the half-edges with both sides of size at least two, normalized so that
its ``inside`` contains a fixed basepoint half-edge; it is *legal* when it
separates at most one inverse pair.  Two ideal edges are *compatible* when
some side of one misses some side of the other (the bipartitions are
non-crossing), which is exactly realizability on a common blow-up tree; the
tests certify that equivalence against a brute-force enumeration of
trivalent leaf-labeled trees.

The full complex on all ideal edges and the legal subcomplex are flag
complexes on the compatibility graph.  ``morse_collapse_certificate``
replays a size-ordered collapse of the legal complex onto the star of a
base vertex, checking every descending link is a cone and recursing into
the one-smaller structure at the maximal-size vertices; a passing
certificate establishes contractibility independently of the homology
computation.  It reads the complex's own vertices and rows, and enumerates
each smaller structure once.

Homology is read off a small core of the same homotopy type, found on the
graph alone.  A vertex ``v`` is dominated by ``w != v`` when
N[v] ⊆ N[w] (closed neighbourhoods); then the link of ``v`` is a cone
with apex ``w``, and deleting ``v`` is a strong collapse (Barmak & Minian,
*Strong homotopy types, nerves and collapses*, DCG 47, 2012).  An edge
``uv`` is dominated by ``w`` outside it when N[u] ∩ N[v] ⊆ N[w]; its link
is again a cone, and deleting the edge with every simplex containing it
is an edge collapse (Boissonnat & Pritam, *Edge collapse and persistence
of flag complexes*, SoCG 2020).  Both are sequences of elementary
simplicial collapses, and each leaves the flag complex of the smaller
graph, so the core's flag complex is homotopy equivalent to the whole
one and has the same integral homology.  The core is a subcomplex, so its
dimension is at most the whole complex's; the whole complex then has no
homology above the core's dimension, and padding the core's reduced Betti
numbers with zeros (and its torsion with empty lists) up to the whole
complex's dimension gives exactly the summary of the whole complex.  Every
collapse step is replayed with one mask test before the core is used.

A full complex, whose vertices are all the ideal edges, is tree space: a
wedge of (m-2)! spheres of dimension m-4 on m half-edges.  Nothing in it
collapses, so its homology is read off a sequential element matching on
its simplices instead, in vertex-index order.  On every m from 4 to 9 it
leaves (m-2)! critical cells, all of dimension m-4, which gives the
homotopy type; a run is checked against the Euler characteristic of the
simplex counts and refused if its critical cells lie in adjacent degrees.

Everything on this path is an integer bitmask: an ideal edge carries the
mask of its inside over the half-edges, legality is read off that mask
before an edge is built, compatibility is a subset or covering test on two
masks, a simplex is the mask of its vertex indices, the certificate checks
that its vertices are the legal masks, each once, and replays the collapse
on them, and it matches a maximal vertex's link with the smaller structure
by relabelling masks through two lookup tables.
A complex keeps only its compatibility rows and its simplex count per
dimension, counted level by level with the cliques that share a candidate
mask counted together, and refused above its simplex cap; its simplices
are listed on demand.  Frozensets and vertex tuples appear only at the API
edges (``inside``, ``maximal_simplices``, failure messages) and in the
half-edge names of a smaller structure, which name its certificate's base.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .graph_core import GraphError, StructureAnomalyError
from .homology import HomologySummary, reduced_homology_of_chain


class IdealEdgeError(GraphError):
    """Bad half-edge structure or bipartition."""


class SizeCapError(GraphError):
    """Enumeration beyond the desk-scale caps."""


MAX_HALF_EDGES = 10
DEFAULT_SIMPLEX_CAP = 20000


@dataclass(frozen=True)
class HalfEdgeSet:
    """Half-edges at a node: ``pairs`` of inverse halves plus ``singles``.

    The basepoint is the first half of the first pair when pairs exist,
    otherwise the first single.  Half-edge ``k`` in the order pairs (both
    halves) then singles owns bit ``1 << k``; a set of half-edges is coded
    as the sum of its bits.  ``bit`` (half-edge -> its bit), ``size``,
    ``full`` (the mask of all half-edges), ``universe``, ``pair_masks``
    (both halves of each pair) and ``basepoint`` are computed once, when
    the set is made; they take no part in equality or hashing.
    """

    pairs: tuple[tuple[str, str], ...]
    singles: tuple[str, ...]
    bit: dict[str, int] = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)
    full: int = field(init=False, repr=False, compare=False)
    universe: frozenset[str] = field(init=False, repr=False, compare=False)
    pair_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    basepoint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = [h for p in self.pairs for h in p] + list(self.singles)
        if len(set(ids)) != len(ids):
            raise IdealEdgeError("half-edge ids must be distinct")
        if not ids:
            raise IdealEdgeError("empty half-edge set")
        bit = {h: 1 << k for k, h in enumerate(ids)}
        # The set is frozen, so the derived fields go straight to its dict.
        vars(self).update(
            bit=bit, size=len(ids), full=(1 << len(ids)) - 1, universe=frozenset(ids),
            pair_masks=tuple(bit[x] | bit[y] for x, y in self.pairs), basepoint=ids[0],
        )

    @staticmethod
    def standard(r: int, s: int) -> "HalfEdgeSet":
        """Pairs ``a1/A1 .. ar/Ar`` and singles ``b1 .. bs``.  Negative
        counts, then more than ``MAX_HALF_EDGES`` half-edges, are refused
        before any name is built, so a huge ``2r + s`` costs nothing."""
        if r < 0 or s < 0:
            raise IdealEdgeError("pair/single counts must be nonnegative")
        if 2 * r + s > MAX_HALF_EDGES:
            raise SizeCapError(
                f"{2 * r + s} half-edges exceeds the enumeration cap {MAX_HALF_EDGES}"
            )
        return HalfEdgeSet(
            pairs=tuple((f"a{i}", f"A{i}") for i in range(1, r + 1)),
            singles=tuple(f"b{i}" for i in range(1, s + 1)),
        )

    @property
    def r(self) -> int:
        return len(self.pairs)

    @property
    def s(self) -> int:
        return len(self.singles)

    def partner(self, h: str) -> str | None:
        for x, y in self.pairs:
            if h == x:
                return y
            if h == y:
                return x
        return None


@dataclass(frozen=True)
class IdealEdge:
    """A bipartition of the half-edges, stored by its basepoint side.

    ``mask`` codes ``inside`` in the bits of ``h``; it is computed while the
    bipartition is checked and takes no part in equality or hashing.
    """

    h: HalfEdgeSet
    inside: frozenset[str]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bit = self.h.bit
        mask = 0
        for x in self.inside:
            b = bit.get(x)
            if b is None:
                raise IdealEdgeError("inside contains unknown half-edges")
            mask |= b
        if not mask & bit[self.h.basepoint]:
            raise IdealEdgeError("inside must contain the basepoint")
        if not 2 <= len(self.inside) <= self.h.size - 2:
            raise IdealEdgeError("both sides need at least two half-edges")
        object.__setattr__(self, "mask", mask)

    @property
    def size(self) -> int:
        return len(self.inside)

    @property
    def outside(self) -> frozenset[str]:
        return self.h.universe - self.inside

    def pairs_split(self) -> int:
        return _pairs_split(self.h, self.mask)

    @property
    def legal(self) -> bool:
        return self.pairs_split() <= 1

    def __str__(self) -> str:
        return "{" + ",".join(sorted(self.inside)) + "}"


def _pairs_split(h: HalfEdgeSet, mask: int) -> int:
    """How many pairs of ``h`` the inside ``mask`` separates."""
    split = 0
    for pm in h.pair_masks:
        both = mask & pm
        if both and both != pm:
            split += 1
    return split


def _same_structure(h: HalfEdgeSet, k: HalfEdgeSet) -> None:
    if h is not k and h != k:
        raise IdealEdgeError("ideal edges over different half-edge sets")


def compatible(alpha: IdealEdge, beta: IdealEdge) -> bool:
    """Non-crossing test: some side of one is disjoint from some side of
    the other (equivalently nested insides, or insides covering everything,
    since both insides share the basepoint)."""
    _same_structure(alpha.h, beta.h)
    a, b = alpha.mask, beta.mask
    both = a & b
    return both == a or both == b or (a | b) == alpha.h.full


def enumerate_ideal_edges(h: HalfEdgeSet, legal_only: bool = False) -> list[IdealEdge]:
    """All ideal edges in deterministic (size, lexicographic) order; none
    on fewer than 4 half-edges."""
    a = h.basepoint
    rest = sorted(h.universe - {a})
    bits = [h.bit[x] for x in rest]
    out: list[IdealEdge] = []
    for extra in range(1, h.size - 2):
        for combo, held in zip(combinations(rest, extra), combinations(bits, extra)):
            # Legality is read off the mask before any edge is built.
            if not legal_only or _pairs_split(h, h.bit[a] + sum(held)) <= 1:
                out.append(IdealEdge(h, frozenset((a, *combo))))
    return out


@dataclass(frozen=True)
class SimplicialComplex:
    """A flag complex on ideal-edge vertices, kept as its graph.

    Bit ``j`` of ``rows[i]`` is set when vertices ``i != j`` are
    compatible; the simplices are the cliques of that graph, and
    ``clique_counts[q]`` counts the q-simplices, counted by
    :func:`_clique_counts` without listing any.  They are listed only
    when ``simplices_by_dim`` is first read.
    """

    h: HalfEdgeSet
    vertices: tuple[IdealEdge, ...]
    rows: tuple[int, ...] = field(compare=False, repr=False)
    clique_counts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.clique_counts) - 1

    @property
    def total_simplices(self) -> int:
        return sum(self.clique_counts)

    def counts(self) -> tuple[int, ...]:
        return self.clique_counts

    @property
    def is_full(self) -> bool:
        """Whether every ideal edge is a vertex: the full complex, which is
        also the legal one when there is at most one pair."""
        return len(self.vertices) == 2 ** (self.h.size - 1) - self.h.size - 1

    @cached_property
    def simplices_by_dim(self) -> tuple[tuple[int, ...], ...]:
        """The q-simplices as vertex bitmasks (bit ``i`` stands for
        ``vertices[i]``), each extending its parent by a vertex above the
        parent's highest one."""
        levels = _clique_levels(self.rows, (1 << len(self.rows)) - 1)
        return tuple(map(tuple, levels))

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """The facets as increasing tuples of vertex indices."""
        return [
            _bit_indices(simplex)
            for level in self.simplices_by_dim
            for simplex in level
            if _common_closed(self.rows, simplex) == simplex
        ]


def _bit_indices(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _compatibility_masks(vertices: Sequence[IdealEdge]) -> list[int]:
    """Bit ``j`` of entry ``i`` is set when vertices ``i != j`` are
    compatible; ``vertices`` is not empty.

    Built from ``holding[k]``, the vertices whose inside holds half-edge
    ``k``: the insides around vertex ``i`` hold all of its inside, those
    nested in it hold no half-edge outside it, and those covering the rest
    with it hold every half-edge outside it.
    """
    h = vertices[0].h
    for v in vertices[1:]:
        _same_structure(h, v.h)
    masks = [v.mask for v in vertices]
    every = (1 << len(masks)) - 1
    holding = [0] * h.size
    for i, m in enumerate(masks):
        for k in range(h.size):
            if m >> k & 1:
                holding[k] |= 1 << i
    out = []
    for i, m in enumerate(masks):
        around = cover = every
        touched = 0
        for k in range(h.size):
            if m >> k & 1:
                around &= holding[k]
            else:
                touched |= holding[k]
                cover &= holding[k]
        out.append((around | (every ^ touched) | cover) & ~(1 << i))
    return out


def build_complex(
    h: HalfEdgeSet,
    legal_only: bool = False,
    max_simplices: int = DEFAULT_SIMPLEX_CAP,
) -> SimplicialComplex:
    """Flag complex on all (or only legal) ideal edges.

    ``h`` needs at least 4 half-edges, so that the complex has a vertex
    (:class:`IdealEdgeError` otherwise), and at most ``MAX_HALF_EDGES``;
    the complex is capped at ``max_simplices`` total simplices, vertices
    included (:class:`SizeCapError` beyond either cap).  The simplices are
    counted level by level, and the running total is compared with the cap
    after each level; the count takes one step per distinct candidate mask
    of a level, not per simplex (45,574 steps for the 12,818,911 simplices
    of the full complex on 10 half-edges).
    """
    if h.size < 4:
        raise IdealEdgeError(
            f"a blow-up complex needs at least 4 half-edges (2r + s), got {h.size}"
        )
    if h.size > MAX_HALF_EDGES:
        raise SizeCapError(
            f"{h.size} half-edges exceeds the enumeration cap {MAX_HALF_EDGES}"
        )
    vertices = tuple(enumerate_ideal_edges(h, legal_only))
    rows = tuple(_compatibility_masks(vertices))
    return SimplicialComplex(
        h=h,
        vertices=vertices,
        rows=rows,
        clique_counts=_clique_counts(rows, max_simplices),
    )


def _clique_counts(rows: Sequence[int], max_simplices: int) -> tuple[int, ...]:
    """The number of cliques of each size in the graph with neighbourhood
    ``rows``, refused when their total is above ``max_simplices``.

    The cliques that extend a clique with candidate mask ``m`` (its common
    neighbours above its highest vertex) depend on ``m`` alone: each vertex
    ``v`` of ``m`` gives one clique a size up, whose candidate mask is the
    neighbours of ``v`` in ``m`` above ``v``.  So the count goes level by
    level, each level a dict from a candidate mask to the number of cliques
    of that size that have it, starting from the empty clique with every
    vertex as candidate.  The work is bounded by the distinct masks of each
    level, not by the cliques, and only one level is held at a time.  The
    running total is compared with the cap after each level, so a refused
    complex stops at the first level that passes it.
    """
    counts: list[int] = []
    total = 0
    level = {(1 << len(rows)) - 1: 1}
    while level:
        up: dict[int, int] = {}
        size = 0
        for m, n in level.items():
            size += n * m.bit_count()
            while m:
                low = m & -m
                m ^= low
                if cand := m & rows[low.bit_length() - 1]:
                    up[cand] = up.get(cand, 0) + n
        counts.append(size)
        total += size
        if total > max_simplices:
            raise SizeCapError(f"complex exceeds {max_simplices} simplices")
        level = up
    return tuple(counts)


def _clique_levels(rows: Sequence[int], alive: int) -> list[list[int]]:
    """The cliques of the graph on the vertices in ``alive``, level by
    level.  Each simplex carries the mask of the common neighbours above its
    highest vertex, and every set bit of that mask gives one simplex of the
    next dimension."""
    level = [1 << i for i in _bit_indices(alive)]
    levels: list[list[int]] = [level]
    # Candidates of a vertex: its neighbours above it.
    cands = [(rows[i] >> (i + 1)) << (i + 1) for i in _bit_indices(alive)]
    while True:
        next_level: list[int] = []
        next_cands: list[int] = []
        for simplex, m in zip(level, cands):
            while m:
                low = m & -m
                m ^= low
                # m now holds exactly the candidates above the new vertex.
                next_level.append(simplex | low)
                next_cands.append(m & rows[low.bit_length() - 1])
        if not next_level:
            break
        levels.append(next_level)
        level, cands = next_level, next_cands
    return levels


# ---------------------------------------------------------------------------
# Strong and edge collapses of a flag complex, on its graph alone.

@dataclass(frozen=True)
class FlagCollapse:
    """Collapses of a flag complex and the graph they leave.

    ``steps[t]`` is ``(removed, dominator)``: ``removed`` is the mask of one
    vertex or of the two ends of one edge, and ``dominator`` a vertex
    outside it whose closed neighbourhood holds every vertex adjacent or
    equal to all of ``removed``.  ``alive`` masks the vertices left, and
    ``rows[i]`` is the neighbourhood of vertex ``i`` in what is left (zero
    once ``i`` is removed).
    """

    steps: tuple[tuple[int, int], ...]
    alive: int
    rows: tuple[int, ...]


def _common_closed(rows: Sequence[int], removed: int) -> int:
    """The vertices adjacent or equal to every vertex of ``removed``."""
    common = -1
    while removed:
        low = removed & -removed
        removed ^= low
        common &= rows[low.bit_length() - 1] | low
    return common


def _remove(rows: list[int], removed: int) -> int:
    """Delete a vertex (one bit) or an edge (two bits) from ``rows``;
    returns the mask of the vertices deleted."""
    low = removed & -removed
    high = removed ^ low
    u = low.bit_length() - 1
    if high:
        rows[u] ^= high
        rows[high.bit_length() - 1] ^= low
        return 0
    row = rows[u]
    while row:
        x = row & -row
        row ^= x
        rows[x.bit_length() - 1] ^= low
    rows[u] = 0
    return low


def _dominator(rows: Sequence[int], removed: int) -> int:
    """The lowest vertex dominating the vertex or edge ``removed``, or -1.

    Its dominators are the vertices outside it adjacent or equal to every
    vertex of its common closed neighbourhood C: the AND of N[x] over C.
    The AND stops as soon as it is empty.
    """
    common = _common_closed(rows, removed)
    found = common & ~removed
    m = found
    while m and found:
        low = m & -m
        m ^= low
        found &= rows[low.bit_length() - 1] | low
    return (found & -found).bit_length() - 1


def flag_collapse(rows: Sequence[int]) -> FlagCollapse:
    """Collapse the flag complex of the graph with neighbourhood ``rows``
    by dominated vertices and edges; no simplex is built.

    Vertex passes in index order run to a fixed point, then one edge pass
    over the edges ``(u, v)``, ``u < v``, in order; the two alternate until
    an edge pass removes nothing.  Each step is taken on the graph the
    steps before it left.
    """
    rows = list(rows)
    alive = (1 << len(rows)) - 1
    steps: list[tuple[int, int]] = []
    while True:
        progress = True
        while progress:
            progress = False
            for v in _bit_indices(alive):
                w = _dominator(rows, 1 << v)
                if w >= 0:
                    steps.append((1 << v, w))
                    alive ^= _remove(rows, 1 << v)
                    progress = True
        before = len(steps)
        for u in _bit_indices(alive):
            for v in _bit_indices(rows[u] >> (u + 1) << (u + 1)):
                edge = 1 << u | 1 << v
                w = _dominator(rows, edge)
                if w >= 0:
                    steps.append((edge, w))
                    _remove(rows, edge)
        if len(steps) == before:
            return FlagCollapse(tuple(steps), alive, tuple(rows))


def replay_flag_collapse(
    rows: Sequence[int], steps: Sequence[tuple[int, int]]
) -> FlagCollapse:
    """Re-check every step on the graph with neighbourhood ``rows`` and
    return the core that the replay leaves.

    A step must remove one present vertex or one present edge, and its
    dominator must be a vertex left outside it whose closed neighbourhood
    holds their common closed neighbourhood; otherwise
    :class:`StructureAnomalyError` is raised.
    """
    rows = list(rows)
    n = len(rows)
    alive = (1 << n) - 1
    for removed, w in steps:
        if (
            not 0 < removed.bit_count() <= 2
            or removed & ~alive
            or not 0 <= w < n
            or not (alive & ~removed) >> w & 1
        ):
            raise StructureAnomalyError(
                f"collapse step {_bit_indices(removed)} by {w}: "
                "not a present vertex or edge with another present dominator"
            )
        common = _common_closed(rows, removed)
        if common & removed != removed:
            raise StructureAnomalyError(
                f"collapse step {_bit_indices(removed)}: not an edge"
            )
        if common & ~(rows[w] | 1 << w):
            raise StructureAnomalyError(
                f"collapse step {_bit_indices(removed)}: not dominated by {w}"
            )
        alive ^= _remove(rows, removed)
    return FlagCollapse(tuple(steps), alive, tuple(rows))


def reduced_homology(c: SimplicialComplex) -> HomologySummary:
    """Reduced integral homology of the complex, which
    :func:`build_complex` has already held to its simplex cap.

    A full complex has no dominated vertex or edge, so it goes straight to
    :func:`matching_homology`; any other goes through :func:`flag_homology`.
    """
    if c.is_full:
        return matching_homology(c)
    return flag_homology(c.rows, c.dim)


def flag_homology(rows: Sequence[int], dim: int) -> HomologySummary:
    """Reduced integral homology of the flag complex of dimension ``dim``
    on the graph with neighbourhood ``rows``.

    It is computed on the cliques of the core that the replay of
    :func:`flag_collapse` leaves, and padded with zeros to ``dim``.  When
    nothing collapses, the core is the whole graph.  A graph with no vertex
    is refused: the empty complex has reduced homology Z in degree -1.
    """
    if not rows:
        raise IdealEdgeError("the empty complex has reduced homology Z in degree -1")
    core = replay_flag_collapse(rows, flag_collapse(rows).steps)
    hom = reduced_homology_of_chain(_clique_levels(core.rows, core.alive))
    pad = dim + 1 - len(hom.reduced_betti)
    return HomologySummary(
        reduced_betti=hom.reduced_betti + (0,) * pad,
        torsion=hom.torsion + ((),) * pad,
    )


def matching_homology(c: SimplicialComplex) -> HomologySummary:
    """Reduced integral homology of ``c`` from the critical cells of
    :func:`_element_matching` on its simplices.

    The matching is acyclic, so by Forman's discrete Morse theory (1998)
    ``c`` is homotopy equivalent to a CW complex with one q-cell for each
    critical q-simplex and one 0-cell for the matched empty simplex.  When
    no two critical cells lie in adjacent degrees every Morse boundary is
    zero, and the reduced homology in degree q is free of rank the number
    of critical q-cells; with all of them in one degree d >= 1 the complex
    is a wedge of that many d-spheres.  :class:`StructureAnomalyError` is
    raised when critical cells lie in adjacent degrees (their homology
    would need the Morse boundary), and when the reduced Euler
    characteristic of the critical cells differs from that of ``c.counts()``,
    counted without listing any simplex.
    """
    critical = [0] * (c.dim + 2)  # critical[q + 1]: critical q-cells
    for cell in _element_matching(c.simplices_by_dim, len(c.rows)):
        critical[cell.bit_count()] += 1
    euler = sum(-n if q % 2 else n for q, n in enumerate((1, *c.counts()), -1))
    matched = sum(-n if q % 2 else n for q, n in enumerate(critical, -1))
    if matched != euler:
        raise StructureAnomalyError(
            f"critical cells {critical} by degree from -1 have reduced Euler "
            f"characteristic {matched}, the simplex counts {euler}"
        )
    if any(a and b for a, b in zip(critical, critical[1:])):
        raise StructureAnomalyError(
            f"critical cells {critical} by degree from -1 lie in adjacent degrees"
        )
    return HomologySummary(
        reduced_betti=tuple(critical[1:]), torsion=((),) * (c.dim + 1)
    )


def _element_matching(levels: Sequence[Sequence[int]], n: int) -> set[int]:
    """The cells left unmatched by the sequential element matching on the
    complex on vertices ``0 .. n-1`` whose q-simplices are ``levels[q]``,
    as vertex bitmasks closed under faces, and the empty cell (mask 0).

    For each vertex ``v`` in index order, each cell holding ``v`` is
    matched with the cell without ``v`` when neither is matched yet.  Each
    step is an element matching on the cells the steps before it left, and
    a sequence of element matchings is acyclic (Jonsson, *Simplicial
    Complexes of Graphs*, LNM 1928, 2008).  An unmatched cell waits in the
    bucket of its lowest vertex not yet passed, so it is in one bucket at a
    time, and no face of any cell is built but the one tried.
    """
    live = {0}
    buckets: list[list[int]] = [[] for _ in range(n)]
    for level in levels:
        live.update(level)
        for cell in level:
            buckets[(cell & -cell).bit_length() - 1].append(cell)
    for v in range(n):
        bit = 1 << v
        for cell in buckets[v]:
            if cell in live:
                if cell ^ bit in live:
                    live.remove(cell)
                    live.remove(cell ^ bit)
                elif rest := cell >> v + 1:
                    buckets[v + (rest & -rest).bit_length()].append(cell)
        buckets[v] = []
    return live


# ---------------------------------------------------------------------------
# Trivalent-tree oracle: used to certify that compatibility (the non-crossing
# test) agrees with realizability on a blow-up tree.

def trivalent_trees(labels: Sequence[str]) -> list[list[frozenset]]:
    """All trivalent trees with the given leaf labels, as edge lists.

    Internal nodes are integers, leaves the given labels.  Built by
    attaching each new leaf to every edge of every smaller tree; the count
    is the double factorial (2m-5)!! for m labels.
    """
    if len(labels) < 3:
        raise IdealEdgeError("need at least three leaves")
    trees: list[list[frozenset]] = [
        [frozenset((0, labels[0])), frozenset((0, labels[1])), frozenset((0, labels[2]))]
    ]
    next_internal = 1
    for leaf in labels[3:]:
        grown: list[list[frozenset]] = []
        for tree in trees:
            for edge in tree:
                x, y = tuple(edge)
                rest = [e for e in tree if e != edge]
                rest.extend(
                    (
                        frozenset((x, next_internal)),
                        frozenset((y, next_internal)),
                        frozenset((next_internal, leaf)),
                    )
                )
                grown.append(rest)
        trees = grown
        next_internal += 1
    return trees


def tree_splits(
    tree: list[frozenset], h: HalfEdgeSet
) -> frozenset[frozenset[str]]:
    """The set of leaf bipartitions induced by the internal edges of a
    trivalent tree, each normalized to its basepoint side."""
    adjacency: dict = {}
    for edge in tree:
        x, y = tuple(edge)
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)
    labels = h.universe
    splits: set[frozenset[str]] = set()
    for edge in tree:
        x, y = tuple(edge)
        if x in labels or y in labels:
            continue  # leaf edges split off singletons, never ideal edges
        seen = {x}
        stack = [x]
        while stack:
            u = stack.pop()
            for nbr in adjacency[u]:
                if u == x and nbr == y:
                    continue  # do not cross the removed edge
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        side = frozenset(leaf for leaf in seen if leaf in labels)
        inside = side if h.basepoint in side else labels - side
        splits.add(inside)
    return frozenset(splits)


def facets_match_trivalent_trees(c: SimplicialComplex) -> bool:
    """Oracle check: maximal simplices of the full complex correspond
    exactly to trivalent trees on the half-edges."""
    expected = {
        tree_splits(t, c.h) for t in trivalent_trees(sorted(c.h.universe))
    }
    facets = {
        frozenset(c.vertices[i].inside for i in simplex)
        for simplex in c.maximal_simplices()
    }
    return facets == expected


# ---------------------------------------------------------------------------
# Collapse certificate for the legal complex.

@dataclass(frozen=True)
class MorseCertificate:
    """Result of replaying the size-ordered collapse onto the base star.

    ``ok`` certifies contractibility.  ``ties`` counts same-size compatible
    vertex pairs outside the base star that had to be coned (expected zero:
    such pairs are pairwise incompatible, so any tie order is safe).  The
    certificate for the one-smaller structure used at maximal-size vertices
    is attached recursively.
    """

    r: int
    s: int
    ok: bool
    base_inside: tuple[str, ...]
    checked: int
    ties: int
    failures: tuple[str, ...]
    sub: "MorseCertificate | None"

    @property
    def verdict(self) -> str:
        return "certified collapsible" if self.ok else "NOT certified"

    def to_dict(self) -> dict:
        out = {
            "r": self.r,
            "s": self.s,
            "ok": self.ok,
            "verdict": self.verdict,
            "base": sorted(self.base_inside),
            "checked": self.checked,
            "ties": self.ties,
            "failures": list(self.failures),
        }
        if self.sub is not None:
            out["sub"] = self.sub.to_dict()
        return out


def morse_collapse_certificate(c: SimplicialComplex) -> MorseCertificate:
    """Certify contractibility of the legal complex ``c`` by checking every
    descending link is a cone.

    Requires at least two pairs.  Vertices outside the star of the base
    ideal edge are processed in order of increasing size; each must be
    coned by the apex obtained by adding the basepoint's partner (or the
    chosen single) to its inside.  Maximal-size vertices (which occur only
    when there are singles) instead have their entire link identified with
    the legal complex one single smaller, which is certified recursively.
    """
    h, vertices = c.h, c.vertices
    if h.r < 2:
        raise IdealEdgeError("collapse certificate requires at least two pairs")
    # An inside holding the basepoint splits at most one pair in
    # (r + 1) * 2^(r+s-1) ways; m + 1 of them leave a side of fewer than two
    # half-edges: the basepoint alone, everything, and everything but one.
    legal = (h.r + 1) * 2 ** (h.r + h.s - 1) - h.size - 1
    if not (
        len(vertices) == len({v.mask for v in vertices}) == legal
        and all(v.h == h and v.legal for v in vertices)
    ):
        raise IdealEdgeError("certificate requires the legal complex")
    return _certify(h, vertices, c.rows, {})


# Per structure (r, s) met in one certificate: the vertex index by mask, the
# compatibility rows and the certificate of its legal complex.
_Memo = dict[tuple[int, int], tuple[dict[int, int], Sequence[int], MorseCertificate]]


def _legal_structure(
    h: HalfEdgeSet, memo: _Memo
) -> tuple[dict[int, int], Sequence[int], MorseCertificate]:
    """The legal complex of the first half-edge set with the structure
    ``(h.r, h.s)`` met in one certificate, enumerated and certified once.
    Its masks serve every set with that structure: bits follow the pairs,
    then the singles, and the basepoint is bit 0, so which masks are legal
    and compatible depends on the structure alone."""
    key = (h.r, h.s)
    if key not in memo:
        vertices = enumerate_ideal_edges(h, legal_only=True)
        _certify(h, vertices, _compatibility_masks(vertices), memo)
    return memo[key]


def _certify(
    h: HalfEdgeSet, vertices: Sequence[IdealEdge], rows: Sequence[int], memo: _Memo
) -> MorseCertificate:
    """Replay the collapse of the complex with these vertices and
    compatibility rows on vertex bitmasks: ``near[i]`` holds vertex ``i``
    and every vertex compatible with it."""
    index = {v.mask: i for i, v in enumerate(vertices)}
    near = [row | 1 << i for i, row in enumerate(rows)]
    a = h.basepoint
    partner = h.partner(a)
    if partner is None:
        raise StructureAnomalyError(f"basepoint {a} has no partner")
    cone_extra = partner if h.s == 0 else h.singles[0]
    base = IdealEdge(h, frozenset((a, cone_extra)))
    if base.mask not in index:
        raise StructureAnomalyError("base ideal edge is missing from the legal complex")

    # Heights: 0 on the base star, the size elsewhere.  below[k] holds the
    # vertices of height < k, sized[k] those off the star of size k.
    star = near[index[base.mask]]
    outside = sorted(
        (i for i in range(len(vertices)) if not star >> i & 1),
        key=lambda i: (vertices[i].size, str(vertices[i])),
    )
    max_size = h.size - 2
    sized = [0] * (max_size + 1)
    for i in outside:
        sized[vertices[i].size] |= 1 << i
    below = [star] * (max_size + 1)
    for k in range(1, max_size + 1):
        below[k] = below[k - 1] | sized[k - 1]

    failures: list[str] = []
    ties = 0
    checked = 0
    sub: MorseCertificate | None = None

    for i in outside:
        alpha = vertices[i]
        k = alpha.size
        checked += 1
        if h.s >= 1 and k == max_size:
            for j in _bit_indices(rows[i] & ~below[k]):
                failures.append(
                    f"link of maximal {alpha} contains non-descending {vertices[j]}"
                )
            sub_ok, sub = _check_maximal_link(h, vertices, rows, i, memo)
            if not sub_ok:
                failures.append(
                    f"link of maximal {alpha} does not match the smaller structure"
                )
            continue

        apex_mask = alpha.mask | h.bit[cone_extra]
        if not 2 <= apex_mask.bit_count() <= h.size - 2:
            failures.append(f"apex of {alpha} is not a valid bipartition")
            continue
        apex = index.get(apex_mask)
        if _pairs_split(h, apex_mask) > 1 or apex is None:
            failures.append(f"apex of {alpha} is not a legal vertex")
            continue
        if not star >> apex & 1:
            failures.append(f"apex of {alpha} lies outside the base star")
        if not near[apex] >> i & 1:
            failures.append(f"apex of {alpha} is not compatible with it")
        # Compatible with alpha, neither alpha nor the apex, height <= k.
        descending = near[i] & (below[k] | sized[k]) & ~(1 << i | 1 << apex)
        ties += (descending & sized[k]).bit_count()
        for j in _bit_indices(descending & ~near[apex]):
            failures.append(
                f"descending neighbor {vertices[j]} of {alpha} misses the apex"
            )

    cert = MorseCertificate(
        r=h.r,
        s=h.s,
        ok=not failures and (sub is None or sub.ok),
        base_inside=tuple(sorted(base.inside)),
        checked=checked,
        ties=ties,
        failures=tuple(failures),
        sub=sub,
    )
    memo[(h.r, h.s)] = (index, rows, cert)
    return cert


def _check_maximal_link(
    h: HalfEdgeSet,
    vertices: Sequence[IdealEdge],
    rows: Sequence[int],
    i: int,
    memo: _Memo,
) -> tuple[bool, MorseCertificate | None]:
    """Identify the link of ``alpha``, the maximal-size vertex ``i``, with
    the legal complex on one fewer single and certify that structure
    recursively.

    The two outside half-edges collapse to a fresh half-edge which inherits
    a pair slot exactly when one of them was half of a pair.  Every link
    vertex is nested in ``alpha`` or holds both outside half-edges, so its
    image is its mask relabelled bit by bit, both outside bits going to the
    collapsed one.  The images must be the legal masks of the smaller
    structure, each once, with the same compatibilities.
    """
    alpha = vertices[i]
    out = sorted(alpha.outside)
    collapsed = f"({out[0]}+{out[1]})"
    pair_halves = {x for p in h.pairs for x in p}
    carried = [z for z in out if z in pair_halves]
    if len(carried) > 1:
        return False, None  # illegal vertex slipped through
    new_pairs: list[tuple[str, str]] = []
    for x, y in h.pairs:
        if x in out or y in out:
            keep = y if x in out else x
            new_pairs.append((keep, collapsed))
        else:
            new_pairs.append((x, y))
    new_singles = [b for b in h.singles if b not in out]
    if not carried:
        new_singles.append(collapsed)
    # Keep the basepoint's pair first so the derived basepoint is unchanged.
    new_pairs.sort(key=lambda p: (h.basepoint not in p, p))
    derived = HalfEdgeSet(pairs=tuple(new_pairs), singles=tuple(new_singles))
    index, derived_rows, sub = _legal_structure(derived, memo)
    if derived.basepoint != h.basepoint:
        return False, sub

    to = [derived.bit.get(x, derived.bit[collapsed]) for x in h.bit]
    # Two tables relabel a mask, one its low five bits and one the rest:
    # entry ``t`` of a table is the image of the bits that ``t`` codes.
    low, high = [0], [0]
    for b in to[:5]:
        low += [x | b for x in low]
    for b in to[5:]:
        high += [x | b for x in high]
    link = rows[i]
    members = _bit_indices(link)
    image_bit = [0] * len(rows)  # link vertex -> the bit of its image's index
    for j in members:
        mask = vertices[j].mask
        image = low[mask & 31] | high[mask >> 5]
        if _pairs_split(derived, image) > 1 or image not in index:
            return False, sub
        image_bit[j] = 1 << index[image]
    if not len(members) == len({image_bit[j] for j in members}) == len(index):
        return False, sub
    for j in members:
        row, near = 0, rows[j] & link
        while near:
            k = near & -near
            near ^= k
            row |= image_bit[k.bit_length() - 1]
        if row != derived_rows[image_bit[j].bit_length() - 1]:
            return False, sub
    return True, sub
