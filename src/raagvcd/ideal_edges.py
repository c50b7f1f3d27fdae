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
computation.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graph_core import GraphError
from .homology import HomologySummary, reduced_homology_of_chain


class IdealEdgeError(GraphError):
    """Bad half-edge structure or bipartition."""


class SizeCapError(GraphError):
    """Enumeration or homology request beyond the desk-scale caps."""


@dataclass(frozen=True)
class HalfEdgeSet:
    """Half-edges at a node: ``pairs`` of inverse halves plus ``singles``.

    The basepoint is the first half of the first pair when pairs exist,
    otherwise the first single.
    """

    pairs: tuple[tuple[str, str], ...]
    singles: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = [h for p in self.pairs for h in p] + list(self.singles)
        if len(set(ids)) != len(ids):
            raise IdealEdgeError("half-edge ids must be distinct")
        if not ids:
            raise IdealEdgeError("empty half-edge set")

    @staticmethod
    def standard(r: int, s: int) -> "HalfEdgeSet":
        if r < 0 or s < 0:
            raise IdealEdgeError("pair/single counts must be nonnegative")
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

    @property
    def size(self) -> int:
        return 2 * self.r + self.s

    @property
    def universe(self) -> frozenset[str]:
        return frozenset(
            h for p in self.pairs for h in p
        ) | frozenset(self.singles)

    @property
    def basepoint(self) -> str:
        return self.pairs[0][0] if self.pairs else self.singles[0]

    def partner(self, h: str) -> str | None:
        for x, y in self.pairs:
            if h == x:
                return y
            if h == y:
                return x
        return None


@dataclass(frozen=True)
class IdealEdge:
    """A bipartition of the half-edges, stored by its basepoint side."""

    h: HalfEdgeSet
    inside: frozenset[str]

    def __post_init__(self) -> None:
        universe = self.h.universe
        if not self.inside <= universe:
            raise IdealEdgeError("inside contains unknown half-edges")
        if self.h.basepoint not in self.inside:
            raise IdealEdgeError("inside must contain the basepoint")
        if len(self.inside) < 2 or len(universe - self.inside) < 2:
            raise IdealEdgeError("both sides need at least two half-edges")

    @property
    def size(self) -> int:
        return len(self.inside)

    @property
    def outside(self) -> frozenset[str]:
        return self.h.universe - self.inside

    def pairs_split(self) -> int:
        return sum(
            1 for x, y in self.h.pairs if (x in self.inside) != (y in self.inside)
        )

    @property
    def legal(self) -> bool:
        return self.pairs_split() <= 1

    def __str__(self) -> str:
        return "{" + ",".join(sorted(self.inside)) + "}"


def compatible(alpha: IdealEdge, beta: IdealEdge) -> bool:
    """Non-crossing test: some side of one is disjoint from some side of
    the other (equivalently nested insides, or insides covering everything,
    since both insides share the basepoint)."""
    if alpha.h != beta.h:
        raise IdealEdgeError("ideal edges over different half-edge sets")
    a, b = alpha.inside, beta.inside
    return a <= b or b <= a or (a | b) == alpha.h.universe


def enumerate_ideal_edges(h: HalfEdgeSet, legal_only: bool = False) -> list[IdealEdge]:
    """All ideal edges in deterministic (size, lexicographic) order."""
    if h.size < 4:
        warnings.warn(
            f"no ideal edges on {h.size} half-edges (need at least 4)",
            stacklevel=2,
        )
        return []
    rest = sorted(h.universe - {h.basepoint})
    out: list[IdealEdge] = []
    for extra in range(1, h.size - 2):
        for combo in combinations(rest, extra):
            edge = IdealEdge(h, frozenset((h.basepoint, *combo)))
            if legal_only and not edge.legal:
                continue
            out.append(edge)
    return out


@dataclass(frozen=True)
class SimplicialComplex:
    """A flag complex on ideal-edge vertices, stored dimension by dimension.

    ``simplices_by_dim[q]`` holds the q-simplices as increasing tuples of
    vertex indices.
    """

    h: HalfEdgeSet
    vertices: tuple[IdealEdge, ...]
    simplices_by_dim: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.simplices_by_dim) - 1

    @property
    def total_simplices(self) -> int:
        return sum(len(level) for level in self.simplices_by_dim)

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices_by_dim)

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        masks = _compatibility_masks(self.vertices)
        out: list[tuple[int, ...]] = []
        full = (1 << len(self.vertices)) - 1
        for level in self.simplices_by_dim:
            for simplex in level:
                simplex_mask = 0
                common = full
                for i in simplex:
                    simplex_mask |= 1 << i
                    common &= masks[i]
                if common & ~simplex_mask == 0:
                    out.append(simplex)
        return out

    def to_dict(self) -> dict:
        return {
            "half_edges": {
                "pairs": [list(p) for p in self.h.pairs],
                "singles": list(self.h.singles),
            },
            "vertices": [sorted(v.inside) for v in self.vertices],
            "counts": list(self.counts()),
            "dim": self.dim,
            "maximal_simplices": sorted(
                list(s) for s in self.maximal_simplices()
            ),
        }


def _compatibility_masks(vertices: Sequence[IdealEdge]) -> list[int]:
    n = len(vertices)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if compatible(vertices[i], vertices[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


MAX_HALF_EDGES = 10
DEFAULT_SIMPLEX_CAP = 20000


def build_complex(
    h: HalfEdgeSet,
    legal_only: bool = False,
    max_simplices: int = DEFAULT_SIMPLEX_CAP,
) -> SimplicialComplex:
    """Flag complex on all (or only legal) ideal edges.

    Enumeration is capped at ``MAX_HALF_EDGES`` half-edges and
    ``max_simplices`` total simplices.
    """
    if h.size > MAX_HALF_EDGES:
        raise SizeCapError(
            f"{h.size} half-edges exceeds the enumeration cap {MAX_HALF_EDGES}"
        )
    vertices = tuple(enumerate_ideal_edges(h, legal_only))
    n = len(vertices)
    masks = _compatibility_masks(vertices)

    levels: list[list[tuple[int, ...]]] = [[(i,) for i in range(n)]]
    total = n
    current = [((i,), masks[i] & _bits_above(i, n)) for i in range(n)]
    while current:
        next_level: list[tuple[tuple[int, ...], int]] = []
        for simplex, cand in current:
            m = cand
            while m:
                low = m & (-m)
                m ^= low
                j = low.bit_length() - 1
                bigger = simplex + (j,)
                total += 1
                if total > max_simplices:
                    raise SizeCapError(
                        f"complex exceeds {max_simplices} simplices"
                    )
                next_level.append((bigger, cand & masks[j] & _bits_above(j, n)))
        if not next_level:
            break
        levels.append([s for s, _ in next_level])
        current = next_level
    return SimplicialComplex(
        h=h,
        vertices=vertices,
        simplices_by_dim=tuple(tuple(level) for level in levels),
    )


def _bits_above(i: int, n: int) -> int:
    return ((1 << n) - 1) ^ ((1 << (i + 1)) - 1)


def reduced_homology(
    c: SimplicialComplex, max_simplices: int = DEFAULT_SIMPLEX_CAP
) -> HomologySummary:
    """Reduced integral homology of the complex (cap-checked)."""
    if c.total_simplices > max_simplices:
        raise SizeCapError(
            f"{c.total_simplices} simplices exceeds the homology cap "
            f"{max_simplices}"
        )
    return reduced_homology_of_chain(c.simplices_by_dim)


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


def morse_collapse_certificate(
    c: SimplicialComplex, r: int, s: int
) -> MorseCertificate:
    """Certify contractibility of the legal complex on ``r`` pairs and
    ``s`` singles by checking every descending link is a cone.

    Requires ``r >= 2``.  Vertices outside the star of the base ideal edge
    are processed in order of increasing size; each must be coned by the
    apex obtained by adding the basepoint's partner (or the chosen single)
    to its inside.  Maximal-size vertices (which only occur for
    ``s >= 1``) instead have their entire link identified with the legal
    complex one single smaller, which is certified recursively.
    """
    if r < 2:
        raise IdealEdgeError("collapse certificate requires at least two pairs")
    if (c.h.r, c.h.s) != (r, s):
        raise IdealEdgeError(
            f"complex has structure ({c.h.r},{c.h.s}), not ({r},{s})"
        )
    legal = enumerate_ideal_edges(c.h, legal_only=True)
    if set(c.vertices) != set(legal):
        raise IdealEdgeError("certificate requires the legal complex")
    return _certify(c.h, {})


def _certify(
    h: HalfEdgeSet, memo: dict[tuple[int, int], MorseCertificate]
) -> MorseCertificate:
    key = (h.r, h.s)
    if key in memo:
        return memo[key]

    vertices = enumerate_ideal_edges(h, legal_only=True)
    index = {v: i for i, v in enumerate(vertices)}
    a = h.basepoint
    partner = h.partner(a)
    assert partner is not None
    cone_extra = partner if h.s == 0 else h.singles[0]
    base = IdealEdge(h, frozenset((a, cone_extra)))
    if base not in index:
        raise IdealEdgeError("base ideal edge is missing from the legal complex")

    in_star = {
        v: (v == base or compatible(v, base)) for v in vertices
    }

    def height(v: IdealEdge) -> int:
        return 0 if in_star[v] else v.size

    outside = sorted(
        (v for v in vertices if not in_star[v]), key=lambda v: (v.size, str(v))
    )
    max_size = h.size - 2

    failures: list[str] = []
    ties = 0
    checked = 0
    sub: MorseCertificate | None = None

    for alpha in outside:
        checked += 1
        if h.s >= 1 and alpha.size == max_size:
            link = [v for v in vertices if v != alpha and compatible(v, alpha)]
            for beta in link:
                if height(beta) >= height(alpha):
                    failures.append(
                        f"link of maximal {alpha} contains non-descending {beta}"
                    )
            sub_ok, sub = _check_maximal_link(h, alpha, link, memo)
            if not sub_ok:
                failures.append(
                    f"link of maximal {alpha} does not match the smaller structure"
                )
            continue

        try:
            apex = IdealEdge(h, alpha.inside | {cone_extra})
        except IdealEdgeError:
            failures.append(f"apex of {alpha} is not a valid bipartition")
            continue
        if not apex.legal or apex not in index:
            failures.append(f"apex of {alpha} is not a legal vertex")
            continue
        if not in_star[apex]:
            failures.append(f"apex of {alpha} lies outside the base star")
        if not compatible(apex, alpha):
            failures.append(f"apex of {alpha} is not compatible with it")
        for beta in vertices:
            if beta == alpha or beta == apex:
                continue
            if not compatible(beta, alpha):
                continue
            if height(beta) > height(alpha):
                continue
            if height(beta) == height(alpha):
                ties += 1
            if not compatible(beta, apex):
                failures.append(
                    f"descending neighbor {beta} of {alpha} misses the apex"
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
    memo[key] = cert
    return cert


def _check_maximal_link(
    h: HalfEdgeSet,
    alpha: IdealEdge,
    link: list[IdealEdge],
    memo: dict[tuple[int, int], MorseCertificate],
) -> tuple[bool, MorseCertificate]:
    """Identify the link of a maximal-size vertex with the legal complex on
    one fewer single and certify that structure recursively.

    The two outside half-edges collapse to a fresh half-edge which inherits
    a pair slot exactly when one of them was half of a pair.
    """
    out = sorted(alpha.outside)
    collapsed = f"({out[0]}+{out[1]})"
    pair_halves = {x for p in h.pairs for x in p}
    carried = [z for z in out if z in pair_halves]
    if len(carried) > 1:
        return False, _certify(h, memo)  # illegal vertex slipped through
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
    if derived.basepoint != h.basepoint:
        return False, _certify(derived, memo)

    def push(v: IdealEdge) -> IdealEdge | None:
        if v.inside <= alpha.inside:
            inside = v.inside
        elif (v.inside | alpha.inside) == h.universe:
            inside = (v.inside & alpha.inside) | {collapsed}
        else:
            return None
        try:
            return IdealEdge(derived, inside)
        except IdealEdgeError:
            return None

    mapped: dict[IdealEdge, IdealEdge] = {}
    for v in link:
        image = push(v)
        if image is None or not image.legal:
            return False, _certify(derived, memo)
        mapped[v] = image
    expected = set(enumerate_ideal_edges(derived, legal_only=True))
    if set(mapped.values()) != expected or len(mapped) != len(expected):
        return False, _certify(derived, memo)
    for v, w in combinations(link, 2):
        if compatible(v, w) != compatible(mapped[v], mapped[w]):
            return False, _certify(derived, memo)
    return True, _certify(derived, memo)
