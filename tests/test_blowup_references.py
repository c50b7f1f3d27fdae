"""The blow-up path on bitmasks against the tuple and frozenset code it
replaced, kept here as references.

Every structure with 4 to 8 half-edges is checked: the simplices level by
level, the face lists, the homology of the collapse core against the
homology over every simplex, and the collapse certificate, the last also on
the full vertex set, where its failure and recursion paths run.  The
certificate is checked on 9 and 10 half-edges too, and the legal
enumeration against the filter of all ideal edges on 4 to 10.
"""

from itertools import combinations

import pytest

from raagvcd import homology, ideal_edges
from raagvcd.ideal_edges import (
    HalfEdgeSet,
    IdealEdge,
    IdealEdgeError,
    MorseCertificate,
    build_complex,
    enumerate_ideal_edges,
    morse_collapse_certificate,
    reduced_homology,
)

STRUCTURES = [
    (r, s) for r in range(5) for s in range(9) if 4 <= 2 * r + s <= 8
]
CAP = 200000


def bits(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


# ---------------------------------------------------------------------------
# References: simplices as tuples, compatibility and legality on frozensets.

def ref_compatible(alpha, beta):
    a, b = alpha.inside, beta.inside
    return a <= b or b <= a or (a | b) == alpha.h.universe


def ref_legal(edge):
    inside = edge.inside
    return sum((x in inside) != (y in inside) for x, y in edge.h.pairs) <= 1


def ref_build(h, legal_only):
    """Flag complex as levels of increasing vertex tuples, extended one
    vertex at a time."""
    vertices = enumerate_ideal_edges(h, legal_only)
    n = len(vertices)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if ref_compatible(vertices[i], vertices[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i

    def above(i):
        return ((1 << n) - 1) ^ ((1 << (i + 1)) - 1)

    levels = [[(i,) for i in range(n)]]
    current = [((i,), masks[i] & above(i)) for i in range(n)]
    while current:
        next_level = []
        for simplex, cand in current:
            m = cand
            while m:
                low = m & (-m)
                m ^= low
                j = low.bit_length() - 1
                next_level.append((simplex + (j,), cand & masks[j] & above(j)))
        if not next_level:
            break
        levels.append([s for s, _ in next_level])
        current = next_level
    return vertices, levels


def ref_face_lists(levels):
    """Faces and cofaces keyed by vertex tuples: the i-th face drops the
    i-th vertex."""
    faces = [[]]
    cofaces = [[]]
    index = {(): 0}
    for level in levels:
        ids = {}
        for simplex in level:
            cell = ids[simplex] = len(faces)
            fs = [index[simplex[:i] + simplex[i + 1 :]] for i in range(len(simplex))]
            faces.append(fs)
            cofaces.append([])
            for f in fs:
                cofaces[f].append(cell)
        index = ids
    return faces, cofaces


def ref_certify(h, memo):
    key = (h.r, h.s)
    if key in memo:
        return memo[key]
    vertices = ideal_edges.enumerate_ideal_edges(h, legal_only=True)
    index = {v: i for i, v in enumerate(vertices)}
    a = h.basepoint
    partner = h.partner(a)
    cone_extra = partner if h.s == 0 else h.singles[0]
    base = IdealEdge(h, frozenset((a, cone_extra)))
    assert base in index
    in_star = {v: (v == base or ref_compatible(v, base)) for v in vertices}

    def height(v):
        return 0 if in_star[v] else v.size

    outside = sorted(
        (v for v in vertices if not in_star[v]), key=lambda v: (v.size, str(v))
    )
    max_size = h.size - 2
    failures = []
    ties = 0
    checked = 0
    sub = None
    for alpha in outside:
        checked += 1
        if h.s >= 1 and alpha.size == max_size:
            link = [v for v in vertices if v != alpha and ref_compatible(v, alpha)]
            for beta in link:
                if height(beta) >= height(alpha):
                    failures.append(
                        f"link of maximal {alpha} contains non-descending {beta}"
                    )
            sub_ok, sub = ref_check_maximal_link(h, alpha, link, memo)
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
        if not ref_legal(apex) or apex not in index:
            failures.append(f"apex of {alpha} is not a legal vertex")
            continue
        if not in_star[apex]:
            failures.append(f"apex of {alpha} lies outside the base star")
        if not ref_compatible(apex, alpha):
            failures.append(f"apex of {alpha} is not compatible with it")
        for beta in vertices:
            if beta == alpha or beta == apex:
                continue
            if not ref_compatible(beta, alpha):
                continue
            if height(beta) > height(alpha):
                continue
            if height(beta) == height(alpha):
                ties += 1
            if not ref_compatible(beta, apex):
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


def ref_check_maximal_link(h, alpha, link, memo):
    out = sorted(alpha.outside)
    collapsed = f"({out[0]}+{out[1]})"
    pair_halves = {x for p in h.pairs for x in p}
    carried = [z for z in out if z in pair_halves]
    if len(carried) > 1:
        # The replaced code recursed into h itself here, without end.
        return False, None
    new_pairs = []
    for x, y in h.pairs:
        if x in out or y in out:
            keep = y if x in out else x
            new_pairs.append((keep, collapsed))
        else:
            new_pairs.append((x, y))
    new_singles = [b for b in h.singles if b not in out]
    if not carried:
        new_singles.append(collapsed)
    new_pairs.sort(key=lambda p: (h.basepoint not in p, p))
    derived = HalfEdgeSet(pairs=tuple(new_pairs), singles=tuple(new_singles))
    if derived.basepoint != h.basepoint:
        return False, ref_certify(derived, memo)

    def push(v):
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

    mapped = {}
    for v in link:
        image = push(v)
        if image is None or not ref_legal(image):
            return False, ref_certify(derived, memo)
        mapped[v] = image
    expected = set(ideal_edges.enumerate_ideal_edges(derived, legal_only=True))
    if set(mapped.values()) != expected or len(mapped) != len(expected):
        return False, ref_certify(derived, memo)
    for v, w in combinations(link, 2):
        if ref_compatible(v, w) != ref_compatible(mapped[v], mapped[w]):
            return False, ref_certify(derived, memo)
    return True, ref_certify(derived, memo)


# ---------------------------------------------------------------------------


def complexes():
    """Every structure's full complex, and its legal one where that is
    smaller (with at most one pair every ideal edge is legal)."""
    out = []
    for r, s in STRUCTURES:
        out.append((r, s, False))
        if r >= 2:
            out.append((r, s, True))
    return out


@pytest.mark.parametrize("r,s,legal_only", complexes())
def test_simplices_faces_and_homology_match_references(monkeypatch, r, s, legal_only):
    h = HalfEdgeSet.standard(r, s)
    c = build_complex(h, legal_only=legal_only, max_simplices=CAP)
    vertices, ref_levels = ref_build(h, legal_only)
    assert c.vertices == tuple(vertices)
    assert [[bits(m) for m in level] for level in c.simplices_by_dim] == ref_levels

    ref_faces = ref_face_lists(ref_levels)
    assert homology._face_lists(c.simplices_by_dim) == ref_faces
    # The collapse core agrees with the homology over every simplex, which
    # is also what the reference face lists must reproduce: reduced_homology
    # itself may never list the faces of the whole complex.
    hom = reduced_homology(c)
    assert homology.reduced_homology_of_chain(c.simplices_by_dim) == hom
    monkeypatch.setattr(homology, "_face_lists", lambda levels: ref_faces)
    assert homology.reduced_homology_of_chain(c.simplices_by_dim) == hom


def test_legal_is_full_with_at_most_one_pair():
    for r, s in STRUCTURES:
        if r <= 1:
            h = HalfEdgeSet.standard(r, s)
            assert enumerate_ideal_edges(h, legal_only=True) == enumerate_ideal_edges(h)


def test_compatibility_and_legality_match_frozensets():
    for r, s in STRUCTURES:
        edges = enumerate_ideal_edges(HalfEdgeSet.standard(r, s))
        for e in edges:
            assert e.legal == ref_legal(e)
        for e, f in combinations(edges, 2):
            assert ideal_edges.compatible(e, f) == ref_compatible(e, f)


# Every structure with 4 to 10 half-edges.
STRUCTURES_TO_10 = [
    (r, s) for r in range(6) for s in range(11) if 4 <= 2 * r + s <= 10
]


@pytest.mark.parametrize("r,s", STRUCTURES_TO_10)
def test_legal_enumeration_filters_all_ideal_edges(r, s):
    h = HalfEdgeSet.standard(r, s)
    assert enumerate_ideal_edges(h, True) == [
        e for e in enumerate_ideal_edges(h) if e.legal
    ]


CERTIFIED = [(r, s) for r, s in STRUCTURES_TO_10 if r >= 2]
# The largest legal complex, (2,6), has 5,193,247 simplices.
CERTIFIED_CAP = 6000000


@pytest.mark.parametrize("r,s", CERTIFIED)
def test_certificate_matches_reference(r, s):
    h = HalfEdgeSet.standard(r, s)
    c = build_complex(h, legal_only=True, max_simplices=CERTIFIED_CAP)
    cert = morse_collapse_certificate(c)
    assert cert == ref_certify(h, {})
    assert cert.ok and cert.ties == 0


@pytest.mark.parametrize("r,s", CERTIFIED)
def test_certificate_matches_reference_on_all_ideal_edges(monkeypatch, r, s):
    # With every ideal edge taken as a vertex the collapse fails: apexes are
    # illegal or not bipartitions, and maximal links differ from the smaller
    # structure.  morse_collapse_certificate refuses that complex at the
    # door, so the replay is called directly.
    def every_edge(h, legal_only=False):
        return enumerate_ideal_edges(h)

    monkeypatch.setattr(ideal_edges, "enumerate_ideal_edges", every_edge)
    h = HalfEdgeSet.standard(r, s)
    # The replay reads the vertices and rows alone, so the complex (up to
    # 12,818,911 simplices on 10 half-edges) is not counted.
    vertices = every_edge(h)
    rows = ideal_edges._compatibility_masks(vertices)
    cert = ideal_edges._certify(h, vertices, rows, {})
    assert cert == ref_certify(h, {})
    assert not cert.ok and cert.failures
