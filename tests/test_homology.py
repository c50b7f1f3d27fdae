"""Chain-level checks of the homology routes against hand-computable spaces
and against a dense reduction of the full boundary matrices."""

import random
from itertools import combinations
from math import gcd

import pytest

from raagvcd import homology
from raagvcd.homology import (
    BoundaryReduction,
    HomologySummary,
    reduce_boundary,
    reduced_homology_of_chain,
)


def chain_from_facets(facets):
    """Close a facet list under faces and group by dimension, as vertex
    bitmasks."""
    simplices = set()
    for f in facets:
        f = tuple(sorted(f))
        for size in range(1, len(f) + 1):
            for face in combinations(f, size):
                simplices.add(sum(1 << v for v in face))
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(s.bit_count() - 1, []).append(s)
    # Lexicographic order of the increasing vertex tuples.
    return [sorted(by_dim[q], key=vertex_tuple) for q in range(max(by_dim) + 1)]


def vertex_tuple(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def faces_of(mask):
    """The faces of a simplex given as a bitmask: the i-th clears the i-th
    lowest set bit."""
    return [mask ^ (1 << v) for v in vertex_tuple(mask)]


def dense_reference(chain):
    """Reduced homology from the full boundary matrices plus the
    augmentation row, each reduced by ``reduce_boundary``."""
    counts = [len(level) for level in chain]
    augmentation = {(0, j): 1 for j in range(counts[0])}
    reductions = [reduce_boundary(1, counts[0], augmentation)]
    for q in range(1, len(chain)):
        row = {face: i for i, face in enumerate(chain[q - 1])}
        entries = {}
        for j, cell in enumerate(chain[q]):
            for i, face in enumerate(faces_of(cell)):
                entries[(row[face], j)] = -1 if i % 2 else 1
        reductions.append(reduce_boundary(counts[q - 1], counts[q], entries))
    reductions.append(BoundaryReduction(0, ()))
    return HomologySummary(
        reduced_betti=tuple(
            counts[q] - reductions[q].rank - reductions[q + 1].rank
            for q in range(len(chain))
        ),
        torsion=tuple(reductions[q + 1].torsion for q in range(len(chain))),
    )


def grid_surface(twist):
    """The 9-vertex torus on a 3x3 grid; with ``twist`` the top edge is
    glued to the bottom reversed, which gives a Klein bottle."""

    def label(x, y):
        if y == 3:
            y = 0
            if twist:
                x = (3 - x) % 3
        return (x % 3) * 3 + y

    facets = []
    for x in range(3):
        for y in range(3):
            facets.append((label(x, y), label(x + 1, y), label(x + 1, y + 1)))
            facets.append((label(x, y), label(x, y + 1), label(x + 1, y + 1)))
    return facets


RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
]


@pytest.fixture
def morse_calls(monkeypatch):
    """Record the shape of every matrix that reaches the dense Smith step."""
    calls = []
    original = homology.reduce_boundary

    def counting(n_rows, n_cols, entries):
        calls.append((n_rows, n_cols))
        return original(n_rows, n_cols, entries)

    monkeypatch.setattr(homology, "reduce_boundary", counting)
    return calls


def test_circle():
    hom = reduced_homology_of_chain(chain_from_facets([(0, 1), (1, 2), (0, 2)]))
    assert hom.reduced_betti == (0, 1)
    assert not hom.trivial


def test_filled_triangle_contractible():
    assert reduced_homology_of_chain(chain_from_facets([(0, 1, 2)])).trivial


def test_two_points():
    hom = reduced_homology_of_chain([[0b01, 0b10]])
    assert hom.reduced_betti == (1,)


def test_sphere_boundary_of_tetrahedron():
    facets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    hom = reduced_homology_of_chain(chain_from_facets(facets))
    assert hom.reduced_betti == (0, 0, 1)
    assert all(not t for t in hom.torsion)


def test_projective_plane_torsion(morse_calls):
    # Minimal 6-vertex triangulation (antipodal icosahedron quotient):
    # every pair of vertices is an edge, ten faces, Euler characteristic 1.
    chain = chain_from_facets(RP2_FACETS)
    assert len(chain[1]) == 15
    hom = reduced_homology_of_chain(chain)
    assert hom.reduced_betti == (0, 0, 0)
    assert hom.torsion[1] == (2,)
    # Torsion needs critical cells in adjacent degrees.  The coreduction
    # leaves one critical edge and one critical triangle, no more.
    assert morse_calls == [(1, 1)]
    assert dense_reference(chain) == hom


def test_torus(morse_calls):
    chain = chain_from_facets(grid_surface(twist=False))
    assert [len(level) for level in chain] == [9, 27, 18]
    hom = reduced_homology_of_chain(chain)
    assert hom.reduced_betti == (0, 2, 1)
    assert all(not t for t in hom.torsion)
    assert morse_calls == [(2, 1)]
    assert dense_reference(chain) == hom


def test_klein_bottle_torsion(morse_calls):
    chain = chain_from_facets(grid_surface(twist=True))
    assert [len(level) for level in chain] == [9, 27, 18]
    hom = reduced_homology_of_chain(chain)
    # H_1 = Z + Z/2, H_2 = 0.
    assert hom.reduced_betti == (0, 1, 0)
    assert hom.torsion == ((), (2,), ())
    assert morse_calls == [(2, 1)]
    assert dense_reference(chain) == hom


def test_matches_dense_reference_on_random_complexes(morse_calls):
    rng = random.Random(20091)
    through_morse = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        facets = [
            rng.sample(range(n), rng.randint(1, min(4, n)))
            for _ in range(rng.randint(1, 10))
        ]
        chain = chain_from_facets(facets)
        before = len(morse_calls)
        hom = reduced_homology_of_chain(chain)
        through_morse += len(morse_calls) > before
        assert hom == dense_reference(chain), facets
    assert through_morse > 0


def test_empty_complex_refused():
    # Its reduced homology is Z in degree -1, which the summary cannot hold.
    with pytest.raises(ValueError):
        reduced_homology_of_chain([[]])


def test_invariant_factors_of_triangular_matrix():
    # [[2, 4], [0, 6]]: determinant divisors 2 and 12, so factors (2, 6).
    red = reduce_boundary(2, 2, {(0, 0): 2, (0, 1): 4, (1, 1): 6})
    assert red.rank == 2
    assert red.torsion == (2, 6)


def test_invariant_factors_of_diagonal_matrix():
    # diag(2, 3) is equivalent to diag(1, 6).
    red = reduce_boundary(2, 2, {(0, 0): 2, (1, 1): 3})
    assert red.rank == 2
    assert red.torsion == (6,)


def determinant(m):
    """By expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def determinant_divisor_reduction(mat):
    """Rank and torsion from the determinant divisors: d_k is the gcd of the
    k x k minors, the k-th invariant factor is d_k / d_(k-1), and the rank
    is the largest k with d_k != 0."""
    m, n = len(mat), len(mat[0])
    factors, previous = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                d = gcd(d, determinant([[mat[i][j] for j in cols] for i in rows]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return BoundaryReduction(len(factors), tuple(f for f in factors if f > 1))


def test_smith_reduction_matches_determinant_divisors():
    rng = random.Random(2009)
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        mat = [
            [rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(m)
        ]
        entries = {
            (i, j): v for i, row in enumerate(mat) for j, v in enumerate(row) if v
        }
        assert reduce_boundary(m, n, entries) == determinant_divisor_reduction(mat), mat
