from math import factorial

import pytest

from raagvcd import homology
from raagvcd.ideal_edges import (
    HalfEdgeSet,
    IdealEdge,
    IdealEdgeError,
    SizeCapError,
    build_complex,
    compatible,
    enumerate_ideal_edges,
    facets_match_trivalent_trees,
    morse_collapse_certificate,
    reduced_homology,
    tree_splits,
    trivalent_trees,
)


def double_factorial_tree_count(m: int) -> int:
    """(2m-5)!! computed directly; the expected facet count for m half-edges."""
    out = 1
    k = 2 * m - 5
    while k > 1:
        out *= k
        k -= 2
    return out


@pytest.fixture
def no_matrix_work(monkeypatch):
    """Fail if the homology reaches the dense Smith step: on these complexes
    the coreduction leaves no critical cells in adjacent degrees."""

    def refuse(n_rows, n_cols, entries):
        raise AssertionError("Morse boundary needed a matrix reduction")

    monkeypatch.setattr(homology, "reduce_boundary", refuse)


class TestEnumeration:
    def test_two_pairs(self):
        h = HalfEdgeSet.standard(2, 0)
        edges = enumerate_ideal_edges(h)
        assert len(edges) == 3
        legal = enumerate_ideal_edges(h, legal_only=True)
        assert len(legal) == 1
        assert legal[0].inside == frozenset({"a1", "A1"})

    def test_two_pairs_one_single(self):
        h = HalfEdgeSet.standard(2, 1)
        assert len(enumerate_ideal_edges(h)) == 10
        assert len(enumerate_ideal_edges(h, legal_only=True)) == 6

    def test_four_singles_all_legal(self):
        h = HalfEdgeSet.standard(0, 4)
        edges = enumerate_ideal_edges(h)
        assert len(edges) == 3
        assert all(e.legal for e in edges)

    def test_too_small_warns_and_returns_empty(self):
        h = HalfEdgeSet.standard(1, 1)
        with pytest.warns(UserWarning):
            assert enumerate_ideal_edges(h) == []

    def test_legality_filter_never_passes_double_splits(self):
        for r, s in [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]:
            h = HalfEdgeSet.standard(r, s)
            for edge in enumerate_ideal_edges(h, legal_only=True):
                assert edge.pairs_split() <= 1
            for edge in enumerate_ideal_edges(h):
                assert (edge.pairs_split() <= 1) == edge.legal

    def test_total_count_formula(self):
        # Bipartitions with both sides >= 2, normalized by the basepoint:
        # (2^m - 2 - 2m) / 2 of them.
        for r, s in [(2, 0), (2, 1), (3, 0), (2, 2)]:
            h = HalfEdgeSet.standard(r, s)
            m = h.size
            assert len(enumerate_ideal_edges(h)) == (2**m - 2 - 2 * m) // 2

    def test_bad_edges_rejected(self):
        h = HalfEdgeSet.standard(2, 1)
        with pytest.raises(IdealEdgeError):
            IdealEdge(h, frozenset({"a1"}))  # inside too small
        with pytest.raises(IdealEdgeError):
            IdealEdge(h, frozenset({"A1", "a2"}))  # missing basepoint
        with pytest.raises(IdealEdgeError):
            IdealEdge(h, frozenset({"a1", "A1", "a2", "A2"}))  # outside too small


class TestCompatibility:
    def test_containment_is_compatible(self):
        h = HalfEdgeSet.standard(2, 1)
        a = IdealEdge(h, frozenset({"a1", "A1"}))
        b = IdealEdge(h, frozenset({"a1", "A1", "b1"}))
        assert compatible(a, b)

    def test_crossing_is_incompatible(self):
        h = HalfEdgeSet.standard(2, 0)
        a = IdealEdge(h, frozenset({"a1", "A1"}))
        b = IdealEdge(h, frozenset({"a1", "a2"}))
        assert not compatible(a, b)

    def test_self_compatible(self):
        h = HalfEdgeSet.standard(2, 0)
        a = IdealEdge(h, frozenset({"a1", "A1"}))
        assert compatible(a, a)

    def test_covering_union_is_compatible(self):
        h = HalfEdgeSet.standard(0, 6)
        a = IdealEdge(h, frozenset({"b1", "b2", "b3", "b4"}))
        b = IdealEdge(h, frozenset({"b1", "b5", "b6", "b4"}))
        assert compatible(a, b)

    def test_mismatched_structures_rejected(self):
        a = IdealEdge(HalfEdgeSet.standard(2, 0), frozenset({"a1", "A1"}))
        b = IdealEdge(HalfEdgeSet.standard(2, 1), frozenset({"a1", "A1"}))
        with pytest.raises(IdealEdgeError):
            compatible(a, b)


class TestComplex:
    def test_four_half_edges_three_points(self):
        c = build_complex(HalfEdgeSet.standard(2, 0))
        assert c.counts() == (3,)
        assert len(c.maximal_simplices()) == 3

    def test_five_half_edges(self):
        c = build_complex(HalfEdgeSet.standard(2, 1))
        assert c.counts() == (10, 15)

    def test_legal_two_pairs_is_a_point(self):
        c = build_complex(HalfEdgeSet.standard(2, 0), legal_only=True)
        assert c.counts() == (1,)

    @pytest.mark.parametrize("r,s", [(2, 0), (2, 1), (3, 0), (2, 3), (3, 1)])
    def test_facets_biject_with_trivalent_trees(self, r, s):
        h = HalfEdgeSet.standard(r, s)
        c = build_complex(h)
        facets = c.maximal_simplices()
        assert len(facets) == double_factorial_tree_count(h.size)
        assert all(len(f) == h.size - 3 for f in facets)
        assert facets_match_trivalent_trees(c)

    def test_tree_counts(self):
        for m in (4, 5, 6, 7):
            labels = [f"h{i}" for i in range(m)]
            assert len(trivalent_trees(labels)) == double_factorial_tree_count(m)

    def test_tree_split_count(self):
        h = HalfEdgeSet.standard(3, 0)
        for tree in trivalent_trees(sorted(h.universe))[:20]:
            assert len(tree_splits(tree, h)) == h.size - 3

    def test_size_caps(self):
        with pytest.raises(SizeCapError):
            build_complex(HalfEdgeSet.standard(5, 1))  # 11 half-edges
        with pytest.raises(SizeCapError):
            build_complex(HalfEdgeSet.standard(3, 2), max_simplices=10)


class TestHomology:
    def test_single_point(self):
        c = build_complex(HalfEdgeSet.standard(2, 0), legal_only=True)
        assert reduced_homology(c).trivial

    def test_three_points(self):
        c = build_complex(HalfEdgeSet.standard(2, 0))
        hom = reduced_homology(c)
        assert hom.reduced_betti[0] == 2
        assert not hom.trivial

    def test_legal_two_pairs_one_single(self):
        c = build_complex(HalfEdgeSet.standard(2, 1), legal_only=True)
        hom = reduced_homology(c)
        assert hom.trivial

    @pytest.mark.parametrize("r,s", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
    def test_legal_complexes_homology_trivial(self, r, s, no_matrix_work):
        c = build_complex(
            HalfEdgeSet.standard(r, s), legal_only=True, max_simplices=200000
        )
        assert reduced_homology(c, max_simplices=200000).trivial

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_full_complex_is_wedge_of_spheres(self, m, no_matrix_work):
        # Tree space on m leaves is a wedge of (m-2)! spheres of dimension
        # m-4 (Robinson & Whitehouse 1996).
        c = build_complex(HalfEdgeSet.standard(0, m), max_simplices=200000)
        assert c.counts()[0] == 2 ** (m - 1) - m - 1
        assert len(c.simplices_by_dim[-1]) == double_factorial_tree_count(m)
        hom = reduced_homology(c, max_simplices=200000)
        expected = [0] * (m - 3)
        expected[m - 4] = factorial(m - 2)
        assert hom.reduced_betti == tuple(expected)
        assert all(not t for t in hom.torsion)

    def test_homology_cap(self):
        c = build_complex(HalfEdgeSet.standard(3, 2), legal_only=True)
        with pytest.raises(SizeCapError):
            reduced_homology(c, max_simplices=10)


class TestMorseCertificate:
    def test_single_vertex_vacuous(self):
        c = build_complex(HalfEdgeSet.standard(2, 0), legal_only=True)
        cert = morse_collapse_certificate(c, 2, 0)
        assert cert.ok
        assert cert.checked == 0

    def test_recursion_bottoms_out(self):
        c = build_complex(HalfEdgeSet.standard(2, 1), legal_only=True)
        cert = morse_collapse_certificate(c, 2, 1)
        assert cert.ok
        assert cert.sub is not None and (cert.sub.r, cert.sub.s) == (2, 0)

    def test_three_pairs_no_singles(self):
        c = build_complex(HalfEdgeSet.standard(3, 0), legal_only=True)
        cert = morse_collapse_certificate(c, 3, 0)
        assert cert.ok
        assert cert.sub is None

    @pytest.mark.parametrize(
        "r,s", [(r, s) for r in (2, 3) for s in range(4)]
    )
    def test_certified_for_acceptance_grid(self, r, s):
        c = build_complex(
            HalfEdgeSet.standard(r, s), legal_only=True, max_simplices=200000
        )
        cert = morse_collapse_certificate(c, r, s)
        assert cert.ok, cert.failures
        assert cert.ties == 0  # same-size vertices off the base star never touch

    def test_hypothesis_violation(self):
        c = build_complex(HalfEdgeSet.standard(1, 3), legal_only=True)
        with pytest.raises(IdealEdgeError):
            morse_collapse_certificate(c, 1, 3)

    def test_single_pair_really_needs_the_hypothesis(self):
        # With one pair every bipartition is legal, and the legal complex is
        # three isolated points: contractibility genuinely requires two
        # pairs, so refusing r < 2 is not just defensive.
        c = build_complex(HalfEdgeSet.standard(1, 2), legal_only=True)
        hom = reduced_homology(c)
        assert hom.reduced_betti[0] == 2

    def test_grid_extends_beyond_acceptance_cells(self):
        for r, s in [(4, 0), (4, 1)]:
            c = build_complex(
                HalfEdgeSet.standard(r, s), legal_only=True, max_simplices=200000
            )
            cert = morse_collapse_certificate(c, r, s)
            assert cert.ok and cert.ties == 0
            assert reduced_homology(c, max_simplices=200000).trivial

    def test_requires_legal_complex(self):
        c = build_complex(HalfEdgeSet.standard(2, 1))
        with pytest.raises(IdealEdgeError):
            morse_collapse_certificate(c, 2, 1)

    def test_wrong_structure_rejected(self):
        c = build_complex(HalfEdgeSet.standard(2, 1), legal_only=True)
        with pytest.raises(IdealEdgeError):
            morse_collapse_certificate(c, 2, 2)
