import random
from math import factorial

import pytest

from raagvcd import homology, ideal_edges
from raagvcd.graph_core import StructureAnomalyError
from raagvcd.homology import reduced_homology_of_chain
from raagvcd.ideal_edges import (
    HalfEdgeSet,
    IdealEdge,
    IdealEdgeError,
    SizeCapError,
    build_complex,
    compatible,
    enumerate_ideal_edges,
    facets_match_trivalent_trees,
    flag_collapse,
    flag_homology,
    morse_collapse_certificate,
    reduced_homology,
    replay_flag_collapse,
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
    """Fail if the homology reaches the Smith reduction: on these complexes
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

    def test_too_small_returns_empty(self, recwarn):
        for r, s in [(1, 1), (0, 3), (1, 0), (0, 1)]:
            h = HalfEdgeSet.standard(r, s)
            assert enumerate_ideal_edges(h) == []
            assert enumerate_ideal_edges(h, legal_only=True) == []
        assert len(recwarn) == 0

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
        # A hand-built set skips ``standard``; the complex keeps its own cap.
        eleven = HalfEdgeSet(pairs=(), singles=tuple(f"h{i}" for i in range(11)))
        with pytest.raises(SizeCapError, match="11 half-edges exceeds the .* cap 10"):
            build_complex(eleven)
        with pytest.raises(SizeCapError):
            build_complex(HalfEdgeSet.standard(3, 2), max_simplices=10)

    @pytest.mark.parametrize(
        "h",
        [
            HalfEdgeSet.standard(1, 1),
            HalfEdgeSet.standard(0, 3),
            HalfEdgeSet(pairs=(("p", "q"),), singles=("z",)),
            HalfEdgeSet.standard(0, 1),
        ],
        ids=["1-1", "0-3", "hand-built", "0-1"],
    )
    @pytest.mark.parametrize("legal_only", [False, True])
    def test_fewer_than_four_half_edges_refused(self, h, legal_only):
        # No ideal edge exists on them: the complex would be empty, with
        # reduced homology Z in degree -1.
        with pytest.raises(IdealEdgeError, match="at least 4 half-edges"):
            build_complex(h, legal_only=legal_only)


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
        assert reduced_homology(c).trivial

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_full_complex_is_wedge_of_spheres(self, m, no_matrix_work):
        # Tree space on m leaves is a wedge of (m-2)! spheres of dimension
        # m-4 (Robinson & Whitehouse 1996).
        c = build_complex(HalfEdgeSet.standard(0, m), max_simplices=200000)
        assert c.counts()[0] == 2 ** (m - 1) - m - 1
        assert len(c.simplices_by_dim[-1]) == double_factorial_tree_count(m)
        hom = reduced_homology(c)
        expected = [0] * (m - 3)
        expected[m - 4] = factorial(m - 2)
        assert hom.reduced_betti == tuple(expected)
        assert all(not t for t in hom.torsion)


class TestMorseCertificate:
    def test_single_vertex_vacuous(self):
        c = build_complex(HalfEdgeSet.standard(2, 0), legal_only=True)
        cert = morse_collapse_certificate(c)
        assert cert.ok
        assert cert.checked == 0

    def test_recursion_bottoms_out(self):
        c = build_complex(HalfEdgeSet.standard(2, 1), legal_only=True)
        cert = morse_collapse_certificate(c)
        assert cert.ok
        assert cert.sub is not None and (cert.sub.r, cert.sub.s) == (2, 0)

    def test_three_pairs_no_singles(self):
        c = build_complex(HalfEdgeSet.standard(3, 0), legal_only=True)
        cert = morse_collapse_certificate(c)
        assert cert.ok
        assert cert.sub is None

    @pytest.mark.parametrize(
        "r,s", [(r, s) for r in (2, 3) for s in range(4)]
    )
    def test_certified_for_acceptance_grid(self, r, s):
        c = build_complex(
            HalfEdgeSet.standard(r, s), legal_only=True, max_simplices=200000
        )
        cert = morse_collapse_certificate(c)
        assert cert.ok, cert.failures
        assert cert.ties == 0  # same-size vertices off the base star never touch

    def test_hypothesis_violation(self):
        c = build_complex(HalfEdgeSet.standard(1, 3), legal_only=True)
        with pytest.raises(IdealEdgeError):
            morse_collapse_certificate(c)

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
            cert = morse_collapse_certificate(c)
            assert cert.ok and cert.ties == 0
            assert reduced_homology(c).trivial

    def test_requires_legal_complex(self):
        c = build_complex(HalfEdgeSet.standard(2, 1))
        with pytest.raises(IdealEdgeError):
            morse_collapse_certificate(c)

    def test_legal_count_closed_form(self):
        for m in range(4, 11):
            for r in range(1, m // 2 + 1):
                s = m - 2 * r
                h = HalfEdgeSet.standard(r, s)
                legal = enumerate_ideal_edges(h, legal_only=True)
                assert len(legal) == (r + 1) * 2 ** (r + s - 1) - m - 1, (r, s)

    def test_refuses_near_legal_vertex_sets(self):
        # One vertex short, a repeated vertex, an illegal one and one over
        # another half-edge set: each fails exactly one of the door checks.
        c = build_complex(HalfEdgeSet.standard(2, 2), legal_only=True)
        legal = list(c.vertices)
        illegal = next(e for e in enumerate_ideal_edges(c.h) if not e.legal)
        other = HalfEdgeSet(pairs=(("a1", "A1"), ("a2", "A2")), singles=("c1", "c2"))
        foreign = IdealEdge(
            other, frozenset(x.replace("b", "c") for x in legal[-1].inside)
        )
        assert foreign.mask == legal[-1].mask
        for vertices in (
            legal[1:],
            [legal[0], *legal[:-1]],
            [illegal, *legal[1:]],
            [*legal[:-1], foreign],
        ):
            bad = ideal_edges.SimplicialComplex(
                c.h, tuple(vertices), c.rows, c.clique_counts
            )
            with pytest.raises(IdealEdgeError, match="requires the legal complex"):
                morse_collapse_certificate(bad)

    def test_maximal_link_compatibility_is_read_from_the_rows(self):
        # Drop one edge inside the link of a maximal vertex off the base
        # star: the link no longer matches the smaller structure's
        # compatibilities.
        c = build_complex(HalfEdgeSet.standard(2, 2), legal_only=True)
        base = IdealEdge(c.h, frozenset({"a1", "b1"}))
        i = next(
            i
            for i, v in enumerate(c.vertices)
            if v.size == c.h.size - 2 and not compatible(v, base)
        )
        link = [j for j in range(len(c.rows)) if c.rows[i] >> j & 1]
        j, k = next((j, k) for j in link for k in link if c.rows[j] >> k & 1)
        rows = list(c.rows)
        rows[j] ^= 1 << k
        rows[k] ^= 1 << j
        cert = morse_collapse_certificate(
            ideal_edges.SimplicialComplex(c.h, c.vertices, tuple(rows), c.clique_counts)
        )
        assert not cert.ok
        assert (
            f"link of maximal {c.vertices[i]} does not match the smaller structure"
            in cert.failures
        )


# ---------------------------------------------------------------------------
# Strong and edge collapses of flag complexes.

def graph_rows(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def cycle(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


def octahedron(start=0):
    # K_{2,2,2}: every pair but the three antipodal ones; its flag complex
    # is the 2-sphere.
    return [
        (start + i, start + j)
        for i in range(6)
        for j in range(i + 1, 6)
        if j != i + 3
    ]


def cliques(rows):
    return ideal_edges._clique_levels(rows, (1 << len(rows)) - 1)


# (vertex count, edges, reduced Betti numbers of the flag complex)
NOT_COLLAPSIBLE = [
    (4, cycle(4), (0, 1)),
    (5, cycle(5), (0, 1)),
    (6, cycle(6), (0, 1)),
    (7, cycle(7), (0, 1)),
    (6, octahedron(), (0, 0, 1)),
    # C4 + C5 + a point: three components, two circles.
    (10, cycle(4) + cycle(5, 4), (2, 2)),
    # The octahedron + C6 + an edge.
    (14, octahedron() + cycle(6, 6) + [(12, 13)], (2, 1, 1)),
]


def random_graphs():
    rng = random.Random(1212)
    out = []
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.choice([0.15, 0.3, 0.45, 0.6, 0.8])
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        out.append((n, edges))
    return out


class TestFlagCollapse:
    @pytest.mark.parametrize("n,edges,betti", NOT_COLLAPSIBLE)
    def test_not_collapsible(self, n, edges, betti):
        rows = graph_rows(n, edges)
        collapse = flag_collapse(rows)
        assert collapse.alive.bit_count() > 1
        levels = cliques(rows)
        hom = flag_homology(rows, len(levels) - 1)
        assert hom.reduced_betti == betti
        assert hom == reduced_homology_of_chain(levels)

    def test_empty_graph_refused(self):
        # The empty complex has reduced homology Z in degree -1.
        with pytest.raises(IdealEdgeError, match="degree -1"):
            flag_homology([], -1)

    def test_random_graphs_match_all_simplex_homology(self):
        cores = set()
        for n, edges in random_graphs():
            rows = graph_rows(n, edges)
            collapse = flag_collapse(rows)
            assert replay_flag_collapse(rows, collapse.steps) == collapse
            levels = cliques(rows)
            hom = flag_homology(rows, len(levels) - 1)
            assert hom == reduced_homology_of_chain(levels)
            cores.add((bool(collapse.steps), collapse.alive.bit_count() > 1))
        # Collapsed to a point, collapsed part way, and not at all.
        assert {(True, False), (True, True), (False, True)} <= cores

    def test_cone_collapses_to_its_apex(self):
        # A cone over C5 collapses to its apex, and no step names a vertex
        # it removes as its dominator.
        rows = graph_rows(6, cycle(5) + [(i, 5) for i in range(5)])
        collapse = flag_collapse(rows)
        assert collapse.alive == 1 << 5
        assert collapse.rows == (0,) * 6
        for removed, w in collapse.steps:
            assert not removed >> w & 1

    @pytest.mark.parametrize(
        "r,s", [(r, s) for r in (2, 3, 4) for s in range(9 - 2 * r)]
    )
    def test_legal_complexes_collapse_to_a_vertex(self, r, s):
        c = build_complex(
            HalfEdgeSet.standard(r, s), legal_only=True, max_simplices=200000
        )
        collapse = flag_collapse(c.rows)
        assert collapse.alive.bit_count() == 1
        assert not any(collapse.rows)

    def test_legal_three_four_core(self):
        # Past the cap of the clique build at 200000 simplices; the graph
        # alone collapses to a core of 87 vertices and 1,431 edges.
        vertices = enumerate_ideal_edges(HalfEdgeSet.standard(3, 4), legal_only=True)
        collapse = flag_collapse(ideal_edges._compatibility_masks(vertices))
        assert collapse.alive.bit_count() == 87
        assert sum(row.bit_count() for row in collapse.rows) == 2 * 1431

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_full_complexes_use_their_own_simplices(self, m, monkeypatch):
        calls = []
        clique_levels = ideal_edges._clique_levels

        def counting(rows, alive):
            calls.append(alive)
            return clique_levels(rows, alive)

        monkeypatch.setattr(ideal_edges, "_clique_levels", counting)
        c = build_complex(HalfEdgeSet.standard(0, m), max_simplices=200000)
        assert flag_collapse(c.rows).steps == ()
        hom = reduced_homology(c)
        assert hom.reduced_betti[m - 4] == factorial(m - 2)
        # Nothing collapses, so the one listing is of the whole graph.
        assert calls == [(1 << len(c.vertices)) - 1]

    def test_legal_homology_lists_only_the_core(self, monkeypatch):
        c = build_complex(
            HalfEdgeSet.standard(3, 3), legal_only=True, max_simplices=200000
        )
        sizes = []
        face_lists = homology._face_lists

        def recording(levels):
            sizes.append([len(level) for level in levels])
            return face_lists(levels)

        monkeypatch.setattr(homology, "_face_lists", recording)
        hom = reduced_homology(c)
        assert sizes == [[1]]
        # Padded to the dimension of the whole complex.
        assert hom.reduced_betti == (0,) * (c.dim + 1)
        assert hom.torsion == ((),) * (c.dim + 1)


# Every structure with 4 to 8 half-edges.
SMALL_STRUCTURES = [
    (r, s) for r in range(5) for s in range(9 - 2 * r) if 2 * r + s >= 4
]


class TestCliqueCounts:
    def test_random_graphs_count_their_listing(self):
        for n, edges in random_graphs():
            rows = graph_rows(n, edges)
            levels = cliques(rows)
            counts = ideal_edges._clique_counts(rows, 10**6)
            assert counts == tuple(len(level) for level in levels)

    @pytest.mark.parametrize("legal_only", [True, False])
    @pytest.mark.parametrize("r,s", SMALL_STRUCTURES)
    def test_counts_match_the_listing(self, r, s, legal_only):
        c = build_complex(
            HalfEdgeSet.standard(r, s), legal_only=legal_only, max_simplices=200000
        )
        assert c.counts() == tuple(len(level) for level in c.simplices_by_dim)
        assert c.total_simplices == sum(c.counts())
        assert c.dim == len(c.simplices_by_dim) - 1

    # Legal (2,0) and full (0,4) have no edge: the cap counts vertices too.
    @pytest.mark.parametrize(
        "r,s,legal_only",
        [
            (2, 0, True),
            (0, 4, False),
            (2, 2, True),
            (3, 2, True),
            (2, 4, True),
            (0, 6, False),
        ],
    )
    def test_cap_boundary_is_exact(self, r, s, legal_only):
        h = HalfEdgeSet.standard(r, s)
        total = build_complex(h, legal_only, max_simplices=10**6).total_simplices
        c = build_complex(h, legal_only, max_simplices=total)
        assert c.total_simplices == total
        with pytest.raises(SizeCapError, match=f"exceeds {total - 1} simplices"):
            build_complex(h, legal_only, max_simplices=total - 1)

    def test_legal_complex_stores_no_simplices(self):
        c = build_complex(
            HalfEdgeSet.standard(3, 3), legal_only=True, max_simplices=200000
        )
        assert reduced_homology(c).trivial
        assert "simplices_by_dim" not in vars(c)
        assert c.counts()[0] == len(c.vertices)


class TestReplay:
    # The path 0 - 1 - 2 plus the square 3 - 4 - 5 - 6.
    ROWS = graph_rows(7, [(0, 1), (1, 2)] + cycle(4, 3))

    def test_valid_steps(self):
        core = replay_flag_collapse(self.ROWS, [(1 << 0, 1), (1 << 2, 1)])
        assert core.alive == 0b1111010
        assert core.rows[1] == 0

    def test_edge_step(self):
        # In the triangle 0 1 2 the edge 01 is dominated by 2.
        rows = graph_rows(3, [(0, 1), (1, 2), (0, 2)])
        core = replay_flag_collapse(rows, [(0b011, 2)])
        assert core.alive == 0b111
        assert core.rows == (0b100, 0b100, 0b011)

    @pytest.mark.parametrize(
        "steps, message",
        [
            # Vertex 3 on the square is dominated by nothing.
            ([(1 << 3, 4)], "not dominated"),
            ([(1 << 3, 5)], "not dominated"),
            # The edge 34 on the square is dominated by nothing.
            ([(1 << 3 | 1 << 4, 5)], "not dominated"),
            # Vertex 0 is dominated by 1, not by 2.
            ([(1 << 0, 2)], "not dominated"),
            # 3 and 5 are no edge.
            ([(1 << 3 | 1 << 5, 4)], "not an edge"),
            # Vertex 0 is removed twice, or used as a dominator once gone.
            ([(1 << 0, 1), (1 << 0, 1)], "not a present vertex"),
            ([(1 << 0, 1), (1 << 1 | 1 << 0, 2)], "not a present vertex"),
            ([(1 << 0, 1), (1 << 1, 0)], "not a present vertex"),
            # A dominator inside the step, out of range, or three vertices.
            ([(1 << 0, 0)], "not a present vertex"),
            ([(1 << 0, 7)], "not a present vertex"),
            ([(1 << 0, -1)], "not a present vertex"),
            ([(0, 1)], "not a present vertex"),
            ([(0b111, 1)], "not a present vertex"),
        ],
    )
    def test_bad_steps_raise(self, steps, message):
        with pytest.raises(StructureAnomalyError, match=message):
            replay_flag_collapse(self.ROWS, steps)
