import dataclasses

import pytest

from raagvcd.graph_core import (
    DefiningGraph,
    GraphError,
    IneligibleGraphError,
    StructureAnomalyError,
    gamma_zero,
    pieces,
)
from raagvcd.vcd_bounds import (
    LOWER_BASE,
    LOWER_NONHUB_EDGE,
    LOWER_NONHUB_NODE,
    TAG_LB_ZERO,
    TAG_NO_SHORT_CYCLES,
    TAG_TREE,
    lower_bound,
    tag_cycle,
    unique_cycle_length,
    upper_bound,
    vcd_report,
)
from raagvcd.corpus import (
    cycle_tree_fixtures,
    eligible_trees,
    square_free_non_trees,
    squares_with_trees,
)


def bounds_of(g):
    core = gamma_zero(g)
    dec = pieces(g)
    return lower_bound(g, core, dec), upper_bound(g, core, dec)


class TestLowerBound:
    def test_p5_base_case(self, g_p5):
        lower, _ = bounds_of(g_p5)
        assert lower.value == 5
        assert lower.case == LOWER_BASE

    def test_c5l_nonhub_edge(self, g_c5l):
        lower, _ = bounds_of(g_c5l)
        assert lower.value == 3
        assert lower.case == LOWER_NONHUB_EDGE
        # The witness must be a core edge with two non-hub endpoints.
        dec = pieces(g_c5l)
        a, b = lower.witness
        assert frozenset((a, b)) in gamma_zero(g_c5l).graph.edges
        assert a not in g_c5l.nameset(dec.hubs) and b not in g_c5l.nameset(dec.hubs)

    def test_spider(self, g_spider):
        lower, _ = bounds_of(g_spider)
        assert lower.value == 9
        assert lower.case == LOWER_BASE

    def test_middle_case_nonhub_node(self):
        # Six-cycle n1-n2-n5-n6-n4-n3 with the chord n1-n6 (two squares) and
        # a leaf at n4.  Core is {n1, n4, n6}; n1 and n4 are not hubs but
        # every core edge contains the hub n6, so only the one-step bump
        # applies: base (2-1)+2*4-2 = 7, lower 8, upper 9, no exact value.
        g = DefiningGraph.from_edges(
            [("n0", "n4"), ("n1", "n2"), ("n1", "n3"), ("n1", "n6"),
             ("n2", "n5"), ("n3", "n4"), ("n4", "n6"), ("n5", "n6")]
        )
        lower, upper = bounds_of(g)
        assert lower.value == 8
        assert lower.case == LOWER_NONHUB_NODE
        assert lower.witness == "n1"
        assert upper.value == 9
        report = vcd_report(g)
        assert report.exact is None
        assert g.nameset(report.core.nodes) == frozenset({"n1", "n4", "n6"})


class TestUpperBound:
    def test_p5_terms(self, g_p5):
        _, upper = bounds_of(g_p5)
        assert upper.value == 5
        assert dict(upper.terms) == {"b": 1, "c": 0, "d": 1}

    def test_c5l_terms(self, g_c5l):
        _, upper = bounds_of(g_c5l)
        assert upper.value == 3
        assert upper.terms["v1"] == 2
        assert all(upper.terms[f"v{i}"] == 0 for i in range(2, 6))

    def test_square_term_uses_zero_branch(self, g_square):
        # Core has no unique-maximal nodes: per-node term is 2|v| - 3.
        _, upper = bounds_of(g_square)
        assert dict(upper.terms) == {"a": 1, "b": 1}
        assert upper.value == 2

    def test_core_node_of_valence_one_raises(self, g_p5):
        # A hand-built core with the leaf a among its nodes: PSigma(1, k)
        # does not exist, so the bound refuses before summing.
        abcd = g_p5.full ^ g_p5.bit[g_p5.code["e"]]
        core = dataclasses.replace(gamma_zero(g_p5), nodes=abcd)
        with pytest.raises(StructureAnomalyError, match="valence below 2"):
            upper_bound(g_p5, core, pieces(g_p5))


class TestReport:
    def test_p5(self, g_p5):
        report = vcd_report(g_p5)
        assert report.exact == 5
        assert report.applicable == frozenset({TAG_TREE})
        assert report.kernel_rank == 3

    def test_c5l(self, g_c5l):
        report = vcd_report(g_c5l)
        assert report.exact == 3
        assert report.applicable == frozenset(
            {TAG_NO_SHORT_CYCLES, tag_cycle(5), TAG_LB_ZERO}
        )
        assert report.kernel_rank == 1

    def test_five_cycle_with_leaf_per_node(self):
        edges = [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
        edges += [(f"v{i}", f"u{i}") for i in range(5)]
        g = DefiningGraph.from_edges(edges)
        report = vcd_report(g)
        assert report.exact == 15  # e - k + 2*leaves = 10 - 5 + 10

    def test_star_refused(self, g_star):
        with pytest.raises(IneligibleGraphError) as exc:
            vcd_report(g_star)
        assert exc.value.report.is_star

    def test_triangle_refused(self):
        g = DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(IneligibleGraphError):
            vcd_report(g)

    def test_disconnected_refused(self):
        g = DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")])
        with pytest.raises(IneligibleGraphError) as exc:
            vcd_report(g)
        assert not exc.value.report.is_connected

    def test_isomorphism_invariance(self, g_c5l):
        mapping = {n: f"w_{n}" for n in g_c5l.nodes}
        report = vcd_report(g_c5l)
        report2 = vcd_report(g_c5l.renamed(mapping))
        assert report.lower.value == report2.lower.value
        assert report.lower.case == report2.lower.case
        assert report.upper.value == report2.upper.value
        assert report.exact == report2.exact
        assert report.applicable == report2.applicable

    def test_unique_cycle_length_needs_chi_zero(self, g_p5):
        # A tree (chi = 1) and two squares sharing a path (chi = -1).
        theta = DefiningGraph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e"), ("e", "c")]
        )
        for g in (g_p5, theta):
            with pytest.raises(GraphError, match="Euler characteristic zero"):
                unique_cycle_length(g)

    def test_square_with_trees_cycle_tag(self):
        for g in squares_with_trees():
            report = vcd_report(g)
            k = unique_cycle_length(g)
            assert k == 4
            assert tag_cycle(4) in report.applicable
            assert report.exact == g.num_edges - 4 + 2 * len(g.leaves)

    def test_bipartite_with_leaf_general_case_only(self):
        # Contains squares and U is a proper subset of the core, so only the
        # general upper formula applies; the bounds still happen to meet.
        g = DefiningGraph.from_edges(
            [("x", "p"), ("x", "q"), ("x", "r"),
             ("y", "p"), ("y", "q"), ("y", "r"), ("p", "u")]
        )
        report = vcd_report(g)
        assert g.nameset(report.core.nodes) == frozenset({"p", "x"})
        assert g.nameset(report.core.unique_maximal) == frozenset({"p"})
        assert report.lower.case == LOWER_BASE
        assert report.upper.case == "GENERAL"
        assert report.exact == 7
        assert report.applicable == frozenset()

    def test_json_payload_shape(self, g_p5):
        payload = vcd_report(g_p5).to_dict()
        assert payload["exact"] == 5
        assert payload["theorems"] == ["Tree"]
        assert payload["lower"]["case"] == "BASE"
        assert payload["upper"]["terms"] == {"b": 1, "c": 0, "d": 1}
        assert payload["kernel_rank"] == 3


class TestCorpusInvariants:
    def test_lower_at_most_upper_everywhere(self):
        graphs = (
            list(eligible_trees(8))
            + cycle_tree_fixtures((5, 6))[:60]
            + square_free_non_trees()[:60]
        )
        for g in graphs:
            report = vcd_report(g)
            assert report.lower.value <= report.upper.value

    def test_trees_exact(self):
        for g in eligible_trees(8):
            report = vcd_report(g)
            assert report.exact == g.num_edges + 2 * len(g.leaves) - 3
            assert TAG_TREE in report.applicable

    def test_square_free_sandwich(self):
        for g in square_free_non_trees():
            report = vcd_report(g)
            pi = report.decomposition.count
            ell = len(g.leaves)
            chi = g.euler_characteristic
            assert report.lower.value == pi + 2 * ell - 1
            assert report.upper.value == pi + 2 * ell - 1 - 2 * chi
            assert TAG_NO_SHORT_CYCLES in report.applicable

    def test_unique_cycle_exact(self):
        fixtures = cycle_tree_fixtures()
        assert len(fixtures) >= 20
        for g in fixtures[:80]:
            report = vcd_report(g)
            k = unique_cycle_length(g)
            assert report.exact == g.num_edges - k + 2 * len(g.leaves)
            assert tag_cycle(k) in report.applicable
