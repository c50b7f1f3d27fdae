"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check uses exact integer equality and asserts its runtime
budget.
"""
import random
import time

from raagvcd.graph_core import DefiningGraph, gamma_zero, pieces
from raagvcd.vcd_bounds import TAG_NO_SHORT_CYCLES, unique_cycle_length, vcd_report
from raagvcd.words import equal, generator, word
from raagvcd.autos import (
    build_generator_set,
    inner_conjugator,
    lift_local,
    project_local,
    verify_commuting,
)
from raagvcd.psigma import PsigmaSpec, outer_rank, psigma_generators, psigma_vcd
from raagvcd.ideal_edges import (
    HalfEdgeSet,
    build_complex,
    facets_match_trivalent_trees,
    morse_collapse_certificate,
    reduced_homology,
)
from raagvcd.corpus import (
    cycle_tree_fixtures,
    eligible_trees,
    spider,
    square_free_non_trees,
)

C5L = DefiningGraph.from_edges(
    [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1"), ("v1", "u")]
)
P5 = DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])


class Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"PASS: {self.label} ({elapsed:.1f}s)")
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.1f}s exceeded budget {self.seconds}s"
            )
        else:
            print(f"FAIL: {self.label}")
        return False


def test_tree_exactness():
    with Budget("tree exactness on all non-star trees up to 9 nodes", 60):
        count = 0
        for g in eligible_trees(9):
            report = vcd_report(g)
            expected = g.num_edges + 2 * len(g.leaves) - 3
            assert report.lower.value == expected
            assert report.upper.value == expected
            assert report.exact == expected
            count += 1
        assert count == 1 + 2 + 5 + 10 + 22 + 46


def test_unique_cycle_exactness():
    with Budget("unique-cycle exactness on 5/6/7-cycles with trees", 30):
        fixtures = cycle_tree_fixtures((5, 6, 7))
        assert len(fixtures) >= 20
        for g in fixtures:
            report = vcd_report(g)
            k = unique_cycle_length(g)
            assert report.exact == g.num_edges - k + 2 * len(g.leaves)


def test_square_free_sandwich():
    with Budget("square-free sandwich formulas", 30):
        graphs = square_free_non_trees()
        assert graphs
        for g in graphs:
            report = vcd_report(g)
            pi = report.decomposition.count
            ell = len(g.leaves)
            chi = g.euler_characteristic
            assert report.lower.value == pi + 2 * ell - 1
            assert report.upper.value == pi + 2 * ell - 1 - 2 * chi
            assert TAG_NO_SHORT_CYCLES in report.applicable


def test_witness_ranks():
    with Budget("witness generator sets on the three fixtures", 60):
        expectations = []

        gs_p5 = build_generator_set(P5)
        expectations.append((gs_p5, 7, 2, 5, vcd_report(P5).lower.value))

        # The breadth-first tree of the core from (v3, v4) is the path v1-v5.
        gs_c5l = build_generator_set(C5L, base_edge=("v3", "v4"))
        expectations.append((gs_c5l, 3, 0, 3, vcd_report(C5L).lower.value))

        gs_spider = build_generator_set(spider())
        expectations.append((gs_spider, 11, 2, 9, vcd_report(spider()).lower.value))

        for gs, count, inner_rank, outer, lower in expectations:
            assert gs.count == count
            assert gs.inner_rank == inner_rank
            assert gs.outer_rank == outer
            assert outer == lower  # rank achieves the best lower-bound case
            assert not gs.uncertified_pairs()


def test_commutation_lemma():
    with Budget("commutation certificates on trees up to 8 nodes and C5L", 300):
        total = 0
        uncertified = 0
        for g in list(eligible_trees(8)) + [C5L]:
            gs = build_generator_set(g, certify=False)
            certs = verify_commuting(gs)
            total += len(certs)
            uncertified += sum(1 for c in certs.values() if not c.certified)
        assert total > 0
        assert uncertified == 0


def test_psigma_values():
    with Budget("partially symmetric family formulas and ranks", 5):
        for n in range(2, 7):
            assert psigma_vcd(n, n) == n - 2
            assert psigma_vcd(n, 0) == 2 * n - 3
        for n in range(2, 7):
            for k in range(1, n + 1):
                spec = PsigmaSpec(n, k)
                assert outer_rank(spec, psigma_generators(spec)) == 2 * n - k - 2


def test_lift_round_trip():
    with Budget("lift/projection round trips on trees up to 8 nodes", 30):
        rng = random.Random(20260808)
        attempts = 0
        for g in eligible_trees(8):
            interior = sorted(v for v in g.nodes if g.degree(v) >= 2)
            v = interior[rng.randrange(len(interior))]
            lk = sorted(g.link(v))
            local = DefiningGraph(tuple(lk), frozenset())
            letters = [(n, s) for n in lk for s in (1, -1)]
            data = {
                w: word(local, [rng.choice(letters) for _ in range(rng.randrange(4))])
                for w in lk
            }
            lifted = lift_local(g, v, data)  # raises if postconditions fail
            back = project_local(lifted, v)
            for w in lk:
                expected = data[w] * generator(local, w) * data[w].inverse()
                assert equal(back.images[w], expected)
            for u in interior:
                if u != v:
                    assert inner_conjugator(project_local(lifted, u)) is not None
            attempts += 1
        assert attempts == 1 + 2 + 5 + 10 + 22


def test_ideal_edge_complexes():
    with Budget("legal complexes: homology plus collapse certificates", 120):
        for r in (2, 3):
            for s in range(4):
                c = build_complex(
                    HalfEdgeSet.standard(r, s),
                    legal_only=True,
                    max_simplices=200000,
                )
                hom = reduced_homology(c)
                assert hom.trivial, (r, s, hom)
                cert = morse_collapse_certificate(c)
                assert cert.ok, (r, s, cert.failures)
        expected_counts = {4: 3, 5: 15, 6: 105, 7: 945}
        for r, s in [(2, 0), (2, 1), (2, 2), (3, 0), (2, 3), (3, 1)]:
            h = HalfEdgeSet.standard(r, s)
            c = build_complex(h, max_simplices=200000)
            facets = c.maximal_simplices()
            assert len(facets) == expected_counts[h.size]
            assert facets_match_trivalent_trees(c)


def test_structural_assertions():
    with Budget("separation-count identities across the corpus", 60):
        graphs = (
            list(eligible_trees(9))
            + cycle_tree_fixtures((5, 6, 7))
            + square_free_non_trees()
        )
        for g in graphs:
            dec = pieces(g)  # raises on any separation-count mismatch
            core = gamma_zero(g)
            excess = sum(dec.delta_c[g.code[v]] - 1 for v in g.nameset(core.nodes))
            assert excess == dec.count - 1
