from itertools import product

from raagvcd.corpus import (
    canonical_tree_code,
    cycle_tree_fixtures,
    eligible_trees,
    free_trees,
    spider,
    square_free_non_trees,
)
from raagvcd.graph_core import validate


def test_free_tree_counts_match_known_sequence():
    assert [len(free_trees(n)) for n in range(1, 10)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47,
    ]


def test_enumeration_agrees_with_labeled_brute_force():
    # Cross-check against all Pruefer sequences for small n.
    for n in range(3, 7):
        labeled_codes = set()
        for seq in product(range(n), repeat=n - 2):
            degree = [1] * n
            for x in seq:
                degree[x] += 1
            edges = []
            seq_list = list(seq)
            leaves = sorted(i for i in range(n) if degree[i] == 1)
            work_degree = degree[:]
            import heapq

            heap = leaves[:]
            heapq.heapify(heap)
            for x in seq_list:
                leaf = heapq.heappop(heap)
                edges.append((leaf, x))
                work_degree[x] -= 1
                if work_degree[x] == 1:
                    heapq.heappush(heap, x)
            last = [i for i in range(n) if i not in {e[0] for e in edges}]
            edges.append((last[0], last[1]))
            labeled_codes.add(canonical_tree_code(edges, n))
        assert len(labeled_codes) == len(free_trees(n))


def test_eligible_trees_are_eligible_and_exhaustive():
    for n, expected in [(4, 1), (5, 2), (6, 5), (7, 10), (8, 22)]:
        trees = [g for g in eligible_trees(n) if g.num_nodes == n]
        assert len(trees) == expected
        for g in trees:
            report = validate(g)
            assert report.eligible
            assert g.num_edges == g.num_nodes - 1


def test_cycle_fixtures_unique_cycle():
    fixtures = cycle_tree_fixtures()
    assert len(fixtures) >= 20
    for g in fixtures[:50]:
        assert g.euler_characteristic == 0
        assert validate(g).eligible


def test_square_free_fixtures():
    graphs = square_free_non_trees()
    assert graphs
    for g in graphs:
        report = validate(g)
        assert report.eligible and report.square_free
        assert g.num_edges >= g.num_nodes  # not a tree


def test_spider_shape():
    g = spider()
    assert g.num_nodes == 7
    assert g.num_edges == 6
    assert len(g.leaves) == 3
