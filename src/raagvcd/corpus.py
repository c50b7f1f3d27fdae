"""Deterministic graph corpora for the verification suites.

Exhaustive non-isomorphic free trees (deduplicated by a canonical rooted
encoding at the tree center), cycles with trees attached, and a handful of
square-free non-tree shapes.  Everything is reproducible: no randomness,
fixed node naming.
"""
from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .graph_core import DefiningGraph, validate


def _canonical_rooted(adj: dict[int, set[int]], root: int, parent: int | None) -> str:
    children = sorted(
        _canonical_rooted(adj, c, root) for c in adj[root] if c != parent
    )
    return "(" + "".join(children) + ")"


def _centers(adj: dict[int, set[int]]) -> list[int]:
    degrees = {v: len(nbrs) for v, nbrs in adj.items()}
    alive = set(adj)
    layer = [v for v in alive if degrees[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for n in adj[v]:
                if n in alive:
                    degrees[n] -= 1
                    if degrees[n] == 1:
                        nxt.append(n)
        layer = nxt
    return sorted(alive)


def canonical_tree_code(edges: list[tuple[int, int]], n: int) -> str:
    """Isomorphism-invariant encoding of a free tree."""
    if n == 1:
        return "()"
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    centers = _centers(adj)
    if len(centers) == 1:
        return _canonical_rooted(adj, centers[0], None)
    c1, c2 = centers
    halves = sorted(
        (_canonical_rooted(adj, c1, c2), _canonical_rooted(adj, c2, c1))
    )
    return "[" + halves[0] + halves[1] + "]"


def free_trees(n: int) -> list[list[tuple[int, int]]]:
    """All free trees on ``n`` nodes up to isomorphism, as edge lists.

    Grown by attaching a new leaf to every node of every smaller tree and
    deduplicating by the canonical code.
    """
    if n < 1:
        return []
    trees: list[list[tuple[int, int]]] = [[]]
    for size in range(2, n + 1):
        seen: set[str] = set()
        grown: list[list[tuple[int, int]]] = []
        for tree in trees:
            for attach in range(size - 1):
                candidate = tree + [(attach, size - 1)]
                code = canonical_tree_code(candidate, size)
                if code not in seen:
                    seen.add(code)
                    grown.append(candidate)
        trees = grown
    return trees


def tree_graph(edges: list[tuple[int, int]]) -> DefiningGraph:
    return DefiningGraph.from_edges(
        [(f"n{a}", f"n{b}") for a, b in edges]
    )


def eligible_trees(max_nodes: int) -> Iterator[DefiningGraph]:
    """Non-star trees with at most ``max_nodes`` nodes."""
    for n in range(2, max_nodes + 1):
        for edges in free_trees(n):
            g = tree_graph(edges)
            if validate(g).eligible:
                yield g


def cycle_graph(k: int) -> DefiningGraph:
    return DefiningGraph.from_edges([(f"c{i}", f"c{(i + 1) % k}") for i in range(k)])


def cycle_with_trees(k: int, attachments: dict[int, list[tuple[int, int]]]) -> DefiningGraph:
    """A ``k``-cycle with a tree glued to selected cycle nodes.

    ``attachments[i]`` is an edge list over 0..m with node 0 identified with
    the i-th cycle node.
    """
    edges: list[tuple[str, str]] = [
        (f"c{i}", f"c{(i + 1) % k}") for i in range(k)
    ]
    for i, tree_edges in attachments.items():
        def name(x: int) -> str:
            return f"c{i}" if x == 0 else f"t{i}_{x}"

        edges.extend((name(a), name(b)) for a, b in tree_edges)
    return DefiningGraph.from_edges(edges)


PATH_2 = [(0, 1), (1, 2)]
PATH_1 = [(0, 1)]
FORK = [(0, 1), (1, 2), (1, 3)]
DEEP = [(0, 1), (1, 2), (2, 3)]


def cycle_tree_fixtures(lengths: Iterable[int] = (5, 6, 7)) -> list[DefiningGraph]:
    """Deterministic family of unique-cycle graphs: every nonempty pattern of
    leaf/path/fork attachments on up to three cycle nodes, per length."""
    fixtures: list[DefiningGraph] = []
    shapes = [None, PATH_1, PATH_2, FORK, DEEP]
    for k in lengths:
        for combo in product(range(len(shapes)), repeat=3):
            if all(c == 0 for c in combo):
                continue
            attachments = {
                pos: shapes[c]
                for pos, c in zip((0, 1, 3), combo)
                if c != 0
            }
            fixtures.append(cycle_with_trees(k, attachments))
    return fixtures


def square_free_non_trees() -> list[DefiningGraph]:
    """Square-free graphs with cycles: long cycles, decorated cycles, theta
    graphs and a two-cycle dumbbell."""
    theta = DefiningGraph.from_edges(
        [
            ("u", "p1"), ("p1", "p2"), ("p2", "w"),
            ("u", "q1"), ("q1", "q2"), ("q2", "w"),
            ("u", "r1"), ("r1", "r2"), ("r2", "w"),
        ]
    )
    dumbbell = DefiningGraph.from_edges(
        [
            ("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a0"),
            ("a0", "m1"), ("m1", "m2"),
            ("m2", "b0"),
            ("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b0"),
        ]
    )
    out = [cycle_graph(k) for k in (5, 6, 7, 8)]
    out.extend(cycle_tree_fixtures((5, 6)))
    out.extend([theta, dumbbell])
    return [g for g in out if (v := validate(g)).eligible and v.square_free]


def spider(leg_count: int = 3, leg_length: int = 2) -> DefiningGraph:
    """A center with ``leg_count`` paths of ``leg_length`` edges attached."""
    edges: list[tuple[str, str]] = []
    for leg in range(leg_count):
        prev = "hub"
        for step in range(1, leg_length + 1):
            node = f"l{leg}_{step}"
            edges.append((prev, node))
            prev = node
    return DefiningGraph.from_edges(edges)


def squares_with_trees() -> list[DefiningGraph]:
    """Square-based fixtures where the core is still the graph minus its
    leaves (a leaf on every square node)."""
    base = [("s0", "s1"), ("s1", "s2"), ("s2", "s3"), ("s3", "s0")]
    one_leaf_each = base + [(f"s{i}", f"u{i}") for i in range(4)]
    paths_attached = base + [
        ("s0", "u0"), ("s1", "u1"), ("s2", "u2"), ("s3", "u3"), ("u3", "u4")
    ]
    return [
        DefiningGraph.from_edges(one_leaf_each),
        DefiningGraph.from_edges(paths_attached),
    ]
