"""Seeded inputs for the benchmark, built with the standard library only.

Graphs are generated and checked here without calling raagvcd: eligibility
(connected, triangle-free, not a star) and the invariants the oracles need
(leaves, blocks, girth) come from this module's own code.  The same seed
always gives byte-identical graph files and the same words.
"""
from __future__ import annotations

import random
import string
from collections import deque
from dataclasses import dataclass

NAME_CHARS = string.ascii_lowercase + string.digits + "_"

Edge = tuple[str, str]


@dataclass(frozen=True)
class GraphInput:
    """One generated graph: its file text and the facts the oracles use."""

    label: str
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def text(self) -> str:
        lines = [f"# {self.label}"]
        lines.extend(f"edge {a} {b}" for a, b in self.edges)
        return "\n".join(lines) + "\n"


def adjacency(nodes, edges) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def is_connected(adj: dict[str, set[str]]) -> bool:
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def is_triangle_free(adj: dict[str, set[str]]) -> bool:
    return all(not (adj[a] & adj[b]) for a in adj for b in adj[a])


def is_star(adj: dict[str, set[str]], num_edges: int) -> bool:
    return any(len(nbrs) == num_edges == len(adj) - 1 for nbrs in adj.values())


def eligible(adj: dict[str, set[str]], num_edges: int) -> bool:
    return is_connected(adj) and is_triangle_free(adj) and not is_star(adj, num_edges)


def leaf_count(adj: dict[str, set[str]]) -> int:
    return sum(1 for nbrs in adj.values() if len(nbrs) == 1)


def block_count(adj: dict[str, set[str]]) -> int:
    """Blocks of a connected graph (bridges count as blocks), by Tarjan's
    low-point recursion written iteratively."""
    start = next(iter(adj))
    disc = {start: 0}
    low = {start: 0}
    blocks = 0
    stack = [(start, None, iter(sorted(adj[start])))]
    while stack:
        v, parent, nbrs = stack[-1]
        for w in nbrs:
            if w == parent:
                continue
            if w in disc:
                low[v] = min(low[v], disc[w])
            else:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(sorted(adj[w]))))
                break
        else:
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    blocks += 1
    return blocks


def girth(adj: dict[str, set[str]]) -> int | None:
    """Length of a shortest cycle, or ``None`` for a forest."""
    best = None
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    cycle = dist[v] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def _names(rng: random.Random, n: int) -> list[str]:
    names: set[str] = set()
    while len(names) < n:
        names.add("".join(rng.choices(NAME_CHARS, k=rng.randint(1, 5))))
    out = sorted(names)
    rng.shuffle(out)
    return out


def _prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((u, v))
    return edges


def random_eligible_graph(
    rng: random.Random, n: int, extra: int, label: str
) -> GraphInput:
    """A random spanning tree on ``n`` nodes plus up to ``extra`` edges that
    close no triangle, under random node names and edge order."""
    while True:
        names = _names(rng, n)
        edges = {frozenset((names[a], names[b])) for a, b in _prufer_tree(rng, n)}
        adj = adjacency(names, (tuple(e) for e in edges))
        for _ in range(extra):
            for _attempt in range(20):
                a, b = rng.sample(names, 2)
                if b not in adj[a] and not (adj[a] & adj[b]):
                    edges.add(frozenset((a, b)))
                    adj[a].add(b)
                    adj[b].add(a)
                    break
        if not eligible(adj, len(edges)):
            continue
        ordered = []
        for e in sorted(edges, key=sorted):
            a, b = sorted(e)
            ordered.append((a, b) if rng.random() < 0.5 else (b, a))
        rng.shuffle(ordered)
        return GraphInput(label, tuple(names), tuple(ordered))


def graph_mix(
    rng: random.Random, count: int, min_nodes: int, max_nodes: int, prefix: str
) -> list[GraphInput]:
    """``count`` eligible graphs with node counts and 0-4 extra edges spread
    evenly, so every seed draws the same mix of trees, unique-cycle and
    multi-cycle graphs and only their shapes and names vary."""
    sizes = max_nodes - min_nodes + 1
    return [
        random_eligible_graph(
            rng, min_nodes + i % sizes, (i // sizes) % 5, f"{prefix}{i:04d}"
        )
        for i in range(count)
    ]


def fixed_graphs() -> list[GraphInput]:
    """The 5-leg spider with legs of length 3, the 3x3 grid and C5L."""
    spider = []
    for leg in range(5):
        prev = "hub"
        for step in range(1, 4):
            spider.append((prev, f"l{leg}_{step}"))
            prev = f"l{leg}_{step}"
    grid = []
    for i in range(3):
        for j in range(3):
            if i < 2:
                grid.append((f"g{i}{j}", f"g{i + 1}{j}"))
            if j < 2:
                grid.append((f"g{i}{j}", f"g{i}{j + 1}"))
    c5l = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1"), ("v1", "u")]
    out = []
    for label, edges in (("spider_5_3", spider), ("grid_3x3", grid), ("c5l", c5l)):
        nodes = tuple(dict.fromkeys(v for e in edges for v in e))
        out.append(GraphInput(label, nodes, tuple(edges)))
    return out


Letter = tuple[str, int]


def random_word(rng: random.Random, nodes: list[str], length: int) -> list[Letter]:
    return [(rng.choice(nodes), rng.choice((1, -1))) for _ in range(length)]


def shuffle_word(
    rng: random.Random, letters: list[Letter], adj: dict[str, set[str]]
) -> list[Letter]:
    """Apply a seeded sequence of transpositions of adjacent commuting
    letters, so the result is the same group element."""
    out = list(letters)
    for _ in range(2 * len(out)):
        i = rng.randrange(len(out) - 1)
        a, b = out[i][0], out[i + 1][0]
        if a == b or b in adj[a]:
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


def free_reduce(letters: list[Letter]) -> list[Letter]:
    """Free reduction with a stack: the normal form when no letters commute."""
    out: list[Letter] = []
    for gen, exp in letters:
        if out and out[-1] == (gen, -exp):
            out.pop()
        else:
            out.append((gen, exp))
    return out
