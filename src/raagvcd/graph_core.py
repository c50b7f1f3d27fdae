"""Finite simplicial graphs and the structure theory behind the dimension bounds.

The input to every computation in this package is a finite simple graph.
This module parses the graph file format, checks the hypotheses every
bound needs (connected, triangle-free, not the star of a single node),
and derives the combinatorial structure the bound formulas consume:

* the domination partial order ``v <= w  iff  lk(v) is contained in lk(w)``
  and its partition into link-equality classes,
* the core subgraph spanned by one representative per maximal class,
* the decomposition into pieces (maximal 2-connected subgraphs, single
  edges included) together with hub detection.

Everything here is a pure function of an immutable graph value.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping
from weakref import WeakValueDictionary


class GraphError(ValueError):
    """Base class for graph construction and analysis failures."""


class ParseError(GraphError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IneligibleGraphError(GraphError):
    """The graph fails a hypothesis (connectivity, triangle-freeness, non-star).

    Carries the full :class:`ValidationReport` so callers can report which
    hypothesis failed instead of guessing.
    """

    def __init__(self, report: "ValidationReport"):
        super().__init__(f"graph not eligible: {report.failure_summary()}")
        self.report = report


class StructureAnomalyError(GraphError):
    """An internal structural identity failed; never expected on valid input."""


_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _edge(a: str, b: str) -> frozenset[str]:
    return frozenset((a, b))


@dataclass(frozen=True)
class DefiningGraph:
    """A finite simple graph with named nodes.

    ``nodes`` preserves first-appearance order; ``edges`` is a set of
    unordered pairs.  Simplicity (no loops, no multi-edges) and referential
    integrity are enforced at construction.
    """

    nodes: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise GraphError("graph has no nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError("duplicate node names")
        for name in self.nodes:
            if not _NAME_RE.match(name):
                raise GraphError(f"bad node name {name!r}")
        node_set = set(self.nodes)
        for e in self.edges:
            if len(e) != 2:
                raise GraphError(f"self-loop or malformed edge {sorted(e)}")
            if not e <= node_set:
                raise GraphError(f"edge {sorted(e)} references unknown node")

    @staticmethod
    def from_edges(
        edges: Iterable[tuple[str, str]], isolated: Iterable[str] = ()
    ) -> "DefiningGraph":
        """Build a graph from an edge list, nodes ordered by first appearance."""
        order: list[str] = []
        seen: set[str] = set()
        pairs: set[frozenset[str]] = set()
        for a, b in edges:
            for name in (a, b):
                if name not in seen:
                    seen.add(name)
                    order.append(name)
            pairs.add(_edge(a, b))
        for name in isolated:
            if name not in seen:
                seen.add(name)
                order.append(name)
        return DefiningGraph(tuple(order), frozenset(pairs))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.nodes}
        for e in self.edges:
            a, b = sorted(e)
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @cached_property
    def context(self) -> "GraphContext":
        """The integer coding of this graph, built on first use and shared
        by every equal graph."""
        ctx = _CONTEXTS.get((self.nodes, self.edges))
        if ctx is None:
            ctx = _CONTEXTS[self.nodes, self.edges] = GraphContext(self)
        return ctx

    def link(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def euler_characteristic(self) -> int:
        return self.num_nodes - self.num_edges

    @cached_property
    def leaves(self) -> frozenset[str]:
        return frozenset(v for v in self.nodes if self.degree(v) == 1)

    def components(self, *, without: str | None = None) -> tuple[frozenset[str], ...]:
        """Connected components, optionally of the graph minus one node.

        Components are ordered by their smallest member for determinism.
        """
        skip = {without} if without is not None else set()
        remaining = [v for v in self.nodes if v not in skip]
        unseen = set(remaining)
        comps: list[frozenset[str]] = []
        for start in remaining:
            if start not in unseen:
                continue
            stack = [start]
            unseen.discard(start)
            comp = {start}
            while stack:
                u = stack.pop()
                for nbr in self.adjacency[u]:
                    if nbr in unseen:
                        unseen.discard(nbr)
                        comp.add(nbr)
                        stack.append(nbr)
            comps.append(frozenset(comp))
        return tuple(sorted(comps, key=lambda c: min(c)))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def induced_edges(self, nodes: Iterable[str]) -> frozenset[frozenset[str]]:
        keep = set(nodes)
        return frozenset(e for e in self.edges if e <= keep)

    def renamed(self, mapping: Mapping[str, str]) -> "DefiningGraph":
        """Apply a node renaming (used by the isomorphism-invariance tests)."""
        return DefiningGraph(
            tuple(mapping[v] for v in self.nodes),
            frozenset(frozenset(mapping[v] for v in e) for e in self.edges),
        )


class GraphContext:
    """Integer codes for the nodes of a graph, as words and maps use them.

    Node ``names[i]`` has code ``i + 1``, so codes compare as the names do;
    a letter is ``+code`` or ``-code`` for the inverse.  The bit tables are
    indexed by letter, a negative one counting from the end: ``bit[l]`` is
    the node's bit, ``adj[l]`` its neighbours' bits and ``star[l]`` those
    and its own, so letters ``l`` and ``m`` commute exactly when
    ``star[l] & bit[m]``.
    """

    __slots__ = ("graph", "names", "code", "bit", "adj", "star", "__weakref__")

    def __init__(self, graph: DefiningGraph):
        self.graph = graph
        self.names = tuple(sorted(graph.nodes))
        code = self.code = {x: i + 1 for i, x in enumerate(self.names)}
        bits = [1 << i for i in range(len(self.names))]
        adj = [sum(bits[code[y] - 1] for y in graph.adjacency[x]) for x in self.names]
        tables = (bits, adj, [m | b for m, b in zip(adj, bits)])
        self.bit, self.adj, self.star = ([0, *t, *t[::-1]] for t in tables)


_CONTEXTS: WeakValueDictionary = WeakValueDictionary()


def parse_graph(text: str) -> DefiningGraph:
    """Parse the graph file format.

    One directive per line: ``# comment``, ``node <name>`` (optional
    pre-declaration) or ``edge <a> <b>``.  Node order is first-appearance
    order.  Self-loops, repeated edges, bad tokens and empty graphs are
    rejected with the offending line number.
    """
    order: list[str] = []
    seen: set[str] = set()
    pairs: set[frozenset[str]] = set()

    def note(name: str, line: int) -> None:
        if not _NAME_RE.match(name):
            raise ParseError(f"bad name {name!r}", line)
        if name not in seen:
            seen.add(name)
            order.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 2:
                raise ParseError("expected: node <name>", lineno)
            note(parts[1], lineno)
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError("expected: edge <a> <b>", lineno)
            a, b = parts[1], parts[2]
            if a == b:
                raise ParseError(f"self-loop at {a!r}", lineno)
            note(a, lineno)
            note(b, lineno)
            e = _edge(a, b)
            if e in pairs:
                raise ParseError(f"duplicate edge {a} {b}", lineno)
            pairs.add(e)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if not order:
        raise ParseError("empty graph", max(1, text.count("\n") + 1))
    return DefiningGraph(tuple(order), frozenset(pairs))


@dataclass(frozen=True)
class ValidationReport:
    """Hypothesis check for a defining graph.

    ``eligible`` is the conjunction connected AND triangle_free AND not
    is_star; ``square_free`` is informational only and never gates anything.
    """

    is_connected: bool
    triangle_free: bool
    square_free: bool
    is_star: bool

    @property
    def eligible(self) -> bool:
        return self.is_connected and self.triangle_free and not self.is_star

    def failure_summary(self) -> str:
        reasons = []
        if not self.is_connected:
            reasons.append("not connected")
        if not self.triangle_free:
            reasons.append("contains a triangle")
        if self.is_star:
            reasons.append("is the star of a single node")
        return ", ".join(reasons) if reasons else "eligible"

    def to_dict(self) -> dict:
        return {
            "is_connected": self.is_connected,
            "triangle_free": self.triangle_free,
            "square_free": self.square_free,
            "is_star": self.is_star,
            "eligible": self.eligible,
        }


def validate(g: DefiningGraph) -> ValidationReport:
    """Compute the eligibility flags for ``g``.

    Triangles are detected by intersecting the endpoint links of each edge;
    squares by looking for a node pair with two common neighbors.  The star
    test asks for a node adjacent to every other node such that no edge
    avoids it.
    """
    adj = g.adjacency
    triangle_free = all(adj[min(e)] & adj[max(e)] == frozenset() for e in g.edges)

    square_free = True
    nodes = g.nodes
    for i, u in enumerate(nodes):
        for w in nodes[i + 1 :]:
            if len(adj[u] & adj[w]) >= 2:
                square_free = False
                break
        if not square_free:
            break

    is_star = False
    rest = g.num_nodes - 1
    for c in nodes:
        if len(adj[c]) == rest and all(c in e for e in g.edges):
            is_star = True
            break

    return ValidationReport(
        is_connected=g.is_connected(),
        triangle_free=triangle_free,
        square_free=square_free,
        is_star=is_star,
    )


def require_eligible(g: DefiningGraph) -> ValidationReport:
    report = validate(g)
    if not report.eligible:
        raise IneligibleGraphError(report)
    return report


@dataclass(frozen=True)
class DominationOrder:
    """The link-containment preorder and its equivalence classes.

    ``v <= w`` holds when ``lk(v)`` is contained in ``lk(w)``; nodes with
    equal links form one class.  A class is maximal when no node strictly
    dominates its members.
    """

    graph: DefiningGraph
    classes: tuple[frozenset[str], ...]
    maximal_classes: tuple[frozenset[str], ...]

    def leq(self, v: str, w: str) -> bool:
        return self.graph.link(v) <= self.graph.link(w)

    def dominators(self, v: str) -> frozenset[str]:
        return frozenset(w for w in self.graph.nodes if w != v and self.leq(v, w))

    def maximal_nodes(self) -> frozenset[str]:
        return frozenset(v for cls in self.maximal_classes for v in cls)


def domination_order(g: DefiningGraph) -> DominationOrder:
    by_link: dict[frozenset[str], list[str]] = {}
    for v in g.nodes:
        by_link.setdefault(g.link(v), []).append(v)
    classes = tuple(
        sorted((frozenset(members) for members in by_link.values()), key=min)
    )
    maximal = tuple(
        cls
        for cls in classes
        if not any(g.link(min(cls)) < g.link(w) for w in g.nodes)
    )
    return DominationOrder(graph=g, classes=classes, maximal_classes=maximal)


TieBreak = Callable[[frozenset[str]], str]


@dataclass(frozen=True)
class CoreSubgraph:
    """The subgraph spanned by one representative per maximal link class.

    ``unique_maximal`` is the subset of nodes that are maximal AND alone in
    their class; these are exactly the nodes no automorphism in the standard
    generating set can transvect onto.  ``pruned_leaves`` records whether the
    core equals the graph minus its leaves.
    """

    graph: DefiningGraph
    representatives: tuple[str, ...]
    nodes: frozenset[str]
    edges: frozenset[frozenset[str]]
    unique_maximal: frozenset[str]
    pruned_leaves: bool
    spans_connected: bool

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def valence(self, v: str) -> int:
        return self.graph.degree(v)

    def unique_maximal_valence(self, v: str) -> int:
        return len(self.graph.link(v) & self.unique_maximal)


def gamma_zero(
    g: DefiningGraph,
    order: DominationOrder | None = None,
    tie_break: TieBreak | None = None,
) -> CoreSubgraph:
    """Choose class representatives and span the core subgraph.

    The representative of each maximal class defaults to its
    lexicographically least member; ``tie_break`` overrides the policy.
    """
    if order is None:
        order = domination_order(g)
    pick = tie_break if tie_break is not None else min
    reps = tuple(sorted(pick(cls) for cls in order.maximal_classes))
    if len(set(reps)) != len(reps):
        raise GraphError("tie-break policy chose the same representative twice")
    rep_set = frozenset(reps)
    for rep in reps:
        if rep not in g.adjacency:
            raise GraphError(f"tie-break policy chose non-node {rep!r}")

    core_edges = g.induced_edges(rep_set)
    unique_maximal = frozenset(
        min(cls) for cls in order.maximal_classes if len(cls) == 1
    )
    non_leaves = frozenset(g.nodes) - g.leaves
    pruned = rep_set == non_leaves

    # Connectivity of the span is expected for every eligible graph; it is
    # recorded rather than repaired so that a violation surfaces as a finding.
    sub_adj = {v: g.link(v) & rep_set for v in rep_set}
    seen: set[str] = set()
    stack = [reps[0]]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(sub_adj[u] - seen)
    spans_connected = seen == set(rep_set)

    return CoreSubgraph(
        graph=g,
        representatives=reps,
        nodes=rep_set,
        edges=core_edges,
        unique_maximal=unique_maximal,
        pruned_leaves=pruned,
        spans_connected=spans_connected,
    )


@dataclass(frozen=True)
class PieceDecomposition:
    """Maximal 2-connected subgraphs (single edges count) and hub data.

    ``delta_c`` maps each node to the number of connected components of the
    graph minus that node, which must agree with the number of pieces
    containing it; the constructor cross-checks the two counts.  ``delta``
    maps each node to the union of the pieces containing it, and a node is a
    hub when every node of that union is adjacent to it or dominated by it.
    """

    graph: DefiningGraph
    pieces: tuple[frozenset[frozenset[str]], ...]
    delta_c: Mapping[str, int]
    delta: Mapping[str, frozenset[str]]
    hubs: frozenset[str]

    @property
    def count(self) -> int:
        return len(self.pieces)

    def is_hub(self, v: str) -> bool:
        return v in self.hubs


def _biconnected_edge_groups(g: DefiningGraph) -> list[frozenset[frozenset[str]]]:
    """Group edges into maximal 2-connected pieces (iterative Hopcroft-Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    edge_stack: list[frozenset[str]] = []
    groups: list[frozenset[frozenset[str]]] = []
    counter = 0

    for root in g.nodes:
        if root in index:
            continue
        # Explicit stack of (node, parent, iterator over neighbors).
        index[root] = low[root] = counter
        counter += 1
        work = [(root, None, iter(sorted(g.adjacency[root])))]
        while work:
            v, parent, nbrs = work[-1]
            advanced = False
            for w in nbrs:
                if w == parent:
                    continue
                if w not in index:
                    edge_stack.append(_edge(v, w))
                    index[w] = low[w] = counter
                    counter += 1
                    work.append((w, v, iter(sorted(g.adjacency[w]))))
                    advanced = True
                    break
                if index[w] < index[v]:
                    edge_stack.append(_edge(v, w))
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    cut = _edge(u, v)
                    group: set[frozenset[str]] = set()
                    while edge_stack:
                        e = edge_stack.pop()
                        group.add(e)
                        if e == cut:
                            break
                    groups.append(frozenset(group))
    return groups


def pieces(g: DefiningGraph) -> PieceDecomposition:
    """Decompose into pieces, cross-checking both separation-count definitions."""
    groups = _biconnected_edge_groups(g)
    groups.sort(key=lambda p: min(min(e) for e in p))

    piece_nodes = [frozenset(v for e in p for v in e) for p in groups]
    membership: dict[str, int] = {v: 0 for v in g.nodes}
    delta_nodes: dict[str, set[str]] = {v: set() for v in g.nodes}
    for p_nodes in piece_nodes:
        for v in p_nodes:
            membership[v] += 1
            delta_nodes[v] |= p_nodes

    delta_c: dict[str, int] = {}
    for v in g.nodes:
        comps = len(g.components(without=v)) if g.num_nodes > 1 else 0
        if comps != membership[v]:
            raise StructureAnomalyError(
                f"separation count mismatch at {v}: removing it leaves {comps} "
                f"components but it lies in {membership[v]} pieces"
            )
        delta_c[v] = comps

    # Block decomposition identity for a connected graph: the excesses of the
    # separating nodes sum to (number of pieces) - 1.
    if g.is_connected():
        excess = sum(delta_c[v] - 1 for v in g.nodes)
        if excess != len(groups) - 1:
            raise StructureAnomalyError(
                f"piece-count identity failed: sum of excesses {excess} != "
                f"{len(groups) - 1}"
            )

    adj = g.adjacency
    hubs = frozenset(
        v
        for v in g.nodes
        if all(
            u == v or u in adj[v] or adj[u] <= adj[v]
            for u in delta_nodes[v]
        )
    )

    return PieceDecomposition(
        graph=g,
        pieces=tuple(groups),
        delta_c=MappingProxyType(delta_c),
        delta=MappingProxyType({v: frozenset(s) for v, s in delta_nodes.items()}),
        hubs=hubs,
    )
