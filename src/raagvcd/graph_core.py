"""Finite simplicial graphs and the structure theory behind the dimension bounds.

The input to every computation in this package is a finite simple graph.
This module parses the graph file format, checks the hypotheses every
bound needs (connected, triangle-free, not the star of a single node),
and derives the combinatorial structure the bound formulas consume:

* the core subgraph spanned by one representative per maximal class of the
  domination preorder ``v <= w  iff  lk(v) is contained in lk(w)``,
* the decomposition into pieces (maximal 2-connected subgraphs, single
  edges included) together with hub detection.

Everything here is a pure function of an immutable graph value.  The
structure functions work on the integer coding the graph carries, built
once per graph and shared with words and automorphisms, and so do their
results: node sets are bit masks and edges sorted code pairs.  Codes follow
the sorted names, so a mask read from its lowest bit up is its sorted names;
names come back only in each result's ``to_dict``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping
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


class _Codes(dict):
    """Node names to codes; a name that is not a node raises."""

    def __missing__(self, v: str) -> int:
        raise GraphError(f"unknown node {v!r}")


class DefiningGraph:
    """A finite simple graph with named nodes, coded as integers.

    ``nodes`` preserves first-appearance order; ``edges`` is a set of
    unordered pairs.  Simplicity (no loops, no multi-edges) and referential
    integrity are enforced at construction.  Graphs are interned and
    immutable: constructing a graph equal to a live one returns that object,
    so equal graphs are one object and compare by identity.

    The first construction also codes the nodes, for the structure functions
    here, for words and for automorphisms.  Node ``names[i]`` has code
    ``i + 1`` and bit ``1 << i``, so codes compare as the names do; a node
    set is a mask, ``full`` the set of all nodes.  A letter is ``+code`` or
    ``-code`` for the inverse, and the bit tables are indexed by letter, a
    negative one counting from the end: ``bit[l]`` is the node's bit,
    ``adj[l]`` its neighbours' bits and ``star[l]`` those and its own, so
    ``l`` and ``m`` commute exactly when ``star[l] & bit[m]``.
    """

    # The coding sits in slots, read fast by every layer; ``__dict__`` holds
    # the cached properties.
    __slots__ = (
        "nodes", "edges", "names", "code", "full", "bit", "adj", "star",
        "__dict__", "__weakref__",
    )

    def __new__(
        cls, nodes: tuple[str, ...], edges: frozenset[frozenset[str]]
    ) -> "DefiningGraph":
        g = _GRAPHS.get((nodes, edges))
        if g is not None:
            return g
        if not nodes:
            raise GraphError("graph has no nodes")
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise GraphError("duplicate node names")
        for name in nodes:
            if not _NAME_RE.match(name):
                raise GraphError(f"bad node name {name!r}")
        for e in edges:
            if len(e) != 2:
                raise GraphError(f"self-loop or malformed edge {sorted(e)}")
            if not e <= node_set:
                raise GraphError(f"edge {sorted(e)} references unknown node")

        names = tuple(sorted(nodes))
        code = _Codes(zip(names, range(1, len(names) + 1)))
        bits = [1 << i for i in range(len(names))]
        adj = [0] * len(bits)
        for a, b in edges:
            adj[code[a] - 1] |= bits[code[b] - 1]
            adj[code[b] - 1] |= bits[code[a] - 1]
        tables = (bits, adj, [m | b for m, b in zip(adj, bits)])
        bit, adj, star = ([0, *t, *t[::-1]] for t in tables)
        g = super().__new__(cls)
        coded = (nodes, edges, names, code, (1 << len(bits)) - 1, bit, adj, star)
        for slot, value in zip(cls.__slots__, coded):  # in the slots' order
            object.__setattr__(g, slot, value)
        _GRAPHS[nodes, edges] = g
        return g

    # One method refuses both setting (name, value) and deleting (name).
    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"DefiningGraph is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"DefiningGraph(nodes={self.nodes!r}, edges={self.edges!r})"

    def __reduce__(self) -> tuple:
        """Copies and pickles construct again, so they are interned too."""
        return DefiningGraph, (self.nodes, self.edges)

    @staticmethod
    def from_edges(
        edges: Iterable[tuple[str, str]], isolated: Iterable[str] = ()
    ) -> "DefiningGraph":
        """Build a graph from an edge list, nodes ordered by first appearance."""
        pairs = list(edges)
        order = dict.fromkeys(name for pair in pairs for name in pair)
        order.update(dict.fromkeys(isolated))
        return DefiningGraph(tuple(order), frozenset(frozenset(pair) for pair in pairs))

    def namelist(self, mask: int) -> list[str]:
        """The names of the nodes in ``mask``, sorted."""
        names = self.names
        return [names[c - 1] for c in _codes(mask)]

    def nameset(self, mask: int) -> frozenset[str]:
        """The names of the nodes in ``mask``."""
        return frozenset(self.namelist(mask))

    def above(self, link: int) -> int:
        """The nodes whose links contain ``link``: its common neighbours."""
        common, rows = self.full, self.adj
        while link:
            common &= rows[(link & -link).bit_length()]
            link &= link - 1
        return common

    def link(self, v: str) -> frozenset[str]:
        return self.nameset(self.adj[self.code[v]])

    def degree(self, v: str) -> int:
        return self.adj[self.code[v]].bit_count()

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
        return self.nameset(_leaf_mask(self))

    def components(self, *, without: str | None = None) -> tuple[frozenset[str], ...]:
        """Connected components, optionally of the graph minus one node.

        Components are ordered by their smallest member for determinism;
        ``without`` must be a node of the graph.
        """
        alive = self.full
        if without is not None:
            alive ^= self.bit[self.code[without]]
        return tuple(map(self.nameset, _components(self.adj, alive)))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def renamed(self, mapping: Mapping[str, str]) -> "DefiningGraph":
        """Apply a node renaming (used by the isomorphism-invariance tests)."""
        return DefiningGraph(
            tuple(mapping[v] for v in self.nodes),
            frozenset(frozenset(mapping[v] for v in e) for e in self.edges),
        )


_GRAPHS: WeakValueDictionary = WeakValueDictionary()


def _codes(mask: int) -> Iterator[int]:
    """The codes of the nodes in ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _leaf_mask(g: DefiningGraph) -> int:
    """The nodes of degree one."""
    rows, bit = g.adj, g.bit
    return sum(bit[c] for c in range(1, g.num_nodes + 1) if rows[c].bit_count() == 1)


def _edge_names(g: DefiningGraph, edges: Iterable[tuple[int, int]]) -> list[list[str]]:
    """Code pairs as name pairs; sorted pairs give sorted name pairs."""
    names = g.names
    return [[names[u - 1], names[w - 1]] for u, w in edges]


def _component(rows: list[int], start: int, alive: int) -> int:
    """The nodes reachable from ``start`` inside ``alive``, which contains
    it: a flood fill over the neighbour masks ``rows``."""
    rest = alive & ~start
    frontier = start
    while frontier:
        low = frontier & -frontier
        new = rows[low.bit_length()] & rest
        rest ^= new
        frontier ^= low | new
    return alive ^ rest


def _components(rows: list[int], alive: int) -> list[int]:
    """The connected components of the nodes in ``alive``, by lowest bit."""
    comps = []
    while alive:
        comps.append(_component(rows, alive & -alive, alive))
        alive ^= comps[-1]
    return comps


def parse_graph(text: str) -> DefiningGraph:
    """Parse the graph file format.

    One directive per line: ``# comment``, ``node <name>`` (optional
    pre-declaration) or ``edge <a> <b>``.  Node order is first-appearance
    order.  Self-loops, repeated edges, bad tokens and empty graphs are
    rejected with the offending line number.
    """
    order: dict[str, None] = {}
    pairs: set[frozenset[str]] = set()

    def note(name: str, line: int) -> None:
        if name not in order:
            if not _NAME_RE.match(name):
                raise ParseError(f"bad name {name!r}", line)
            order[name] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
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
            e = frozenset((a, b))
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
    squares by :func:`_on_square` at each node, O(edges) mask operations in
    all.  The star test asks for a node adjacent to every other node such
    that no edge avoids it.
    """
    rows = g.adj
    codes = range(1, g.num_nodes + 1)
    triangle_free = not any(rows[u] & rows[w] for u in codes for w in _codes(rows[u]))
    square_free = not any(_on_square(g, c) for c in codes)
    is_star = g.num_edges == g.num_nodes - 1 and any(
        rows[c] == g.full ^ g.bit[c] for c in codes
    )

    return ValidationReport(
        is_connected=_component(rows, 1, g.full) == g.full,
        triangle_free=triangle_free,
        square_free=square_free,
        is_star=is_star,
    )


def _on_square(g: DefiningGraph, c: int) -> bool:
    """Whether node ``c`` and some other node have two common neighbours.

    The rows of ``c``'s neighbours, less ``c``, are ORed in turn; the first
    one to meet the running mask closes a square, so a node on no square
    costs O(degree) mask operations.
    """
    seen = 0
    for w in _codes(g.adj[c]):
        far = g.adj[w] ^ g.bit[c]
        if far & seen:
            return True
        seen |= far
    return False


def require_eligible(g: DefiningGraph) -> ValidationReport:
    report = validate(g)
    if not report.eligible:
        raise IneligibleGraphError(report)
    return report


@dataclass(frozen=True)
class CoreSubgraph:
    """The subgraph spanned by one representative per maximal link class.

    ``nodes`` is a mask and ``edges`` the sorted code pairs ``(u, w)``,
    ``u < w``.  The mask ``unique_maximal`` holds the nodes that are maximal
    AND alone in their class: exactly the nodes no automorphism in the
    standard generating set can transvect onto.  ``pruned_leaves`` records
    whether the core equals the graph minus its leaves.
    """

    graph: DefiningGraph
    nodes: int
    edges: tuple[tuple[int, int], ...]
    unique_maximal: int
    pruned_leaves: bool
    spans_connected: bool

    @property
    def num_nodes(self) -> int:
        return self.nodes.bit_count()

    def to_dict(self) -> dict:
        g = self.graph
        return {
            "nodes": g.namelist(self.nodes),
            "edges": _edge_names(g, self.edges),
            "unique_maximal": g.namelist(self.unique_maximal),
            "pruned_leaves": self.pruned_leaves,
        }


def gamma_zero(g: DefiningGraph) -> CoreSubgraph:
    """Choose class representatives and span the core subgraph.

    Nodes with equal links form a class.  A class is maximal when every node
    whose link contains the class's link lies in it, so that no node
    strictly dominates its members.  The representative of each maximal
    class is its least member by name: the lowest bit of its mask.
    """
    rows, bit = g.adj, g.bit
    by_link: dict[int, int] = {}
    for c in range(1, g.num_nodes + 1):
        by_link[rows[c]] = by_link.get(rows[c], 0) | bit[c]
    nodes = unique = 0
    for link, members in by_link.items():
        if g.above(link) == members:
            rep = members & -members
            nodes |= rep
            if members == rep:
                unique |= rep
    # Each edge from its lower end u, to the core neighbours above u.
    edges = tuple(
        (u, w) for u in _codes(nodes) for w in _codes(rows[u] & nodes >> u << u)
    )
    # Connectivity of the span is expected for every eligible graph; it is
    # recorded rather than repaired so that a violation surfaces as a finding.
    spans = _component(rows, nodes & -nodes, nodes) == nodes
    return CoreSubgraph(g, nodes, edges, unique, nodes == g.full ^ _leaf_mask(g), spans)


@dataclass(frozen=True)
class PieceDecomposition:
    """Maximal 2-connected subgraphs (single edges count) and hub data.

    A piece is the sorted tuple of its edges as code pairs ``(u, w)``,
    ``u < w``; pieces are ordered by least node, then as found.
    ``delta_c[c]`` counts the components of the graph minus node ``c``
    (``delta_c[0]`` is 0); :func:`pieces` checks it against the number of
    pieces holding ``c``.  The mask ``hubs`` holds each node such that every
    node of the pieces containing it is adjacent to it or dominated by it.
    """

    graph: DefiningGraph
    pieces: tuple[tuple[tuple[int, int], ...], ...]
    delta_c: tuple[int, ...]
    hubs: int

    @property
    def count(self) -> int:
        return len(self.pieces)

    def to_dict(self) -> dict:
        g = self.graph
        return {
            "pieces": [_edge_names(g, piece) for piece in sorted(self.pieces)],
            "hubs": g.namelist(self.hubs),
        }


def _blocks(rows: list[int], root: int) -> list[list[tuple[int, int]]]:
    """Group the edges of the component of ``root`` into maximal 2-connected
    pieces (iterative Hopcroft-Tarjan over codes); an edge is the pair of
    its ends' codes.  ``index[v]`` is 0 until ``v`` is reached, then its
    place in the search; ``rest[v]`` holds the neighbours not yet looked at.
    """
    index, low, parent = [0] * len(rows), [0] * len(rows), [0] * len(rows)
    rest = list(rows)
    index[root] = low[root] = reached = 1
    stack = [root]
    edge_stack: list[tuple[int, int]] = []
    groups: list[list[tuple[int, int]]] = []
    while stack:
        v = stack[-1]
        if rest[v]:
            b = rest[v] & -rest[v]
            rest[v] ^= b
            w = b.bit_length()
            if w == parent[v]:
                continue
            if not index[w]:
                edge_stack.append((v, w))
                reached += 1
                index[w] = low[w] = reached
                parent[w] = v
                stack.append(w)
            elif index[w] < index[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], index[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    group = [edge_stack.pop()]
                    while group[-1] != (u, v):
                        group.append(edge_stack.pop())
                    groups.append(group)
    return groups


def pieces(g: DefiningGraph) -> PieceDecomposition:
    """Decompose a connected graph into pieces, cross-checking both
    separation-count definitions."""
    rows, bit, n = g.adj, g.bit, g.num_nodes
    if _component(rows, 1, g.full) != g.full:
        raise GraphError("graph must be connected to split into pieces")
    spanned = []
    for group in _blocks(rows, g.code[g.nodes[0]]):
        span = 0
        for v, w in group:
            span |= bit[v] | bit[w]
        pairs = sorted((v, w) if v < w else (w, v) for v, w in group)
        spanned.append((span, tuple(pairs)))
    # By smallest node; the sort is stable, so ties keep the discovery order.
    spanned.sort(key=lambda sg: sg[0] & -sg[0])

    membership = [0] * (n + 1)
    delta = [0] * (n + 1)
    for span, _ in spanned:
        rest = span
        while rest:
            c = (rest & -rest).bit_length()
            rest &= rest - 1
            membership[c] += 1
            delta[c] |= span

    delta_c = (0, *(len(_components(rows, g.full ^ bit[c])) for c in range(1, n + 1)))
    for v in g.nodes:
        c = g.code[v]
        if delta_c[c] != membership[c]:
            raise StructureAnomalyError(
                f"separation count mismatch at {v}: removing it leaves {delta_c[c]} "
                f"components but it lies in {membership[c]} pieces"
            )

    # Block decomposition identity for a connected graph: the excesses of the
    # separating nodes sum to (number of pieces) - 1.
    excess = sum(delta_c) - n
    if excess != len(spanned) - 1:
        raise StructureAnomalyError(
            f"piece-count identity failed: sum of excesses {excess} != "
            f"{len(spanned) - 1}"
        )

    hubs = 0
    for c in range(1, n + 1):
        # The nodes of c's pieces outside its star must have links in c's.
        far = delta[c] & ~g.star[c]
        while far and not rows[(far & -far).bit_length()] & ~rows[c]:
            far &= far - 1
        if not far:
            hubs |= bit[c]

    return PieceDecomposition(g, tuple(piece for _, piece in spanned), delta_c, hubs)
