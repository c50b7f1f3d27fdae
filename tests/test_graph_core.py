import copy
import pickle
import random
import time

import pytest

from raagvcd import graph_core
from raagvcd.graph_core import (
    DefiningGraph,
    GraphError,
    ParseError,
    StructureAnomalyError,
    ValidationReport,
    gamma_zero,
    parse_graph,
    pieces,
    validate,
)
from raagvcd.corpus import eligible_trees, cycle_tree_fixtures
from raagvcd.vcd_bounds import vcd_report


def _simple_cycles_edge_sets(g: DefiningGraph) -> list[frozenset]:
    """Edge sets of all simple cycles, by DFS from each start node."""
    cycles = set()
    adj = oracle_adjacency(g)

    def walk(path, used_edges):
        head = path[-1]
        for nbr in sorted(adj[head]):
            e = frozenset((head, nbr))
            if e in used_edges:
                continue
            if nbr == path[0] and len(path) >= 3:
                cycles.add(frozenset(used_edges | {e}))
            elif nbr not in path:
                walk(path + [nbr], used_edges | {e})

    for start in g.nodes:
        walk([start], frozenset())
    return list(cycles)


def _piece_partition_by_cycles(g: DefiningGraph) -> set[frozenset]:
    """Union-find closure of 'share a simple cycle'; bridges stay single."""
    parent = {e: e for e in g.edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for cycle in _simple_cycles_edge_sets(g):
        cycle = sorted(cycle, key=sorted)
        for other in cycle[1:]:
            parent[find(other)] = find(cycle[0])
    groups = {}
    for e in g.edges:
        groups.setdefault(find(e), set()).add(e)
    return {frozenset(group) for group in groups.values()}


class TestParse:
    def test_path(self):
        g = parse_graph("edge a b\nedge b c")
        assert g.nodes == ("a", "b", "c")
        assert g.num_edges == 2

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("edge a a")
        assert exc.value.line == 1

    def test_duplicate_edge(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("edge a b\nedge b a")
        assert exc.value.line == 2

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("edge a b\nvertex c")
        assert exc.value.line == 2

    def test_bad_name(self):
        with pytest.raises(ParseError):
            parse_graph("edge a b-c")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_graph("# nothing here\n")

    def test_node_predeclaration_and_comments(self):
        g = parse_graph("# fixture\nnode z\nedge a b\n\nedge b z\n")
        assert g.nodes == ("z", "a", "b")

    def test_c5l_fixture_counts(self):
        text = "\n".join(
            f"edge v{i} v{i % 5 + 1}" for i in range(1, 6)
        ) + "\nedge v1 u"
        g = parse_graph(text)
        assert g.num_nodes == 6
        assert g.num_edges == 6


class TestValidate:
    def test_triangle(self):
        g = DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        report = validate(g)
        assert not report.triangle_free
        assert not report.eligible

    def test_star(self, g_star):
        report = validate(g_star)
        assert report.is_star
        assert not report.eligible

    def test_single_edge_is_star(self):
        report = validate(DefiningGraph.from_edges([("a", "b")]))
        assert report.is_star

    def test_p5(self, g_p5):
        report = validate(g_p5)
        assert report.eligible
        assert report.square_free

    def test_square_detected(self, g_square):
        report = validate(g_square)
        assert report.eligible
        assert not report.square_free

    def test_disconnected(self):
        g = DefiningGraph.from_edges([("a", "b"), ("c", "d")])
        assert not validate(g).is_connected
        assert not validate(g).eligible

    def test_square_test_at_scale(self):
        # One pass per node over its neighbours' rows; a test of every node
        # pair would take minutes on the 20,000-node cycle.
        n = 20000
        rng = random.Random(5)
        cycle = [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
        tree = [(f"t{rng.randrange(i)}", f"t{i}") for i in range(1, n)]
        grid = [
            (f"g{i}_{j}", f"g{i + di}_{j + dj}")
            for i in range(100)
            for j in range(100)
            for di, dj in ((1, 0), (0, 1))
            if i + di < 100 and j + dj < 100
        ]
        for edges, square_free in ((cycle, True), (tree, True), (grid, False)):
            g = DefiningGraph.from_edges(edges)
            start = time.perf_counter()
            report = validate(g)
            assert time.perf_counter() - start < 5
            assert report.eligible and report.square_free == square_free


def dominators(g, v):
    """The other nodes whose links contain ``v``'s, read from the rows."""
    c = g.code[v]
    return g.nameset(g.above(g.adj[c]) & ~g.bit[c])


def edge_names(g, pairs):
    """Code pairs as a set of name-pair edges."""
    return frozenset(frozenset((g.names[u - 1], g.names[w - 1])) for u, w in pairs)


def core_names(core):
    """The core subgraph's fields, node sets and edges read as names."""
    g = core.graph
    return {
        "nodes": g.nameset(core.nodes),
        "edges": edge_names(g, core.edges),
        "unique_maximal": g.nameset(core.unique_maximal),
        "pruned_leaves": core.pruned_leaves,
        "spans_connected": core.spans_connected,
    }


class TestDomination:
    # The classes and maximal classes come from the name-based oracle; the
    # core subgraph spans their least members, and the singleton maximal
    # classes are its unique-maximal nodes.
    def test_square_classes(self, g_square):
        classes, maximal = oracle_domination(g_square)
        assert set(classes) == {frozenset("ac"), frozenset("bd")}
        assert set(maximal) == set(classes)
        core = gamma_zero(g_square)
        assert g_square.nameset(core.nodes) == {min(cls) for cls in maximal}
        assert g_square.nameset(core.unique_maximal) == frozenset()

    def test_p5(self, g_p5):
        assert dominators(g_p5, "a") == frozenset("c")
        assert dominators(g_p5, "e") == frozenset("c")
        assert dominators(g_p5, "c") == frozenset()
        classes, maximal = oracle_domination(g_p5)
        assert set(maximal) == {frozenset(v) for v in "bcd"}
        assert all(len(cls) == 1 for cls in classes)
        core = gamma_zero(g_p5)
        assert g_p5.nameset(core.nodes) == g_p5.nameset(core.unique_maximal)
        assert g_p5.nameset(core.nodes) == frozenset("bcd")

    def test_leaf_dominated_by_common_neighbors(self, g_c5l):
        # lk(u) = {v1}; u <= w exactly when w is adjacent to v1
        assert dominators(g_c5l, "u") == frozenset({"v2", "v5"})

    def test_functorial_under_renaming(self, g_c5l):
        mapping = {n: f"node_{n}" for n in g_c5l.nodes}
        renamed = g_c5l.renamed(mapping)
        for v in g_c5l.nodes:
            relabeled = {mapping[w] for w in dominators(g_c5l, v)}
            assert relabeled == dominators(renamed, mapping[v])
        core, core2 = gamma_zero(g_c5l), gamma_zero(renamed)
        relabeled_max = {mapping[v] for v in g_c5l.nameset(core.unique_maximal)}
        assert relabeled_max == renamed.nameset(core2.unique_maximal)
        assert core.num_nodes == core2.num_nodes


class TestCoreSubgraph:
    def test_p5(self, g_p5):
        core = gamma_zero(g_p5)
        assert g_p5.nameset(core.nodes) == frozenset("bcd")
        assert edge_names(g_p5, core.edges) == {frozenset("bc"), frozenset("cd")}
        assert g_p5.nameset(core.unique_maximal) == frozenset("bcd")
        assert core.pruned_leaves
        assert core.spans_connected

    def test_c5l(self, g_c5l):
        core = gamma_zero(g_c5l)
        assert g_c5l.nameset(core.nodes) == frozenset({"v1", "v2", "v3", "v4", "v5"})
        assert core.unique_maximal == core.nodes
        assert core.pruned_leaves

    def test_square(self, g_square):
        core = gamma_zero(g_square)
        assert g_square.nameset(core.nodes) == frozenset("ab")
        assert edge_names(g_square, core.edges) == {frozenset("ab")}
        assert g_square.nameset(core.unique_maximal) == frozenset()
        assert not core.pruned_leaves

    def test_tie_break_override(self, g_square):
        # The least name represents each class; under a renaming that
        # reverses the order of the names, the greatest one does.
        mapping = reversed_names(g_square)
        renamed = g_square.renamed(mapping)
        core = gamma_zero(renamed)
        assert renamed.nameset(core.nodes) == {mapping[v] for v in "cd"}

    def test_core_never_contains_leaves(self):
        for g in eligible_trees(7):
            core = gamma_zero(g)
            assert not (g.nameset(core.nodes) & g.leaves)

    def test_leaf_neighbor_unique_maximal(self):
        for g in list(eligible_trees(7)) + cycle_tree_fixtures((5,))[:10]:
            core = gamma_zero(g)
            for u in g.leaves:
                (nbr,) = g.link(u)
                assert nbr in g.nameset(core.unique_maximal)


class TestPieces:
    def test_p5(self, g_p5):
        dec = pieces(g_p5)
        assert dec.count == 4
        assert all(len(p) == 1 for p in dec.pieces)
        assert dec.delta_c[g_p5.code["c"]] == 2
        assert {"b", "c", "d"} <= g_p5.nameset(dec.hubs)

    def test_c5l(self, g_c5l):
        dec = pieces(g_c5l)
        assert dec.count == 2
        sizes = sorted(len(p) for p in dec.pieces)
        assert sizes == [1, 5]
        assert "v1" not in g_c5l.nameset(dec.hubs)
        assert dec.delta_c[g_c5l.code["v1"]] == 2

    def test_square_is_single_piece(self, g_square):
        dec = pieces(g_square)
        assert dec.count == 1
        assert g_square.nameset(dec.hubs) == frozenset("abcd")

    def test_partition_and_overlap_on_corpus(self):
        graphs = list(eligible_trees(7)) + cycle_tree_fixtures((5, 6))[:40]
        for g in graphs:
            dec = pieces(g)
            named = [edge_names(g, p) for p in dec.pieces]
            seen = set()
            for p in named:
                assert not (seen & p)
                seen |= p
            assert seen == g.edges
            node_sets = [frozenset(v for e in p for v in e) for p in named]
            for i in range(len(node_sets)):
                for j in range(i + 1, len(node_sets)):
                    assert len(node_sets[i] & node_sets[j]) <= 1

    def test_excess_identity_on_corpus(self):
        graphs = list(eligible_trees(7)) + cycle_tree_fixtures((5,))[:40]
        for g in graphs:
            dec = pieces(g)
            core = gamma_zero(g)
            excess = sum(dec.delta_c[g.code[v]] - 1 for v in g.nameset(core.nodes))
            assert excess == dec.count - 1

    def test_tree_interior_nodes_are_hubs(self):
        for g in eligible_trees(7):
            dec = pieces(g)
            assert dec.count == g.num_edges
            for v in g.nodes:
                if g.degree(v) >= 2:
                    assert v in g.nameset(dec.hubs)

    def test_pieces_against_cycle_sharing_oracle(self):
        # Two edges belong to the same piece exactly when some simple cycle
        # contains both (or they are equal); brute-force the cycles.
        graphs = list(eligible_trees(6)) + cycle_tree_fixtures((5,))[:12]
        graphs.append(
            DefiningGraph.from_edges(
                [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"),
                 ("a4", "a0"), ("a0", "m"), ("m", "b0"), ("b0", "b1"),
                 ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b4", "b0")]
            )
        )
        for g in graphs:
            oracle = _piece_partition_by_cycles(g)
            dec = pieces(g)
            assert {edge_names(g, p) for p in dec.pieces} == oracle

    def test_pruned_leaves_biconditional(self, g_square, g_p5, g_c5l):
        graphs = [g_square, g_p5, g_c5l] + list(eligible_trees(6))
        for g in graphs:
            core = gamma_zero(g)
            non_leaves = frozenset(g.nodes) - g.leaves
            assert core.pruned_leaves == (non_leaves <= g.nameset(core.unique_maximal))


class TestGraphValue:
    def test_rejects_duplicate_nodes(self):
        with pytest.raises(GraphError):
            DefiningGraph(("a", "a"), frozenset())

    def test_rejects_unknown_edge_node(self):
        with pytest.raises(GraphError):
            DefiningGraph(("a",), frozenset({frozenset(("a", "b"))}))

    def test_components_without(self, g_p5):
        comps = g_p5.components(without="c")
        assert set(comps) == {frozenset("ab"), frozenset("de")}

    def test_components_without_unknown_node(self):
        p3 = DefiningGraph.from_edges([("a", "b"), ("b", "c")])
        assert len(p3.components()) == 1
        with pytest.raises(GraphError, match="unknown node 'zz'"):
            p3.components(without="zz")

    def test_link_and_degree_of_unknown_node(self):
        p3 = DefiningGraph.from_edges([("a", "b"), ("b", "c")])
        with pytest.raises(GraphError, match="unknown node 'zz'"):
            p3.link("zz")
        with pytest.raises(GraphError, match="unknown node 'zz'"):
            p3.degree("zz")


class TestInterning:
    def test_equal_graph_is_the_same_object(self, g_p5):
        assert DefiningGraph(g_p5.nodes, g_p5.edges) is g_p5
        flipped = [("a", "b"), ("c", "b"), ("c", "d"), ("e", "d")]
        assert DefiningGraph.from_edges(flipped) is g_p5
        assert copy.copy(g_p5) is g_p5 and copy.deepcopy(g_p5) is g_p5
        assert pickle.loads(pickle.dumps(g_p5)) is g_p5

    def test_reordered_nodes_give_another_graph(self, g_p5):
        from raagvcd.words import WordError, generator

        reordered = DefiningGraph(tuple(reversed(g_p5.nodes)), g_p5.edges)
        assert reordered is not g_p5 and reordered.nodes[0] == "e"
        with pytest.raises(WordError):
            generator(g_p5, "a") * generator(reordered, "a")

    def test_graph_is_immutable(self, g_p5):
        with pytest.raises(AttributeError):
            g_p5.nodes = ("a",)
        with pytest.raises(AttributeError):
            g_p5.extra = 1
        with pytest.raises(AttributeError):
            del g_p5.code
        assert g_p5.code["a"] == 1

    def test_graph_freed_without_the_cycle_collector(self):
        # A graph holds no reference back to itself, so once the report that
        # reads it is gone, reference counting alone frees it.
        import gc
        import weakref

        text = "".join(f"edge rc{i} rc{i + 1}\n" for i in range(6))
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = parse_graph(text)
            report = vcd_report(g)
            ref = weakref.ref(g)
            del g, report
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


# Name-based oracles: the structure functions as they were written over
# frozensets of node names, before they moved to the bit rows of the graph
# context.  Every field of the integer-coded results must equal theirs.


def reversed_names(g):
    """A renaming of ``g`` that reverses the sorted order of its names."""
    width = len(str(g.num_nodes))
    return {v: f"r{g.num_nodes - i:0{width}d}" for i, v in enumerate(g.names)}


def oracle_adjacency(g):
    adj = {v: set() for v in g.nodes}
    for e in g.edges:
        a, b = sorted(e)
        adj[a].add(b)
        adj[b].add(a)
    return {v: frozenset(nbrs) for v, nbrs in adj.items()}


def oracle_components(g, without=None):
    adj = oracle_adjacency(g)
    skip = {without} if without is not None else set()
    remaining = [v for v in g.nodes if v not in skip]
    unseen = set(remaining)
    comps = []
    for start in remaining:
        if start not in unseen:
            continue
        stack = [start]
        unseen.discard(start)
        comp = {start}
        while stack:
            u = stack.pop()
            for nbr in adj[u]:
                if nbr in unseen:
                    unseen.discard(nbr)
                    comp.add(nbr)
                    stack.append(nbr)
        comps.append(frozenset(comp))
    return tuple(sorted(comps, key=min))


def oracle_validate(g):
    adj = oracle_adjacency(g)
    nodes = g.nodes
    triangle_free = all(adj[min(e)] & adj[max(e)] == frozenset() for e in g.edges)
    square_free = not any(
        len(adj[u] & adj[w]) >= 2 for i, u in enumerate(nodes) for w in nodes[i + 1 :]
    )
    rest = len(nodes) - 1
    is_star = any(
        len(adj[c]) == rest and all(c in e for e in g.edges) for c in nodes
    )
    return ValidationReport(
        is_connected=len(oracle_components(g)) <= 1,
        triangle_free=triangle_free,
        square_free=square_free,
        is_star=is_star,
    )


def oracle_domination(g):
    """(classes, maximal classes) in the order of their least members."""
    adj = oracle_adjacency(g)
    by_link = {}
    for v in g.nodes:
        by_link.setdefault(adj[v], []).append(v)
    classes = tuple(sorted((frozenset(m) for m in by_link.values()), key=min))
    maximal = tuple(
        cls for cls in classes if not any(adj[min(cls)] < adj[w] for w in g.nodes)
    )
    return classes, maximal


def oracle_core(g, tie_break=min):
    """The core subgraph's fields, spanned from the oracle's maximal classes."""
    adj = oracle_adjacency(g)
    _, maximal = oracle_domination(g)
    reps = tuple(sorted(tie_break(cls) for cls in maximal))
    rep_set = frozenset(reps)
    leaves = frozenset(v for v in g.nodes if len(adj[v]) == 1)
    seen = set()
    stack = [reps[0]]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(adj[u] & rep_set - seen)
    return {
        "nodes": rep_set,
        "edges": frozenset(e for e in g.edges if e <= rep_set),
        "unique_maximal": frozenset(min(cls) for cls in maximal if len(cls) == 1),
        "pruned_leaves": rep_set == frozenset(g.nodes) - leaves,
        "spans_connected": seen == rep_set,
    }


def oracle_blocks(g):
    """Edge groups of the pieces, by the name-based iterative Hopcroft-Tarjan."""
    adj = oracle_adjacency(g)
    index = {}
    low = {}
    edge_stack = []
    groups = []
    for root in g.nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        work = [(root, None, iter(sorted(adj[root])))]
        while work:
            v, parent, nbrs = work[-1]
            advanced = False
            for w in nbrs:
                if w == parent:
                    continue
                if w not in index:
                    edge_stack.append(frozenset((v, w)))
                    index[w] = low[w] = len(index)
                    work.append((w, v, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if index[w] < index[v]:
                    edge_stack.append(frozenset((v, w)))
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    group = set()
                    while frozenset((u, v)) not in group:
                        group.add(edge_stack.pop())
                    groups.append(frozenset(group))
    groups.sort(key=lambda p: min(min(e) for e in p))
    return groups


def oracle_pieces(g):
    """The piece decomposition's fields, or None where the count of
    components left by removing a node differs from the number of pieces
    holding it, as on every disconnected graph of two or more nodes."""
    adj = oracle_adjacency(g)
    groups = oracle_blocks(g)
    delta = {v: set() for v in g.nodes}
    membership = dict.fromkeys(g.nodes, 0)
    for p in groups:
        p_nodes = frozenset(v for e in p for v in e)
        for v in p_nodes:
            delta[v] |= p_nodes
            membership[v] += 1
    delta_c = {v: len(oracle_components(g, without=v)) for v in g.nodes}
    if delta_c != membership:
        return None
    return {
        "pieces": tuple(groups),
        "delta_c": delta_c,
        "hubs": frozenset(
            v
            for v in g.nodes
            if all(u == v or u in adj[v] or adj[u] <= adj[v] for u in delta[v])
        ),
    }


def random_graphs(count=300, seed=2024):
    """Seeded graphs of 1-18 nodes: trees, cycles with chords, triangles,
    several components, stars and isolated nodes.  Names are drawn at
    random, so first-appearance order is not sorted order."""
    rng = random.Random(seed)
    pool = [f"{c}{k}" for c in "abkxz" for k in range(20)]
    graphs = [DefiningGraph(("solo",), frozenset())]
    for i in range(count - 1):
        n = rng.randint(2, 18)
        names = rng.sample(pool, n)
        kind = i % 6
        if kind == 0:
            edges = [(names[0], v) for v in names[1:]]
        else:
            # A forest on the names, one tree per block of ``split`` nodes.
            split = n if kind < 4 else rng.randint(1, n - 1)
            edges = [(names[j], names[rng.randrange(j)]) for j in range(1, split)]
            edges += [
                (names[j], names[split + rng.randrange(j - split)])
                for j in range(split + 1, n)
            ]
            for _ in range(rng.randrange(n)):
                a, b = rng.sample(names, 2)
                if (a, b) not in edges and (b, a) not in edges:
                    edges.append((a, b))
        rng.shuffle(edges)
        isolated = rng.sample(names, rng.randrange(3)) if kind == 5 else []
        graphs.append(DefiningGraph.from_edges(edges, isolated))
    return graphs


ORACLE_CORPUS = (
    list(eligible_trees(8)) + cycle_tree_fixtures() + random_graphs()
)


def test_oracle_corpus_covers_every_kind():
    reports = [validate(g) for g in ORACLE_CORPUS]
    assert any(not r.triangle_free for r in reports)
    assert any(not r.is_connected for r in reports)
    assert any(r.is_star for r in reports)
    assert any(not r.square_free and r.eligible for r in reports)
    assert any(g.num_nodes == 1 for g in ORACLE_CORPUS)
    assert any(g.num_nodes == 18 for g in ORACLE_CORPUS)
    assert sum(r.is_connected for r in reports) > 0.8 * len(reports)
    assert any(list(g.nodes) != sorted(g.nodes) for g in ORACLE_CORPUS)


@pytest.mark.parametrize("index", range(0, len(ORACLE_CORPUS), 50))
def test_graph_value_against_oracles(index):
    for g in ORACLE_CORPUS[index : index + 50]:
        adj = oracle_adjacency(g)
        assert g.leaves == frozenset(v for v in g.nodes if len(adj[v]) == 1)
        for v in g.nodes:
            assert g.link(v) == adj[v] and g.degree(v) == len(adj[v])
            assert g.components(without=v) == oracle_components(g, without=v)
        assert g.components() == oracle_components(g)
        assert g.is_connected() == (len(oracle_components(g)) <= 1)
        assert validate(g) == oracle_validate(g)


@pytest.mark.parametrize("index", range(0, len(ORACLE_CORPUS), 50))
def test_structure_against_oracles(index):
    for g in ORACLE_CORPUS[index : index + 50]:
        adj = oracle_adjacency(g)
        for v in g.nodes:
            assert dominators(g, v) == frozenset(
                w for w in g.nodes if w != v and adj[v] <= adj[w]
            )
        core = gamma_zero(g)
        assert core.edges == tuple(sorted(core.edges))
        assert core_names(core) == oracle_core(g)
        # A greatest-name policy is the least-name one after a renaming that
        # reverses the order of the names; the bounds do not see it.
        mapping = reversed_names(g)
        back = {new: old for old, new in mapping.items()}
        renamed = g.renamed(mapping)
        named = core_names(gamma_zero(renamed))
        assert {
            "nodes": frozenset(back[v] for v in named["nodes"]),
            "edges": frozenset(frozenset(back[v] for v in e) for e in named["edges"]),
            "unique_maximal": frozenset(back[v] for v in named["unique_maximal"]),
            "pruned_leaves": named["pruned_leaves"],
            "spans_connected": named["spans_connected"],
        } == oracle_core(g, max)
        if validate(g).eligible:
            reports = vcd_report(g), vcd_report(renamed)
            values = {(r.lower.value, r.upper.value, r.exact) for r in reports}
            assert len(values) == 1
        expected = oracle_pieces(g)
        assert (expected is None) == (len(oracle_components(g)) > 1)
        if expected is None:
            with pytest.raises(GraphError, match="must be connected") as exc:
                pieces(g)
            assert not isinstance(exc.value, StructureAnomalyError)
            continue
        dec = pieces(g)
        assert all(p == tuple(sorted(p)) for p in dec.pieces)
        assert tuple(edge_names(g, p) for p in dec.pieces) == expected["pieces"]
        assert dec.delta_c == (0, *(expected["delta_c"][v] for v in g.names))
        assert g.nameset(dec.hubs) == expected["hubs"]


class TestSeparationCountCrossCheck:
    """Each route of the separation count is checked against the other."""

    def test_block_route_miscounted(self, g_c5l, monkeypatch):
        blocks = graph_core._blocks

        def merge_first_two(rows, roots):
            groups = blocks(rows, roots)
            return [groups[0] + groups[1]] + groups[2:]

        monkeypatch.setattr(graph_core, "_blocks", merge_first_two)
        with pytest.raises(StructureAnomalyError, match="separation count mismatch"):
            pieces(g_c5l)

    def test_flood_route_miscounted(self, g_p5, monkeypatch):
        components = graph_core._components

        def one_too_many(rows, alive):
            return components(rows, alive) + [0]

        monkeypatch.setattr(graph_core, "_components", one_too_many)
        with pytest.raises(StructureAnomalyError, match="separation count mismatch"):
            pieces(g_p5)
