import dataclasses
import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from raagvcd import autos as autos_module
from raagvcd.graph_core import (
    DefiningGraph,
    GraphError,
    StructureAnomalyError,
    gamma_zero,
    pieces,
    validate,
)
from raagvcd.words import (
    RaagWord,
    canonical,
    empty_word,
    equal,
    generator,
    parse_word,
    reduce_word,
    word,
)
from raagvcd.autos import (
    AutomorphismError,
    LiftError,
    RaagAutomorphism,
    build_generator_set,
    compose,
    default_choices,
    _lattice_invariant,
    _solve_over_z,
    identity_automorphism,
    inner_automorphism,
    inner_conjugator,
    inner_lattice,
    lift_local,
    partial_conjugation,
    project_local,
    transvection,
    verify_commuting,
)
from raagvcd.corpus import (
    cycle_tree_fixtures,
    eligible_trees,
    square_free_non_trees,
    squares_with_trees,
)


def c5l_choices(g):
    core = gamma_zero(g)
    dec = pieces(g)
    tree = [
        frozenset(p)
        for p in [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5")]
    ]
    return core, dec, default_choices(
        g, core, dec, base_edge=("v3", "v4"), spanning_tree=tree
    )


class TestCompose:
    def test_order_convention_and_commuting_targets(self, g_p5):
        psi = transvection(g_p5, "a", "c")  # a -> a c
        phi = transvection(g_p5, "a", "b")  # a -> a b
        both = compose(phi, psi)
        assert equal(both.image_of("a"), parse_word(g_p5, "a b c"))
        other = compose(psi, phi)
        assert both.equals(other)  # b and c commute

    def test_inverse_composes_to_identity(self, g_p5):
        phi = partial_conjugation(g_p5, "b", ["d", "e"])
        assert compose(phi, phi.inverse()).is_identity()
        assert compose(phi.inverse(), phi).is_identity()

    def test_identity_is_unit(self, g_p5):
        phi = transvection(g_p5, "e", "d")
        assert compose(identity_automorphism(g_p5), phi).equals(phi)
        assert compose(phi, identity_automorphism(g_p5)).equals(phi)

    def test_context_mismatch_rejected(self, g_p5, g_c5l):
        with pytest.raises(AutomorphismError):
            compose(identity_automorphism(g_p5), identity_automorphism(g_c5l))

    def test_respects_relations(self, g_p5):
        phi = transvection(g_p5, "a", "b")
        assert phi.respects_relations()
        # a is adjacent to b, but d is not, so sending a to d breaks the edge.
        bad = RaagAutomorphism(g_p5, {"a": parse_word(g_p5, "d")})
        assert not bad.respects_relations()

    def test_power_automorphism(self, g_p5):
        phi = transvection(g_p5, "a", "b")  # a -> a b
        assert autos_module._power_automorphism(phi, 0).is_identity()
        for n, image in ((2, "a b b"), (-2, "a b^-1 b^-1"), (1, "a b")):
            power = autos_module._power_automorphism(phi, n)
            assert equal(power.image_of("a"), parse_word(g_p5, image))
            assert power.moved_nodes() == ("a",)

    def test_repr_lists_moved_images(self, g_p5):
        assert repr(transvection(g_p5, "a", "b")) == "RaagAutomorphism({'a': 'a b'})"
        assert repr(identity_automorphism(g_p5)) == "RaagAutomorphism(identity)"


class TestInnerBounded:
    def test_global_conjugation_found_at_bound_one(self, g_p5):
        phi = inner_automorphism(g_p5, generator(g_p5, "b"))
        found = inner_conjugator(phi)
        assert found is not None
        assert str(found) == "b"

    def test_partial_conjugation_with_central_complement_is_inner(self, g_p5):
        # b commutes with everything outside {d, e}, so conjugating just
        # {d, e} by b is global conjugation by b.
        phi = partial_conjugation(g_p5, "b", ["d", "e"])
        found = inner_conjugator(phi)
        assert found is not None
        assert equal(found, generator(g_p5, "b"))

    def test_absence_certified_at_bound_four(self, g_p5):
        # Conjugating only {e} by c is not inner: a witness would have to
        # centralize a and d simultaneously while moving e.
        phi = partial_conjugation(g_p5, "c", ["e"])
        assert inner_conjugator(phi) is None

    def test_identity(self, g_p5):
        assert inner_conjugator(identity_automorphism(g_p5)).is_empty

    def test_seeded_hit_on_longer_conjugator(self, g_c5l):
        w = parse_word(g_c5l, "v3 v1 v2")
        phi = inner_automorphism(g_c5l, w)
        found = inner_conjugator(phi)
        assert found is not None
        assert equal(found, w)

    def test_failed_verification_is_a_structure_anomaly(self, g_c5l, monkeypatch):
        phi = inner_automorphism(g_c5l, parse_word(g_c5l, "v3 v1 v2"))
        monkeypatch.setattr(autos_module, "_verifies_conjugator", lambda phi, w: False)
        with pytest.raises(StructureAnomalyError, match="fails verification"):
            inner_conjugator(phi)


@functools.cache
def _reduced_words(g, bound):
    """All reduced words of length at most ``bound``, shortest first
    (shuffle duplicates kept)."""
    letters = [(v, s) for v in sorted(g.nodes) for s in (1, -1)]
    out = [empty_word(g)]
    frontier = [()]
    for _ in range(bound):
        frontier = [
            w
            for w in (prefix + (letter,) for prefix in frontier for letter in letters)
            if len(reduce_word(RaagWord(g, w))) == len(w)
        ]
        out += [RaagWord(g, w) for w in frontier]
    return out


def _bounded_conjugator(phi, bound):
    """Reference: the first reduced word of length at most ``bound`` that
    conjugates every generator to its image, or ``None``."""
    assert bound <= 3, "exhaustive reference, too slow beyond length 3"
    g = phi.graph
    nodes = sorted(g.nodes, key=lambda x: phi.images[x].letters == ((x, 1),))
    for w in _reduced_words(g, bound):
        w_inv = w.inverse()
        if all(
            reduce_word(w * generator(g, x) * w_inv * phi.images[x].inverse()).is_empty
            for x in nodes
        ):
            return w
    return None


def _components_outside_star(g, v):
    unseen = set(g.nodes) - g.link(v) - {v}
    comps = []
    while unseen:
        stack = [min(unseen)]
        comp = set(stack)
        unseen -= comp
        while stack:
            for nbr in g.link(stack.pop()) & unseen:
                unseen.discard(nbr)
                comp.add(nbr)
                stack.append(nbr)
        comps.append(comp)
    return comps


def _random_automorphisms(g, rng, count):
    """Products of one to four factors, each either an inner generator or an
    elementary automorphism (partial conjugation or transvection)."""
    inner = [
        inner_automorphism(g, generator(g, v, e))
        for v in sorted(g.nodes)
        for e in (1, -1)
    ]
    elementary = []
    for v in sorted(g.nodes):
        for comp in _components_outside_star(g, v):
            elementary.append(partial_conjugation(g, v, comp))
        for u in sorted(g.nodes):
            if u != v and g.link(u) <= g.link(v) | {v}:
                elementary.append(transvection(g, u, v))
    elementary += [a.inverse() for a in elementary]
    pools = (inner, elementary)
    # Each product is composed right to left: the last factor acts first.
    return [
        functools.reduce(
            lambda acc, a: compose(a, acc),
            reversed([rng.choice(rng.choice(pools)) for _ in range(rng.randrange(1, 5))]),
        )
        for _ in range(count)
    ]


class TestInnerConjugatorOracle:
    @pytest.mark.parametrize("graph", ["g_p5", "g_c5l", "g_grid", "g_f3"])
    def test_agrees_with_bounded_search(self, graph, request):
        g = request.getfixturevalue(graph)
        verdicts = set()
        for phi in _random_automorphisms(g, random.Random(graph), 30):
            exact = inner_conjugator(phi)
            bounded = _bounded_conjugator(phi, 3)
            if bounded is not None:
                assert exact is not None and equal(exact, bounded)
            if exact is not None and len(exact) <= 3:
                assert bounded is not None
            if exact is None:
                assert bounded is None
            assert inner_conjugator(phi) == exact  # deterministic
            verdicts.add(exact is None)
        assert verdicts == {True, False}

    def test_long_conjugator_on_grid(self, g_grid):
        w = parse_word(g_grid, "g00 g11 g22 g02^-1 g20 g11^-1 g01 g12 g21^-1")
        assert len(reduce_word(w)) >= 8
        found = inner_conjugator(inner_automorphism(g_grid, w))
        assert found is not None and equal(found, w)

    def test_p5_partial_conjugation_decided_not_inner(self, g_p5):
        phi = partial_conjugation(g_p5, "c", {"e"})
        assert inner_conjugator(phi) is None
        assert inner_conjugator(compose(phi, phi)) is None


class TestStoredImages:
    """Stored inverses and the letter-level identity test."""

    def test_inverse_round_trips_both_ways(self, g_p5):
        phi = partial_conjugation(g_p5, "b", ["d", "e"])
        inv = phi.inverse()
        assert phi.inverse().equals(inv)
        assert inv.inverse().equals(phi)
        assert compose(phi, inv).is_identity()

    def test_composite_inverse_round_trips(self, g_c5l):
        phi = compose(
            transvection(g_c5l, "u", "v1"), partial_conjugation(g_c5l, "v2", ["u"])
        )
        assert phi.inverse().equals(phi.inverse())
        assert phi.inverse().inverse().equals(phi)
        assert phi.has_verified_inverse()

    def test_missing_inverse_still_raises(self, g_p5):
        phi = RaagAutomorphism(g_p5, {"a": parse_word(g_p5, "a b")})
        for _ in range(2):
            with pytest.raises(AutomorphismError):
                phi.inverse()
        assert not phi.has_verified_inverse()

    @pytest.mark.parametrize("graph", ["g_p5", "g_c5l", "g_grid"])
    def test_identity_and_moved_nodes_match_canonical(self, graph, request):
        g = request.getfixturevalue(graph)
        rng = random.Random(f"stored-{graph}")
        autos = _random_automorphisms(g, rng, 40)
        # Products with their own inverse are the identity, whatever the
        # letters of the intermediate images were.
        autos += [compose(phi, phi.inverse()) for phi in autos[:10]]
        autos += [compose(phi.inverse(), phi) for phi in autos[:10]]
        verdicts = set()
        for phi in autos:
            moved = tuple(
                x for x in g.nodes if canonical(phi.images[x]).letters != ((x, 1),)
            )
            assert phi.moved_nodes() == moved
            assert phi.is_identity() == (not moved)
            for x in g.nodes:
                assert phi.images[x].letters == reduce_word(phi.images[x]).letters
            verdicts.add(phi.is_identity())
        assert verdicts == {True, False}

    def test_compose_across_graphs_rejected(self, g_p5, g_c5l):
        phi = transvection(g_p5, "a", "b")
        psi = transvection(g_c5l, "u", "v1")
        with pytest.raises(AutomorphismError):
            compose(phi, psi)
        with pytest.raises(AutomorphismError):
            compose(psi, phi)
        with pytest.raises(AutomorphismError):
            phi.apply(generator(g_c5l, "u"))
        with pytest.raises(AutomorphismError):
            RaagAutomorphism(g_p5, {"a": generator(g_c5l, "u")})

    def test_image_of_unknown_node_raises(self):
        p3 = DefiningGraph.from_edges([("a", "b"), ("b", "c")])
        with pytest.raises(GraphError, match="unknown node 'zz'"):
            transvection(p3, "a", "b").image_of("zz")

    def test_structurally_equal_graph_accepted(self, g_p5):
        # An equal graph built another way is the same object, so maps and
        # words over either work together.
        from raagvcd.graph_core import parse_graph

        twin = parse_graph("".join(f"edge {a} {b}\n" for a, b in zip("abcd", "bcde")))
        assert twin is g_p5
        phi = transvection(g_p5, "a", "b")
        psi = transvection(twin, "a", "c")
        both = compose(phi, psi)
        assert equal(both.image_of("a"), parse_word(g_p5, "a b c"))
        assert both.equals(compose(psi, phi))
        assert str(phi.apply(parse_word(twin, "a c"))) == "a b c"
        mixed = RaagAutomorphism(g_p5, {"a": parse_word(twin, "a b")})
        assert mixed.equals(phi)


def _dense_compose(phi, psi):
    """Reference: every node's image mapped through ``phi``."""
    return {x: phi.apply(psi.images[x]) for x in phi.graph.nodes}


def _dense_equals(phi, psi):
    """Reference: ``equal`` on every node."""
    return all(equal(phi.images[x], psi.images[x]) for x in phi.graph.nodes)


def _dense_respects_relations(phi):
    """Reference: every edge's images commute."""
    img = phi.images
    return all(
        equal(img[x] * img[y], img[y] * img[x])
        for x, y in (sorted(e) for e in phi.graph.edges)
    )


def _support_sample(g, rng):
    """Seeded products of generators, inner automorphisms among them, plus
    identities written both directly and as products."""
    autos = _random_automorphisms(g, rng, 30)
    autos += [inner_automorphism(g, generator(g, v)) for v in sorted(g.nodes)[:2]]
    autos += [identity_automorphism(g), compose(autos[0], autos[0].inverse())]
    return autos


class TestSupportOracle:
    """The support-based compose, equals and respects_relations against
    all-nodes references."""

    GRAPHS = ["g_p5", "g_c5l", "g_grid", "g_f3"]

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_compose_matches_dense(self, graph, request):
        g = request.getfixturevalue(graph)
        rng = random.Random(f"compose-{graph}")
        autos = _support_sample(g, rng)
        for _ in range(60):
            phi, psi = rng.choice(autos), rng.choice(autos)
            both = compose(phi, psi)
            dense = _dense_compose(phi, psi)
            for x in g.nodes:
                assert both.images[x].letters == dense[x].letters
            assert both.moved_nodes() == tuple(
                x for x in g.nodes if canonical(dense[x]).letters != ((x, 1),)
            )

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_equals_matches_dense(self, graph, request):
        g = request.getfixturevalue(graph)
        rng = random.Random(f"equals-{graph}")
        autos = _support_sample(g, rng)
        identity = identity_automorphism(g)
        pairs = [(a, identity) for a in autos] + [(identity, a) for a in autos]
        pairs += [(a, compose(a, identity)) for a in autos]
        for _ in range(60):
            phi, psi = rng.choice(autos), rng.choice(autos)
            pairs += [(phi, psi), (compose(phi, psi), compose(psi, phi))]
        verdicts = set()
        for a, b in pairs:
            verdict = _dense_equals(a, b)
            assert a.equals(b) == verdict
            assert b.equals(a) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_respects_relations_matches_dense(self, graph, request):
        g = request.getfixturevalue(graph)
        rng = random.Random(f"relations-{graph}")
        maps = _support_sample(g, rng)
        letters = [(v, s) for v in g.nodes for s in (1, -1)]
        for _ in range(40):
            x = rng.choice(g.nodes)
            img = word(g, [rng.choice(letters) for _ in range(rng.randrange(1, 4))])
            maps.append(RaagAutomorphism(g, {x: img}))
        verdicts = set()
        for phi in maps:
            verdict = _dense_respects_relations(phi)
            assert phi.respects_relations() == verdict
            verdicts.add(verdict)
        assert verdicts == ({True} if not g.edges else {True, False})

    def test_compose_applies_only_psi_support(self, g_grid, monkeypatch):
        phi = partial_conjugation(g_grid, "g11", ["g00"])
        psi = transvection(g_grid, "g22", "g21")
        calls = []
        real_apply = autos_module._apply

        def counting_apply(auto, codes):
            calls.append(auto)
            return real_apply(auto, codes)

        monkeypatch.setattr(autos_module, "_apply", counting_apply)
        both = compose(phi, psi)
        assert calls == [phi]  # psi moves g22 only; no inverse is built
        monkeypatch.undo()
        assert both.moved_nodes() == ("g00", "g22")


class TestLazyInverse:
    def _pair(self, g):
        return (
            compose(transvection(g, "u", "v1"), partial_conjugation(g, "v2", ["u"])),
            partial_conjugation(g, "u", ["v2", "v3", "v4", "v5"]),
        )

    def test_composite_inverse_is_product_of_inverses(self, g_c5l):
        phi, psi = self._pair(g_c5l)
        both = compose(phi, psi)
        assert not both.equals(compose(psi, phi))  # the order matters
        expected = compose(psi.inverse(), phi.inverse())
        assert both.inverse().equals(expected)
        assert _dense_equals(both.inverse(), expected)
        assert both.inverse().inverse().equals(both)
        assert compose(both, both.inverse()).is_identity()

    def test_inverse_images_readable_on_composite(self, g_c5l):
        phi, psi = self._pair(g_c5l)
        both = compose(phi, psi)
        inv_images = both.inverse_images
        assert inv_images is not None
        assert set(inv_images) == set(g_c5l.nodes)
        inv = both.inverse()
        assert all(equal(inv_images[x], inv.images[x]) for x in g_c5l.nodes)
        assert all(equal(inv.inverse_images[x], both.images[x]) for x in g_c5l.nodes)

    def test_reads_leave_composite_slots_unchanged(self, g_c5l):
        # A map is a value: building or checking its inverse writes nothing.
        phi, psi = self._pair(g_c5l)
        both = compose(phi, psi)
        before = {name: getattr(both, name) for name in RaagAutomorphism.__slots__}
        images = dict(both._images)
        both.inverse()
        assert both.inverse_images is not None
        assert both.has_verified_inverse()
        for name, value in before.items():
            assert getattr(both, name) is value, name
        assert both._images == images

    def test_has_verified_inverse_on_composites(self, g_c5l, g_grid):
        phi, psi = self._pair(g_c5l)
        assert compose(phi, psi).has_verified_inverse()
        assert compose(phi, compose(psi, compose(phi.inverse(), psi))).has_verified_inverse()
        for a in _random_automorphisms(g_grid, random.Random("lazy"), 20):
            assert a.has_verified_inverse()

    @pytest.mark.parametrize("through", ["generator_set", "inverse"])
    def test_graph_freed_without_the_cycle_collector(self, through):
        # No map refers back to its inverse, so once the maps are gone
        # reference counting alone frees the graph they hold.
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            g = DefiningGraph.from_edges(
                [(f"fr{i}", f"fr{i + 1}") for i in range(5)] + [("fr2", "fx")]
            )
            if through == "generator_set":
                kept = build_generator_set(g)
            else:
                kept = transvection(g, "fr0", "fr2").inverse()
            ref = weakref.ref(g)
            del g, kept
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_factor_without_inverse_still_raises(self, g_p5):
        bare = RaagAutomorphism(g_p5, {"a": parse_word(g_p5, "a b")})
        stored = transvection(g_p5, "a", "b")
        for both in (compose(bare, stored), compose(stored, bare)):
            assert both.inverse_images is None
            assert not both.has_verified_inverse()
            with pytest.raises(AutomorphismError):
                both.inverse()


class TestGeneratorSet:
    def test_p5_matches_worked_example(self, g_p5):
        gs = build_generator_set(g_p5)
        assert gs.count == 7
        assert gs.choices.base_edge == ("b", "c")
        labels = [e.describe() for e in gs.entries]
        assert labels == [
            "conj[c](a)",
            "conj[b](d,e)",
            "conj[c](e)",
            "transv_right(a by b)",
            "transv_right(a by c)",
            "transv_right(e by d)",
            "transv_right(e by c)",
        ]
        assert gs.inner_rank == 2
        assert gs.outer_rank == 5
        assert not gs.uncertified_pairs()

    def test_c5l_matches_worked_example(self, g_c5l):
        core, dec, choices = c5l_choices(g_c5l)
        assert choices.toward_base["v1"] == "v2"
        gs = build_generator_set(g_c5l, core, dec, choices)
        assert gs.count == 3
        labels = {e.describe() for e in gs.entries}
        assert labels == {
            "conj[v2](u)",
            "transv_right(u by v1)",
            "transv_right(u by v2)",
        }
        assert gs.inner_rank == 0
        assert gs.outer_rank == 3

    def test_spider(self, g_spider):
        gs = build_generator_set(g_spider)
        assert gs.count == 11
        kinds = {}
        for e in gs.entries:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        assert kinds["partial_conjugation"] == 5
        assert (
            kinds["leaf_transvection_neighbor"]
            + kinds["leaf_transvection_toward_base"]
            == 6
        )
        assert gs.inner_rank == 2
        assert gs.outer_rank == 9

    def test_disconnected_graph_refused(self):
        # The input's fault, so a plain GraphError, not an internal anomaly.
        g = DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")])
        with pytest.raises(GraphError, match="must be connected") as exc:
            build_generator_set(g)
        assert not isinstance(exc.value, StructureAnomalyError)

    def test_square_type_three_transvections(self, g_square):
        gs = build_generator_set(g_square)
        kinds = sorted(e.kind for e in gs.entries)
        assert kinds == [
            "transvection_left",
            "transvection_left",
            "transvection_right",
            "transvection_right",
        ]
        assert gs.count == 4
        assert gs.inner_rank == 2
        assert gs.outer_rank == 2  # agrees with the exact dimension

    def test_dominating_rep_falls_back_outside_unique_maximal(self):
        # In K(2,3) plus a leaf, y is dominated only by x, which is not
        # unique-maximal; the transvections must target x anyway.
        g = DefiningGraph.from_edges(
            [("x", "p"), ("x", "q"), ("x", "r"),
             ("y", "p"), ("y", "q"), ("y", "r"), ("p", "u")]
        )
        gs = build_generator_set(g)
        assert gs.count == 9
        assert gs.choices.dominating_rep["y"] == "x"
        assert gs.choices.dominating_rep["q"] == "p"
        assert gs.inner_rank == 2
        assert gs.outer_rank == 7
        assert not gs.uncertified_pairs()

    def test_count_identity_on_trees(self):
        for g in eligible_trees(7):
            gs = build_generator_set(g, certify=False)
            dec = pieces(g)
            core = gamma_zero(g)
            assert gs.count == (dec.count - 1) + 2 * (g.num_nodes - core.num_nodes)

    def test_outer_rank_achieves_tree_dimension_everywhere(self):
        # Both base-edge endpoints are hubs in a tree, so the inner lattice
        # always has rank two and the quotient meets the exact dimension.
        from raagvcd.vcd_bounds import vcd_report

        for g in eligible_trees(7):
            gs = build_generator_set(g)
            assert gs.inner_rank == 2
            assert gs.outer_rank == vcd_report(g).exact

    def test_generators_fix_core_nodes_up_to_conjugacy(self, g_p5, g_c5l):
        from raagvcd.words import cyclic_reduce, generator as gen_word

        for g in (g_p5, g_c5l):
            core = gamma_zero(g)
            gs = build_generator_set(g, certify=False)
            for entry in gs.entries:
                for u in core.nodes:
                    _, cyc_core = cyclic_reduce(entry.automorphism.image_of(u))
                    assert equal(cyc_core, gen_word(g, u))

    def test_generators_have_verified_inverses(self, g_c5l):
        gs = build_generator_set(g_c5l, certify=False)
        for entry in gs.entries:
            assert entry.automorphism.has_verified_inverse()

    def test_invalid_base_edge(self, g_p5):
        core = gamma_zero(g_p5)
        dec = pieces(g_p5)
        with pytest.raises(AutomorphismError):
            default_choices(g_p5, core, dec, base_edge=("a", "b"))

    def test_invalid_spanning_tree(self, g_c5l):
        core = gamma_zero(g_c5l)
        dec = pieces(g_c5l)
        not_spanning = [frozenset(("v1", "v2")), frozenset(("v2", "v3"))]
        with pytest.raises(AutomorphismError):
            default_choices(
                g_c5l, core, dec, base_edge=("v1", "v2"), spanning_tree=not_spanning
            )


class TestCommutation:
    def test_all_pairs_certified_on_small_trees(self):
        for g in eligible_trees(6):
            gs = build_generator_set(g, certify=False)
            certs = verify_commuting(gs)
            assert all(c.certified for c in certs.values())

    def test_all_pairs_certified_on_nine_node_trees(self):
        for g in eligible_trees(9, min_nodes=9):
            gs = build_generator_set(g, certify=False)
            certs = verify_commuting(gs)
            assert all(c.certified for c in certs.values())

    def test_nested_partial_conjugations_certificate(self, g_p5):
        gs = build_generator_set(g_p5)
        by_label = {e.describe(): i for i, e in enumerate(gs.entries)}
        i = by_label["conj[b](d,e)"]
        j = by_label["conj[c](e)"]
        cert = gs.certificates[(min(i, j), max(i, j))]
        assert cert.certified

    def test_leaf_transvections_commute_exactly(self, g_p5):
        gs = build_generator_set(g_p5)
        by_label = {e.describe(): i for i, e in enumerate(gs.entries)}
        i = by_label["transv_right(a by b)"]
        j = by_label["transv_right(a by c)"]
        cert = gs.certificates[(min(i, j), max(i, j))]
        assert cert.exact

    def test_disjoint_support_commute_exactly(self, g_p5):
        gs = build_generator_set(g_p5)
        by_label = {e.describe(): i for i, e in enumerate(gs.entries)}
        i = by_label["conj[c](a)"]
        j = by_label["transv_right(e by d)"]
        cert = gs.certificates[(min(i, j), max(i, j))]
        assert cert.exact

    @staticmethod
    def _two_generators(g, a, b):
        """The generator set of ``g`` with ``a`` and ``b`` as its only
        entries.  Every pair of a real generator set commutes exactly, so
        only a set like this reaches the commutator and its decision."""
        gs = build_generator_set(g, certify=False)
        entries = tuple(
            dataclasses.replace(gs.entries[0], automorphism=phi) for phi in (a, b)
        )
        return dataclasses.replace(gs, entries=entries)

    def test_inner_commutator_certified_by_its_conjugator(self, g_p5):
        # e -> e d against conjugation by e: the commutator is conjugation
        # by d.
        gs = self._two_generators(
            g_p5,
            transvection(g_p5, "e", "d", "right"),
            inner_automorphism(g_p5, generator(g_p5, "e")),
        )
        certs = verify_commuting(gs)
        cert = certs[(0, 1)]
        assert not cert.exact and cert.certified
        assert str(cert.conjugator) == "d"
        assert cert.to_dict() == {
            "pair": [0, 1],
            "conjugator": "d",
            "exact": False,
            "certified": True,
        }
        assert dataclasses.replace(gs, certificates=certs).uncertified_pairs() == []

    def test_outer_commutator_uncertified(self, g_c5l):
        # u -> v2 u against u -> v5 u: the commutator sends u alone to
        # v5^-1 v2^-1 v5 v2 u, so it is not inner.
        gs = self._two_generators(
            g_c5l,
            transvection(g_c5l, "u", "v2", "left"),
            transvection(g_c5l, "u", "v5", "left"),
        )
        certs = verify_commuting(gs)
        cert = certs[(0, 1)]
        assert not cert.exact and not cert.certified
        assert cert.to_dict()["conjugator"] is None
        with_certs = dataclasses.replace(gs, certificates=certs)
        assert with_certs.uncertified_pairs() == [(0, 1)]


class TestInnerLattice:
    def test_independence_modulo_lattice_on_c5l(self, g_c5l):
        core, dec, choices = c5l_choices(g_c5l)
        gs = build_generator_set(g_c5l, core, dec, choices, certify=False)
        autos = gs.automorphisms()
        rng = random.Random(3)
        vectors = [
            tuple(rng.randrange(-1, 2) for _ in autos) for _ in range(8)
        ]
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                if vectors[a] == vectors[b]:
                    continue
                diff = identity_automorphism(g_c5l)
                for vec_entry, auto in zip(
                    (x - y for x, y in zip(vectors[a], vectors[b])), autos
                ):
                    step = auto if vec_entry > 0 else auto.inverse()
                    for _ in range(abs(vec_entry)):
                        diff = compose(step, diff)
                # Inner rank is zero here, so distinct vectors must stay
                # distinct even modulo inner automorphisms.
                assert inner_conjugator(diff) is None

    def test_p5_witness_vectors_verify(self, g_p5):
        gs = build_generator_set(g_p5)
        assert set(gs.inner.witnesses) >= {(1, 0), (0, 1)}
        assert gs.inner.complete

    def test_single_hub_endpoint_gives_rank_one(self):
        # Six-cycle with a chord and a leaf: the default base edge has one
        # hub endpoint, so exactly one conjugation is reachable and the
        # outer rank meets the one-step lower bound.
        g = DefiningGraph.from_edges(
            [("n0", "n4"), ("n1", "n2"), ("n1", "n3"), ("n1", "n6"),
             ("n2", "n5"), ("n3", "n4"), ("n4", "n6"), ("n5", "n6")]
        )
        gs = build_generator_set(g)
        assert gs.count == 9
        assert gs.inner_rank == 1
        assert set(gs.inner.witnesses) == {(0, 1)}
        from raagvcd.vcd_bounds import vcd_report

        assert gs.outer_rank == vcd_report(g).lower.value == 8

    def test_p5_vectors_collapse_exactly_along_lattice(self, g_p5):
        gs = build_generator_set(g_p5)
        autos = gs.automorphisms()

        def product_of(vector):
            out = identity_automorphism(g_p5)
            for e, auto in zip(vector, autos):
                step = auto if e > 0 else auto.inverse()
                for _ in range(abs(e)):
                    out = compose(step, out)
            return out

        # A difference lying on a lattice witness is inner...
        lattice_vec = gs.inner.witnesses[(1, 0)]
        assert inner_conjugator(product_of(lattice_vec)) is not None
        # ...while a difference off the lattice (a lone transvection) is not.
        lone = tuple(1 if i == 3 else 0 for i in range(gs.count))
        assert gs.entries[3].kind.startswith("leaf_transvection")
        assert inner_conjugator(product_of(lone)) is None


def dfs_inner_lattice(gs):
    """The exponent search that ``inner_lattice`` replaced, kept as a test
    reference: exponents in {-1, 0, 1} per generator, assigned node by node
    over each node's letter closure, every found vector re-verified by full
    composition.  Returns ``(rank, witnesses)``; the search never reached
    its cap of two million assignments on the graphs tested here."""
    g = gs.graph
    v0, w0 = gs.choices.base_edge
    autos = gs.automorphisms()
    moved = [frozenset(a.moved_nodes()) for a in autos]

    def closure_of(start):
        closure, changed = {start}, True
        while changed:
            changed = False
            for idx, a in enumerate(autos):
                for x in list(closure & moved[idx]):
                    for img in (a.images[x], a.inverse_images[x]):
                        for letter, _ in img.letters:
                            if letter not in closure:
                                closure.add(letter)
                                changed = True
        return tuple(i for i in range(len(autos)) if moved[i] & closure)

    affecting = {x: closure_of(x) for x in g.nodes}
    budget = [2_000_000]

    def apply_power(a, n, w):
        step = a if n > 0 else a.inverse()
        for _ in range(abs(n)):
            w = step.apply(w)
        return w

    def solve(a, b):
        t = RaagWord(g, ((v0, 1),) * a + ((w0, 1 if b > 0 else -1),) * abs(b))
        t_inv = t.inverse()
        for x in g.nodes:
            if not affecting[x] and not equal(
                generator(g, x), t * generator(g, x) * t_inv
            ):
                return None
        constrained = sorted(
            (x for x in g.nodes if affecting[x]), key=lambda x: (len(affecting[x]), x)
        )
        assignment = {}

        def check_node(x):
            w = generator(g, x)
            for idx in affecting[x]:
                if assignment[idx]:
                    w = apply_power(autos[idx], assignment[idx], w)
            return equal(w, t * generator(g, x) * t_inv)

        def dfs(pos):
            if pos == len(constrained):
                return True
            x = constrained[pos]
            free = [i for i in affecting[x] if i not in assignment]
            if not free:
                return check_node(x) and dfs(pos + 1)
            for combo in itertools.product((-1, 0, 1), repeat=len(free)):
                budget[0] -= 1
                assert budget[0] > 0, "reference search hit its cap"
                assignment.update(zip(free, combo))
                if check_node(x) and dfs(pos + 1):
                    return True
                for i in free:
                    del assignment[i]
            return False

        if not dfs(0):
            return None
        vector = tuple(assignment.get(i, 0) for i in range(len(autos)))
        product = identity_automorphism(g)
        for e, auto in zip(vector, autos):
            step = auto if e > 0 else auto.inverse()
            for _ in range(abs(e)):
                product = compose(step, product)
        assert product.equals(inner_automorphism(g, t))
        return vector

    witnesses = {}
    for pair in ((1, 0), (0, 1), (1, 1), (1, -1)):
        vec = solve(*pair)
        if vec is not None:
            witnesses[pair] = vec
    found = list(witnesses)
    if any(p[0] * q[1] - p[1] * q[0] for p in found for q in found):
        rank = 2
    else:
        rank = 1 if found else 0
    return rank, witnesses


def _random_eligible_graphs(seed, count, sizes):
    """Seeded connected triangle-free graphs that pass validation: a random
    spanning tree plus random chords that close no triangle."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(sizes)
        nodes = [f"r{i}" for i in range(n)]
        edges = {frozenset((nodes[i], nodes[rng.randrange(i)])) for i in range(1, n)}
        for _ in range(rng.randrange(4)):
            a, b = rng.sample(nodes, 2)
            e = frozenset((a, b))
            adj_a = {v for f in edges if a in f for v in f if v != a}
            adj_b = {v for f in edges if b in f for v in f if v != b}
            if e not in edges and not adj_a & adj_b:
                edges.add(e)
        g = DefiningGraph.from_edges(sorted(tuple(sorted(e)) for e in edges))
        if validate(g).eligible:
            out.append(g)
    return out


def _oracle_graphs():
    graphs = list(eligible_trees(8))
    graphs += cycle_tree_fixtures() + square_free_non_trees() + squares_with_trees()
    graphs += _random_eligible_graphs("inner-lattice", 40, (6, 7))
    return graphs


class TestInnerLatticeOracle:
    """The integer solve against the exponent search it replaced."""

    def _assert_agrees(self, g):
        gs = build_generator_set(g, certify=False)
        result = inner_lattice(gs)
        assert result.complete
        assert (result.rank, result.witnesses) == dfs_inner_lattice(gs)
        return result

    def test_agrees_with_search_on_corpus(self):
        graphs = _oracle_graphs()
        assert len(graphs) > 100
        ranks = [self._assert_agrees(g).rank for g in graphs]
        assert set(ranks) == {0, 1, 2}

    @pytest.mark.parametrize("graph", ["g_spider", "g_grid", "g_c5l"])
    def test_agrees_with_search_on_fixtures(self, graph, request):
        self._assert_agrees(request.getfixturevalue(graph))

    def test_vectors_outside_the_search_range(self, g_p5):
        # On P5 the generators commute exactly, and conjugation by c is
        # conj[c](a) . conj[c](e).  Trading conj[c](e) for
        # conj[c](e) . conj[c](a)^-1 changes basis; conjugation by c then
        # needs conj[c](a) squared, beyond the search's exponents.
        gs = build_generator_set(g_p5, certify=False)
        assert [e.describe() for e in gs.entries[:3]] == [
            "conj[c](a)", "conj[b](d,e)", "conj[c](e)"
        ]
        first, third = gs.entries[0].automorphism, gs.entries[2].automorphism
        traded = dataclasses.replace(
            gs,
            entries=gs.entries[:2]
            + (dataclasses.replace(gs.entries[2], automorphism=compose(third, first.inverse())),)
            + gs.entries[3:],
        )
        zeros = (0,) * 4
        result = inner_lattice(traded)
        assert result.rank == 2
        assert result.witnesses == {
            (1, 0): (0, 1, 0) + zeros,
            (0, 1): (2, 0, 1) + zeros,
            (1, 1): (2, 1, 1) + zeros,
            (1, -1): (-2, 1, -1) + zeros,
        }
        assert dfs_inner_lattice(traded) == (1, {(1, 0): (0, 1, 0) + zeros})


class TestIntegerSolve:
    def test_unit_pivots(self):
        cols = [{"a": 1, "b": 2}, {"b": 1, "c": -1}]
        rhs = [{"a": 2, "b": 1, "c": 3}, {"a": 1}, {"a": 1, "b": 2, "c": 1}]
        assert _solve_over_z(cols, rhs) == [(2, -3), None, None]

    def test_gcd_pivots(self):
        # A unimodular matrix with no entry +-1: Euclid's route is needed.
        cols = [{"a": 2, "b": 3}, {"a": 5, "b": 7}]
        assert _solve_over_z(cols, [{"a": -4, "b": -5}]) == [(3, -2)]
        # One column: divisible, not divisible, inconsistent.
        col = [{"a": 4, "b": 6}]
        assert _solve_over_z(col, [{"a": 8, "b": 12}, {"a": 2, "b": 3}, {"a": 4, "b": 7}]) == [
            (2,), None, None
        ]

    @pytest.mark.parametrize(
        "cols", [[{"a": 1}, {"a": 2}], [{"a": 1}, {}], [{"a": 2, "b": 2}, {"a": 3, "b": 3}]]
    )
    def test_dependent_columns_raise(self, cols):
        with pytest.raises(StructureAnomalyError, match="dependent"):
            _solve_over_z(cols, [{"a": 1}])

    def test_matches_rational_elimination(self):
        # Outside oracle: Gauss-Jordan over Q.  An integer solution exists
        # exactly when the rational one does and is integral.
        rng = random.Random(1993)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(1, 4)
            keys = range(rng.randint(n, n + 2))
            cols = [
                {k: v for k in keys if (v := rng.choice((0, 0, 1, -1, 2, -3, 4, 5)))}
                for _ in range(n)
            ]
            if n > 1 and rng.random() < 0.2:
                coeffs = [rng.randint(-2, 2) for _ in cols[1:]]
                cols[0] = combine(coeffs, cols[1:], keys)
            if rational_solve(cols, {}, keys)[0] < n:
                with pytest.raises(StructureAnomalyError, match="dependent"):
                    _solve_over_z(cols, [{}])
                seen["dependent"] += 1
                continue
            e = [rng.randint(-5, 5) for _ in cols]
            rhs = [
                combine(e, cols, keys),
                {k: v for k in keys if (v := rng.randint(-6, 6))},
            ]
            for b, got in zip(rhs, _solve_over_z(cols, rhs)):
                q = rational_solve(cols, b, keys)[1]
                if q is None:
                    case, expected = "inconsistent", None
                elif all(x.denominator == 1 for x in q):
                    case, expected = "integral", tuple(int(x) for x in q)
                else:
                    case, expected = "non-integral", None
                assert got == expected, (cols, b)
                seen[case] += 1
        cases = ("dependent", "inconsistent", "integral", "non-integral")
        assert min(seen[c] for c in cases) >= 20, seen


def combine(coeffs, cols, keys):
    """The column sum_i coeffs[i] * cols[i], zeros dropped."""
    return {
        k: v for k in keys if (v := sum(a * c.get(k, 0) for a, c in zip(coeffs, cols)))
    }


def rational_solve(cols, b, keys):
    """Gauss-Jordan over Q on ``[A | b]``: the rank of ``A``, and the
    solution ``e`` of ``A e = b`` if ``A`` has full column rank and the
    system is consistent (else ``None``)."""
    n = len(cols)
    m = [[Fraction(c.get(k, 0)) for c in cols] + [Fraction(b.get(k, 0))] for k in keys]
    rank = 0
    for j in range(n):
        i = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if i is None:
            continue
        m[rank], m[i] = m[i], m[rank]
        m[rank] = [x / m[rank][j] for x in m[rank]]
        for i in range(len(m)):
            f = m[i][j]
            if i != rank and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    if rank < n or any(row[n] for row in m[rank:]):
        return rank, None
    return rank, [m[i][n] for i in range(n)]


class TestLatticeInvariant:
    def test_partial_conjugation_and_transvections(self, g_p5):
        # conj[b] on {a}: a -> b a b^-1, and b is in st(a).
        assert _lattice_invariant(partial_conjugation(g_p5, "b", ["a"])) == {}
        assert _lattice_invariant(partial_conjugation(g_p5, "c", ["a"])) == {
            ("a", "c", "L"): 1,
            ("a", "c", "R"): -1,
        }
        assert _lattice_invariant(transvection(g_p5, "a", "c", "left")) == {
            ("a", "c"): 1,
            ("a", "c", "L"): 1,
        }
        assert _lattice_invariant(transvection(g_p5, "a", "b")) == {("a", "b"): 1}

    @pytest.mark.parametrize("image", ["a^-1", "c", "a c a", "1"])
    def test_unreadable_image_raises(self, g_p5, image):
        phi = RaagAutomorphism(g_p5, {"a": parse_word(g_p5, image)})
        with pytest.raises(StructureAnomalyError, match="exactly once"):
            _lattice_invariant(phi)


class TestLatticeChecksExit3:
    """A broken inner-lattice input ends ``analyze --witness`` with exit 3."""

    def _run(self, tmp_path):
        from raagvcd.cli import main

        path = tmp_path / "p5.graph"
        path.write_text("edge a b\nedge b c\nedge c d\nedge d e\n")
        return main(["analyze", str(path), "--witness", "--json"])

    def test_dependent_columns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(autos_module, "_lattice_invariant", lambda phi: {("a", "b"): 1})
        assert self._run(tmp_path) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal invariant broken" in captured.err
        assert "dependent" in captured.err

    def test_unreadable_generator_image(self, tmp_path, capsys, monkeypatch):
        # Leaf "transvections" that invert the leaf: automorphisms that
        # respect the relations, but their images are not readable.
        def inversion(g, node, target, side="right"):
            inv = {node: generator(g, node, -1)}
            return RaagAutomorphism(g, inv, inv)

        monkeypatch.setattr(autos_module, "transvection", inversion)
        assert self._run(tmp_path) == 3
        assert "exactly once" in capsys.readouterr().err


class TestGeneratorSetChecksExit3:
    """A generator set that fails its own count, relation or inverse check
    is an internal invariant broken: ``analyze --witness`` exits 3."""

    _run = TestLatticeChecksExit3._run

    def test_generator_without_stored_inverse(self, tmp_path, capsys, monkeypatch):
        def bare(g, node, target, side="right"):
            return RaagAutomorphism(g, {node: generator(g, node) * generator(g, target)})

        monkeypatch.setattr(autos_module, "transvection", bare)
        assert self._run(tmp_path) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal invariant broken" in captured.err
        assert "has no verified inverse" in captured.err

    def test_generator_breaking_relations(self, tmp_path, capsys, monkeypatch):
        # a -> a e, with e outside the star of a's neighbour b.
        def far(g, node, target, side="right"):
            x, e = generator(g, node), generator(g, "e")
            return RaagAutomorphism(g, {node: x * e}, {node: x * e.inverse()})

        monkeypatch.setattr(autos_module, "transvection", far)
        assert self._run(tmp_path) == 3
        captured = capsys.readouterr()
        assert "internal invariant broken" in captured.err
        assert "does not respect the relations" in captured.err

    def test_generator_count_mismatch(self, g_p5):
        dec = pieces(g_p5)
        extra = dataclasses.replace(dec, pieces=dec.pieces + dec.pieces[:1])
        with pytest.raises(StructureAnomalyError, match="generator count"):
            build_generator_set(g_p5, gamma_zero(g_p5), extra)


class TestProjection:
    def test_partial_conjugation_projects_at_c(self, g_p5):
        phi = partial_conjugation(g_p5, "b", ["d", "e"])
        proj = project_local(phi, "c")
        assert str(proj.images["b"]) == "b"
        assert str(proj.images["d"]) == "b d b^-1"

    def test_projection_at_b_is_identity(self, g_p5):
        phi = partial_conjugation(g_p5, "b", ["d", "e"])
        assert project_local(phi, "b").is_identity()

    def test_identity_projects_to_identity(self, g_p5):
        assert project_local(identity_automorphism(g_p5), "d").is_identity()

    def test_unknown_node_raises(self):
        p3 = DefiningGraph.from_edges([("a", "b"), ("b", "c")])
        with pytest.raises(GraphError, match="unknown node 'zz'"):
            project_local(identity_automorphism(p3), "zz")

    def test_local_inner_witness_exact(self, g_p5):
        phi = partial_conjugation(g_p5, "b", ["d", "e"])
        proj = project_local(phi, "c")
        witness = inner_conjugator(proj)
        assert witness is not None and str(witness) == "b"
        # A genuinely non-inner local action has no witness.
        lk = project_local(identity_automorphism(g_p5), "c").graph
        swap = {"b": generator(lk, "d"), "d": generator(lk, "b")}
        assert inner_conjugator(RaagAutomorphism(lk, swap)) is None

    def test_projection_is_a_map_of_the_link_free_group(self, g_p5):
        proj = project_local(partial_conjugation(g_p5, "b", ["d", "e"]), "c")
        assert isinstance(proj, RaagAutomorphism)
        assert proj.graph.nodes == ("b", "d") and not proj.graph.edges
        assert proj.graph is project_local(identity_automorphism(g_p5), "c").graph
        assert proj.moved_nodes() == ("d",)
        assert proj.respects_relations()


class TestLift:
    def test_lift_reproduces_partial_conjugation(self, g_p5):
        lk = project_local(identity_automorphism(g_p5), "c").graph
        lifted = lift_local(
            g_p5, "c", {"b": empty_word(lk), "d": generator(lk, "b")}
        )
        assert lifted.equals(partial_conjugation(g_p5, "b", ["d", "e"]))

    def test_trivial_data_lifts_to_identity(self, g_p5):
        lk = project_local(identity_automorphism(g_p5), "c").graph
        lifted = lift_local(g_p5, "c", {"b": empty_word(lk), "d": empty_word(lk)})
        assert lifted.is_identity()

    def test_lift_conjugates_whole_branch(self, g_p5):
        lk = project_local(identity_automorphism(g_p5), "c").graph
        lifted = lift_local(
            g_p5, "c", {"b": generator(lk, "d"), "d": empty_word(lk)}
        )
        assert equal(lifted.image_of("b"), parse_word(g_p5, "d b d^-1"))
        assert equal(lifted.image_of("a"), parse_word(g_p5, "d a d^-1"))
        assert equal(lifted.image_of("e"), parse_word(g_p5, "e"))

    def test_non_tree_rejected(self, g_c5l):
        with pytest.raises(LiftError):
            lift_local(g_c5l, "v1", {})

    def test_letters_outside_link_rejected(self, g_p5):
        with pytest.raises(LiftError):
            lift_local(g_p5, "c", {"b": parse_word(g_p5, "a"), "d": parse_word(g_p5, "b")})

    def test_random_round_trips(self):
        rng = random.Random(17)
        for g in eligible_trees(7):
            interior = [v for v in g.nodes if g.degree(v) >= 2]
            for v in interior[:2]:
                lk = sorted(g.link(v))
                local = DefiningGraph(tuple(lk), frozenset())
                letters = [(n, s) for n in lk for s in (1, -1)]
                data = {
                    w: word(local, [rng.choice(letters) for _ in range(rng.randrange(4))])
                    for w in lk
                }
                lifted = lift_local(g, v, data)
                back = project_local(lifted, v)
                for w in lk:
                    expected = data[w] * generator(local, w) * data[w].inverse()
                    assert equal(back.images[w], expected)
                for u in interior:
                    if u != v:
                        assert inner_conjugator(project_local(lifted, u)) is not None
