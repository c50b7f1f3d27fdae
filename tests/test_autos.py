import dataclasses
import functools
import itertools
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from raagvcd import autos as autos_module
from raagvcd import psigma as psigma_module
from raagvcd import words as words_module
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
    WordError,
    _equal_codes,
    _reduced_codes,
    canonical,
    empty_word,
    equal,
    generator,
    parse_word,
    reduce_word,
    word,
)
from raagvcd.psigma import PsigmaSpec, outer_rank, psigma_generators
from raagvcd.autos import (
    KIND_PARTIAL_CONJUGATION,
    AutomorphismError,
    CommutationCertificate,
    LiftError,
    RaagAutomorphism,
    build_generator_set,
    compose,
    _lattice_invariant,
    _solve_over_z,
    identity_automorphism,
    inner_automorphism,
    inner_conjugator,
    inner_lattice,
    lift_local,
    meeting_pairs,
    partial_conjugation,
    project_local,
    transvection,
    verify_commuting,
)
from raagvcd.corpus import (
    cycle_tree_fixtures,
    eligible_trees,
    spider,
    square_free_non_trees,
    squares_with_trees,
)


def c5l_choices(g):
    """Core, pieces and the base edge (v3, v4) of C5L; the breadth-first
    tree of the core from that edge is the path v1-v2-v3-v4-v5."""
    return gamma_zero(g), pieces(g), ("v3", "v4")


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
        assert gs.base_edge == ("b", "c")
        labels = [e.label for e in gs.entries]
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
        core, dec, base_edge = c5l_choices(g_c5l)
        gs = build_generator_set(g_c5l, core, dec, base_edge)
        assert gs.count == 3
        # conj[v2](u): v1's neighbour toward the base edge is v2.
        labels = {e.label for e in gs.entries}
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
        labels = {e.label for e in gs.entries}
        assert {"transv_right(y by x)", "transv_left(y by x)"} <= labels
        assert {"transv_right(q by p)", "transv_left(q by p)"} <= labels
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
                for u in g.nameset(core.nodes):
                    _, cyc_core = cyclic_reduce(entry.automorphism.image_of(u))
                    assert equal(cyc_core, gen_word(g, u))

    def test_generators_have_verified_inverses(self, g_c5l):
        gs = build_generator_set(g_c5l, certify=False)
        for entry in gs.entries:
            assert entry.automorphism.has_verified_inverse()

    def test_invalid_base_edge(self, g_p5):
        with pytest.raises(AutomorphismError, match="not an edge of the core"):
            build_generator_set(g_p5, base_edge=("a", "b"))

    def test_core_of_another_graph_refused(self, g_p5):
        # The caller's error, so not an internal anomaly.
        p6 = DefiningGraph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")]
        )
        with pytest.raises(AutomorphismError, match="another graph") as exc:
            build_generator_set(g_p5, gamma_zero(p6), pieces(g_p5))
        assert not isinstance(exc.value, StructureAnomalyError)

    def test_decomposition_of_another_graph_refused(self, g_p5):
        p6 = DefiningGraph.from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")]
        )
        with pytest.raises(AutomorphismError, match="another graph") as exc:
            build_generator_set(g_p5, gamma_zero(g_p5), pieces(p6))
        assert not isinstance(exc.value, StructureAnomalyError)


class TestCommutation:
    @pytest.mark.parametrize(
        "psigma_nk",
        [None, (8, 3), (10, 5)],
        ids=["spider(5,3)", "PSigma(8,3)", "PSigma(10,5)"],
    )
    def test_only_pairs_that_meet_build_composites(self, psigma_nk, monkeypatch):
        # A pair in which neither map moves a node the other moves or holds
        # in an image is decided without a composite; every other pair
        # builds its two composites, and the results are unchanged.  Both
        # commuting families go through the same pair loop.
        built = []
        real = autos_module.compose

        def recording(phi, psi):
            built.append((phi, psi))
            return real(phi, psi)

        if psigma_nk is None:
            gs = build_generator_set(spider(5, 3), certify=False)
            monkeypatch.setattr(autos_module, "compose", recording)
            certs = verify_commuting(gs)
            monkeypatch.undo()
            assert certs == dense_verify_commuting(gs)
            autos = gs.automorphisms()
        else:
            n, k = psigma_nk
            monkeypatch.setattr(autos_module, "compose", recording)
            family_maps = psigma_generators(PsigmaSpec(n, k))
            monkeypatch.undo()
            assert [name for name, _ in family_maps] == [
                name for name, _ in psigma_generators(PsigmaSpec(n, k))
            ]
            autos = [phi for _, phi in family_maps]
        reach = []
        for a in autos:
            moved = set(a.moved_nodes())
            held = {x for v in moved for x, _ in a.image_of(v).letters}
            reach.append((moved, moved | held))
        meet = {
            (i, j)
            for i, j in itertools.combinations(range(len(autos)), 2)
            if reach[i][1] & reach[j][0] or reach[j][1] & reach[i][0]
        }
        assert 0 < len(meet) < len(autos) * (len(autos) - 1) // 2
        if psigma_nk is not None:
            assert len(meet) == n - k  # the pairs (lambda_i, rho_i)
        indices = [(autos.index(phi), autos.index(psi)) for phi, psi in built]
        assert sorted(indices) == sorted([*meet, *((j, i) for i, j in meet)])

    def test_all_pairs_certified_on_small_trees(self):
        for g in eligible_trees(6):
            gs = build_generator_set(g, certify=False)
            certs = verify_commuting(gs)
            assert all(c.certified for c in certs.values())

    def test_all_pairs_certified_on_nine_node_trees(self):
        for g in [t for t in eligible_trees(9) if t.num_nodes == 9]:
            gs = build_generator_set(g, certify=False)
            certs = verify_commuting(gs)
            assert all(c.certified for c in certs.values())

    def test_nested_partial_conjugations_certificate(self, g_p5):
        gs = build_generator_set(g_p5)
        by_label = {e.label: i for i, e in enumerate(gs.entries)}
        i = by_label["conj[b](d,e)"]
        j = by_label["conj[c](e)"]
        cert = gs.certificates[(min(i, j), max(i, j))]
        assert cert.certified

    def test_leaf_transvections_commute_exactly(self, g_p5):
        gs = build_generator_set(g_p5)
        by_label = {e.label: i for i, e in enumerate(gs.entries)}
        i = by_label["transv_right(a by b)"]
        j = by_label["transv_right(a by c)"]
        cert = gs.certificates[(min(i, j), max(i, j))]
        assert cert.exact

    def test_disjoint_support_commute_exactly(self, g_p5):
        gs = build_generator_set(g_p5)
        by_label = {e.label: i for i, e in enumerate(gs.entries)}
        i = by_label["conj[c](a)"]
        j = by_label["transv_right(e by d)"]
        cert = gs.certificates[(min(i, j), max(i, j))]
        assert cert.exact

    def test_exact_certificates_share_one_empty_word(self, g_p5):
        gs = build_generator_set(g_p5, certify=False)
        certs = verify_commuting(gs)
        conjugators = {id(c.conjugator) for c in certs.values() if c.exact}
        assert len(certs) > 1 and len(conjugators) == 1
        assert all(c.conjugator.codes == () for c in certs.values() if c.exact)
        assert certs == dense_verify_commuting(gs)

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


def _brute_force_meeting(autos):
    """Reference for :func:`meeting_pairs`: every pair ``i < j`` tested on
    two node masks per map, whether one map moves a node that the other
    moves or holds in an image."""
    moved, reach = [], []
    for a in autos:
        g = a.graph
        m = sum(g.bit[g.code[x]] for x in a.moved_nodes())
        held = {g.code[y] for x in a.moved_nodes() for y, _ in a.image_of(x).letters}
        moved.append(m)
        reach.append(m | sum(g.bit[c] for c in held))
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(autos)), 2)
        if reach[i] & moved[j] or reach[j] & moved[i]
    ]


class TestMeetingPairs:
    """The index of each node to the maps that move or reach it lists
    exactly the pairs of the brute-force mask test, in order."""

    def test_verify_corpus_generator_sets(self):
        sizes = set()
        for g in eligible_trees(8):
            autos = build_generator_set(g, certify=False).automorphisms()
            pairs = meeting_pairs(autos)
            assert pairs == _brute_force_meeting(autos)
            sizes.add((len(pairs) > 0, len(pairs) < len(autos) * (len(autos) - 1) // 2))
        assert sizes >= {(True, True)}

    def test_psigma_families(self):
        for n in range(2, 11):
            for k in range(1, n + 1):
                autos = [phi for _, phi in psigma_generators(PsigmaSpec(n, k))]
                pairs = meeting_pairs(autos)
                assert pairs == _brute_force_meeting(autos)
                assert len(pairs) == n - k  # the pairs (lambda_i, rho_i)

    def test_non_commuting_extras(self, g_c5l):
        # Inner maps move every node, so they meet every other map.
        gs = _with_extra_maps(
            g_c5l, [inner_automorphism(g_c5l, generator(g_c5l, x)) for x in ("u", "v3")]
        )
        autos = gs.automorphisms()
        assert meeting_pairs(autos) == _brute_force_meeting(autos)
        assert meeting_pairs([]) == []


_LABEL = re.compile(r"conj\[([^]]+)\]\(([^)]+)\)|transv_(right|left)\((\S+) by (\S+)\)")


def _public_twin(g, entry):
    """The map that the public constructor builds for a generator, read
    from its label."""
    by, support, side, node, target = _LABEL.fullmatch(entry.label).groups()
    if entry.kind == KIND_PARTIAL_CONJUGATION:
        return partial_conjugation(g, by, support.split(","))
    return transvection(g, node, target, side)


def _written_out(g, entry):
    """The same map with its images and inverse images written out as words
    and given to the ``RaagAutomorphism`` constructor, a route that does not
    go through the code builder."""
    by, support, side, node, target = _LABEL.fullmatch(entry.label).groups()
    if entry.kind == KIND_PARTIAL_CONJUGATION:
        t = generator(g, by)
        nodes = {x: generator(g, x) for x in support.split(",")}
        return RaagAutomorphism(
            g,
            {x: t * w * t.inverse() for x, w in nodes.items()},
            {x: t.inverse() * w * t for x, w in nodes.items()},
        )
    x, t = generator(g, node), generator(g, target)
    if side == "right":
        return RaagAutomorphism(g, {node: x * t}, {node: x * t.inverse()})
    return RaagAutomorphism(g, {node: t * x}, {node: t.inverse() * x})


def _same_map(phi, psi):
    """Equal as maps, with the same stored images and inverse images."""
    assert phi.equals(psi) and psi.equals(phi)
    assert phi._images == psi._images
    assert phi._inverse_images == psi._inverse_images


class TestCodeBuiltMaps:
    """The generator set, the inner-lattice targets and the partially
    symmetric family build their maps from codes; each equals the map the
    public constructor builds from names."""

    def _check_generator_set(self, g, monkeypatch):
        targets = []
        real = autos_module.inner_vectors

        def recording(autos, maps):
            targets.extend(maps)
            return real(autos, maps)

        monkeypatch.setattr(autos_module, "inner_vectors", recording)
        gs = build_generator_set(g)
        monkeypatch.undo()
        for entry in gs.entries:
            twin = _public_twin(g, entry)
            _same_map(entry.automorphism, twin)
            _same_map(entry.automorphism, _written_out(g, entry))
            inv = entry.automorphism.inverse()
            assert inv.equals(twin.inverse())
            assert dict(entry.automorphism.inverse_images) == dict(twin.inverse_images)
        v0, w0 = gs.base_edge
        pairs = ((1, 0), (0, 1), (1, 1), (1, -1))
        assert len(targets) == len(pairs)
        for (a, b), target in zip(pairs, targets):
            w = parse_word(g, f"{v0}^{a} {w0}^{b}")
            public = inner_automorphism(g, w)
            written = RaagAutomorphism(
                g, {x: w * generator(g, x) * w.inverse() for x in g.nodes}
            )
            for twin in (public, written):
                assert target.equals(twin) and twin.equals(target)
                assert target._images == twin._images
            assert target._inverse_images is None  # images only
        return gs

    def test_eligible_trees_and_spider(self, monkeypatch):
        kinds = set()
        for g in [*eligible_trees(8), spider(5, 3)]:
            gs = self._check_generator_set(g, monkeypatch)
            kinds |= {e.kind for e in gs.entries}
        assert len(kinds) == 3  # partial conjugations and leaf transvections

    def test_grid_and_c5l(self, g_grid, g_c5l, monkeypatch):
        kinds = set()
        for g in (g_grid, g_c5l):
            gs = self._check_generator_set(g, monkeypatch)
            kinds |= {e.kind for e in gs.entries}
        assert len(kinds) == 5  # the grid adds both sides of transvection

    def test_psigma_family_and_target(self, monkeypatch):
        for n in range(2, 11):
            for k in range(1, n + 1):
                spec = PsigmaSpec(n, k)
                g = spec.free_graph
                family = psigma_generators(spec)
                for name, phi in family:
                    kind, i = name.split("_")
                    x = f"x{i}"
                    if kind == "gamma":
                        twin = partial_conjugation(g, "x1", [x]).inverse()
                    else:
                        side = "left" if kind == "lambda" else "right"
                        twin = transvection(g, x, "x1", side)
                    _same_map(phi, twin)
                targets = []
                real = psigma_module.inner_vectors

                def recording(autos, maps):
                    targets.extend(maps)
                    return real(autos, maps)

                monkeypatch.setattr(psigma_module, "inner_vectors", recording)
                outer_rank(spec, family)
                monkeypatch.undo()
                (target,) = targets
                public = inner_automorphism(g, generator(g, "x1", -1))
                assert target.equals(public) and target._images == public._images
                assert target._inverse_images is None

    def test_unreduced_images_equal_reduced_ones_on_the_verify_corpus(
        self, g_c5l, monkeypatch
    ):
        # ``_flanking`` reduces no image of a map whose words repeat no
        # generator, as a transvection's; every image and inverse image it
        # stores must still be reduced, on every generator set of the verify
        # corpus (trees up to 8 nodes, the fixtures, C5L), its inner-lattice
        # targets, and every PSigma family with n <= 10.
        maps = []
        real = autos_module.inner_vectors

        def recording(autos, targets):
            maps.extend(targets)
            return real(autos, targets)

        monkeypatch.setattr(autos_module, "inner_vectors", recording)
        graphs = [*eligible_trees(8), *cycle_tree_fixtures(), *square_free_non_trees()]
        for g in [*graphs, *squares_with_trees(), g_c5l]:
            gs = build_generator_set(g, certify=False)
            inner_lattice(gs)
            maps += gs.automorphisms()
        for n in range(2, 11):
            for k in range(1, n + 1):
                maps += [phi for _, phi in psigma_generators(PsigmaSpec(n, k))]
        for phi in maps:
            for images in (phi._images, phi._inverse_images or {}):
                for img in images.values():
                    assert img == tuple(_reduced_codes(phi.graph, img))

    def test_transvections_are_built_without_reducing(self, g_c5l, monkeypatch):
        reduced = []
        real = autos_module._reduced_codes
        monkeypatch.setattr(
            autos_module, "_reduced_codes", lambda g, codes: reduced.append(codes) or real(g, codes)
        )
        for side in ("right", "left"):
            transvection(g_c5l, "u", "v2", side)
        assert reduced == []
        partial_conjugation(g_c5l, "v1", ["v3"])
        assert len(reduced) == 2  # the image and the inverse image

    def test_public_constructors_refuse_bad_input(self, g_p5):
        for args in (("zz", "a"), ("a", "zz")):
            with pytest.raises(WordError):
                transvection(g_p5, *args)
        with pytest.raises(WordError):
            partial_conjugation(g_p5, "zz", ["a"])
        with pytest.raises(AutomorphismError, match="non-nodes"):
            partial_conjugation(g_p5, "a", ["c", "zz"])
        for side in ("up", "Right", ""):
            with pytest.raises(AutomorphismError, match="bad transvection side"):
                transvection(g_p5, "a", "b", side)
        with pytest.raises(AutomorphismError, match="bad transvection side"):
            transvection(g_p5, "zz", "a", "up")  # the side is checked first


def _dense_equal(g, left, right):
    """``_equal_codes`` on every node of two maps from node to image word,
    with no early exit and no table."""
    return all([_equal_codes(g, left[x].codes, right[x].codes) for x in g.nodes])


def dense_verify_commuting(gs):
    """Reference for :func:`verify_commuting`: every pair decided from fresh
    composites (:func:`_dense_compose` builds each image anew, so none is
    shared with a factor) with an ``_equal_codes`` call on every node."""
    g, autos = gs.graph, gs.automorphisms()
    certs = {}
    for i, j in itertools.combinations(range(len(autos)), 2):
        a, b = autos[i], autos[j]
        exact = _dense_equal(g, _dense_compose(a, b), _dense_compose(b, a))
        if exact:
            conj = empty_word(g)
        else:
            conj = inner_conjugator(compose(compose(a, b), compose(b, a).inverse()))
        certs[(i, j)] = CommutationCertificate(i, j, conj, exact)
    return certs


def dense_inner_witnesses(gs):
    """Reference for ``inner_lattice(gs).witnesses``: each candidate vector
    of the integer solve checked by applying the generator powers to every
    node, first generator first, and ``_equal_codes`` on every node."""
    g, autos = gs.graph, gs.automorphisms()
    v0, w0 = gs.base_edge
    witnesses = {}
    for a, b in ((1, 0), (0, 1), (1, 1), (1, -1)):
        target = inner_automorphism(g, parse_word(g, f"{v0}^{a} {w0}^{b}"))
        (vector,) = _solve_over_z(
            [_lattice_invariant(phi) for phi in autos], [_lattice_invariant(target)]
        )
        if vector is None:
            continue
        images = {}
        for x in g.nodes:
            w = generator(g, x)
            for phi, e in zip(autos, vector):
                step = phi if e > 0 else phi.inverse()
                for _ in range(abs(e)):
                    w = step.apply(w)
            images[x] = w
        if _dense_equal(g, images, target.images):
            witnesses[(a, b)] = vector
    return witnesses


def _with_extra_maps(g, extra):
    """The generator set of ``g`` with ``extra`` maps appended, so that some
    pairs do not commute: every pair of a real generator set commutes
    exactly."""
    gs = build_generator_set(g, certify=False)
    entries = gs.entries + tuple(
        dataclasses.replace(gs.entries[0], automorphism=phi) for phi in extra
    )
    return dataclasses.replace(gs, entries=entries)


def _witness_graphs():
    """The fixture graphs of the witness tests, spider(5, 3) and seeded
    random triangle-free graphs of 6-8 nodes."""
    return [spider(5, 3)] + _random_eligible_graphs("decided-table", 60, (6, 7, 8))


FIXTURES = ["g_p5", "g_c5l", "g_grid", "g_spider"]


class TestDecidedSelfComparisons:
    """``equals`` with a table of decided self-comparisons, kept over the
    pairs of ``verify_commuting`` and of ``psigma_generators``."""

    def _assert_matches_dense(self, g):
        gs = build_generator_set(g)
        assert gs.certificates == dense_verify_commuting(gs)
        assert dict(gs.inner.witnesses) == dense_inner_witnesses(gs)
        return gs

    @pytest.mark.parametrize("graph", FIXTURES)
    def test_fixtures_match_dense_reference(self, graph, request):
        self._assert_matches_dense(request.getfixturevalue(graph))

    def test_random_graphs_match_dense_reference(self):
        sets = [self._assert_matches_dense(g) for g in _witness_graphs()]
        assert {len(gs.inner.witnesses) for gs in sets} >= {0, 1, 4}

    @pytest.mark.parametrize("graph", FIXTURES)
    def test_non_commuting_pairs_match_dense_reference(self, graph, request):
        g = request.getfixturevalue(graph)
        extra = [inner_automorphism(g, generator(g, x)) for x in g.nodes]
        if graph == "g_c5l":
            # The pair of test_outer_commutator_uncertified: not inner.
            extra += [
                transvection(g, "u", "v2", "left"),
                transvection(g, "u", "v5", "left"),
            ]
        gs = _with_extra_maps(g, extra)
        certs = verify_commuting(gs)
        assert certs == dense_verify_commuting(gs)
        kinds = {(c.exact, c.certified) for c in certs.values()}
        assert {(True, True), (False, True)} <= kinds
        assert ((False, False) in kinds) == (graph == "g_c5l")

    def test_spider_5_3_calls_at_most_distinct_comparisons(self, monkeypatch):
        gs = build_generator_set(spider(5, 3), certify=False)
        real_equal, real_equals = autos_module._equal_codes, RaagAutomorphism.equals
        calls, tables = [], []

        def counting(g, u, v):
            verdict = real_equal(g, u, v)
            calls.append((u, v, verdict))
            return verdict

        def keeping_tables(phi, other, decided=None):
            if not any(decided is t for t in tables):
                tables.append(decided)
            return real_equals(phi, other, decided)

        monkeypatch.setattr(autos_module, "_equal_codes", counting)
        monkeypatch.setattr(RaagAutomorphism, "equals", keeping_tables)
        certs = verify_commuting(gs)
        monkeypatch.undo()
        assert all(c.exact for c in certs.values())
        distinct = {(tuple(u), tuple(v)) for u, v, _ in calls}
        assert len(calls) <= len(distinct)
        # One table for the whole loop, holding only images that the
        # generators store, each recorded after a call that said equal.
        (table,) = tables
        autos = gs.automorphisms()
        stored = {id(img): img for a in autos for img in a._images.values()}
        assert table and all(stored.get(k) is img for k, img in table.items())
        said_equal = {id(u) for u, v, verdict in calls if u is v and verdict}
        assert table.keys() <= said_equal

    def test_psigma_pairwise_check_keeps_one_table(self, monkeypatch):
        real_equal, real_equals = autos_module._equal_codes, RaagAutomorphism.equals
        calls, tables, pairs = [], [], []

        def counting(g, u, v):
            calls.append((tuple(u), tuple(v)))
            return real_equal(g, u, v)

        def keeping_tables(phi, other, decided=None):
            if not any(decided is t for t in tables):
                tables.append(decided)
            pairs.append((phi, other))
            return real_equals(phi, other, decided)

        monkeypatch.setattr(autos_module, "_equal_codes", counting)
        monkeypatch.setattr(RaagAutomorphism, "equals", keeping_tables)
        psigma_generators(PsigmaSpec(8, 3))
        (table,) = tables
        assert len(calls) <= len(set(calls))
        # Only the n - k pairs (lambda_i, rho_i) meet, and their composites
        # hold fresh images at x_i, so no self-comparison is left to record.
        assert len(pairs) == 8 - 3
        assert table == {}

    def test_equal_self_comparison_recorded_once(self, g_p5, monkeypatch):
        phi = partial_conjugation(g_p5, "b", ["c", "d", "e"])
        real = autos_module._equal_codes
        calls = []

        def counting(g, u, v):
            calls.append(u is v)
            return real(g, u, v)

        monkeypatch.setattr(autos_module, "_equal_codes", counting)
        decided = {}
        assert phi.equals(phi, decided)
        assert phi.moved_nodes() == ("d", "e") and calls == [True, True]
        assert sorted(decided.values()) == sorted(phi._images.values())
        assert phi.equals(phi, decided) and len(calls) == 2
        assert phi.equals(phi) and len(calls) == 4  # no table, no skip

    def test_false_verdict_not_recorded(self, g_p5, monkeypatch):
        phi = partial_conjugation(g_p5, "b", ["c", "d", "e"])
        calls = []

        def refusing(g, u, v):
            calls.append(u is v)
            return False

        monkeypatch.setattr(autos_module, "_equal_codes", refusing)
        decided = {}
        assert not phi.equals(phi, decided)
        assert not phi.equals(phi, decided)
        assert calls == [True, True] and decided == {}

    def test_nothing_recorded_before_both_routes_agree(self, g_p5, monkeypatch):
        # Route one is made to find a non-empty product, so the routes
        # disagree on the first self-comparison: it must raise on every call.
        phi = partial_conjugation(g_p5, "b", ["c", "d", "e"])
        monkeypatch.setattr(words_module, "_reduced_codes", lambda g, codes: [1])
        decided = {}
        for _ in range(2):
            with pytest.raises(StructureAnomalyError, match="equality routes disagree"):
                phi.equals(phi, decided)
        assert decided == {}


def _equality_callers(monkeypatch):
    """Wrap ``autos._equal_codes`` so that every input must be reduced
    codes; return a counter of the functions that call it."""
    real = autos_module._equal_codes
    callers = Counter()

    def checking(g, u, v):
        for codes in (u, v):
            assert list(codes) == _reduced_codes(g, codes), codes
        frame = sys._getframe(1)
        if frame.f_code.co_name == "<genexpr>":
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return real(g, u, v)

    monkeypatch.setattr(autos_module, "_equal_codes", checking)
    return callers


class TestReducedEqualityInputs:
    """Every caller hands ``_equal_codes`` reduced codes: ``equals`` its
    stored images, ``respects_relations`` and ``_verifies_conjugator`` the
    products they reduce first."""

    @pytest.mark.parametrize("graph", FIXTURES)
    def test_witness_build(self, graph, request, monkeypatch):
        g = request.getfixturevalue(graph)
        callers = _equality_callers(monkeypatch)
        build_generator_set(g)
        x, y = sorted(g.nodes)[:2]
        inner = inner_automorphism(g, parse_word(g, f"{x} {y}^-1 {x}"))
        assert inner_conjugator(inner) is not None
        assert set(callers) == {"equals", "respects_relations", "_verifies_conjugator"}

    def test_psigma(self, monkeypatch):
        callers = _equality_callers(monkeypatch)
        spec = PsigmaSpec(6, 2)
        outer_rank(spec, psigma_generators(spec))
        assert callers["equals"] > 0


class TestInnerLattice:
    def test_independence_modulo_lattice_on_c5l(self, g_c5l):
        core, dec, base_edge = c5l_choices(g_c5l)
        gs = build_generator_set(g_c5l, core, dec, base_edge, certify=False)
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
    v0, w0 = gs.base_edge
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
        assert [e.label for e in gs.entries[:3]] == [
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
        # Keys hold node codes: a, b, c are 1, 2, 3.
        a, b, c = (g_p5.code[x] for x in "abc")
        assert (a, b, c) == (1, 2, 3)
        # conj[b] on {a}: a -> b a b^-1, and b is in st(a).
        assert _lattice_invariant(partial_conjugation(g_p5, "b", ["a"])) == {}
        assert _lattice_invariant(partial_conjugation(g_p5, "c", ["a"])) == {
            (a, c, "L"): 1,
            (a, c, "R"): -1,
        }
        assert _lattice_invariant(transvection(g_p5, "a", "c", "left")) == {
            (a, c): 1,
            (a, c, "L"): 1,
        }
        assert _lattice_invariant(transvection(g_p5, "a", "b")) == {(a, b): 1}

    @pytest.mark.parametrize("image", ["a^-1", "c", "a c a", "1"])
    def test_unreadable_image_raises(self, g_p5, image):
        phi = RaagAutomorphism(g_p5, {"a": parse_word(g_p5, image)})
        with pytest.raises(StructureAnomalyError, match="exactly once"):
            _lattice_invariant(phi)


def _patch_transvections(monkeypatch, fake):
    """Make ``build_generator_set`` build each transvection with ``fake``,
    called as ``transvection(g, node, target, side)``.  The set builds every
    map with ``_flanking`` from codes; a transvection is a call on one node
    with one side empty."""
    real = autos_module._flanking

    def flanking(g, left, nodes, right, inverse=True):
        if len(nodes) == 1 and not (left and right):
            side, (t,) = ("right", right) if right else ("left", left)
            return fake(g, g.names[nodes[0] - 1], g.names[t - 1], side)
        return real(g, left, nodes, right, inverse)

    monkeypatch.setattr(autos_module, "_flanking", flanking)


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

        _patch_transvections(monkeypatch, inversion)
        assert self._run(tmp_path) == 3
        assert "exactly once" in capsys.readouterr().err


class TestGeneratorSetChecksExit3:
    """A generator set that fails its own count, relation or inverse check
    is an internal invariant broken: ``analyze --witness`` exits 3."""

    _run = TestLatticeChecksExit3._run

    def test_generator_without_stored_inverse(self, tmp_path, capsys, monkeypatch):
        def bare(g, node, target, side="right"):
            return RaagAutomorphism(g, {node: generator(g, node) * generator(g, target)})

        _patch_transvections(monkeypatch, bare)
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

        _patch_transvections(monkeypatch, far)
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
