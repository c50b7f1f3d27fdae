import random

import pytest

from raagvcd.graph_core import StructureAnomalyError
from raagvcd.words import equal, parse_word
from raagvcd.autos import (
    RaagAutomorphism,
    _lattice_invariant,
    compose,
    inner_automorphism,
    inner_vectors,
)
from raagvcd.psigma import (
    PsigmaError,
    PsigmaSpec,
    outer_rank,
    psigma_generators,
    psigma_vcd,
)


class TestFormula:
    def test_basic(self):
        assert psigma_vcd(3, 1) == 3

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fully_symmetric_collins_value(self, n):
        assert psigma_vcd(n, n) == n - 2
        assert psigma_vcd(n, n) == 2 * n - n - 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_unconstrained_case(self, n):
        assert psigma_vcd(n, 0) == 2 * n - 3

    def test_rank_one_rejected(self):
        with pytest.raises(PsigmaError):
            psigma_vcd(1, 0)

    def test_bad_k(self):
        with pytest.raises(PsigmaError):
            PsigmaSpec(3, 4)
        # The spec and the formula share one check and its messages.
        for n, k, message in [
            (1, 0, "free group rank must be at least 2, got 1"),
            (0, 0, "free group rank must be at least 2, got 0"),
            (1, 5, "free group rank must be at least 2, got 1"),
            (3, 4, "need 0 <= k <= n, got k=4, n=3"),
            (3, -1, "need 0 <= k <= n, got k=-1, n=3"),
        ]:
            for build in (PsigmaSpec, psigma_vcd):
                with pytest.raises(PsigmaError) as exc:
                    build(n, k)
                assert str(exc.value) == message


class TestGenerators:
    def test_counts(self):
        assert [name for name, _ in psigma_generators(PsigmaSpec(3, 1))] == [
            "lambda_2",
            "rho_2",
            "lambda_3",
            "rho_3",
        ]
        assert len(psigma_generators(PsigmaSpec(4, 2))) == 5
        assert len(psigma_generators(PsigmaSpec(2, 2))) == 1

    def test_gamma2_is_conjugation_by_x1(self):
        spec = PsigmaSpec(2, 2)
        ((_, gamma2),) = psigma_generators(spec)
        g = spec.free_graph
        assert equal(gamma2.image_of("x1"), parse_word(g, "x1"))
        assert equal(gamma2.image_of("x2"), parse_word(g, "x1^-1 x2 x1"))

    def test_images_of_the_family(self):
        # gamma_i: x_i -> x1^-1 x_i x1; lambda_i: x_i -> x1 x_i;
        # rho_i: x_i -> x_i x1; each fixes every other generator.
        spec = PsigmaSpec(5, 3)
        expected = {
            "gamma_2": ("x2", "x1^-1 x2 x1", "x1 x2 x1^-1"),
            "gamma_3": ("x3", "x1^-1 x3 x1", "x1 x3 x1^-1"),
            "lambda_4": ("x4", "x1 x4", "x1^-1 x4"),
            "rho_4": ("x4", "x4 x1", "x4 x1^-1"),
            "lambda_5": ("x5", "x1 x5", "x1^-1 x5"),
            "rho_5": ("x5", "x5 x1", "x5 x1^-1"),
        }
        family = psigma_generators(spec)
        assert [name for name, _ in family] == list(expected)
        for name, phi in family:
            x, image, inverse_image = expected[name]
            assert phi.moved_nodes() == (x,)
            assert str(phi.image_of(x)) == image
            assert str(phi.inverse().image_of(x)) == inverse_image
            assert phi.has_verified_inverse()

    def test_k_zero_has_no_family(self):
        with pytest.raises(PsigmaError):
            psigma_generators(PsigmaSpec(3, 0))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 5), (6, 3)])
    def test_pairwise_exact_commutation(self, n, k):
        gens = psigma_generators(PsigmaSpec(n, k))
        for i, (_, phi) in enumerate(gens):
            for _, psi in gens[i + 1 :]:
                assert compose(phi, psi).equals(compose(psi, phi))

    def test_member_that_fails_to_commute_raises(self, skewed_rho):
        # rho_3 made to send x3 to x3 x2: it meets gamma_2 (x2 -> x1^-1 x2 x1)
        # at x2, and the two composites differ at x3.
        with pytest.raises(StructureAnomalyError) as info:
            psigma_generators(PsigmaSpec(4, 2))
        assert str(info.value) == "generator family failed exact commutation"


def _sum(c1: dict, c2: dict) -> dict:
    out = dict(c1)
    for key, v in c2.items():
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


class TestOuterRank:
    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(2, 11) for k in range(1, n + 1)]
    )
    def test_matches_formula(self, n, k):
        spec = PsigmaSpec(n, k)
        assert outer_rank(spec, psigma_generators(spec)) == 2 * n - k - 2

    def test_k_zero_refused(self):
        with pytest.raises(PsigmaError):
            outer_rank(PsigmaSpec(4, 0), [])

    def test_single_generator_case_is_rank_zero(self):
        spec = PsigmaSpec(2, 2)
        assert outer_rank(spec, psigma_generators(spec)) == 0

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (4, 1), (5, 3), (6, 6)])
    def test_solved_vector_is_the_inner_line(self, n, k):
        spec = PsigmaSpec(n, k)
        family = psigma_generators(spec)
        g = spec.free_graph
        target = inner_automorphism(g, parse_word(g, "x1^-1"))
        (line,) = inner_vectors([phi for _, phi in family], [target])
        want = {"gamma": 1, "lambda": -1, "rho": 1}
        assert line == tuple(want[name.split("_")[0]] for name, _ in family)

    def test_lattice_invariant_additive(self):
        rng = random.Random(12)
        spec = PsigmaSpec(5, 2)
        autos = [phi for _, phi in psigma_generators(spec)]

        def random_product():
            out = autos[0].inverse()
            for _ in range(rng.randrange(1, 6)):
                step = rng.choice(autos)
                out = compose(step if rng.random() < 0.5 else step.inverse(), out)
            return out

        for _ in range(12):
            a, b = random_product(), random_product()
            assert _lattice_invariant(compose(a, b)) == _sum(
                _lattice_invariant(a), _lattice_invariant(b)
            )

    def test_duplicated_member_raises(self):
        spec = PsigmaSpec(4, 2)
        family = psigma_generators(spec)
        with pytest.raises(StructureAnomalyError, match="dependent"):
            outer_rank(spec, family + family[-1:])

    @pytest.mark.parametrize("drop", [0, 1, 2])
    def test_dropped_member_raises(self, drop):
        spec = PsigmaSpec(4, 2)
        family = psigma_generators(spec)
        with pytest.raises(StructureAnomalyError, match="not a product"):
            outer_rank(spec, family[:drop] + family[drop + 1 :])

    def test_extra_member_disagrees_with_formula(self):
        # lambda_2 is independent of the family and leaves the inner line
        # in place, so the rank it gives is one above the dimension.
        spec = PsigmaSpec(4, 2)
        g = spec.free_graph
        extra = RaagAutomorphism(
            g, {"x2": parse_word(g, "x1 x2")}, {"x2": parse_word(g, "x1^-1 x2")}
        )
        family = psigma_generators(spec) + [("lambda_2", extra)]
        with pytest.raises(StructureAnomalyError, match="disagrees"):
            outer_rank(spec, family)

    def test_recheck_rejects_a_map_with_the_same_invariant(self):
        # x2 -> x2 x3 x1 x3^-1 has the invariant of rho_2 (x2 -> x2 x1), so
        # only the full composition tells them apart.
        spec = PsigmaSpec(3, 1)
        g = spec.free_graph
        family = psigma_generators(spec)
        rho_2 = dict(family)["rho_2"]
        twisted = RaagAutomorphism(
            g,
            {"x2": parse_word(g, "x2 x3 x1 x3^-1")},
            {"x2": parse_word(g, "x2 x3 x1^-1 x3^-1")},
        )
        assert _lattice_invariant(twisted) == _lattice_invariant(rho_2)
        autos = [phi for _, phi in family]
        assert inner_vectors(autos, [rho_2, twisted]) == [(0, 1, 0, 0), None]
