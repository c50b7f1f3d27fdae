"""Partially symmetric outer automorphisms of a free group.

``PsigmaSpec(n, k)`` describes the subgroup of Out(F_n) whose elements send
the first ``k`` of the generators ``x1..xn`` to conjugates of themselves.
Its dimension is ``2n - k - 2`` for ``k >= 1`` (and ``2n - 3`` for
``k = 0``); the witness is an explicit commuting family of ``2n - k - 1``
automorphisms whose only inner members are the powers of conjugation by
``x1``.  Everything is exact, no search involved: commutation is decided
by the pair loop and the inner part by the integer solve that also serve
Out(A_Gamma) (:func:`raagvcd.autos.pairwise_commutation` and
:func:`raagvcd.autos.inner_vectors`).
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph_core import DefiningGraph, GraphError, StructureAnomalyError
from .autos import RaagAutomorphism, _flanking, inner_vectors, pairwise_commutation


class PsigmaError(GraphError):
    """Invalid rank/subset parameters for the partially symmetric family."""


@dataclass(frozen=True)
class PsigmaSpec:
    """Rank ``n >= 2`` of the free group, ``0 <= k <= n`` conjugacy-fixed
    generators."""

    n: int
    k: int

    def __post_init__(self) -> None:
        _check_rank(self.n, self.k)

    @property
    def free_graph(self) -> DefiningGraph:
        return free_group_graph(self.n)


def _check_rank(n: int, k: int) -> None:
    """Raise :class:`PsigmaError` unless ``n >= 2`` and ``0 <= k <= n``."""
    if n < 2:
        raise PsigmaError(f"free group rank must be at least 2, got {n}")
    if not 0 <= k <= n:
        raise PsigmaError(f"need 0 <= k <= n, got k={k}, n={n}")


def free_group_graph(n: int) -> DefiningGraph:
    """The edgeless defining graph whose group is the free group F_n."""
    return DefiningGraph(tuple(f"x{i}" for i in range(1, n + 1)), frozenset())


def psigma_vcd(n: int, k: int) -> int:
    """Dimension formula: ``2n - k - 2`` for ``k >= 1``, else ``2n - 3``."""
    _check_rank(n, k)
    return 2 * n - k - 2 if k >= 1 else 2 * n - 3


def psigma_generators(spec: PsigmaSpec) -> list[tuple[str, RaagAutomorphism]]:
    """The named commuting family: conjugating generators for the fixed
    range, left/right multiplications for the free range.

    ``gamma_i`` sends ``x_i`` to ``x1^-1 x_i x1``, ``lambda_i`` to
    ``x1 x_i`` and ``rho_i`` to ``x_i x1``; each fixes every other
    generator.

    Requires ``k >= 1``; for ``k = 0`` the family is not defined (only the
    dimension formula applies).  All pairs commute exactly in Aut(F_n),
    which :func:`raagvcd.autos.pairwise_commutation` verifies on the pairs
    that meet (the others commute by masks); a failure raises
    :class:`StructureAnomalyError`.  The maps are built from codes, as
    :func:`~raagvcd.autos.partial_conjugation` and
    :func:`~raagvcd.autos.transvection` build them.
    """
    if spec.k < 1:
        raise PsigmaError("generator family requires k >= 1")
    g = spec.free_graph
    code = g.code
    x1 = code["x1"]
    out = [
        (f"gamma_{i}", _flanking(g, (-x1,), (code[f"x{i}"],), (x1,)))
        for i in range(2, spec.k + 1)
    ]
    for i in range(spec.k + 1, spec.n + 1):
        xi = (code[f"x{i}"],)
        out.append((f"lambda_{i}", _flanking(g, (x1,), xi, ())))
        out.append((f"rho_{i}", _flanking(g, (), xi, (x1,))))
    if not all(exact for *_, exact in pairwise_commutation([m for _, m in out])):
        raise StructureAnomalyError("generator family failed exact commutation")
    return out


def outer_rank(spec: PsigmaSpec, family: list[tuple[str, RaagAutomorphism]]) -> int:
    """Rank of the image of ``family`` (as :func:`psigma_generators`
    returns it for ``spec``) in Out(F_n); equals the dimension.

    One exact integer solve (:func:`raagvcd.autos.inner_vectors`) decides
    the inner part.  The solve is exact here because every member fixes
    ``x1`` and sends ``x_i`` to ``x1^a x_i x1^b``: under composition the
    left and right exponents at each ``x_i`` add, so the invariant it
    solves over is additive on the family.  The solve also checks that the
    members' invariants are independent, so the family spans a free abelian
    group of rank ``len(family)``.  An inner map that fixes ``x1`` is conjugation
    by a power of ``x1``, so the inner part has rank at most one; it is
    exactly one when ``x -> x1^-1 x x1`` is a product of the family (every
    ``gamma`` to the power 1, every ``lambda`` to -1, every ``rho`` to +1),
    and the outer rank is ``len(family) - 1``.
    Dependent members, a missing inner line or a rank that disagrees with
    :func:`psigma_vcd` raise :class:`StructureAnomalyError`.  Requires
    ``k >= 1``: for ``k = 0`` there is no family and the operation refuses.
    """
    if spec.k < 1:
        raise PsigmaError("outer rank via the inner line requires k >= 1")
    g = spec.free_graph
    x1 = g.code["x1"]
    # Images only: nothing reads the target's inverse.
    target = _flanking(g, (-x1,), range(1, g.num_nodes + 1), (x1,), inverse=False)
    (line,) = inner_vectors([phi for _, phi in family], [target])
    if line is None:
        raise StructureAnomalyError(
            "conjugation x -> x1^-1 x x1 is not a product of the family"
        )
    rank = len(family) - 1
    if rank != psigma_vcd(spec.n, spec.k):
        raise StructureAnomalyError(
            f"outer rank {rank} disagrees with the dimension formula "
            f"{psigma_vcd(spec.n, spec.k)}"
        )
    return rank
