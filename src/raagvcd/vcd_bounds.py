"""Lower/upper bounds for the virtual cohomological dimension of Out(A_G).

For an eligible defining graph (connected, triangle-free, not a star) the
lower bound comes from the rank of a free abelian subgroup of commuting
partial conjugations and transvections; the upper bound comes from
projecting onto outer automorphism groups of the link free groups and
adding the kernel rank.  Both evaluate to closed formulas over the derived
structure of :mod:`raagvcd.graph_core`, and the exact dimension is reported
whenever the two agree (trees, unique-cycle graphs, and others).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph_core import (
    CoreSubgraph,
    DefiningGraph,
    GraphError,
    PieceDecomposition,
    StructureAnomalyError,
    _codes,
    _leaf_mask,
    gamma_zero,
    pieces,
    require_eligible,
)
from .psigma import psigma_vcd

LOWER_BASE = "BASE"
LOWER_NONHUB_NODE = "NONHUB_NODE"
LOWER_NONHUB_EDGE = "NONHUB_EDGE"

UPPER_GENERAL = "GENERAL"
UPPER_UNIQUE_MAXIMAL = "U_EQUALS_V0"
UPPER_PRUNED_LEAVES = "PRUNED_LEAVES"

TAG_TREE = "Tree"
TAG_NO_SHORT_CYCLES = "NoShortCycles"
TAG_LB_ZERO = "LBzero"


def tag_cycle(k: int) -> str:
    return f"Cycle({k})"


@dataclass(frozen=True)
class BoundResult:
    """One side of the sandwich: the value, which case produced it, and an
    auditable witness (non-hub node/edge for the lower bound, per-node terms
    for the upper bound)."""

    value: int
    case: str
    witness: str | tuple[str, str] | None = None
    terms: Mapping[str, int] | None = None

    def to_dict(self) -> dict:
        out: dict = {"value": self.value, "case": self.case}
        if self.witness is not None:
            out["witness"] = (
                list(self.witness) if isinstance(self.witness, tuple) else self.witness
            )
        if self.terms is not None:
            out["terms"] = dict(sorted(self.terms.items()))
        return out


def lower_bound(
    g: DefiningGraph, core: CoreSubgraph, decomposition: PieceDecomposition
) -> BoundResult:
    """Best applicable lower bound with a concrete witness.

    Base value ``(pi - 1) + 2(nu - nu0) - 2``; one more when some core node
    is not a hub; two more when some core edge has no hub endpoint.  Ties
    are broken lexicographically so reports are reproducible.
    """
    base = (decomposition.count - 1) + 2 * (g.num_nodes - core.num_nodes) - 2
    non_hub = core.nodes & ~decomposition.hubs
    names = g.names
    for u, w in core.edges:  # sorted, so the first is the least by name
        if g.bit[u] & non_hub and g.bit[w] & non_hub:
            witness = (names[u - 1], names[w - 1])
            return BoundResult(base + 2, LOWER_NONHUB_EDGE, witness=witness)
    if non_hub:
        witness = names[(non_hub & -non_hub).bit_length() - 1]
        return BoundResult(base + 1, LOWER_NONHUB_NODE, witness=witness)
    return BoundResult(base, LOWER_BASE)


def upper_bound(
    g: DefiningGraph, core: CoreSubgraph, decomposition: PieceDecomposition
) -> BoundResult:
    """General upper bound, cross-checked against its specializations.

    The general value is ``(pi - 1)`` plus, over core nodes ``v``, the
    dimension of PSigma(|v|, |v|_U) (:func:`raagvcd.psigma.psigma_vcd`),
    which is ``2|v| - 3 - max(|v|_U - 1, 0)``.  PSigma needs valence at
    least 2, so a core node of smaller valence raises a structure anomaly.
    When every maximal node is alone in its class the simplified
    valence/edge-count form must agree, and when the core is the graph minus
    its leaves the leaf/Euler form must agree; disagreement raises a
    structure anomaly.
    """
    pi = decomposition.count
    rows, names = g.adj, g.names
    valences = {c: rows[c].bit_count() for c in _codes(core.nodes)}
    low = [names[c - 1] for c, n in valences.items() if n < 2]
    if low:
        raise StructureAnomalyError(f"core nodes of valence below 2: {low}")
    terms = {
        names[c - 1]: psigma_vcd(n, (rows[c] & core.unique_maximal).bit_count())
        for c, n in valences.items()
    }
    value = (pi - 1) + sum(terms.values())
    case = UPPER_GENERAL

    if core.unique_maximal == core.nodes:
        simplified = (pi - 1) + 2 * (
            sum(valences.values()) - core.num_nodes - len(core.edges)
        )
        if simplified != value:
            raise StructureAnomalyError(
                f"upper-bound specialization mismatch: general {value} vs "
                f"unique-maximal form {simplified}"
            )
        case = UPPER_UNIQUE_MAXIMAL

    if core.pruned_leaves:
        leaf_form = (pi - 1) + 2 * (_leaf_mask(g).bit_count() - g.euler_characteristic)
        if leaf_form != value:
            raise StructureAnomalyError(
                f"upper-bound specialization mismatch: general {value} vs "
                f"pruned-leaves form {leaf_form}"
            )
        case = UPPER_PRUNED_LEAVES

    return BoundResult(value, case, terms=terms)


@dataclass(frozen=True)
class VcdReport:
    """Combined report: both bounds, case analysis, applicable formula tags,
    and the exact dimension when the bounds agree."""

    graph: DefiningGraph
    core: CoreSubgraph
    decomposition: PieceDecomposition
    lower: BoundResult
    upper: BoundResult
    exact: int | None
    kernel_rank: int
    applicable: frozenset[str]
    counts: Mapping[str, int | None]

    def to_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "gamma0": self.core.to_dict(),
            **self.decomposition.to_dict(),
            "lower": self.lower.to_dict(),
            "upper": self.upper.to_dict(),
            "exact": self.exact,
            "theorems": sorted(self.applicable),
            "kernel_rank": self.kernel_rank,
        }


def unique_cycle_length(g: DefiningGraph) -> int:
    """Length of the unique simple cycle of a connected graph with Euler
    characteristic zero, found by peeling leaves."""
    if g.euler_characteristic != 0:
        raise GraphError("graph does not have Euler characteristic zero")
    rows = g.adj
    alive = g.full
    frontier = [c for c in range(1, g.num_nodes + 1) if rows[c].bit_count() == 1]
    while frontier:
        c = frontier.pop()
        alive ^= g.bit[c]
        for nbr in _codes(rows[c] & alive):
            if (rows[nbr] & alive).bit_count() == 1:
                frontier.append(nbr)
    return alive.bit_count()


def vcd_report(g: DefiningGraph) -> VcdReport:
    """Run the full pipeline and assemble the report.

    Raises :class:`IneligibleGraphError` when a hypothesis fails (star
    graphs in particular are refused rather than guessed at), and
    :class:`StructureAnomalyError` if any internal identity breaks.
    """
    validation = require_eligible(g)
    core = gamma_zero(g)
    if not core.spans_connected:
        raise StructureAnomalyError(
            "representatives of maximal classes span a disconnected subgraph"
        )
    decomposition = pieces(g)

    core_excess = sum(decomposition.delta_c[c] - 1 for c in _codes(core.nodes))
    if core_excess != decomposition.count - 1:
        raise StructureAnomalyError(
            f"piece-count identity failed over core nodes: {core_excess} != "
            f"{decomposition.count - 1}"
        )

    lower = lower_bound(g, core, decomposition)
    upper = upper_bound(g, core, decomposition)
    if lower.value > upper.value:
        raise StructureAnomalyError(
            f"lower bound {lower.value} exceeds upper bound {upper.value}"
        )
    exact = lower.value if lower.value == upper.value else None

    e = g.num_edges
    ell = _leaf_mask(g).bit_count()
    chi = g.euler_characteristic
    pi = decomposition.count
    is_tree = e == g.num_nodes - 1

    tags: set[str] = set()
    cycle_len: int | None = None
    if is_tree:
        tags.add(TAG_TREE)
        if exact != e + 2 * ell - 3:
            raise StructureAnomalyError(
                f"tree value mismatch: bounds give {lower.value}/{upper.value}, "
                f"formula gives {e + 2 * ell - 3}"
            )
    if validation.square_free and not is_tree:
        tags.add(TAG_NO_SHORT_CYCLES)
        if lower.value != pi + 2 * ell - 1 or upper.value != pi + 2 * ell - 1 - 2 * chi:
            raise StructureAnomalyError(
                "square-free sandwich mismatch: "
                f"expected [{pi + 2 * ell - 1}, {pi + 2 * ell - 1 - 2 * chi}], "
                f"got [{lower.value}, {upper.value}]"
            )
    if chi == 0:
        cycle_len = unique_cycle_length(g)
        if cycle_len >= 5:
            tags.add(TAG_LB_ZERO)
        if cycle_len >= 5 or core.pruned_leaves:
            tags.add(tag_cycle(cycle_len))
            if exact != e - cycle_len + 2 * ell:
                raise StructureAnomalyError(
                    f"unique-cycle value mismatch: exact {exact} vs formula "
                    f"{e - cycle_len + 2 * ell}"
                )

    counts: dict[str, int | None] = {
        "nodes": g.num_nodes,
        "core_nodes": core.num_nodes,
        "edges": e,
        "leaves": ell,
        "pieces": pi,
        "euler_characteristic": chi,
        "cycle_length": cycle_len,
    }

    return VcdReport(
        graph=g,
        core=core,
        decomposition=decomposition,
        lower=lower,
        upper=upper,
        exact=exact,
        kernel_rank=pi - 1,
        applicable=frozenset(tags),
        counts=counts,
    )
