"""Corpus-wide invariant suite backing the ``verify`` CLI command.

Each graph family (exhaustive trees, cycle fixtures, square-free and square
fixtures) goes through one loop that checks its bound formula and, for
trees and cycle fixtures, the structural identities.  The pipeline runs
once per distinct graph value, and the generator-set counts, witness outer
ranks and commutation certificates on the small trees read those reports.
Every meeting pair of the certified generator sets and of the partially
symmetric families that the flank lemmas settle is decided by its
composites too, and a contradiction raises :class:`StructureAnomalyError`.
Then come the outer rank of the partially symmetric family against its
dimension formula for n <= 8, and the blow-up complexes on up to eight
half-edges: the full ones against the tree-space oracle (homology from the
element matching and over every simplex), the legal ones for
trivial homology (from the collapse core and over every simplex) and a
collapse certificate.  Any violation is collected rather than raised so
the caller can report all of them at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

from . import corpus
from .autos import (
    RaagAutomorphism,
    _commute_by_flanks,
    _flank_shape,
    build_generator_set,
    compose,
    inner_lattice,
    meeting_pairs,
    verify_commuting,
)
from .graph_core import (
    DefiningGraph,
    GraphError,
    StructureAnomalyError,
    _codes,
    _leaf_mask,
)
from .homology import reduced_homology_of_chain
from .ideal_edges import (
    HalfEdgeSet,
    build_complex,
    facets_match_trivalent_trees,
    morse_collapse_certificate,
    reduced_homology,
)
from .psigma import PsigmaSpec, outer_rank, psigma_generators, psigma_vcd
from .vcd_bounds import TAG_TREE, VcdReport, tag_cycle, unique_cycle_length, vcd_report


@dataclass
class VerificationResult:
    lines: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    graphs_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, label: str, passed: bool, detail: str = "") -> None:
        status = "ok" if passed else "VIOLATION"
        suffix = f" ({detail})" if detail and not passed else ""
        self.lines.append(f"{status}: {label}{suffix}")
        if not passed:
            self.violations.append(f"{label}{suffix}")

    def summary(self) -> str:
        return (
            f"{self.graphs_checked} graphs checked, "
            f"{len(self.violations)} violations"
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "graphs_checked": self.graphs_checked,
            "violations": self.violations,
            "lines": self.lines,
        }


def _structural_checks(report: VcdReport, result: VerificationResult) -> None:
    g, decomposition, core = report.graph, report.decomposition, report.core
    # Every edge of the graph in exactly one piece, as a sorted code pair.
    edges = sorted(tuple(sorted(map(g.code.get, e))) for e in g.edges)
    partition_ok = sorted(e for p in decomposition.pieces for e in p) == edges
    spans = [sum({g.bit[c] for e in p for c in e}) for p in decomposition.pieces]
    overlap_ok = all(
        (s & t).bit_count() <= 1 for i, s in enumerate(spans) for t in spans[i + 1 :]
    )
    result.check(f"pieces partition edges [{g.num_nodes} nodes]", partition_ok)
    result.check("piece pairwise intersections at most one node", overlap_ok)

    result.check("core subgraph spans a connected subgraph", core.spans_connected)
    leaves = _leaf_mask(g)
    result.check("core avoids leaves", not core.nodes & leaves)
    # A leaf's row is the bit of its one neighbour.
    leaf_neighbors_ok = all(g.adj[c] & core.unique_maximal for c in _codes(leaves))
    result.check("leaf neighbors are unique-maximal", leaf_neighbors_ok)
    excess = sum(decomposition.delta_c[c] - 1 for c in _codes(core.nodes))
    result.check(
        "piece-count identity over core nodes",
        excess == decomposition.count - 1,
        f"{excess} != {decomposition.count - 1}",
    )


def _check_flank_lemmas(maps: list[RaagAutomorphism]) -> None:
    """Build the composites of every meeting pair of ``maps`` that the
    flank lemmas settle (the pair loop decides the others by composites)
    and raise :class:`StructureAnomalyError` where they differ."""
    shapes = [_flank_shape(a) for a in maps]
    for i, j in meeting_pairs(maps):
        if not _commute_by_flanks(shapes[i], shapes[j]):
            continue
        a, b = maps[i], maps[j]
        if not compose(a, b).equals(compose(b, a)):
            raise StructureAnomalyError(
                f"the flank lemmas settle maps {i} and {j}, whose composites differ"
            )


def _psigma_checks(result: VerificationResult) -> None:
    # The witness family's outer rank, from the integer solve, against
    # 2n - k - 2 (Collins' n - 2 at k = n).
    for n in range(2, 9):
        for k in range(1, n + 1):
            label = f"psigma outer rank = dimension [n={n}, k={k}]"
            spec = PsigmaSpec(n, k)
            try:
                family = psigma_generators(spec)
                rank = outer_rank(spec, family)
            except GraphError as exc:
                result.check(label, False, str(exc))
                continue
            _check_flank_lemmas([phi for _, phi in family])
            vcd = psigma_vcd(n, k)
            result.check(label, rank == vcd, f"{rank} != {vcd}")


def _blowup_checks(result: VerificationResult) -> None:
    # The full complex on m half-edges is the space of trivalent trees with
    # m leaves: a wedge of (m-2)! spheres of dimension m-4 (Robinson &
    # Whitehouse 1996), one vertex per split and one facet per tree.  Its
    # homology comes from the element matching, and the coreduction over
    # the same listing of every simplex is the reference.
    for m in range(4, 8):
        label = f"tree-space oracle [full complex, {m} half-edges]"
        try:
            c = build_complex(HalfEdgeSet.standard(0, m))
            hom = reduced_homology(c)
            every = reduced_homology_of_chain(c.simplices_by_dim)
            trees = facets_match_trivalent_trees(c)
        except GraphError as exc:
            result.check(label, False, str(exc))
            continue
        betti = [0] * (m - 3)
        betti[m - 4] = factorial(m - 2)
        vertices = 2 ** (m - 1) - m - 1
        result.check(
            label,
            list(hom.reduced_betti) == betti
            and not any(hom.torsion)
            and hom == every
            and len(c.vertices) == vertices
            and trees,
            f"betti {list(hom.reduced_betti)} torsion {list(hom.torsion)} "
            f"over every simplex {every.to_dict()} vertices {len(c.vertices)} "
            f"facets match trees {trees}; expected betti {betti}, {vertices} "
            "vertices, facets matching trees",
        )
    # Legal complexes are contractible; the certificate shows it without
    # the homology, and the homology of the collapse core must agree with
    # the homology over every simplex.
    for r in (2, 3):
        for s in range(9 - 2 * r):
            label = f"legal complex ({r},{s}) acyclic and certified collapsible"
            try:
                c = build_complex(HalfEdgeSet.standard(r, s), legal_only=True)
                hom = reduced_homology(c)
                every = reduced_homology_of_chain(c.simplices_by_dim)
                cert = morse_collapse_certificate(c)
            except GraphError as exc:
                result.check(label, False, str(exc))
                continue
            result.check(
                label,
                hom.trivial and hom == every and cert.ok and cert.ties == 0,
                f"homology {hom.to_dict()} over every simplex "
                f"{every.to_dict()} certificate ok={cert.ok} "
                f"ties={cert.ties} failures={list(cert.failures)}",
            )


def _tree_exact(g: DefiningGraph, report: VcdReport) -> tuple[str, bool, str]:
    return (
        f"tree exactness e+2l-3 [{g.num_nodes} nodes]",
        report.exact == g.num_edges + 2 * len(g.leaves) - 3
        and TAG_TREE in report.applicable,
        f"exact={report.exact}",
    )


def _cycle_exact(g: DefiningGraph, report: VcdReport) -> tuple[str, bool, str]:
    k = unique_cycle_length(g)
    expected = g.num_edges - k + 2 * len(g.leaves)
    return (
        f"unique-cycle exactness e-k+2l [cycle {k}]",
        report.exact == expected and tag_cycle(k) in report.applicable,
        f"exact={report.exact} expected={expected}",
    )


def _sandwich(g: DefiningGraph, report: VcdReport) -> tuple[str, bool, str]:
    pi = report.decomposition.count
    ell = len(g.leaves)
    chi = g.euler_characteristic
    return (
        "square-free sandwich",
        report.lower.value == pi + 2 * ell - 1
        and report.upper.value == pi + 2 * ell - 1 - 2 * chi,
        f"lower={report.lower.value} upper={report.upper.value}",
    )


def _square_exact(g: DefiningGraph, report: VcdReport) -> tuple[str, bool, str]:
    k = unique_cycle_length(g)
    return (
        "pruned-leaves square fixture exactness",
        report.exact == g.num_edges - k + 2 * len(g.leaves),
        f"exact={report.exact}",
    )


def run_verification(max_nodes: int = 8) -> VerificationResult:
    result = VerificationResult()
    trees = list(corpus.eligible_trees(max_nodes))
    square_free = corpus.square_free_non_trees()
    # One pipeline run per distinct graph value; a report read again (by the
    # witness section, or for a cycle fixture square_free repeats) is kept.
    kept = {g for g in trees if g.num_nodes <= 8}.union(square_free)
    reports: dict[DefiningGraph, VcdReport] = {}

    def family(graphs, failure: str, formula, structural: bool = False) -> None:
        for g in graphs:
            result.graphs_checked += 1
            report = reports.get(g)
            if report is None:
                try:
                    report = vcd_report(g)
                except GraphError as exc:
                    result.check(failure.format(n=g.num_nodes), False, str(exc))
                    continue
                if g in kept:
                    reports[g] = report
            if structural:
                _structural_checks(report, result)
            result.check(*formula(g, report))

    family(trees, "pipeline on tree [{n} nodes]", _tree_exact, True)
    family(corpus.cycle_tree_fixtures(), "pipeline on cycle fixture", _cycle_exact, True)
    family(square_free, "pipeline on square-free fixture", _sandwich)
    family(corpus.squares_with_trees(), "pipeline on square fixture", _square_exact)

    certified = []
    for g in trees:
        report = reports.get(g)
        if g.num_nodes > 8 or report is None:
            continue  # a failed pipeline is already a violation
        core, decomposition = report.core, report.decomposition
        try:
            gs = build_generator_set(g, core, decomposition, certify=False)
            outer = gs.count - inner_lattice(gs).rank
        except GraphError as exc:
            result.check("generator set on tree", False, str(exc))
            continue
        if g.num_nodes <= 7:
            certified.append(gs)
        expected = (decomposition.count - 1) + 2 * (g.num_nodes - core.num_nodes)
        result.check(
            f"generator count [{g.num_nodes}-node tree]",
            gs.count == expected,
            f"{gs.count} != {expected}",
        )
        result.check(
            f"witness outer rank = lower bound [{g.num_nodes}-node tree]",
            outer == report.lower.value,
            f"{outer} != {report.lower.value}",
        )

    c5l = DefiningGraph.from_edges(
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"),
         ("v5", "v1"), ("v1", "u")]
    )
    certified.append(build_generator_set(c5l, certify=False))
    for gs in certified:
        _check_flank_lemmas(gs.automorphisms())
        certs = verify_commuting(gs)
        uncertified = [k for k, c in certs.items() if not c.certified]
        result.check(
            f"commutation certificates [{gs.graph.num_nodes} nodes]",
            not uncertified,
            f"{len(uncertified)} uncertified pairs",
        )

    _psigma_checks(result)
    _blowup_checks(result)
    return result
