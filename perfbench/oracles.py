"""Independent answers the benchmark checks every timed result against.

Each check returns a list of failure messages, empty when the payload is
right.  Checks read only stable JSON keys and the facts the generator
computed itself; they never compare whole outputs or the certificate
``bound`` field.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

from inputs import GraphInput, adjacency, block_count, girth, leaf_count


@dataclass(frozen=True)
class GraphFacts:
    nodes: int
    edges: int
    leaves: int
    blocks: int
    girth: int | None

    @staticmethod
    @cache
    def of(g: GraphInput) -> "GraphFacts":
        adj = adjacency(g.nodes, g.edges)
        return GraphFacts(
            len(g.nodes), len(g.edges), leaf_count(adj), block_count(adj), girth(adj)
        )


def check_analyze(payload: dict, facts: GraphFacts) -> list[str]:
    bad = []
    counts = payload["counts"]
    for key, want in (
        ("nodes", facts.nodes),
        ("edges", facts.edges),
        ("leaves", facts.leaves),
        ("pieces", facts.blocks),
    ):
        if counts[key] != want:
            bad.append(f"counts.{key} {counts[key]} != {want}")
    lower, upper = payload["lower"]["value"], payload["upper"]["value"]
    if lower > upper:
        bad.append(f"lower {lower} > upper {upper}")
    e, ell = facts.edges, facts.leaves
    if facts.girth is None:
        if payload["exact"] != e + 2 * ell - 3:
            bad.append(f"tree exact {payload['exact']} != e+2l-3 = {e + 2 * ell - 3}")
    elif facts.girth >= 5:
        want_lower = facts.blocks + 2 * ell - 1
        want_upper = want_lower - 2 * (facts.nodes - facts.edges)
        if (lower, upper) != (want_lower, want_upper):
            bad.append(f"sandwich [{lower}, {upper}] != [{want_lower}, {want_upper}]")
        if facts.edges == facts.nodes and payload["exact"] != e - facts.girth + 2 * ell:
            bad.append(
                f"unique-cycle exact {payload['exact']} != e-k+2l = "
                f"{e - facts.girth + 2 * ell}"
            )
    return bad


def check_witness(payload: dict, facts: GraphFacts) -> list[str]:
    bad = check_analyze(payload, facts)
    ws = payload["witness_set"]
    uncertified = [c["pair"] for c in ws["commutation_certificates"] if not c["certified"]]
    if uncertified:
        bad.append(f"uncertified pairs {uncertified}")
    want_count = (facts.blocks - 1) + 2 * (facts.nodes - payload["counts"]["core_nodes"])
    if ws["count"] != want_count:
        bad.append(f"generator count {ws['count']} != {want_count}")
    if ws["outer_rank"] != payload["lower"]["value"]:
        bad.append(f"outer_rank {ws['outer_rank']} != lower {payload['lower']['value']}")
    return bad


def check_psigma(payload: dict, n: int, k: int) -> list[str]:
    bad = []
    for key, want in (
        ("vcd", 2 * n - k - 2),
        ("generator_count", 2 * n - k - 1),
        ("outer_rank", 2 * n - k - 2),
    ):
        if payload.get(key) != want:
            bad.append(f"psigma({n},{k}) {key} {payload.get(key)} != {want}")
    return bad


def check_legal_complex(payload: dict) -> list[str]:
    bad = []
    if payload["homology"]["trivial"] is not True:
        bad.append(f"legal complex homology not trivial: {payload['homology']}")
    verdict = payload["collapse_certificate"]["verdict"]
    if verdict != "certified collapsible":
        bad.append(f"collapse verdict {verdict!r}")
    return bad


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def check_full_complex(payload: dict, m: int) -> list[str]:
    """The full complex on ``m`` half-edges is a wedge of (m-2)! spheres of
    dimension m-4 (the space of phylogenetic trees)."""
    bad = []
    hom = payload["homology"]
    want_betti = [0] * (m - 3)
    want_betti[m - 4] = factorial(m - 2)
    if list(hom["reduced_betti"]) != want_betti:
        bad.append(f"reduced betti {hom['reduced_betti']} != {want_betti}")
    if any(hom["torsion"]):
        bad.append(f"torsion {hom['torsion']}")
    counts = payload["counts"]
    if counts[0] != 2 ** (m - 1) - m - 1:
        bad.append(f"vertices {counts[0]} != {2 ** (m - 1) - m - 1}")
    if counts[-1] != double_factorial(2 * m - 5):
        bad.append(f"top simplices {counts[-1]} != {double_factorial(2 * m - 5)}")
    return bad
