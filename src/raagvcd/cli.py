"""Command-line front end.

Four commands: ``analyze`` a graph file, ``psigma`` for the free-group
family, ``ideal-complex`` for the blow-up complexes, and ``verify`` to run
the invariant suite over a generated corpus.  Exit codes: 0 success,
1 parse, usage or input failure, 2 ineligible graph, 3 invariant violation
found by verify or an internal invariant broken in any command (a failed
word-equality cross-check or conjugator verification included).

:func:`main` is the one place that turns errors into exit codes; each
command keeps its happy path and its refusals of out-of-range flags.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable

from .autos import build_generator_set, default_choices
from .graph_core import (
    GraphError,
    IneligibleGraphError,
    StructureAnomalyError,
    parse_graph,
)
from .ideal_edges import (
    DEFAULT_SIMPLEX_CAP,
    HalfEdgeSet,
    build_complex,
    morse_collapse_certificate,
    reduced_homology,
)
from .psigma import PsigmaSpec, psigma_generators, psigma_vcd, outer_rank
from .vcd_bounds import vcd_report

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INELIGIBLE = 2
EXIT_VIOLATION = 3

# Upper guards on flags whose cost grows without bound: ``psigma 100 1``
# takes about 0.4 s and ``verify --max-nodes 12`` about 2 s.
MAX_PSIGMA_RANK = 100
MAX_VERIFY_NODES = 12


def _emit(payload: dict, as_json: bool, text_renderer: Callable[[dict], str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text_renderer(payload))


def _render_report(payload: dict) -> str:
    lines = []
    counts = payload["counts"]
    lines.append(
        f"graph: {counts['nodes']} nodes, {counts['edges']} edges, "
        f"{counts['leaves']} leaves, {counts['pieces']} pieces, "
        f"chi={counts['euler_characteristic']}"
    )
    lines.append(
        f"lower bound {payload['lower']['value']} (case {payload['lower']['case']}"
        + (
            f", witness {payload['lower']['witness']})"
            if "witness" in payload["lower"]
            else ")"
        )
    )
    lines.append(f"upper bound {payload['upper']['value']} (case {payload['upper']['case']})")
    if payload["exact"] is not None:
        lines.append(f"exact dimension: {payload['exact']}")
    else:
        lines.append("bounds do not meet: dimension between the two values")
    if payload["theorems"]:
        lines.append("applicable statements: " + ", ".join(payload["theorems"]))
    lines.append(f"kernel rank: {payload['kernel_rank']}")
    if "witness_set" in payload:
        ws = payload["witness_set"]
        lines.append(
            f"generator set: {ws['count']} generators, inner rank {ws.get('inner_rank')}, "
            f"outer rank {ws.get('outer_rank')}"
        )
        bad = [c for c in ws.get("commutation_certificates", []) if not c["certified"]]
        lines.append(
            "commutation certificates: "
            + ("all pairs certified" if not bad else f"{len(bad)} pairs UNCERTIFIED")
        )
    return "\n".join(lines)


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_PARSE


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.e0 is not None and not args.witness:
        return _input_error("--e0 chooses the witness base edge and needs --witness")
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return _input_error(f"{args.path}: not UTF-8 text ({exc})")
    g = parse_graph(text)
    base_edge = tuple(args.e0.split(",")) if args.e0 is not None else None
    if base_edge is not None and len(base_edge) != 2:
        return _input_error(f"--e0 expects two nodes A,B, got {args.e0!r}")
    report = vcd_report(g)
    payload = report.to_dict()
    if args.witness:
        core = report.core
        decomposition = report.decomposition
        choices = default_choices(g, core, decomposition, base_edge=base_edge)
        gs = build_generator_set(g, core, decomposition, choices)
        payload["witness_set"] = gs.to_dict()
    _emit(payload, args.json, _render_report)
    return EXIT_OK


def _cmd_psigma(args: argparse.Namespace) -> int:
    if args.n > MAX_PSIGMA_RANK:
        return _input_error(f"psigma N must be at most {MAX_PSIGMA_RANK}, got {args.n}")
    spec = PsigmaSpec(args.n, args.k)
    payload: dict = {
        "n": spec.n,
        "k": spec.k,
        "vcd": psigma_vcd(spec.n, spec.k),
    }
    if spec.k >= 1:
        gens = psigma_generators(spec)
        payload["generators"] = [name for name, _ in gens]
        payload["generator_count"] = len(gens)
        payload["outer_rank"] = outer_rank(spec, gens)

    def render(p: dict) -> str:
        lines = [f"PSigma({p['n']},{p['k']}): vcd = {p['vcd']}"]
        if "generator_count" in p:
            lines.append(
                f"commuting family: {p['generator_count']} generators "
                f"({', '.join(p['generators'])})"
            )
            lines.append(f"outer rank: {p['outer_rank']}")
        else:
            lines.append("k = 0: full outer automorphism group, formula only")
        return "\n".join(lines)

    _emit(payload, args.json, render)
    return EXIT_OK


def _cmd_ideal_complex(args: argparse.Namespace) -> int:
    if args.cap < 1:
        return _input_error(f"--cap must be at least 1, got {args.cap}")
    h = HalfEdgeSet.standard(args.r, args.s)
    c = build_complex(h, legal_only=not args.full, max_simplices=args.cap)
    # The ideal edges are the splits of the m half-edges into two sides
    # of at least two each, 2^(m-1) - m - 1 of them; the complex's
    # vertices are all of them with --full and the legal ones without.
    legal_edges = (
        sum(1 for v in c.vertices if v.legal) if args.full else len(c.vertices)
    )
    payload = {
        "r": args.r,
        "s": args.s,
        "half_edges": h.size,
        "ideal_edges": 2 ** (h.size - 1) - h.size - 1,
        "legal_ideal_edges": legal_edges,
        "complex": "full" if args.full else "legal",
        "counts": list(c.counts()),
        "dim": c.dim,
    }
    if not args.no_homology:
        hom = reduced_homology(c)
        payload["homology"] = hom.to_dict()
    if not args.full and args.r >= 2:
        cert = morse_collapse_certificate(c)
        payload["collapse_certificate"] = cert.to_dict()

    def render(p: dict) -> str:
        lines = [
            f"half-edge structure: {p['r']} pairs + {p['s']} singles "
            f"({p['half_edges']} half-edges)",
            f"ideal edges: {p['ideal_edges']} total, "
            f"{p['legal_ideal_edges']} legal",
            f"{p['complex']} complex: counts by dimension {p['counts']}",
        ]
        if "homology" in p:
            hom = p["homology"]
            lines.append(
                "reduced homology: "
                + (
                    "trivial"
                    if hom["trivial"]
                    else f"betti {hom['reduced_betti']} torsion {hom['torsion']}"
                )
            )
        if "collapse_certificate" in p:
            lines.append(
                "collapse certificate: " + p["collapse_certificate"]["verdict"]
            )
        return "\n".join(lines)

    _emit(payload, args.json, render)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify_suite import run_verification

    if args.max_nodes < 2:
        return _input_error(f"--max-nodes must be at least 2, got {args.max_nodes}")
    if args.max_nodes > MAX_VERIFY_NODES:
        return _input_error(
            f"--max-nodes must be at most {MAX_VERIFY_NODES}, got {args.max_nodes}"
        )
    result = run_verification(max_nodes=args.max_nodes)
    _emit(
        result.to_dict(), args.json, lambda p: "\n".join([*p["lines"], result.summary()])
    )
    return EXIT_OK if result.ok else EXIT_VIOLATION


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, not argparse's 2,
    which this command reserves for an ineligible graph."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="raagvcd",
        description=(
            "Dimension bounds for outer automorphism groups of "
            "two-dimensional right-angled Artin groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a graph file")
    analyze.add_argument("path")
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument(
        "--witness",
        action="store_true",
        help="build the commuting generator set with certificates",
    )
    analyze.add_argument("--e0", help="base edge as A,B", default=None)
    analyze.set_defaults(func=_cmd_analyze)

    psig = sub.add_parser("psigma", help="partially symmetric family")
    psig.add_argument("n", type=int)
    psig.add_argument("k", type=int)
    psig.add_argument("--json", action="store_true")
    psig.set_defaults(func=_cmd_psigma)

    ideal = sub.add_parser("ideal-complex", help="blow-up complex at a node")
    ideal.add_argument("r", type=int, help="number of inverse pairs")
    ideal.add_argument("s", type=int, help="number of unpaired half-edges")
    ideal.add_argument("--json", action="store_true")
    ideal.add_argument(
        "--full", action="store_true", help="use all ideal edges, not only legal"
    )
    ideal.add_argument("--no-homology", action="store_true")
    ideal.add_argument("--cap", type=int, default=DEFAULT_SIMPLEX_CAP)
    ideal.set_defaults(func=_cmd_ideal_complex)

    ver = sub.add_parser("verify", help="run the invariant suite over a corpus")
    ver.add_argument("--max-nodes", type=int, default=8)
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of :func:`main` in a process and
    reused by later calls (parsing leaves it unchanged)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and map its failure, if any, to an exit code: an
    ineligible graph prints its validation report (2), a broken internal
    invariant one line (3), and any other graph error or an unreadable
    graph file one ``error:`` line (1).  A closed stdout prints nothing
    and exits 1."""
    args = _parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except IneligibleGraphError as exc:
            summary = "graph not eligible: " + exc.report.failure_summary()
            _emit(exc.report.to_dict(), args.json, lambda p: summary)
            code = EXIT_INELIGIBLE
        except StructureAnomalyError as exc:
            print(f"internal invariant broken: {exc}", file=sys.stderr)
            code = EXIT_VIOLATION
        except BrokenPipeError:
            raise
        except (GraphError, OSError) as exc:
            code = _input_error(str(exc))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Stdout on the null device: the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
