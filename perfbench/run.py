#!/usr/bin/env python3
"""Benchmark for raagvcd: seeded, oracle-checked workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads: ``analyze``, ``witness`` and ``blowup`` (see ``BENCHMARK.json``
for why each exists), and ``words``, which times the words layer on long
words but is not in ``BENCHMARK.json``: on the shared 2-core machine it was
measured on, its run-to-run spread exceeded the bounds.  The program is imported from
``src/`` of the checkout and driven in this one process, without threads.
Whole passes over the workload's items run while at least half a pass
still fits in ``--seconds`` of pass time (at least one pass); every result
is checked against the oracles after its pass, outside the timed region.
With ``--trace 0``, set-up (a fresh import, input generation, graph
files) is repeated ``SETUPS`` times, spread evenly between the passes, and
its median reported as ``setup_s``; each pass runs the items of the latest
set-up.  Each item's time is its best over the
passes: ``wall_s`` is the sum of those (one pass at best per-item speed),
``items_per_s`` its inverse rate, ``item_p50_ms`` and ``item_p90_ms`` their
median and 90th percentile over the items.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` half the time runs untraced and half
traced, and the metrics are the per-layer ones of ``tracing.py`` plus
``trace.overhead_ratio``.  Earlier lines show every metric with its unit,
the fail ratio and the environment (git revision, Python, nproc, load
average at start and end); ``.bench_out/`` keeps the full record and, when
traced, the first spans of the last traced pass.  ``--workload all`` runs each
workload in its own process and prints all of them.

Exit status: 0 when every result was correct, 1 when some result failed an
oracle, 2 when the program cannot be found or the arguments are bad.
"""
import sys

# Every import compiles from source and the checkout stays free of caches,
# so set-up time does not depend on what ran in the checkout before.
sys.dont_write_bytecode = True

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 7
# A traced witness pass records about two million spans; the span file keeps
# the first ones of the last traced pass, overwritten per workload.
SPAN_FILE_LIMIT = 100_000

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Measurement:
    walls: list[float] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)  # per pass, per item
    setups: list[float] = field(default_factory=list)
    items: list = field(default_factory=list)  # those of the last pass
    layers: list[dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _purge_program() -> None:
    for name in [m for m in sys.modules if m == "raagvcd" or m.startswith("raagvcd.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list, float]:
    """Build the workload from a fresh import of raagvcd; return its items
    and the time the build took."""
    shutil.rmtree(workdir, ignore_errors=True)
    _purge_program()
    gc.unfreeze()
    gc.collect()
    start = time.perf_counter()
    workdir.mkdir(parents=True)
    items = workloads.WORKLOADS[workload](random.Random(seed), workdir)
    elapsed = time.perf_counter() - start
    # The inputs live until the next set-up; frozen, the collector skips
    # them, so its cost during an item is the program's own.
    gc.collect()
    gc.freeze()
    return items, elapsed


def _check(item, result) -> list[str]:
    if isinstance(result, Exception):
        return [f"raised {result!r}"]
    try:
        return item.check(result)
    except Exception as exc:  # a malformed payload must count as a failure
        return [f"oracle raised {exc!r}"]


def measure(
    items,
    seconds: float,
    tracer: tracing.Tracer | None = None,
    rebuild: Callable[[], tuple[list, float]] | None = None,
) -> Measurement:
    """Run whole passes while at least half of one more fits in ``seconds``
    of pass time (at least one pass); check every result after its pass.

    With ``rebuild``, which sets the workload up afresh, the run sets up
    before its first pass and then whenever another ``1/SETUPS`` of
    ``seconds`` has passed, ``SETUPS`` times at most.  Set-up time on a
    shared disk and processor drifts from second to second; set-ups spread
    over the whole run sample that drift as the passes do.
    """
    m = Measurement(items=items)
    while not m.walls or sum(m.walls) + statistics.median(m.walls) / 2 <= seconds:
        if rebuild and len(m.setups) < SETUPS and sum(m.walls) >= seconds * len(m.setups) / SETUPS:
            m.items, elapsed = rebuild()
            m.setups.append(elapsed)
        items = m.items
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        results = []
        latencies = []
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            try:
                result = item.run()
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                result = exc
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        m.walls.append(time.perf_counter() - start)
        m.latencies.append(latencies)
        if tracer is not None:
            tracer.uninstall()
            m.layers.append(tracer.summary())
        m.attempted += len(items)
        for item, result in zip(items, results):
            bad = _check(item, result)
            if bad:
                m.failures.append(f"{item.name}: {'; '.join(bad)}")
    return m


def best_latencies(m: Measurement) -> list[float]:
    """Each item's fastest time over the passes.

    On a shared host, interference from other processes can slow whole
    stretches of a run by a third; an item's best time over several passes
    is far less affected than any one pass, as with ``timeit``'s best of
    repeats.
    """
    return [min(per_pass) for per_pass in zip(*m.latencies)]


def end_to_end(m: Measurement) -> dict[str, float]:
    best = best_latencies(m)
    wall = sum(best)
    return {
        "setup_s": statistics.median(m.setups),
        "wall_s": wall,
        "items_per_s": len(best) / wall,
        "item_p50_ms": 1000 * statistics.median(best),
        "item_p90_ms": 1000 * statistics.quantiles(best, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_one(args) -> int:
    env = {
        "git_revision": git_revision(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    def rebuild():
        return set_up(args.workload, args.seed, workdir)

    try:
        if args.trace:
            # One set-up: the per-layer metrics do not include set-up time.
            items, elapsed = rebuild()
            plain = measure(items, args.seconds / 2)
            plain.setups.append(elapsed)
            tracer = tracing.Tracer()
            traced = measure(plain.items, args.seconds / 2, tracer)
            metrics = {
                name: statistics.median(p[name] for p in traced.layers)
                for name in traced.layers[0]
            }
            metrics["trace.overhead_ratio"] = statistics.median(
                traced.walls
            ) / statistics.median(plain.walls)
            units = {name: unit for name, unit, _ in tracing.metric_names()}
            runs = [plain, traced]
        else:
            plain = measure([], args.seconds, rebuild=rebuild)
            metrics = end_to_end(plain)
            units = dict(END_TO_END)
            runs = [plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    program = sys.modules["raagvcd"].__file__
    if not Path(program).resolve().is_relative_to(SRC):
        print(f"error: raagvcd imported from {program}, not {SRC}", file=sys.stderr)
        return 2
    env["loadavg_end"] = loadavg()

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    items = plain.items
    record = dict(result, env=env, failures=failures, items_per_pass=len(items),
                  setups=plain.setups,
                  passes=[len(r.walls) for r in runs], pass_walls=[r.walls for r in runs])
    if args.trace:
        record["spans_recorded"] = len(tracer.start)
        record["spans_written"] = tracer.write_spans(
            out / f"{args.workload}.spans.tsv", SPAN_FILE_LIMIT
        )
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{args.workload}: seed {args.seed}, {len(items)} items per pass, "
        f"passes {[len(r.walls) for r in runs]}, {len(plain.setups)} set-ups; per-item "
        f"times are each item's best over the passes, {len(items)} samples"
    )
    for name, entry in result["metrics"].items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 2
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "raagvcd" / "__init__.py").is_file():
        print(f"error: no raagvcd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
