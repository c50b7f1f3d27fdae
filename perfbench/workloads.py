"""The four workloads: seeded items, each with its oracle.

An item is one timed call into raagvcd's public entry points:
``raagvcd.cli.main(argv)`` with stdout captured, or the ``raagvcd.words``
API.  Building a workload is the benchmark's set-up: it imports raagvcd,
generates the inputs from the seed and writes the graph files.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import oracles

@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _cli_item(cli, name: str, argv: list[str], check_payload: Callable[[dict], list[str]]) -> Item:
    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(result) -> list[str]:
        code, out, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()[-200:]}"]
        try:
            payload = json.loads(out)
        except ValueError as exc:
            return [f"unparsable JSON: {exc}"]
        return check_payload(payload)

    return Item(name, run, check)


def _write_graphs(workdir: Path, graphs: list[inputs.GraphInput]) -> list[str]:
    paths = []
    for g in graphs:
        path = workdir / f"{g.label}.txt"
        path.write_text(g.text, encoding="utf-8")
        paths.append(str(path))
    return paths


def _graph_items(cli, graphs, paths, extra_args, check_payload) -> list[Item]:
    return [
        _cli_item(
            cli,
            g.label,
            ["analyze", path, "--json", *extra_args],
            lambda p, g=g: check_payload(p, oracles.GraphFacts.of(g)),
        )
        for g, path in zip(graphs, paths)
    ]


# Two of each of the 55 mixes of size and extra edges: a pass takes about
# a sixth of a second, so a run repeats every item hundreds of times, and
# set-up writes few files (file creation time on a shared disk varies
# tenfold from minute to minute).
ANALYZE_GRAPHS = 110
# Graphs of 6-7 nodes, so that no random graph outweighs the fixed ones
# (an 8-node tree with --witness costs as much as 0.1 s) and a pass of about
# three seconds holds over a hundred items, for a p90 with ten beyond it.
WITNESS_GRAPHS = 90
WITNESS_NODES = (6, 7)


def build_analyze(rng: random.Random, workdir: Path) -> list[Item]:
    cli = importlib.import_module("raagvcd.cli")
    graphs = inputs.graph_mix(rng, ANALYZE_GRAPHS, 8, 18, "a")
    paths = _write_graphs(workdir, graphs)
    return _graph_items(cli, graphs, paths, [], oracles.check_analyze)


def build_witness(rng: random.Random, workdir: Path) -> list[Item]:
    cli = importlib.import_module("raagvcd.cli")
    graphs = inputs.graph_mix(rng, WITNESS_GRAPHS, *WITNESS_NODES, "w") + inputs.fixed_graphs()
    paths = _write_graphs(workdir, graphs)
    items = _graph_items(cli, graphs, paths, ["--witness"], oracles.check_witness)
    for n in range(3, 11):
        for k in range(1, n + 1, 2):
            items.append(
                _cli_item(
                    cli,
                    f"psigma_{n}_{k}",
                    ["psigma", str(n), str(k), "--json"],
                    lambda p, n=n, k=k: oracles.check_psigma(p, n, k),
                )
            )
    rng.shuffle(items)
    return items


# (3, 3), with 74,463 simplices and ~90 MB, is left out: one call takes
# about 7 s, too long to repeat often in a run, and its speed follows the
# memory traffic of whatever else shares the host.
LEGAL_COMPLEXES = [(2, 3), (3, 2), (4, 1), (2, 4)]
FULL_COMPLEXES = [6, 7]


def build_blowup(rng: random.Random, workdir: Path) -> list[Item]:
    cli = importlib.import_module("raagvcd.cli")
    items = [
        _cli_item(
            cli,
            f"legal_{r}_{s}",
            ["ideal-complex", str(r), str(s), "--json", "--cap", "200000"],
            oracles.check_legal_complex,
        )
        for r, s in LEGAL_COMPLEXES
    ]
    items += [
        _cli_item(
            cli,
            f"full_{m}",
            ["ideal-complex", "0", str(m), "--json", "--full"],
            lambda p, m=m: oracles.check_full_complex(p, m),
        )
        for m in FULL_COMPLEXES
    ]
    rng.shuffle(items)
    return items


WORD_COUNT = 120
WORD_LENGTHS = (40, 200)


def _word_item(words, name: str, graph, letters, shuffled, x, free: bool) -> Item:
    w = words.word(graph, letters)
    ws = words.word(graph, shuffled)
    wx = w * words.generator(graph, x)
    expected: dict[str, object] = {}

    def run():
        return (
            words.reduce_word(w),
            words.canonical(w),
            words.equal(w, ws),
            words.cyclic_reduce(w),
        )

    def check(result) -> list[str]:
        reduced, canon, same, _cyclic = result
        if not expected:
            expected["canonical"] = words.canonical(ws).letters
            expected["unequal"] = words.equal(w, wx)
        bad = []
        if same is not True:
            bad.append("equal(w, shuffle(w)) is not True")
        if canon.letters != expected["canonical"]:
            bad.append("canonical(w) != canonical(shuffle(w))")
        if expected["unequal"] is not False:
            bad.append("equal(w, w*x) is not False")
        if len(reduced) > len(w):
            bad.append(f"reduce_word lengthened {len(w)} -> {len(reduced)}")
        if words.reduce_word(reduced).letters != reduced.letters:
            bad.append("reduce_word is not idempotent")
        if free and len(reduced) != len(inputs.free_reduce(letters)):
            bad.append(
                f"free reduction length {len(reduced)} != "
                f"{len(inputs.free_reduce(letters))}"
            )
        return bad

    return Item(name, run, check)


def build_words(rng: random.Random, workdir: Path) -> list[Item]:
    graph_core = importlib.import_module("raagvcd.graph_core")
    words = importlib.import_module("raagvcd.words")
    fixed = {g.label: g for g in inputs.fixed_graphs()}
    free_nodes = [f"x{i}" for i in range(1, 7)]
    graphs = [
        ("grid", fixed["grid_3x3"].nodes, fixed["grid_3x3"].edges),
        ("spider", fixed["spider_5_3"].nodes, fixed["spider_5_3"].edges),
        ("free", tuple(free_nodes), ()),
    ]
    built = [
        (label, graph_core.DefiningGraph.from_edges(edges, isolated=nodes),
         inputs.adjacency(nodes, edges), list(nodes))
        for label, nodes, edges in graphs
    ]
    lo, hi = WORD_LENGTHS
    items = []
    for i in range(WORD_COUNT):
        length = lo + (hi - lo) * i // (WORD_COUNT - 1)
        label, graph, adj, nodes = built[i % len(built)]
        letters = inputs.random_word(rng, nodes, length)
        shuffled = inputs.shuffle_word(rng, letters, adj)
        items.append(
            _word_item(
                words, f"{label}_{i:03d}", graph, letters, shuffled,
                rng.choice(nodes), label == "free",
            )
        )
    rng.shuffle(items)
    return items


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Item]]] = {
    "analyze": build_analyze,
    "witness": build_witness,
    "blowup": build_blowup,
    "words": build_words,
}
