"""Tests of the benchmark itself: determinism of the inputs, eligibility of
every generated graph, and oracles that reject tampered results.

Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

import inputs
import oracles
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


def _build(workload: str, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](random.Random(seed), workdir)


def _tampered(item, edit) -> workloads.Item:
    """The item with its output payload edited before the oracle sees it."""
    code, out, err = item.run()
    payload = json.loads(out)
    edit(payload)
    return workloads.Item(item.name, lambda: (code, json.dumps(payload), err), item.check)


class InputTests(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            for workload in ("analyze", "witness"):
                a, b = Path(tmp, workload, "a"), Path(tmp, workload, "b")
                _build(workload, 7, a)
                _build(workload, 7, b)
                names = sorted(p.name for p in a.iterdir())
                self.assertEqual(names, sorted(p.name for p in b.iterdir()))
                for name in names:
                    self.assertEqual((a / name).read_bytes(), (b / name).read_bytes())
        words = [
            (inputs.random_word(rng, ["a", "b", "c"], 50), rng.random())
            for rng in (random.Random(7), random.Random(7))
        ]
        self.assertEqual(words[0], words[1])

    def test_other_seed_gives_other_inputs(self):
        texts = [
            [g.text for g in inputs.graph_mix(random.Random(seed), 20, 8, 18, "a")]
            for seed in (1, 2)
        ]
        self.assertNotEqual(texts[0], texts[1])

    def test_every_generated_graph_is_eligible(self):
        for seed in range(5):
            rng = random.Random(seed)
            graphs = inputs.graph_mix(rng, 300, 8, 18, "a")
            graphs += inputs.graph_mix(rng, 300, 6, 10, "w") + inputs.fixed_graphs()
            for g in graphs:
                adj = inputs.adjacency(g.nodes, g.edges)
                self.assertTrue(inputs.eligible(adj, len(g.edges)), g.text)
                self.assertEqual(len(set(map(frozenset, g.edges))), len(g.edges))

    def test_mix_has_trees_unique_cycles_and_multi_cycles(self):
        graphs = inputs.graph_mix(random.Random(0), 110, 8, 18, "a")
        excess = {len(g.edges) - len(g.nodes) + 1 for g in graphs}
        self.assertTrue({0, 1, 2} <= excess, excess)

    def test_eligibility_check_rejects_each_hypothesis(self):
        def ok(edges, nodes=None):
            nodes = nodes or sorted({v for e in edges for v in e})
            return inputs.eligible(inputs.adjacency(nodes, edges), len(edges))

        self.assertTrue(ok([("a", "b"), ("b", "c"), ("c", "d")]))
        self.assertFalse(ok([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]))  # triangle
        self.assertFalse(ok([("a", "b"), ("a", "c"), ("a", "d")]))  # star
        self.assertFalse(ok([("a", "b"), ("c", "d")]))  # disconnected

    def test_own_invariants_on_fixed_graphs(self):
        facts = {g.label: oracles.GraphFacts.of(g) for g in inputs.fixed_graphs()}
        self.assertEqual(facts["c5l"], oracles.GraphFacts(6, 6, 1, 2, 5))
        self.assertEqual(facts["grid_3x3"], oracles.GraphFacts(9, 12, 0, 1, 4))
        self.assertEqual(facts["spider_5_3"], oracles.GraphFacts(16, 15, 5, 15, None))

    def test_shuffle_keeps_letters_and_free_reduction(self):
        rng = random.Random(3)
        adj = {"a": {"b"}, "b": {"a"}, "c": set()}
        letters = inputs.random_word(rng, ["a", "b", "c"], 200)
        shuffled = inputs.shuffle_word(rng, letters, adj)
        self.assertNotEqual(letters, shuffled)
        self.assertEqual(sorted(letters), sorted(shuffled))
        self.assertEqual(inputs.free_reduce([("a", 1), ("b", 1), ("b", -1), ("a", -1)]), [])


class OracleTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=run.ROOT)
        root = Path(cls.tmp.name)
        cls.items = {}
        for workload in ("witness", "blowup"):
            for item in _build(workload, 1, root / workload):
                cls.items[item.name] = item
        cls.items["tree"] = _build("analyze", 1, root / "analyze")[0]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def assert_counted_as_failure(self, item):
        m = run.measure([item], 0)
        self.assertEqual(m.attempted, 1)
        self.assertEqual(len(m.failures), 1, m.failures)

    def test_untampered_results_pass(self):
        for name in ("c5l", "full_6", "psigma_5_3", "tree"):
            m = run.measure([self.items[name]], 0)
            self.assertEqual(m.failures, [])

    def test_betti_off_by_one(self):
        def edit(p):
            p["homology"]["reduced_betti"][2] += 1

        self.assert_counted_as_failure(_tampered(self.items["full_6"], edit))

    def test_outer_rank_not_lower_bound(self):
        def edit(p):
            p["witness_set"]["outer_rank"] += 1

        self.assert_counted_as_failure(_tampered(self.items["c5l"], edit))

    def test_false_certificate(self):
        def edit(p):
            p["witness_set"]["commutation_certificates"][0]["certified"] = False

        self.assert_counted_as_failure(_tampered(self.items["grid_3x3"], edit))

    def test_wrong_tree_exact(self):
        def edit(p):
            p["exact"] += 1

        self.assertEqual(self.items["tree"].name, "a0000")  # no extra edges
        self.assert_counted_as_failure(_tampered(self.items["tree"], edit))

    def test_psigma_and_legal_complex(self):
        def edit_psigma(p):
            p["generator_count"] -= 1

        def edit_verdict(p):
            p["collapse_certificate"]["verdict"] = "NOT certified"

        self.assert_counted_as_failure(_tampered(self.items["psigma_5_3"], edit_psigma))
        self.assert_counted_as_failure(_tampered(self.items["legal_2_3"], edit_verdict))

    def test_exit_code_and_bad_json(self):
        item = self.items["c5l"]
        self.assert_counted_as_failure(
            workloads.Item(item.name, lambda: (1, "", "error"), item.check)
        )
        self.assert_counted_as_failure(
            workloads.Item(item.name, lambda: (0, "{", ""), item.check)
        )

    def test_words_wrong_equality(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            item = _build("words", 1, Path(tmp))[0]
        self.assertEqual(run.measure([item], 0).failures, [])
        reduced, canon, _same, cyc = item.run()
        bad = workloads.Item(item.name, lambda: (reduced, canon, False, cyc), item.check)
        self.assert_counted_as_failure(bad)


class TracingTests(unittest.TestCase):
    def test_wraps_every_namespace_and_restores(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            items = _build("analyze", 1, Path(tmp))[:3]
            cli = sys.modules["raagvcd.cli"]
            vcd_bounds = sys.modules["raagvcd.vcd_bounds"]
            original = vcd_bounds.vcd_report
            tracer = tracing.Tracer()
            m = run.measure(items, 0, tracer)
        self.assertIs(cli.vcd_report, original)
        self.assertIs(vcd_bounds.vcd_report, original)
        layers = m.layers[0]
        self.assertEqual(layers["cli.main.calls"], 3)
        self.assertEqual(layers["vcd_bounds.vcd_report.calls"], 3)
        self.assertGreater(layers["graph_core.pieces.calls"], 0)
        self.assertEqual(layers["words.equal.calls"], 0)
        self.assertEqual(layers["homology.reduce_boundary.calls"], 0)
        self.assertTrue(all(v >= 0 for v in layers.values()))

    def test_declared_metrics_match_emitted(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            tracing.metric_names(),
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        declared = [w["name"] for w in spec["workloads"]]
        self.assertEqual(declared, [w for w in workloads.WORKLOADS if w in declared])


if __name__ == "__main__":
    unittest.main()
