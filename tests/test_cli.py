import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import raagvcd
from raagvcd.cli import main
from raagvcd.words import generator

P5_TEXT = "edge a b\nedge b c\nedge c d\nedge d e\n"


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.graph"
    path.write_text(P5_TEXT)
    return str(path)


class TestAnalyze:
    def test_text_output(self, p5_file, capsys):
        assert main(["analyze", p5_file]) == 0
        out = capsys.readouterr().out
        assert "exact dimension: 5" in out
        assert "Tree" in out

    def test_json_roundtrip_is_byte_stable(self, p5_file, capsys):
        assert main(["analyze", p5_file, "--json"]) == 0
        raw = capsys.readouterr().out
        payload = json.loads(raw)
        assert payload["exact"] == 5
        assert payload["theorems"] == ["Tree"]
        again = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert again == raw

    def test_witness_flag(self, p5_file, capsys):
        assert main(["analyze", p5_file, "--witness", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ws = payload["witness_set"]
        assert ws["count"] == 7
        assert ws["inner_rank"] == 2
        assert ws["outer_rank"] == 5
        assert all(c["certified"] for c in ws["commutation_certificates"])

    def test_witness_reports_uncertified_pairs(self, p5_file, capsys, monkeypatch):
        import dataclasses

        from raagvcd import autos
        from raagvcd import cli as cli_module

        def one_uncertified(*args, **kwargs):
            gs = autos.build_generator_set(*args, **kwargs)
            certs = dict(gs.certificates)
            first = min(certs)
            certs[first] = dataclasses.replace(
                certs[first], conjugator=None, exact=False
            )
            return dataclasses.replace(gs, certificates=certs)

        monkeypatch.setattr(cli_module, "build_generator_set", one_uncertified)
        assert main(["analyze", p5_file, "--witness"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "commutation certificates: 1 pairs UNCERTIFIED"

    @pytest.mark.parametrize("witness", [False, True])
    def test_analyze_builds_one_context_per_graph(self, tmp_path, monkeypatch, witness):
        # The structure layer and, with --witness, words and automorphisms
        # all read the parsed graph, which is coded once, on construction.
        # A fresh interning table is patched in, so every graph analyze
        # builds is coded afresh and recorded.
        import raagvcd.cli as cli
        from weakref import WeakValueDictionary

        from raagvcd import graph_core

        class RecordingTable(WeakValueDictionary):
            def __setitem__(self, key, graph):
                built.append(graph)
                super().__setitem__(key, graph)

        path = tmp_path / "ctx.graph"
        prefix = "ctxw" if witness else "ctxa"
        path.write_text("".join(f"edge {prefix}{i} {prefix}{i + 1}\n" for i in range(6)))
        built, rows_seen, sets = [], set(), []
        component = graph_core._component
        build = cli.build_generator_set

        def recording_component(rows, start, alive):
            rows_seen.add(id(rows))
            return component(rows, start, alive)

        def recording_build(*args, **kwargs):
            sets.append(build(*args, **kwargs))
            return sets[-1]

        monkeypatch.setattr(graph_core, "_GRAPHS", RecordingTable())
        monkeypatch.setattr(graph_core, "_component", recording_component)
        monkeypatch.setattr(cli, "build_generator_set", recording_build)
        flags = ["--witness"] if witness else []
        assert main(["analyze", str(path), "--json", *flags]) == 0
        (g,) = [h for h in built if prefix + "0" in h.code]
        assert rows_seen == {id(g.adj)}
        if witness:
            (gs,) = sets
            assert gs.graph is g
            assert all(e.automorphism.graph is g for e in gs.entries)
        else:
            assert built == [g] and not sets

    def test_explicit_base_edge(self, p5_file, capsys):
        assert main(["analyze", p5_file, "--witness", "--e0", "c,b", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness_set"]["base_edge"] == ["c", "b"]

    def test_star_exits_2(self, tmp_path, capsys):
        path = tmp_path / "star.graph"
        path.write_text("edge a b\nedge a c\nedge a d\n")
        assert main(["analyze", str(path)]) == 2
        assert "star" in capsys.readouterr().out

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("edge a a\n")
        assert main(["analyze", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["analyze", "/nonexistent/x.graph"]) == 1


class TestPsigma:
    def test_worked_example(self, capsys):
        assert main(["psigma", "3", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vcd"] == 3
        assert payload["generator_count"] == 4
        assert payload["outer_rank"] == 3

    def test_k_zero_formula_only(self, capsys):
        assert main(["psigma", "4", "0"]) == 0
        out = capsys.readouterr().out
        assert "vcd = 5" in out
        assert "formula only" in out

    def test_bad_rank(self, capsys):
        assert main(["psigma", "1", "0"]) == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda family: family[:-1], "not a product of the family"),
            (lambda family: family + family[:1], "columns are dependent"),
        ],
        ids=["dropped", "duplicated"],
    )
    def test_broken_family_exits_3(self, capsys, monkeypatch, edit, message):
        from raagvcd import cli as cli_module
        from raagvcd.psigma import psigma_generators

        def edited(spec):
            return edit(psigma_generators(spec))

        monkeypatch.setattr(cli_module, "psigma_generators", edited)
        assert main(["psigma", "4", "2", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal invariant broken: ")
        assert message in captured.err

    def test_family_that_fails_to_commute_exits_3(self, capsys, skewed_rho):
        assert main(["psigma", "4", "2", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal invariant broken: generator family failed exact commutation\n"
        )


class TestIdealComplex:
    def test_worked_example(self, capsys):
        assert main(["ideal-complex", "2", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["legal_ideal_edges"] == 6
        assert payload["homology"]["trivial"] is True
        assert payload["collapse_certificate"]["ok"] is True

    def test_full_complex(self, capsys):
        assert main(["ideal-complex", "2", "0", "--full", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == [3]
        assert payload["homology"]["reduced_betti"] == [2, 0] or payload[
            "homology"
        ]["reduced_betti"] == [2]

    def test_cap_error(self, capsys):
        assert main(["ideal-complex", "5", "1"]) == 1

    def test_failed_collapse_replay_exits_3(self, capsys, monkeypatch):
        from raagvcd import ideal_edges

        # Vertex 0 of legal (2,2) is not dominated by itself.
        bad = ideal_edges.FlagCollapse(steps=((1, 0),), alive=0, rows=())
        monkeypatch.setattr(ideal_edges, "flag_collapse", lambda rows: bad)
        assert main(["ideal-complex", "2", "2", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal invariant broken: collapse step")

    @pytest.mark.parametrize("r,s", [(0, 3), (1, 1), (1, 0), (0, 1)])
    def test_fewer_than_four_half_edges_exits_1(self, capsys, recwarn, r, s):
        # The empty complex has reduced homology Z in degree -1, so no
        # "trivial" answer may be printed for it.
        assert main(["ideal-complex", str(r), str(s), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "at least 4 half-edges" in captured.err
        assert "Warning" not in captured.err
        assert len(recwarn) == 0


    @pytest.mark.parametrize("full", [False, True])
    def test_edge_counts_without_a_second_enumeration(
        self, capsys, monkeypatch, full
    ):
        import sys

        from raagvcd import ideal_edges
        from raagvcd.ideal_edges import HalfEdgeSet, enumerate_ideal_edges

        callers = []

        def recording(*args, **kwargs):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return enumerate_ideal_edges(*args, **kwargs)

        monkeypatch.setattr(ideal_edges, "enumerate_ideal_edges", recording)
        flags = ["--json", "--no-homology", "--cap", "200000"]
        if full:
            flags.append("--full")
        for m in range(4, 9):
            for r in range(m // 2 + 1):
                s = m - 2 * r
                assert main(["ideal-complex", str(r), str(s), *flags]) == 0
                payload = json.loads(capsys.readouterr().out)
                edges = enumerate_ideal_edges(HalfEdgeSet.standard(r, s))
                assert payload["ideal_edges"] == len(edges)
                assert payload["legal_ideal_edges"] == sum(e.legal for e in edges)
        assert callers and "raagvcd.cli" not in callers


class TestNoHomology:
    def test_legal_json_drops_only_homology(self, capsys):
        assert main(["ideal-complex", "2", "2", "--json"]) == 0
        with_homology = json.loads(capsys.readouterr().out)
        assert main(["ideal-complex", "2", "2", "--no-homology", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "homology" not in payload
        assert "collapse_certificate" in payload
        assert payload["counts"] == with_homology["counts"]
        del with_homology["homology"]
        assert payload == with_homology

    def test_full_text_has_no_homology_line(self, capsys):
        assert main(["ideal-complex", "0", "6", "--full"]) == 0
        with_homology = capsys.readouterr().out.splitlines()
        assert main(["ideal-complex", "0", "6", "--full", "--no-homology"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("reduced homology") for line in lines)
        assert lines == [
            line for line in with_homology if not line.startswith("reduced homology")
        ]

    def test_cap_below_total_exits_1(self, capsys):
        assert main(["ideal-complex", "2", "2", "--no-homology", "--json"]) == 0
        total = sum(json.loads(capsys.readouterr().out)["counts"])
        cap = str(total - 1)
        argv = ["ideal-complex", "2", "2", "--no-homology", "--json", "--cap", cap]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: complex exceeds {cap} simplices\n"


class TestFlagRanges:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--max-nodes", "-1"],
            ["verify", "--max-nodes", "0"],
            ["verify", "--max-nodes", "1"],
            ["ideal-complex", "2", "3", "--cap", "-5"],
            ["ideal-complex", "2", "3", "--cap", "0"],
        ],
    )
    def test_out_of_range_exits_1(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "at least" in captured.err
        assert captured.out == ""

    def test_lowest_accepted_values_run(self, capsys):
        assert main(["verify", "--max-nodes", "2"]) == 0
        # --cap 1 passes the range check; the complex then exceeds it.
        assert main(["ideal-complex", "2", "1", "--cap", "1"]) == 1
        assert "exceeds 1 simplices" in capsys.readouterr().err

    def test_cap_bounds_edgeless_complexes(self, capsys):
        # The full complex on 4 half-edges is 3 points and no edge.
        argv = ["ideal-complex", "0", "4", "--full", "--no-homology", "--json"]
        assert main([*argv, "--cap", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"] == [3]
        assert main([*argv, "--cap", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: complex exceeds 1 simplices\n"


class TestUpperCaps:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Fail the test if a capped command starts its work."""
        from raagvcd import cli as cli_module
        from raagvcd import verify_suite

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the range check")

        monkeypatch.setattr(cli_module, "psigma_generators", forbidden)
        monkeypatch.setattr(cli_module, "psigma_vcd", forbidden)
        monkeypatch.setattr(verify_suite, "run_verification", forbidden)

    @pytest.mark.parametrize(
        "argv",
        [
            ["psigma", "101", "1"],
            ["psigma", "101", "0", "--json"],
            ["psigma", "100000", "1"],
            ["verify", "--max-nodes", "13"],
            ["verify", "--max-nodes", "1000", "--json"],
        ],
    )
    def test_above_cap_exits_1(self, capsys, no_work, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "at most" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "r,s", [(5, 1), (0, 11), (1000000, 0), (10**30, 10**30)]
    )
    def test_half_edge_cap_before_any_half_edge(self, capsys, monkeypatch, r, s):
        # ``HalfEdgeSet.standard`` checks 2r + s before it builds the
        # half-edge names, so a huge count exits at once instead of building
        # millions of names.
        from raagvcd.ideal_edges import HalfEdgeSet

        def forbidden(*args, **kwargs):
            raise AssertionError("half-edges built before the cap check")

        monkeypatch.setattr(HalfEdgeSet, "__init__", forbidden)
        assert main(["ideal-complex", str(r), str(s), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {2 * r + s} half-edges exceeds the enumeration cap 10\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [["--json"], []])
    def test_witness_above_budget_exits_1(self, tmp_path, capsys, monkeypatch, flags):
        # A 150-node path needs (pieces - 1) + 2(nodes - core nodes) = 152
        # generators; the count comes from the report, so the refusal comes
        # before any automorphism is built.
        from raagvcd import autos
        from raagvcd import cli as cli_module

        def forbidden(*args, **kwargs):
            raise AssertionError("automorphism built before the budget check")

        monkeypatch.setattr(cli_module, "build_generator_set", forbidden)
        monkeypatch.setattr(autos, "_wrap", forbidden)
        monkeypatch.setattr(autos.RaagAutomorphism, "__init__", forbidden)
        path = tmp_path / "path150.graph"
        path.write_text(_edge_text((f"p{i}", f"p{i + 1}") for i in range(149)))
        assert main(["analyze", str(path), "--witness", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --witness builds at most 150 generators, "
            "this graph needs 152\n"
        )
        assert captured.out == ""
        assert main(["analyze", str(path), *flags]) == 0  # no witness, no budget

    def test_witness_budget_boundary(self, p5_file, capsys, monkeypatch):
        # P5 needs 7 generators: accepted at a budget of 7, refused at 6.
        from raagvcd import cli as cli_module

        monkeypatch.setattr(cli_module, "MAX_WITNESS_GENERATORS", 7)
        assert main(["analyze", p5_file, "--witness", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["witness_set"]["count"] == 7
        monkeypatch.setattr(cli_module, "MAX_WITNESS_GENERATORS", 6)
        assert main(["analyze", p5_file, "--witness", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --witness builds at most 6 generators, this graph needs 7\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [["0", "5", "--full"], ["1", "3"], ["1", "3", "--full"]]
    )
    def test_full_homology_boundary(self, capsys, monkeypatch, argv):
        # The full complex on 5 half-edges has 25 simplices (with r <= 1 the
        # legal complex is the full one): its homology is accepted at a
        # ceiling of 25, byte for byte as without the patch, and refused at
        # 24 before any simplex is listed.  --no-homology is still accepted.
        from raagvcd import cli as cli_module
        from raagvcd import ideal_edges

        argv = ["ideal-complex", *argv, "--json"]
        assert main(argv) == 0
        unpatched = capsys.readouterr().out
        monkeypatch.setattr(cli_module, "MAX_FULL_HOMOLOGY_SIMPLICES", 25)
        assert main(argv) == 0
        assert capsys.readouterr().out == unpatched

        def forbidden(*args, **kwargs):
            raise AssertionError("simplices listed before the ceiling check")

        monkeypatch.setattr(cli_module, "MAX_FULL_HOMOLOGY_SIMPLICES", 24)
        monkeypatch.setattr(ideal_edges, "_clique_levels", forbidden)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: homology lists at most 24 simplices of a full complex, "
            "this one has 25 (--no-homology counts it)\n"
        )
        assert captured.out == ""
        assert main([*argv, "--no-homology"]) == 0
        assert sum(json.loads(capsys.readouterr().out)["counts"]) == 25

    def test_full_homology_ceiling_spares_legal_complexes(self, capsys, monkeypatch):
        # A legal complex with r >= 2 collapses to a small core, so its
        # homology never lists every simplex and has no ceiling.
        from raagvcd import cli as cli_module

        monkeypatch.setattr(cli_module, "MAX_FULL_HOMOLOGY_SIMPLICES", 1)
        assert main(["ideal-complex", "2", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["counts"]) == 11 and payload["homology"]["trivial"]

    def test_caps_accepted(self, capsys, monkeypatch):
        from raagvcd import verify_suite

        assert main(["psigma", "100", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["vcd"] == 197
        seen = []

        def stub(max_nodes):
            seen.append(max_nodes)
            return verify_suite.VerificationResult()

        monkeypatch.setattr(verify_suite, "run_verification", stub)
        assert main(["verify", "--max-nodes", "12"]) == 0
        assert seen == [12]


class TestVerify:
    def test_small_corpus_passes(self, capsys):
        assert main(["verify", "--max-nodes", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert payload["graphs_checked"] > 20

    def test_violations_exit_3(self, capsys, monkeypatch):
        from raagvcd import verify_suite
        from raagvcd import cli as cli_module

        def broken(max_nodes):
            result = verify_suite.VerificationResult()
            result.check("synthetic check", False, "forced")
            return result

        monkeypatch.setattr(verify_suite, "run_verification", broken)
        assert main(["verify"]) == 3
        assert "VIOLATION" in capsys.readouterr().out

    def test_witness_outer_rank_checked(self, capsys, monkeypatch):
        from raagvcd import verify_suite
        from raagvcd.autos import InnerLatticeResult

        assert main(["verify", "--max-nodes", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "ok: witness outer rank = lower bound [6-node tree]" in lines
        monkeypatch.setattr(
            verify_suite, "inner_lattice", lambda gs: InnerLatticeResult(1, {}, True)
        )
        assert main(["verify", "--max-nodes", "6"]) == 3
        out = capsys.readouterr().out
        assert "VIOLATION: witness outer rank = lower bound [6-node tree]" in out

    def test_lying_flank_lemmas_exit_3(self, capsys, monkeypatch):
        from raagvcd import autos, verify_suite

        # Every meeting pair of the verify corpus commutes, so a lie shows
        # only on a pair that does not: C5L's set gets conjugation by u as
        # one more map, which fails to commute with u's transvections (their
        # commutators are inner, so the honest run still passes).
        real = verify_suite.build_generator_set

        def with_inner_map(g, *args, **kwargs):
            gs = real(g, *args, **kwargs)
            if g.num_edges < g.num_nodes:  # a tree
                return gs
            inner = autos.inner_automorphism(g, generator(g, "u"))
            extra = dataclasses.replace(gs.entries[0], automorphism=inner)
            return dataclasses.replace(gs, entries=(*gs.entries, extra))

        monkeypatch.setattr(verify_suite, "build_generator_set", with_inner_map)
        assert main(["verify", "--max-nodes", "6"]) == 0
        capsys.readouterr()
        for module in (autos, verify_suite):
            monkeypatch.setattr(module, "_commute_by_flanks", lambda a, b: True)
        assert main(["verify", "--max-nodes", "6"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal invariant broken: the flank lemmas settle maps ")
        assert err.endswith(", whose composites differ\n")

    def test_blowup_family_checked(self, capsys, monkeypatch):
        from raagvcd import verify_suite
        from raagvcd.homology import HomologySummary

        assert main(["verify", "--max-nodes", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "ok: tree-space oracle [full complex, 7 half-edges]" in lines
        assert "ok: legal complex (3,2) acyclic and certified collapsible" in lines
        wrong = HomologySummary(reduced_betti=(1, 0), torsion=((), ()))
        monkeypatch.setattr(verify_suite, "reduced_homology", lambda c: wrong)
        assert main(["verify", "--max-nodes", "4"]) == 3
        out = capsys.readouterr().out
        assert "VIOLATION: tree-space oracle [full complex, 6 half-edges]" in out
        assert "VIOLATION: legal complex (2,4) acyclic" in out

    def test_legal_homology_checked_against_every_simplex(
        self, capsys, monkeypatch
    ):
        from raagvcd import verify_suite
        from raagvcd.homology import HomologySummary

        # Trivial, but one degree short of what the collapse core gives.
        short = HomologySummary(reduced_betti=(0,), torsion=((),))
        monkeypatch.setattr(
            verify_suite, "reduced_homology_of_chain", lambda levels: short
        )
        assert main(["verify", "--max-nodes", "4"]) == 3
        out = capsys.readouterr().out
        # The full complexes read the same reference for their matching.
        assert "VIOLATION: tree-space oracle [full complex, 7 half-edges]" in out
        assert "VIOLATION: legal complex (3,2) acyclic" in out

    def test_verify_output_pinned(self, capsys):
        # sha256 of the stdout, text and JSON, as printed while every family
        # still ran its own loop and pipeline; a changed label, detail,
        # count or order of checks shows here.
        pinned = {
            "text": "9deed5556fe6bcc52af69763320215b42a00af59763775abd757ac692d524d48",
            "json": "ee1494cb646993bfc251209bf74df98579bbe24473b7e4d66ac36821471a4130",
        }
        for fmt, flags in (("text", []), ("json", ["--json"])):
            assert main(["verify", "--max-nodes", "8", *flags]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == pinned[fmt], fmt


class TestUsageErrors:
    """argparse's usage errors exit 1 (2 means an ineligible graph)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze"], "the following arguments are required: path"),
            (["psigma", "x", "1"], "invalid int value: 'x'"),
            (["verify", "--max-nodes", "8.5"], "invalid int value: '8.5'"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            ([], "the following arguments are required: command"),
            (["psigma", "3", "1", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: raagvcd")
        assert "error: " in captured.err and message in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: raagvcd" in capsys.readouterr().out

    def test_parser_reused_without_state(self, p5_file, capsys):
        # main() builds its parser once; flags of one call must not leak
        # into the next.
        assert main(["analyze", p5_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] == 5
        assert main(["analyze", p5_file]) == 0
        assert "exact dimension: 5" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["analyze"])
        capsys.readouterr()
        assert main(["psigma", "3", "1"]) == 0
        assert "outer rank: 3" in capsys.readouterr().out

    def test_build_parser_gives_a_fresh_parser(self):
        from raagvcd.cli import build_parser

        assert build_parser() is not build_parser()
        assert build_parser().parse_args(["verify"]).max_nodes == 8


class TestAnalyzeErrors:
    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.graph"
        path.write_bytes("edge a b\nedge b c\nedge c d\n# caf\xe9\n".encode("latin-1"))
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("e0", ["a", "a,b,c", "a,zz", "a,b"])
    def test_bad_base_edge_exits_1(self, p5_file, capsys, e0):
        # a-b is an edge of P5 but not of its core subgraph.
        assert main(["analyze", p5_file, "--witness", "--e0", e0]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_base_edge_exits_1(self, p5_file, capsys):
        # An empty --e0 is a bad base edge, not a request for the default.
        assert main(["analyze", p5_file, "--witness", "--e0", "", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --e0 expects two nodes A,B, got ''\n"

    @pytest.mark.parametrize("e0", ["a,zz", "c,b", ""])
    def test_base_edge_without_witness_exits_1(self, p5_file, capsys, e0):
        assert main(["analyze", p5_file, "--e0", e0, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --e0 ")
        assert "--witness" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("vcd_report", []),
            ("vcd_report", ["--witness"]),
            ("build_generator_set", ["--witness"]),
        ],
    )
    def test_structure_anomaly_exits_3(
        self, p5_file, capsys, monkeypatch, target, argv
    ):
        from raagvcd import cli as cli_module
        from raagvcd.graph_core import StructureAnomalyError

        def broken(*args, **kwargs):
            raise StructureAnomalyError("forced")

        monkeypatch.setattr(cli_module, target, broken)
        assert main(["analyze", p5_file, *argv]) == 3
        assert "internal invariant broken: forced" in capsys.readouterr().err


class TestExitCodes:
    """``main`` maps every command's errors to one exit code each."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "GRID", "--witness"],
            ["psigma", "4", "2"],
            ["verify", "--max-nodes", "4"],
        ],
    )
    def test_failed_equality_cross_check_exits_3(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        from raagvcd import autos, words

        def disagreeing(g, u, v):
            # The words layer's own cross-check, run on two distinct
            # generators whose canonical forms are made to match.
            with monkeypatch.context() as m:
                m.setattr(words, "_canonical_codes", lambda g, codes: [])
                return words._equal_codes(g, (1,), (2,))

        monkeypatch.setattr(autos, "_equal_codes", disagreeing)
        grid = tmp_path / "grid.graph"
        grid.write_text(_edge_text(_grid_3x3_edges()))
        argv = [str(grid) if a == "GRID" else a for a in argv]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal invariant broken: equality routes disagree on "
        )
        assert len(captured.err.splitlines()) == 1

    def test_ineligible_json_report_exits_2(self, tmp_path, capsys):
        path = tmp_path / "star.graph"
        path.write_text("edge a b\nedge a c\nedge a d\n")
        assert main(["analyze", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "eligible": False,
            "is_connected": True,
            "is_star": True,
            "square_free": True,
            "triangle_free": True,
        }
        assert captured.err == ""

    def test_unreadable_graph_file_exits_1(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["psigma", "4", "2"],
            ["verify", "--max-nodes", "8"],
            ["analyze", "STAR", "--json"],
        ],
    )
    def test_closed_stdout_exits_1_quietly(self, tmp_path, argv):
        # The read end of stdout is closed before the child writes, so its
        # first write fails: with stdout buffered, for psigma's 110 bytes
        # and the star's validation report at main's flush, for verify's
        # 127 KB inside print.
        star = tmp_path / "star.graph"
        star.write_text("edge a b\nedge a c\nedge a d\n")
        argv = [str(star) if a == "STAR" else a for a in argv]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(raagvcd.__file__).parents[1])
        child = subprocess.Popen(
            [sys.executable, "-m", "raagvcd", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == ""


def _edge_text(edges):
    return "".join(f"edge {a} {b}\n" for a, b in edges)


def _spider_5_3_edges():
    edges = []
    for leg in range(5):
        prev = "hub"
        for step in range(1, 4):
            edges.append((prev, f"l{leg}_{step}"))
            prev = f"l{leg}_{step}"
    return edges


def _grid_3x3_edges():
    edges = []
    for i in range(3):
        for j in range(3):
            if i < 2:
                edges.append((f"g{i}{j}", f"g{i + 1}{j}"))
            if j < 2:
                edges.append((f"g{i}{j}", f"g{i}{j + 1}"))
    return edges


def _random_tree_edges(n, rng):
    return [(f"t{rng.randrange(i)}", f"t{i}") for i in range(1, n)]


_C5L_EDGES = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1"), ("v1", "u")]

# sha256 of the stdout of each command; pinned so that speed work in the
# words and autos layers cannot change a byte of the output.
GOLDEN_SHA256 = {
    "spider_5_3": "3e52c44e04bb81594e49387061b2c5ad82364d1fb8bfe21aee7e42301613b500",
    "grid_3x3": "2ecb9f62f26f547161c0d5763ac3a58e92964c088d12adc60a64fd2dc2e80cf0",
    "c5l": "c7f478b322a789d5ba8b64bf915c96343538ce7d6a198346cda9e5adb856fbb6",
    "psigma_10_5": "f25b88afb09a0cfb80b1a98aef71c90763b45c3110a9335f43e59779195e3906",
    "spider_5_3_text": "6911f1680640e642bc6c76becb3a05e7d996940633b6b201e8c3f143f6e841e6",
    "grid_3x3_text": "907a8fffe66149404c53720bbe70a9f89554b544baa01c6618b2957711fe6557",
    "c5l_text": "d2888a1a29cf57ff31846caaa9a3a5e006a439fc54e6a4e8fb6df15c90fb344d",
}

# sha256 of the stdout of ``ideal-complex``, JSON and text; pinned so that
# homology from the collapse core cannot change a byte of the output.
IDEAL_COMPLEX_ARGS = {
    "2_3": ["2", "3"],
    "3_2": ["3", "2"],
    "4_1": ["4", "1"],
    "2_4": ["2", "4"],
    "3_3": ["3", "3", "--cap", "200000"],
    "0_6_full": ["0", "6", "--full"],
    "0_7_full": ["0", "7", "--full"],
    "4_2": ["4", "2", "--cap", "2000000"],
    "0_8_full": ["0", "8", "--full", "--cap", "200000"],
}
IDEAL_COMPLEX_SHA256 = {
    "2_3_json": "fb89443d1ccfc1cf4d7e83e8611dddf5e409f611a9b3bb67ddb5cfe49aac6406",
    "2_3_text": "8bbc050e84b8dd76b0d59089ae0acdabe945ec4c06cca43bb1c559625f81eacd",
    "3_2_json": "cbdac3c46c72c3cb318345fe76a4167cf161a0b2a62d18b1d71f2943238af7b5",
    "3_2_text": "ab608b979c22b09b9deeb0ac756f96ed0d81000213f8a53a37308ae0fff8b2e7",
    "4_1_json": "c222ff344b3d553a5aa50e5092849005cd5e14ea60ea33e2d384bff7169457e7",
    "4_1_text": "2ac7e225da7db4a9f3175b8827e35777ff335823064070cd138ca235ce9d0885",
    "2_4_json": "f07af0b20edadfd0284db5ebd7f690175010cd45a2a6c3747bd36b4077d9ee28",
    "2_4_text": "64e784643825319428edf7d544987b0274a48d5fa6cb077eef49d588f647d719",
    "3_3_json": "082f3b9f5518d5e4d4ac7ce00799b7e997be4289d1130e667fb7d441f95ee19d",
    "3_3_text": "beb059db533d52af13e6a0eb39ada9e17c56f1a8ed61c9d0e63e6336028da062",
    "0_6_full_json": "bb5046a9c007a7297a73b84fa64acf0d22942470792f78f74781c7027da0a5e6",
    "0_6_full_text": "73dd5e72b152c2244a99bf884c1b2e92356afec92b8412894a7a15eeecd538d1",
    "0_7_full_json": "3bc40c32948e38c740bd6d313451603ce68a651da041940a1de03112647c4b36",
    "0_7_full_text": "9441204520ae54c9c642518341cb2b5faea3856dac3ddd268388e77c30b71fde",
    "4_2_json": "36a1fc72696f7a3216c5ff6cada063fb430f20e177c09b44c632720f6ba9449a",
    "4_2_text": "0e572c730cb25412caa52a7f2caca234bc12713055601dcb48648821ed74bc85",
    "0_8_full_json": "c06571e344f91f8bca57ba86d9b7df2957f708af6f3422ad19b096fb99280857",
    "0_8_full_text": "c508f1d01838f20c4e9913df1e63a3ab5e55d9d2d8d9e32190afc8d96c0ff237",
}


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "name, edges",
        [
            ("spider_5_3", _spider_5_3_edges()),
            ("grid_3x3", _grid_3x3_edges()),
            ("c5l", _C5L_EDGES),
        ],
    )
    def test_witness_json(self, tmp_path, capsys, name, edges):
        path = tmp_path / f"{name}.graph"
        path.write_text(_edge_text(edges))
        assert main(["analyze", str(path), "--witness", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name]

    @pytest.mark.parametrize(
        "name, edges",
        [
            ("spider_5_3", _spider_5_3_edges()),
            ("grid_3x3", _grid_3x3_edges()),
            ("c5l", _C5L_EDGES),
        ],
    )
    def test_witness_text(self, tmp_path, capsys, name, edges):
        path = tmp_path / f"{name}.graph"
        path.write_text(_edge_text(edges))
        assert main(["analyze", str(path), "--witness"]) == 0
        out = capsys.readouterr().out
        assert "commutation certificates: all pairs certified" in out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == GOLDEN_SHA256[f"{name}_text"]

    # sha256 of ``analyze --witness --e0 A,B --json``: the base edge is
    # given, not chosen, so the orientation of the core starts from it.
    @pytest.mark.parametrize(
        "name, edges, e0, digest",
        [
            ("c5l", _C5L_EDGES, "v3,v4",
             "0e68af85088718d572460fd64b64c572a1f33b3259478092abc24285da43880d"),
            ("c5l", _C5L_EDGES, "v2,v3",
             "cefd50ddf44d4130baa82365b7f47de684ed1afef98b8a13b0e78d8bafd5b842"),
            ("spider_5_3", _spider_5_3_edges(), "l1_1,l1_2",
             "f1d2f87f482c628dd10b1d6b3d5d1a01b55683a99d18c1c44dea8c5ee31a8aab"),
        ],
    )
    def test_witness_json_with_base_edge(
        self, tmp_path, capsys, name, edges, e0, digest
    ):
        path = tmp_path / f"{name}.graph"
        path.write_text(_edge_text(edges))
        assert main(["analyze", str(path), "--witness", "--e0", e0, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of ``analyze --json`` on large inputs: a 2,000-node path, a
    # 1,000-node cycle and a 1,000-node random tree, each node after the
    # first attached to a seeded random earlier one.
    @pytest.mark.parametrize(
        "edges, digest",
        [
            ([(f"p{i}", f"p{i + 1}") for i in range(1999)],
             "8a4f4bbe0479eebb80433f56dc357d73394dfc2a94304fe7fa3192e076a6a9de"),
            ([(f"c{i}", f"c{(i + 1) % 1000}") for i in range(1000)],
             "c0f0eba3c4e8893ff62891faf33c9724f35bd8923f073aeef4cd9ab6ad904245"),
            (_random_tree_edges(1000, random.Random(5)),
             "278e80c1c21405259c1eec73247534d679aa3e7b7834a3affcefb43c6d80085b"),
        ],
        ids=["path_2000", "cycle_1000", "tree_1000"],
    )
    def test_large_analyze_json(self, tmp_path, capsys, edges, digest):
        path = tmp_path / "large.graph"
        path.write_text(_edge_text(edges))
        assert main(["analyze", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of ``analyze --witness --json`` on a 100-node path: 102
    # generators and 5,151 commutation certificates, taken before the
    # equality decisions were shared across the pairs of a generator set.
    def test_large_witness_json(self, tmp_path, capsys):
        path = tmp_path / "path100.graph"
        path.write_text(_edge_text((f"p{i}", f"p{i + 1}") for i in range(99)))
        assert main(["analyze", str(path), "--witness", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a47e7ab79d71fd787cdd433c94137ea2c10fceadbafc6ceb7a2fc9b5450ce77a"
        )

    def test_psigma_json(self, capsys):
        assert main(["psigma", "10", "5", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256["psigma_10_5"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("name", IDEAL_COMPLEX_ARGS)
    def test_ideal_complex(self, capsys, name, fmt):
        flags = ["--json"] if fmt == "json" else []
        assert main(["ideal-complex", *IDEAL_COMPLEX_ARGS[name], *flags]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == IDEAL_COMPLEX_SHA256[f"{name}_{fmt}"]


# C5 with two pendant paths whose node names sort in another order than
# they appear in the file: node codes follow the sorted names, not the
# order of first appearance, so no byte of the witness may depend on the
# order of the lines.
_C5_PATHS_EDGES = [
    ("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1"),
    ("v1", "p2"), ("p2", "p1"), ("v3", "a2"), ("a2", "a1"),
]


def test_witness_json_independent_of_line_order(tmp_path, capsys):
    rng = random.Random(20)
    outputs = set()
    for i in range(20):
        lines = [f"node {v}" for v in ("v4", "a1", "p1") if rng.random() < 0.5]
        lines += [
            f"edge {a} {b}" if rng.random() < 0.5 else f"edge {b} {a}"
            for a, b in _C5_PATHS_EDGES
        ]
        rng.shuffle(lines)
        path = tmp_path / f"perm{i}.graph"
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(path), "--witness", "--json"]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    (out,) = outputs
    witness = json.loads(out)["witness_set"]
    assert witness["outer_rank"] == json.loads(out)["lower"]["value"]


def _analyze_pin_graphs():
    """Thirty seeded graphs of 8-18 nodes with their expected exit codes.

    Most are connected and triangle-free (trees, unique-cycle graphs,
    graphs with squares); three in ten are made ineligible by a triangle,
    a second component or a star.  Names are drawn at random, so
    first-appearance order is not sorted order, and each edge line picks
    its endpoint order at random.
    """
    rng = random.Random(1313)
    out = []
    for i in range(30):
        n = 8 + i % 11
        names = rng.sample([f"{c}{k}" for c in "abmqz" for k in range(12)], n)
        kind = ("tree", "cycle", "dense", "dense", "tree", "cycle", "dense",
                "triangle", "disconnected", "star")[i % 10]
        if kind == "star":
            edges = [(names[0], v) for v in names[1:]]
        else:
            split = n // 2 if kind == "disconnected" else n
            edges = [(names[j], names[rng.randrange(j)]) for j in range(1, split)]
            edges += [
                (names[j], names[split + rng.randrange(j - split)])
                for j in range(split + 1, n)
            ]
            adj = {v: set() for v in names}
            for a, b in edges:
                adj[a].add(b)
                adj[b].add(a)
            extra = {"tree": 0, "cycle": 1, "dense": 2 + i % 4}.get(kind, 0)
            while extra:
                a, b = rng.sample(names[:split], 2)
                if b not in adj[a] and not adj[a] & adj[b]:
                    edges.append((a, b))
                    adj[a].add(b)
                    adj[b].add(a)
                    extra -= 1
            if kind == "triangle":
                a, b = edges[-1]
                c = next(v for v in names if v not in (a, b))
                edges += [(a, c), (b, c)] if c not in adj[a] else [(b, c)]
        rng.shuffle(edges)
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
        code = 2 if kind in ("triangle", "disconnected", "star") else 0
        out.append((f"g{i:02d}_{kind}", edges, code))
    return out


# sha256 of the stdout of ``analyze`` without ``--witness``, JSON and text,
# on the graphs above; pinned so that the integer-coded structure layer
# cannot change a byte of the output.
ANALYZE_PIN_SHA256 = {
    "g00_tree_json": "f23c2770522ef6219b4b58e0de1c8a5104fda8f144df8353bfdbc5e41563aad5",
    "g01_cycle_json": "5cd4dbbe506dd5d2597557fbd3bdb4e9d41a325ccfad8116f6855642fa787520",
    "g02_dense_json": "768793e3fbcc9e2857ac9a714c897a3d3085fa0e466ee1586f8fe1c0dce24f7b",
    "g03_dense_json": "fea0c25ecb57e9fbefb7e2590ca6c70bb14b2b30f4f14abdf5beeb85846bf43e",
    "g04_tree_json": "5bdaf7402140ae80ea03a3c67cfc08e23ff009dee67c2bac08adfb61273fe048",
    "g05_cycle_json": "e728193b1034c5fae9a501609fb5f21d4887be7dacdb217fad90959896f9d490",
    "g06_dense_json": "eb678a87f7e1477c2d338b593da1529d9b4abe07ea72d808a2beccc8edda8c9c",
    "g07_triangle_json": "e38c89a53896c0c25db150df4be96db8940650073afad30996471e7be55f99f3",
    "g08_disconnected_json": "cf11986f2f901255f86a893e14b7afd62826ecea632311fa3990f284cb84ce9f",
    "g09_star_json": "451fb8722eff930f983964acec39260b655143c8eeb82f03dd0da59752ede3b6",
    "g10_tree_json": "0d3974bafd134f1a59a79381081ee444a328bf4c0fd236ae755647f6fc3e8a15",
    "g11_cycle_json": "7265c735a5d020025a80f11814070446124641da9fb7c09b8f7734acaedf6989",
    "g12_dense_json": "a91a084f70e947ee81ec23719ccd0e5c1aaac60f591ab20724809b05f5509f22",
    "g13_dense_json": "ebf13d1c72a43b88ef61d23f1f0c4cb840106e963a4ad5cd8d515c60726c84c6",
    "g14_tree_json": "33bd40e72d49ac3d7f885878945ed46748c4bdaccde66cafa928f33207a8adf3",
    "g15_cycle_json": "26f0e4e53f1a86ffa892c9bcee94ca61d8991b28164db7453f99116db2634c71",
    "g16_dense_json": "3d3e09257a2016451b4af0bc06a563ed0c6fbdd751e45f14b22db2069d34cde2",
    "g17_triangle_json": "e749c94068ca957b568b6a00909684e04e8d96e839609d1c772929ca61fd3d51",
    "g18_disconnected_json": "cf11986f2f901255f86a893e14b7afd62826ecea632311fa3990f284cb84ce9f",
    "g19_star_json": "451fb8722eff930f983964acec39260b655143c8eeb82f03dd0da59752ede3b6",
    "g20_tree_json": "58a8233758e8be21f70b953380312924f9b6ad5fc6201ee07f9d25496189bb76",
    "g21_cycle_json": "4f71329cfb5bad7b36ce8d53fb7b2e54a410960f2bf97dbfbfac8146d88eccd6",
    "g22_dense_json": "beb178576f2832b692e34625399ed6a864d8a7e199cdd44ad5f85e60d1343cbd",
    "g23_dense_json": "00e30db0eb690efcc88f58d4099a1e120d37f2537665102118a1b7265ab0fb59",
    "g24_tree_json": "097ddccc9dee48fc5c7c008227cefebd1aa79d4451d4a4f9591fdf0adcf5b5ad",
    "g25_cycle_json": "042f94c8bb73abf3b8bf1247a24471f7b6281def33f2e099660a9c2c317806da",
    "g26_dense_json": "e55e4c5c0dfb0072ed70e85ce7cac16829fe26f6925fb06326831540dd7e5f1b",
    "g27_triangle_json": "e749c94068ca957b568b6a00909684e04e8d96e839609d1c772929ca61fd3d51",
    "g28_disconnected_json": "cf11986f2f901255f86a893e14b7afd62826ecea632311fa3990f284cb84ce9f",
    "g29_star_json": "451fb8722eff930f983964acec39260b655143c8eeb82f03dd0da59752ede3b6",
    "g00_tree_text": "23f1d265ad97846de37e56010d8a73215df4e0800b7a7ce06fc4497b17c091bc",
    "g01_cycle_text": "6380a2472d619758b401172a554cba78c05a267f3a7b5558967b6bc0af2c5661",
    "g02_dense_text": "a60488e99f132d01c704a84d0185f0fb3feb08ae5c2cb0a2e849e0f2210c2034",
    "g03_dense_text": "05c24a40b865e358dd6e759b51b2ea0ca3d232882f98e6f8a8fce3d5eb160533",
    "g04_tree_text": "4556da01a14d4a29e47da258ed61905a9329eab20ed4963802e9960dfe190faa",
    "g05_cycle_text": "a9149d162f9cca45fe00e555967058add4e3c581b8ef65ac9a58d55394cad3f6",
    "g06_dense_text": "5d654b82867efd59e325db9cb94b811472c9bfbc505f3a4caf44c284201910a6",
    "g07_triangle_text": "8c32ad8543197b7fbefd1e6ac3c3c290fe4416b7c0fe513b642afbff4f80c1f1",
    "g08_disconnected_text": "41805b84bab8a7561688db5a4487acacc1861ce00e062863f3550f0ef808743c",
    "g09_star_text": "7259e91c079869a519f364729fc402be7ee483d75f4c26be5911777d0e35ab4b",
    "g10_tree_text": "a4589279be185fede07c09571f4ab05179047db6d27623038b8993e29de65022",
    "g11_cycle_text": "95e6f38489f7d78fc0c01ee0d2926d9dc16bd03ceba08aa6bcb12fcc19a8421b",
    "g12_dense_text": "1cb10166a1f2aae2eb59f7fb96937aaf4bba30e1a77a04b75ee1cf62dfee6e72",
    "g13_dense_text": "1eaa1d0d4269bc57405857a10f30a67b49e2c44bae714c3f5e4ef8c81c3a598d",
    "g14_tree_text": "9347b5f4533c65bf321f976eb2cf27b1404370a542873d32b65747d4fda09fb7",
    "g15_cycle_text": "31454af01f65c58ec9a27f9a29b8530071245b32bb404c2c4e1a673766fa3cce",
    "g16_dense_text": "51ca177c228f3f699ff6ba93c78185d49c4dd7925a6ed97c21aadab80c5cc469",
    "g17_triangle_text": "8c32ad8543197b7fbefd1e6ac3c3c290fe4416b7c0fe513b642afbff4f80c1f1",
    "g18_disconnected_text": "41805b84bab8a7561688db5a4487acacc1861ce00e062863f3550f0ef808743c",
    "g19_star_text": "7259e91c079869a519f364729fc402be7ee483d75f4c26be5911777d0e35ab4b",
    "g20_tree_text": "135916e1ed54e43e51fb2163cdad94006518beb9d9957c2740b7b02094719140",
    "g21_cycle_text": "e39253bf389d8e72e53aa1a06216d897cd388ff3dab744cfd0684722f2c5210e",
    "g22_dense_text": "f623c268c14353169499067e107e5d2f2508242b5e34b97063f42d03077abebf",
    "g23_dense_text": "763c278e88df926dd5031c3493d1f8884c936db051f9c002a87a764682f3328c",
    "g24_tree_text": "f5f9e45d6de27194318ae1e96647b33049960bfbebd39c974dfa8a9a292feea2",
    "g25_cycle_text": "bc7cc2666bf922778768ddbca15f0c05a3d1b246ae419a1963cb2af91421a521",
    "g26_dense_text": "bc65ce9c37840d300e18c5e40e5a43d1da086ad3100196f6e8bc8879ba1f6202",
    "g27_triangle_text": "8c32ad8543197b7fbefd1e6ac3c3c290fe4416b7c0fe513b642afbff4f80c1f1",
    "g28_disconnected_text": "41805b84bab8a7561688db5a4487acacc1861ce00e062863f3550f0ef808743c",
    "g29_star_text": "7259e91c079869a519f364729fc402be7ee483d75f4c26be5911777d0e35ab4b",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_output_pinned(tmp_path, capsys, fmt):
    flags = ["--json"] if fmt == "json" else []
    digests = {}
    for name, edges, code in _analyze_pin_graphs():
        path = tmp_path / f"{name}.graph"
        path.write_text(_edge_text(edges))
        assert main(["analyze", str(path), *flags]) == code, name
        out = capsys.readouterr().out
        digests[f"{name}_{fmt}"] = hashlib.sha256(out.encode()).hexdigest()
    expected = {k: v for k, v in ANALYZE_PIN_SHA256.items() if k.endswith(fmt)}
    assert digests == expected


# The six-cycle with a chord and a leaf from
# ``test_vcd_bounds.py::test_middle_case_nonhub_node``: the one pinned report
# whose lower bound takes the ``NONHUB_NODE`` case (the thirty graphs above,
# spider(5,3) and C5L reach only ``BASE`` and ``NONHUB_EDGE``).
_NONHUB_NODE_EDGES = [
    ("n0", "n4"), ("n1", "n2"), ("n1", "n3"), ("n1", "n6"),
    ("n2", "n5"), ("n3", "n4"), ("n4", "n6"), ("n5", "n6"),
]


@pytest.mark.parametrize(
    "flags, digest",
    [
        (["--json"], "96a8f31734210463a5f957f17e6ad2ca91aff633051fa6806f76fd9931608b85"),
        ([], "c7ec663e3c9afa89190b607ec6edc485500785ec19fde54ed4a91c899eaca336"),
    ],
    ids=["json", "text"],
)
def test_nonhub_node_report_pinned(tmp_path, capsys, flags, digest):
    path = tmp_path / "nonhub_node.graph"
    path.write_text(_edge_text(_NONHUB_NODE_EDGES))
    assert main(["analyze", str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert "NONHUB_NODE" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
