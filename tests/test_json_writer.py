"""The CLI's JSON writer against its oracle, ``json.dumps(p, sort_keys=True,
indent=2)``: byte for byte on seeded random payloads and on the real
payload of every command."""
import json
import random

import pytest

from raagvcd import cli, corpus
from raagvcd.graph_core import DefiningGraph
from raagvcd.cli import _json_text, main


def _oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _assert_same(text: str, expected: str) -> None:
    """Fail at the first differing character, without pytest's diff of two
    long strings, which can take minutes."""
    if text != expected:
        i = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), None)
        i = min(len(text), len(expected)) if i is None else i
        lo = max(i - 30, 0)
        pytest.fail(f"differs at {i}: {text[lo:i + 30]!r} != {expected[lo:i + 30]!r}")


# Quotes, backslashes, control characters (the named escapes and the
# \u00XX ones), DEL, Latin-1, a line separator, CJK and a character outside
# the Basic Multilingual Plane, which the ASCII escaper writes as a pair.
_CHARS = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
          "\xe9", "\u2028", "\u6f22", "\U0001f600", "a", "Z", "0", " ", ":", ","]


def _random_string(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _random_scalar(rng: random.Random):
    return rng.choice([
        lambda: rng.randrange(-1000, 1000),
        lambda: rng.choice([-1, 1]) * (2**64 + rng.randrange(2**70)),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([0.0, -0.5, 1e-300, 2.5e16, float("inf"), float("-inf")]),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: _random_string(rng),
    ])()


def _random_value(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return _random_scalar(rng)
    n = rng.randrange(5)
    if rng.random() < 0.5:
        return [_random_value(rng, depth - 1) for _ in range(n)]
    return {_random_string(rng): _random_value(rng, depth - 1) for _ in range(n)}


def _chain(depth: int):
    value: object = []
    for level in range(depth):
        value = [value, level] if level % 2 else {"k": value, "": [{}]}
    return value


class TestAgainstJsonDumps:
    @pytest.mark.parametrize("seed", range(300))
    def test_seeded_random_payload(self, seed):
        rng = random.Random(seed)
        payload = {_random_string(rng): _random_value(rng, 6) for _ in range(rng.randrange(1, 5))}
        _assert_same(_json_text(payload), _oracle(payload))

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            [],
            {"": {}, "a": [], "b": [[]], "c": [{}], "d": {"e": {"f": []}}},
            [[], {}, [[], [{}]], {"x": [[]]}],
            "",
            -(2**80),
            2**64,
            True,
            None,
            1.5,
            _chain(200),
            # Values the writer leaves to json.dumps: a tuple is a list, and
            # int, float, bool and None keys are written as strings.
            {"t": (1, "a", ()), "n": [(), ({"z": 1},)]},
            {10: "a", 9: [1], -1: {}},
            {"outer": {2.5: 1, 0.5: 2}, "b": {True: 1, False: 2}, "c": {None: 0}},
        ],
        ids=[
            "empty-dict", "empty-list", "nested-empty-dicts", "nested-empty-lists",
            "empty-string", "negative-big-int", "int-2**64", "bool", "none", "float",
            "chain-200", "tuples", "int-keys", "float-bool-none-keys",
        ],
    )
    def test_edge_cases(self, payload):
        _assert_same(_json_text(payload), _oracle(payload))

    def test_nesting_has_no_fixed_depth(self):
        text = _json_text(_chain(200))
        assert text.count("\n" + "  " * 200) > 0
        assert json.loads(text) == _chain(200)

    @pytest.mark.parametrize(
        "payload",
        [{1, 2}, object(), {"a": [1, {"b": {2}}]}, [object()], {"k": b"bytes"}, {(1, 2): 3}],
        ids=["set", "object", "nested-set", "nested-object", "bytes", "tuple-key"],
    )
    def test_what_json_cannot_encode_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            _json_text(payload)


@pytest.fixture
def g_spider_5_3():
    return corpus.spider(5, 3)


def _graph_file(tmp_path, g: DefiningGraph) -> str:
    path = tmp_path / "g.graph"
    path.write_text("".join(f"edge {a} {b}\n" for a, b in sorted(map(sorted, g.edges))))
    return str(path)


class TestCommandPayloads:
    """The writer's bytes for the payload each command emits, as printed."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        payloads = []
        emit = cli._emit

        def spy(payload, as_json, render):
            payloads.append(payload)
            emit(payload, as_json, render)

        monkeypatch.setattr(cli, "_emit", spy)
        return payloads

    def _run(self, capsys, emitted, argv, code=0):
        assert main([*argv, "--json"]) == code
        out = capsys.readouterr().out
        (payload,) = emitted
        _assert_same(out, _oracle(payload) + "\n")
        assert json.loads(out) == payload

    @pytest.mark.parametrize("graph", ["g_spider_5_3", "g_grid", "g_c5l"])
    @pytest.mark.parametrize("witness", [[], ["--witness"]], ids=["plain", "witness"])
    def test_analyze(self, request, tmp_path, capsys, emitted, graph, witness):
        path = _graph_file(tmp_path, request.getfixturevalue(graph))
        self._run(capsys, emitted, ["analyze", path, *witness])

    def test_ineligible_report(self, tmp_path, capsys, emitted, g_star):
        self._run(capsys, emitted, ["analyze", _graph_file(tmp_path, g_star)], code=2)

    def test_psigma(self, capsys, emitted):
        self._run(capsys, emitted, ["psigma", "7", "3"])

    @pytest.mark.parametrize("argv", [["2", "3"], ["0", "6", "--full"]], ids=["legal", "full"])
    def test_ideal_complex(self, capsys, emitted, argv):
        self._run(capsys, emitted, ["ideal-complex", *argv])

    def test_verify(self, capsys, emitted):
        self._run(capsys, emitted, ["verify", "--max-nodes", "6"])
