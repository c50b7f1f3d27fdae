"""Per-layer tracing applied from outside the package.

The tracer replaces each listed public function with a wrapper in every
``raagvcd`` module namespace that holds a reference to it, because modules
import each other's functions by name (``from .words import equal``) and
patching only the defining module would miss those calls.  Each call
records a span (name, start, end, parent span) in memory; per-layer call
counts and self times are derived from the spans, and counters are taken
from arguments and results.  Nothing in the package is edited.
"""
from __future__ import annotations

import sys
from array import array
from time import perf_counter


def _letters_in(args, kwargs, result) -> int:
    return sum(len(a) for a in (*args, *kwargs.values()) if hasattr(a, "letters"))


def _found(args, kwargs, result) -> int:
    return result is not None


def _complete(args, kwargs, result) -> int:
    return bool(result.complete)


def _simplices(args, kwargs, result) -> int:
    return result.total_simplices


def _nnz_in(args, kwargs, result) -> int:
    entries = args[2] if len(args) > 2 else kwargs["entries"]
    return len(entries)


def _rank_out(args, kwargs, result) -> int:
    return result.rank


_WORDS = {"letters_in": _letters_in}

# layer -> function -> {counter name: counter(args, kwargs, result)}
LAYERS: dict[str, dict[str, dict]] = {
    "graph_core": {
        "parse_graph": {},
        "validate": {},
        "domination_order": {},
        "gamma_zero": {},
        "pieces": {},
    },
    "vcd_bounds": {"vcd_report": {}, "lower_bound": {}, "upper_bound": {}},
    "words": {
        "reduce_word": _WORDS,
        "canonical": _WORDS,
        "equal": _WORDS,
        "cyclic_reduce": _WORDS,
    },
    "autos": {
        "build_generator_set": {},
        "verify_commuting": {},
        "is_inner_bounded": {"found": _found},
        "inner_lattice": {"complete": _complete},
        "compose": {},
    },
    "psigma": {"psigma_generators": {}, "outer_rank": {}},
    "ideal_edges": {
        "enumerate_ideal_edges": {},
        "build_complex": {"simplices": _simplices},
        "reduced_homology": {},
        "morse_collapse_certificate": {},
    },
    "homology": {
        "reduced_homology_of_chain": {},
        "reduce_boundary": {"nnz_in": _nnz_in, "rank_out": _rank_out},
    },
    "cli": {"main": {}},
}

# Counters reported as a share of the function's calls rather than a sum.
RATIOS = {
    "autos.is_inner_bounded.found": "found_ratio",
    "autos.inner_lattice.complete": "complete_ratio",
}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, functions in LAYERS.items():
        for fn, counters in functions.items():
            key = f"{layer}.{fn}"
            out.append((f"{key}.calls", "count", "lower"))
            out.append((f"{key}.self_s", "s", "lower"))
            for counter in counters:
                ratio = RATIOS.get(f"{key}.{counter}")
                if ratio:
                    out.append((f"{key}.{ratio}", "ratio", "higher"))
                else:
                    out.append((f"{key}.{counter}", "count", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Install wrappers, collect spans and counters, summarise a pass.

    Spans are kept in flat arrays (name code, parent id, start, end), since
    a pass can record millions of them.
    """

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, counters: dict):
        code = len(self.keys)
        self.keys.append(key)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, totals = self._stack, self.counters

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            for name, count in counters.items():
                totals[f"{key}.{name}"] = totals.get(f"{key}.{name}", 0) + count(
                    args, kwargs, result
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "raagvcd" or name.startswith("raagvcd.")
        ]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"raagvcd.{layer}")
            for fn_name, counters in functions.items():
                original = getattr(home, fn_name, None)
                if original is None:
                    continue  # removed or renamed: reported as zero calls
                wrapper = self._wrap(f"{layer}.{fn_name}", original, counters)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        for spans in (self.name, self.parent, self.start, self.end):
            del spans[:]
        self.counters.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since the
        last reset: calls, self time (span minus its child spans) and
        counters, with zero for functions never called."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            parent = self.parent[sid]
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for sid in range(n):
            key = self.keys[self.name[sid]]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + self.end[sid] - self.start[sid] - child[sid]
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            for fn, counters in functions.items():
                key = f"{layer}.{fn}"
                calls_n = calls.get(key, 0)
                out[f"{key}.calls"] = calls_n
                out[f"{key}.self_s"] = self_s.get(key, 0.0)
                for counter in counters:
                    total = self.counters.get(f"{key}.{counter}", 0)
                    ratio = RATIOS.get(f"{key}.{counter}")
                    if ratio:
                        out[f"{key}.{ratio}"] = total / calls_n if calls_n else 0.0
                    else:
                        out[f"{key}.{counter}"] = total
        return out

    def write_spans(self, path, limit: int) -> int:
        """Write the first ``limit`` recorded spans as tab-separated id,
        parent, name, start, end (seconds on the ``perf_counter`` clock);
        return how many were written."""
        count = min(limit, len(self.start))
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(count):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.keys[self.name[sid]]}\t"
                    f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )
        return count
