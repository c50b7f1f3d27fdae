"""Words in a right-angled Artin group and the shuffle-reduction word problem.

A group element is represented by a word: a sequence of letters
``(generator, +1/-1)`` over the nodes of a defining graph, with the
relation ``xy = yx`` exactly for adjacent nodes.  A word is *reduced* when
no letter can cancel an inverse letter after shuffling it past commuting
letters, and *canonical* when it is the lexicographically least shuffle of
a reduced word.  Two reduced words represent the same group element if and
only if they are shuffles of each other, so canonical forms decide
equality; we also decide equality by reducing ``u * v**-1`` and cross-check
the two routes on every call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph_core import DefiningGraph, GraphError

Letter = tuple[str, int]


class WordError(GraphError):
    """Bad word: unknown letter, malformed syntax, or context mismatch."""


class ReductionAnomalyError(GraphError):
    """The two equality routes disagreed; indicates an internal bug."""


@dataclass(frozen=True)
class RaagWord:
    """An immutable word over the generators of a defining graph."""

    graph: DefiningGraph
    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        adj = self.graph.adjacency
        for gen, exp in self.letters:
            if gen not in adj:
                raise WordError(f"letter {gen!r} is not a node of the graph")
            if exp not in (1, -1):
                raise WordError(f"letter exponent must be +-1, got {exp}")

    def __mul__(self, other: "RaagWord") -> "RaagWord":
        _require_same_context(self, other)
        return _trusted(self.graph, self.letters + other.letters)

    def inverse(self) -> "RaagWord":
        return _trusted(
            self.graph, tuple((g, -e) for g, e in reversed(self.letters))
        )

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^-1" for g, e in self.letters)

    def __repr__(self) -> str:
        return f"RaagWord({self})"


_new = object.__new__
_set = object.__setattr__


def _trusted(graph: DefiningGraph, letters: tuple[Letter, ...]) -> RaagWord:
    """Build a word without the per-letter check of ``__post_init__``.

    Only for letters taken from words already validated over ``graph`` or
    a graph equal to it, so the check could not fail.
    """
    w = _new(RaagWord)
    _set(w, "graph", graph)
    _set(w, "letters", letters)
    return w


def empty_word(graph: DefiningGraph) -> RaagWord:
    return RaagWord(graph, ())


def generator(graph: DefiningGraph, node: str, exp: int = 1) -> RaagWord:
    return RaagWord(graph, ((node, exp),))


def word(graph: DefiningGraph, letters: Iterable[Letter]) -> RaagWord:
    return RaagWord(graph, tuple(letters))


def parse_word(graph: DefiningGraph, text: str) -> RaagWord:
    """Parse whitespace-separated letters ``x`` / ``x^-1`` (powers expand)."""
    letters: list[Letter] = []
    for token in text.split():
        if "^" in token:
            gen, _, power = token.partition("^")
            try:
                k = int(power)
            except ValueError as exc:
                raise WordError(f"bad exponent in {token!r}") from exc
        else:
            gen, k = token, 1
        if k == 0:
            continue
        sign = 1 if k > 0 else -1
        letters.extend((gen, sign) for _ in range(abs(k)))
    return RaagWord(graph, tuple(letters))


def _require_same_context(w1: RaagWord, w2: RaagWord) -> None:
    if w1.graph is not w2.graph and w1.graph != w2.graph:
        raise WordError("words live over different defining graphs")


def _commutes(adj: dict[str, frozenset[str]], g: str, h: str) -> bool:
    return g == h or h in adj[g]


def _reduced_letters(
    graph: DefiningGraph, letters: Sequence[Letter]
) -> list[Letter]:
    """Greedy left-to-right reduction.

    Each incoming letter scans leftward through the commuting suffix of the
    output; an inverse letter found there cancels, otherwise the letter is
    appended.  The output never contains a cancellable pair.
    """
    adj = graph.adjacency
    out: list[Letter] = []
    for gen, exp in letters:
        j = len(out) - 1
        cancelled = False
        while j >= 0:
            g2, e2 = out[j]
            if g2 == gen:
                if e2 == -exp:
                    del out[j]
                    cancelled = True
                    break
                # Same generator, same sign: transparent, keep scanning.
            elif gen not in adj[g2]:
                break
            j -= 1
        if not cancelled:
            out.append((gen, exp))
    return out


def reduce_word(w: RaagWord) -> RaagWord:
    """Return a reduced word equal to ``w``; idempotent, never longer.

    >>> from raagvcd.graph_core import DefiningGraph
    >>> g = DefiningGraph.from_edges([("a", "b"), ("b", "c")])
    >>> str(reduce_word(parse_word(g, "a b a^-1")))
    'b'
    >>> str(reduce_word(parse_word(g, "a c a^-1")))
    'a c a^-1'
    """
    return _trusted(w.graph, tuple(_reduced_letters(w.graph, w.letters)))


def _letter_key(letter: Letter) -> tuple[str, int]:
    gen, exp = letter
    return (gen, -exp)  # positive letters sort before their inverses


def _canonical_letters(
    graph: DefiningGraph, letters: Sequence[Letter]
) -> list[Letter]:
    """Lexicographically least shuffle of an already-reduced word.

    Greedy: among the letters that commute with everything before them,
    repeatedly emit the least.  This is the unique minimum of the shuffle
    class, so it is a complete invariant for reduced words.
    """
    adj = graph.adjacency
    remaining = list(letters)
    out: list[Letter] = []
    while remaining:
        best_i = -1
        best_key: tuple[str, int] | None = None
        for i, letter in enumerate(remaining):
            gen = letter[0]
            if any(not _commutes(adj, gen, remaining[j][0]) for j in range(i)):
                continue
            key = _letter_key(letter)
            if best_key is None or key < best_key:
                best_key, best_i = key, i
        out.append(remaining.pop(best_i))
    return out


def canonical(w: RaagWord) -> RaagWord:
    """Reduce and then normalize to the least shuffle; a complete invariant.

    >>> from raagvcd.graph_core import DefiningGraph
    >>> g = DefiningGraph.from_edges([("a", "b"), ("b", "c")])
    >>> str(canonical(parse_word(g, "b a")))
    'a b'
    >>> str(canonical(parse_word(g, "c a")))
    'c a'
    """
    reduced = _reduced_letters(w.graph, w.letters)
    return _trusted(w.graph, tuple(_canonical_letters(w.graph, reduced)))


def equal(w1: RaagWord, w2: RaagWord) -> bool:
    """Group equality, decided twice and cross-checked.

    Route one reduces ``w1 * w2**-1`` and asks for the empty word; route two
    compares canonical forms.  A disagreement raises, since it would mean the
    reduction machinery is broken.
    """
    _require_same_context(w1, w2)
    via_product = not _reduced_letters(
        w1.graph, w1.letters + tuple((g, -e) for g, e in reversed(w2.letters))
    )
    via_canonical = canonical(w1).letters == canonical(w2).letters
    if via_product != via_canonical:
        raise ReductionAnomalyError(
            f"equality routes disagree on {w1} vs {w2}: "
            f"product={via_product} canonical={via_canonical}"
        )
    return via_product


def is_trivial(w: RaagWord) -> bool:
    return not _reduced_letters(w.graph, w.letters)


def cyclic_reduce(w: RaagWord) -> tuple[RaagWord, RaagWord]:
    """Split ``w`` as ``conjugator * core * conjugator**-1`` with cyclically
    reduced core.

    A letter movable to the front (commuting with every earlier letter) that
    cancels a letter movable to the end is extracted into the conjugator;
    repeat to a fixpoint.  The core then admits no cancellation even across
    the wrap.

    >>> from raagvcd.graph_core import DefiningGraph
    >>> g = DefiningGraph.from_edges([("a", "b"), ("b", "c")])
    >>> conj, core = cyclic_reduce(parse_word(g, "a c a^-1"))
    >>> str(conj), str(core)
    ('a', 'c')
    """
    adj = w.graph.adjacency
    letters = _reduced_letters(w.graph, w.letters)
    conj: list[Letter] = []
    changed = True
    while changed:
        changed = False
        n = len(letters)
        for i in range(n):
            gen, exp = letters[i]
            if any(not _commutes(adj, gen, letters[j][0]) for j in range(i)):
                continue  # not movable to the front
            for j in range(n):
                if j == i:
                    continue
                g2, e2 = letters[j]
                if g2 != gen or e2 != -exp:
                    continue
                if any(
                    not _commutes(adj, gen, letters[m][0])
                    for m in range(j + 1, n)
                    if m != i
                ):
                    continue  # partner not movable to the end
                conj.append((gen, exp))
                letters = [letters[m] for m in range(n) if m not in (i, j)]
                letters = _reduced_letters(w.graph, letters)
                changed = True
                break
            if changed:
                break
    conjugator = _trusted(w.graph, tuple(_reduced_letters(w.graph, conj)))
    return conjugator, _trusted(w.graph, tuple(letters))

