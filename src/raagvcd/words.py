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

The canonical form is built with a heap: each letter waits for the last
earlier letter of every generator it does not commute with, and the least
letter with nothing left to wait for goes out next.  That emits the same
least shuffle as the greedy definition, in time about linear in the word
length for a fixed graph (the argument is in :func:`_canonical_letters`).
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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
    """Parse whitespace-separated letters ``x`` / ``x^-1`` (powers expand).

    A lone ``1`` is the empty word, as ``str`` prints it, unless the graph
    has a node named ``1``; then it is that generator.
    """
    if text.split() == ["1"] and "1" not in graph.adjacency:
        return empty_word(graph)
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


def _canonical_letters(
    graph: DefiningGraph, letters: Sequence[Letter]
) -> list[Letter]:
    """Lexicographically least shuffle of an already-reduced word.

    Positive letters sort before their inverses: the order is ``(gen,
    -exp)``.  A letter must wait for the last earlier letter of each
    generator it does not commute with, its own generator included; once
    all of those are out it is ready, and a heap emits the least ready
    letter each step.

    This is the least shuffle.  Waiting for the last earlier ``h`` is
    waiting for every earlier ``h``, since the ``h`` letters wait for one
    another in turn.  So a letter is ready exactly when every letter still
    before it has another generator, one that commutes with its own.  Ready
    letters thus have distinct generators and commute pairwise, and
    emitting the least ready letter each step gives the least shuffle (the
    lexicographic normal form of a trace monoid).  The quadratic greedy
    this replaces let a letter pass earlier letters of its own generator;
    on a reduced word that changes nothing, since two such letters with
    only commuting letters between them are the same letter (opposite ones
    would cancel).  Each letter scans the distinct generators before it, so
    the cost is about ``len(letters)`` times the number of generators,
    plus the heap.
    """
    n = len(letters)
    if n < 2:
        return list(letters)
    adj = graph.adjacency
    waiting = [0] * n
    releases: list[list[int]] = [[] for _ in letters]
    last: dict[str, int] = {}
    for i, (gen, _) in enumerate(letters):
        nbrs = adj[gen]
        for h, j in last.items():
            if h not in nbrs:  # a node is not its own neighbour
                waiting[i] += 1
                releases[j].append(i)
        last[gen] = i
    heap = [(gen, -exp, i) for i, (gen, exp) in enumerate(letters) if not waiting[i]]
    heapify(heap)
    out: list[Letter] = []
    while heap:
        i = heappop(heap)[2]
        out.append(letters[i])
        for k in releases[i]:
            waiting[k] -= 1
            if not waiting[k]:
                gen, exp = letters[k]
                heappush(heap, (gen, -exp, k))
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

