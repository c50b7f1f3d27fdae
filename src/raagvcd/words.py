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

Internally a word holds its graph, which carries the integer coding of
its nodes (:class:`~raagvcd.graph_core.DefiningGraph`), and a tuple of
signed node codes: codes follow the sorted node names, ``-c`` is the
inverse of ``c``, and whether two letters commute is one bit test.
``letters``, ``parse_word`` and ``str`` speak node names and convert at the
edge.

The canonical form is built with a heap: each letter waits for the last
earlier letter of every generator it does not commute with, and the least
letter with nothing left to wait for goes out next.  That emits the same
least shuffle as the greedy definition, in time about linear in the word
length for a fixed graph (the argument is in :func:`_canonical_codes`).
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .graph_core import DefiningGraph, GraphError, StructureAnomalyError

Letter = tuple[str, int]


class WordError(GraphError):
    """Bad word: unknown letter, malformed syntax, or graph mismatch."""


class RaagWord:
    """An immutable word over the generators of a defining graph, stored as
    signed codes of the graph."""

    __slots__ = ("graph", "codes")

    def __init__(self, graph: DefiningGraph, letters: Iterable[Letter]):
        code = graph.code
        codes = []
        for gen, exp in letters:
            if gen not in code:
                raise WordError(f"letter {gen!r} is not a node of the graph")
            if exp not in (1, -1):
                raise WordError(f"letter exponent must be +-1, got {exp}")
            codes.append(code[gen] * exp)
        _set(self, "graph", graph)
        _set(self, "codes", tuple(codes))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RaagWord is immutable: cannot set {name!r}")

    @property
    def letters(self) -> tuple[Letter, ...]:
        names = self.graph.names
        return tuple((names[abs(c) - 1], 1 if c > 0 else -1) for c in self.codes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RaagWord):
            return NotImplemented
        return self.graph is other.graph and self.codes == other.codes

    def __hash__(self) -> int:
        return hash(self.codes)

    def __mul__(self, other: "RaagWord") -> "RaagWord":
        _require_same_graph(self, other)
        return _word(self.graph, self.codes + other.codes)

    def inverse(self) -> "RaagWord":
        return _word(self.graph, _inverse(self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def is_empty(self) -> bool:
        return not self.codes

    def __str__(self) -> str:
        if not self.codes:
            return "1"
        return " ".join(g if e == 1 else f"{g}^-1" for g, e in self.letters)

    def __repr__(self) -> str:
        return f"RaagWord({self})"


_new = object.__new__
_set = object.__setattr__


def _word(g: DefiningGraph, codes: tuple[int, ...]) -> RaagWord:
    """Wrap codes of ``g`` without the per-letter check of the
    constructor; only for codes taken from checked words."""
    w = _new(RaagWord)
    _set(w, "graph", g)
    _set(w, "codes", codes)
    return w


def _inverse(codes: Sequence[int]) -> tuple[int, ...]:
    return tuple([-c for c in reversed(codes)])


def empty_word(graph: DefiningGraph) -> RaagWord:
    return RaagWord(graph, ())


def generator(graph: DefiningGraph, node: str, exp: int = 1) -> RaagWord:
    return RaagWord(graph, ((node, exp),))


def word(graph: DefiningGraph, letters: Iterable[Letter]) -> RaagWord:
    return RaagWord(graph, letters)


def parse_word(graph: DefiningGraph, text: str) -> RaagWord:
    """Parse whitespace-separated letters ``x`` / ``x^-1`` (powers expand).

    A lone ``1`` is the empty word, as ``str`` prints it, unless the graph
    has a node named ``1``; then it is that generator.
    """
    if text.split() == ["1"] and "1" not in graph.code:
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
    return RaagWord(graph, letters)


def _require_same_graph(w1: RaagWord, w2: RaagWord) -> None:
    if w1.graph is not w2.graph:
        raise WordError("words live over different defining graphs")


def _reduced_codes(g: DefiningGraph, codes: Iterable[int]) -> list[int]:
    """Greedy left-to-right reduction.

    Each incoming letter scans leftward through the commuting suffix of the
    output (letters of its own generator with its sign included); an
    inverse letter found there cancels, otherwise the letter is appended.
    The output never contains a cancellable pair.
    """
    star, bit = g.star, g.bit
    out: list[int] = []
    for c in codes:
        commuting = star[c]
        j = len(out) - 1
        while j >= 0:
            d = out[j]
            if d == -c:
                del out[j]
                break
            j = j - 1 if commuting & bit[d] else -1
        else:
            out.append(c)
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
    return _word(w.graph, tuple(_reduced_codes(w.graph, w.codes)))


def _canonical_codes(g: DefiningGraph, codes: Sequence[int]) -> list[int]:
    """Lexicographically least shuffle of an already-reduced word.

    Letters are ordered by generator name, a positive letter before its
    inverse: heap key ``code * 2 + (letter < 0)``.  A letter must wait for
    the last earlier letter of each generator it does not commute with, its
    own generator included; once all of those are out it is ready, and a
    heap emits the least ready letter each step.

    This is the least shuffle.  Waiting for the last earlier ``h`` is
    waiting for every earlier ``h``, since the ``h`` letters wait for one
    another in turn.  So a letter is ready exactly when every letter still
    before it has another generator, one that commutes with its own.  Ready
    letters thus have distinct generators and commute pairwise (so their
    keys differ, and the heap holds ``key * n + index``), and emitting the
    least ready letter each step gives the least shuffle (the lexicographic
    normal form of a trace monoid).  A letter may not pass earlier letters
    of its own generator; on a reduced word that changes nothing, since two
    such letters with only commuting letters between them are the same
    letter (opposite ones would cancel).  Each letter scans the distinct
    generators before it, so the cost is about ``len(codes)`` times the
    number of generators, plus the heap.  A key is computed only when its
    letter becomes ready, and only a letter that releases another gets a
    release list.
    """
    n = len(codes)
    if n < 2:
        return list(codes)
    adj, bit = g.adj, g.bit
    waiting = [0] * n
    releases: list[list[int] | None] = [None] * n
    last: dict[int, int] = {}
    heap = []
    for i, c in enumerate(codes):
        nbrs, wait = adj[c], 0
        for h, j in last.items():
            if not nbrs & h:  # a node is not its own neighbour
                wait += 1
                r = releases[j]
                if r is None:
                    releases[j] = [i]
                else:
                    r.append(i)
        if wait:
            waiting[i] = wait
        else:
            heap.append((c * 2 if c > 0 else 1 - c * 2) * n + i)
        last[bit[c]] = i
    heapify(heap)
    out: list[int] = []
    while heap:
        i = heappop(heap) % n
        out.append(codes[i])
        for k in releases[i] or ():
            waiting[k] -= 1
            if not waiting[k]:
                c = codes[k]
                heappush(heap, (c * 2 if c > 0 else 1 - c * 2) * n + k)
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
    g = w.graph
    return _word(g, tuple(_canonical_codes(g, _reduced_codes(g, w.codes))))


def _equal_codes(g: DefiningGraph, u: Sequence[int], v: Sequence[int]) -> bool:
    """:func:`equal` on *reduced* codes of ``g``, both routes cross-checked.

    The inputs must be reduced, as :func:`_reduced_codes` leaves them:
    route two compares them as they are, and only reduced words for one
    element are shuffles of one another.  Route one reduces ``u * v**-1``
    and asks for the empty word; route two finds ``u == v`` (so pass two
    tuples or two lists), or else compares canonical forms.  Equal reduced
    codes have equal canonical forms without computing them.
    """
    via_product = not _reduced_codes(g, (*u, *_inverse(v)))
    via_canonical = u == v or _canonical_codes(g, u) == _canonical_codes(g, v)
    if via_product != via_canonical:
        raise StructureAnomalyError(
            f"equality routes disagree on {_word(g, tuple(u))} vs "
            f"{_word(g, tuple(v))}: product={via_product} canonical={via_canonical}"
        )
    return via_product


def equal(w1: RaagWord, w2: RaagWord) -> bool:
    """Group equality, decided twice and cross-checked.

    Both words are reduced first.  Route one reduces ``w1 * w2**-1`` and
    asks for the empty word; route two compares canonical forms.  A
    disagreement would mean the reduction machinery is broken, and raises
    :class:`StructureAnomalyError`.
    """
    _require_same_graph(w1, w2)
    g = w1.graph
    return _equal_codes(g, _reduced_codes(g, w1.codes), _reduced_codes(g, w2.codes))


def _front_positions(g: DefiningGraph, codes: Sequence[int]) -> list[int]:
    """Positions of the letters that shuffle to the front of ``codes``
    (each commutes with every earlier letter), in one pass."""
    star, bit = g.star, g.bit
    before = 0
    out = []
    for i, c in enumerate(codes):
        if not before & ~star[c]:
            out.append(i)
        before |= bit[c]
    return out


def cyclic_reduce(w: RaagWord) -> tuple[RaagWord, RaagWord]:
    """Split ``w`` as ``conjugator * core * conjugator**-1`` with cyclically
    reduced core.

    The first letter movable to the front whose inverse is movable to the
    end is extracted into the conjugator with the leftmost such inverse;
    repeat to a fixpoint.  The core then admits no cancellation even across
    the wrap.  In a reduced word the front letter comes before the end
    letter, or the two would cancel.

    >>> from raagvcd.graph_core import DefiningGraph
    >>> g = DefiningGraph.from_edges([("a", "b"), ("b", "c")])
    >>> conj, core = cyclic_reduce(parse_word(g, "a c a^-1"))
    >>> str(conj), str(core)
    ('a', 'c')
    """
    g = w.graph
    codes = _reduced_codes(g, w.codes)
    conj: list[int] = []
    while True:
        last = len(codes) - 1
        # The leftmost end position of each letter: later entries win.
        ends = {codes[last - k]: last - k for k in _front_positions(g, codes[::-1])}
        fronts = (i for i in _front_positions(g, codes) if -codes[i] in ends)
        if (i := next(fronts, None)) is None:
            break
        j = ends[-codes[i]]
        conj.append(codes[i])
        codes = _reduced_codes(g, codes[:i] + codes[i + 1 : j] + codes[j + 1 :])
    return _word(g, tuple(_reduced_codes(g, conj))), _word(g, tuple(codes))
