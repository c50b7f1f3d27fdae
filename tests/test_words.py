import heapq
import random

import pytest

from raagvcd.corpus import spider
from raagvcd import words
from raagvcd.graph_core import DefiningGraph, StructureAnomalyError
from raagvcd.words import (
    RaagWord,
    WordError,
    canonical,
    cyclic_reduce,
    empty_word,
    equal,
    generator,
    parse_word,
    reduce_word,
    word,
)


@pytest.fixture
def free3():
    """Free group on three letters: edgeless defining graph."""
    return DefiningGraph(("x", "y", "z"), frozenset())


def name_adjacency(g):
    """Each node's neighbours by name, read from the edge list."""
    adj = {v: set() for v in g.nodes}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def random_word(g, rng, length):
    letters = [(n, s) for n in g.nodes for s in (1, -1)]
    return word(g, [rng.choice(letters) for _ in range(length)])


def shuffle_cancellable_pairs(w):
    """All index pairs ``i < j`` whose letters cancel after shuffling: the
    letters between them all commute with that generator."""
    adj = name_adjacency(w.graph)
    letters = w.letters
    found = []
    for i, (gen, exp) in enumerate(letters):
        for j in range(i + 1, len(letters)):
            g2, e2 = letters[j]
            if g2 == gen and e2 == -exp:
                if all(
                    h == gen or h in adj[gen] for h, _ in letters[i + 1 : j]
                ):
                    found.append((i, j))
            if g2 != gen and g2 not in adj[gen]:
                break
    return found


def exhaust_randomly(w, rng):
    """Cancel shuffle-pairs in a random order until none remain."""
    current = w
    while True:
        cancellable = shuffle_cancellable_pairs(current)
        if not cancellable:
            return current
        i, j = rng.choice(cancellable)
        letters = [
            l for idx, l in enumerate(current.letters) if idx not in (i, j)
        ]
        current = word(current.graph, letters)


class TestReduce:
    def test_adjacent_conjugation_cancels(self, g_p5):
        assert str(reduce_word(parse_word(g_p5, "a b a^-1"))) == "b"

    def test_non_adjacent_commutator_survives(self, g_p5):
        w = parse_word(g_p5, "a c a^-1 c^-1")
        assert len(reduce_word(w)) == 4

    def test_free_cancellation(self, g_p5):
        assert reduce_word(parse_word(g_p5, "b d c c^-1 d^-1 b^-1")).is_empty

    def test_idempotent_and_never_longer(self, g_p5):
        rng = random.Random(11)
        for _ in range(200):
            w = random_word(g_p5, rng, rng.randrange(12))
            r = reduce_word(w)
            assert len(r) <= len(w)
            assert reduce_word(r).letters == r.letters

    def test_unknown_letter(self, g_p5):
        with pytest.raises(WordError):
            parse_word(g_p5, "a q")

    def test_power_expansion(self, g_p5):
        assert len(parse_word(g_p5, "a^3 b^-2")) == 5

    def test_lone_one_is_the_empty_word(self, g_p5):
        assert str(empty_word(g_p5)) == "1"
        assert parse_word(g_p5, " 1 ").is_empty
        with pytest.raises(WordError):
            parse_word(g_p5, "1 a")  # "1" only stands alone

    def test_node_named_one_is_a_letter(self):
        g = DefiningGraph.from_edges([("1", "2"), ("2", "3")])
        assert parse_word(g, "1").letters == (("1", 1),)
        assert parse_word(g, "1^-1 2").letters == (("1", -1), ("2", 1))


class TestEqual:
    def test_edge_relation(self, g_p5):
        assert equal(parse_word(g_p5, "a b"), parse_word(g_p5, "b a"))

    def test_non_edge(self, g_p5):
        assert not equal(parse_word(g_p5, "a c"), parse_word(g_p5, "c a"))

    def test_reduction_preserves_element(self, g_p5):
        rng = random.Random(7)
        for _ in range(100):
            w = random_word(g_p5, rng, rng.randrange(10))
            assert equal(w, reduce_word(w))

    def test_context_mismatch(self, g_p5, free3):
        with pytest.raises(WordError):
            equal(generator(g_p5, "a"), generator(free3, "x"))

    def test_congruence_under_concatenation(self, g_p5):
        rng = random.Random(23)
        adj = name_adjacency(g_p5)
        for _ in range(60):
            u = random_word(g_p5, rng, rng.randrange(1, 8))
            # Build an equal word by commuting swaps plus inserted cancelling pairs.
            letters = list(u.letters)
            for _ in range(6):
                if len(letters) >= 2:
                    i = rng.randrange(len(letters) - 1)
                    g1, g2 = letters[i][0], letters[i + 1][0]
                    if g1 == g2 or g2 in adj[g1]:
                        letters[i], letters[i + 1] = letters[i + 1], letters[i]
            pos = rng.randrange(len(letters) + 1)
            n = rng.choice(g_p5.nodes)
            letters[pos:pos] = [(n, 1), (n, -1)]
            v = word(g_p5, letters)
            assert equal(u, v)
            w = random_word(g_p5, rng, 4)
            assert equal(u * w, v * w)
            assert equal(w * u, w * v)

    @pytest.mark.parametrize(
        "left, right, verdict",
        [
            ("a a^-1 b", "b", True),
            ("c b a a^-1 b^-1", "c", True),
            ("a a^-1 b", "a", False),
            ("a c c^-1 b", "b a", True),
            ("a c a^-1", "c", False),
        ],
    )
    def test_unreduced_words_decided_both_ways(self, g_p5, left, right, verdict):
        # ``_equal_codes`` takes reduced codes; ``equal`` reduces for it.
        u, v = parse_word(g_p5, left), parse_word(g_p5, right)
        assert equal(u, v) is verdict
        assert equal(v, u) is verdict

    def test_equal_codes_takes_reduced_inputs(self, g_p5, monkeypatch):
        seen = []
        real = words._equal_codes

        def checking(g, u, v):
            seen.append((tuple(u), tuple(v)))
            assert list(u) == words._reduced_codes(g, u)
            assert list(v) == words._reduced_codes(g, v)
            return real(g, u, v)

        monkeypatch.setattr(words, "_equal_codes", checking)
        assert equal(parse_word(g_p5, "a a^-1 b b c"), parse_word(g_p5, "b c b"))
        b, c = g_p5.code["b"], g_p5.code["c"]
        assert seen == [((b, b, c), (b, c, b))]  # shuffles of one another

    def test_disagreeing_routes_raise_structure_anomaly(self, g_p5, monkeypatch):
        # Canonical forms that always match make the routes disagree on
        # unequal words; equal ones still agree.
        monkeypatch.setattr(words, "_canonical_codes", lambda g, codes: [])
        assert equal(parse_word(g_p5, "a b"), parse_word(g_p5, "b a"))
        with pytest.raises(StructureAnomalyError, match="equality routes disagree"):
            equal(parse_word(g_p5, "a c"), parse_word(g_p5, "c a"))


class TestCanonical:
    def test_confluence_random_cancellation_orders(self, g_p5):
        rng = random.Random(99)
        for _ in range(150):
            w = random_word(g_p5, rng, rng.randrange(14))
            baseline = canonical(w)
            for _ in range(3):
                alt = exhaust_randomly(w, rng)
                assert canonical(alt).letters == baseline.letters

    def test_greedy_beats_stuck_bubble_order(self):
        # b commutes with both a and c, a and c do not commute: the shuffle
        # class of "c a b" contains the smaller "b c a", which naive adjacent
        # descents never reach.
        g = DefiningGraph(("a", "b", "c"), frozenset({frozenset("ab"), frozenset("bc")}))
        w = parse_word(g, "c a b")
        assert str(canonical(w)) == "b c a"
        assert equal(w, canonical(w))

    def test_constructed_trivial_words_reduce_to_empty(self, g_p5):
        # Independent completeness oracle: words built from nothing by
        # inserting cancelling pairs and applying commuting swaps are
        # trivial by construction, so reduction must empty every one.
        rng = random.Random(314)
        adj = name_adjacency(g_p5)
        for _ in range(200):
            letters = []
            for _ in range(rng.randrange(1, 7)):
                n = rng.choice(g_p5.nodes)
                s = rng.choice((1, -1))
                pos = rng.randrange(len(letters) + 1)
                letters[pos:pos] = [(n, s), (n, -s)]
                for _ in range(4):
                    if len(letters) >= 2:
                        i = rng.randrange(len(letters) - 1)
                        g1, g2 = letters[i][0], letters[i + 1][0]
                        if g1 == g2 or g2 in adj[g1]:
                            letters[i], letters[i + 1] = letters[i + 1], letters[i]
            assert reduce_word(word(g_p5, letters)).is_empty

    def test_free_group_agrees_with_plain_reduction(self, free3):
        rng = random.Random(5)
        for _ in range(100):
            w = random_word(free3, rng, rng.randrange(12))
            stack = []
            for letter in w.letters:
                if stack and stack[-1] == (letter[0], -letter[1]):
                    stack.pop()
                else:
                    stack.append(letter)
            assert reduce_word(w).letters == tuple(stack)


def greedy_canonical_letters(graph, letters):
    """Reference: the quadratic-scan greedy the heap form replaced.  Among
    the letters that commute with everything before them, emit the least
    (positive before inverse, earliest on ties), and repeat."""
    adj = name_adjacency(graph)
    remaining = list(letters)
    out = []
    while remaining:
        best_i, best_key = -1, None
        for i, (gen, exp) in enumerate(remaining):
            if any(h != gen and h not in adj[gen] for h, _ in remaining[:i]):
                continue
            if best_key is None or (gen, -exp) < best_key:
                best_key, best_i = (gen, -exp), i
        out.append(remaining.pop(best_i))
    return out


def _grid_3x3():
    return DefiningGraph.from_edges(
        [(f"g{r}{c}", f"g{r}{c + 1}") for r in range(3) for c in range(2)]
        + [(f"g{r}{c}", f"g{r + 1}{c}") for r in range(2) for c in range(3)]
    )


def _c5l():
    return DefiningGraph.from_edges(
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1"), ("v1", "u")]
    )


ORACLE_GRAPHS = {
    "grid": _grid_3x3,
    "spider_5_3": lambda: spider(5, 3),
    "c5l": _c5l,
    "f6": lambda: DefiningGraph(tuple(f"x{i}" for i in range(1, 7)), frozenset()),
}


class TestCanonicalOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_heap_matches_greedy(self, name):
        g = ORACLE_GRAPHS[name]()
        rng = random.Random(f"canonical-{name}")
        lengths = set()
        for _ in range(40):
            w = random_word(g, rng, rng.randrange(301))
            reduced = reduce_word(w)
            expected = tuple(greedy_canonical_letters(g, reduced.letters))
            assert canonical(w).letters == expected
            assert canonical(reduced).letters == expected
            lengths.add(len(reduced) // 50)
        assert len(lengths) >= 3  # short, medium and long reduced words

    def test_many_ready_letters(self):
        # Ready letters commute pairwise, so a triangle-free graph never has
        # more than two at once; a 4-clique with a pendant node fills the
        # heap with up to four.
        clique = ["a", "b", "c", "d"]
        g = DefiningGraph.from_edges(
            [(p, q) for i, p in enumerate(clique) for q in clique[i + 1 :]] + [("a", "e")]
        )
        rng = random.Random(8)
        for _ in range(30):
            reduced = reduce_word(random_word(g, rng, rng.randrange(301)))
            assert canonical(reduced).letters == tuple(
                greedy_canonical_letters(g, reduced.letters)
            )


def _key(letters):
    """The order of the least shuffle: by generator name, a positive
    letter before its inverse."""
    return [(gen, -exp) for gen, exp in letters]


def shuffle_class(adj, letters):
    """Every word reached from the tuple ``letters`` by swapping two
    neighbouring letters whose generators are adjacent nodes."""
    found, todo = {letters}, [letters]
    for u in todo:  # grows as new shuffles are found
        for i in range(len(u) - 1):
            if u[i + 1][0] in adj[u[i][0]]:
                v = u[:i] + (u[i + 1], u[i]) + u[i + 2 :]
                if v not in found:
                    found.add(v)
                    todo.append(v)
    return found


class ShuffleOracle:
    """Least shuffles read off shuffle classes, one class built per word
    not seen before: independent of the heap and of the reduction, since a
    word is reduced exactly when no shuffle of it holds a letter next to
    its inverse."""

    def __init__(self, graph):
        self.adj = name_adjacency(graph)
        self.least = {}  # word -> its least shuffle, or None if not reduced

    def __call__(self, letters):
        if letters not in self.least:
            found = shuffle_class(self.adj, letters)
            reduced = not any(
                a == b and e == -f for u in found for (a, e), (b, f) in zip(u, u[1:])
            )
            least = min(found, key=_key) if reduced else None
            self.least.update(dict.fromkeys(found, least))
        return self.least[letters]


SHUFFLE_GRAPHS = {
    "p4": lambda: DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d")]),
    "c5": lambda: DefiningGraph.from_edges([(f"v{i}", f"v{i % 5 + 1}") for i in range(1, 6)]),
}


class TestCanonicalShuffleOracle:
    """``canonical`` against the least member of each shuffle class built
    by swaps, and on long words against the two facts that characterise the
    least shuffle."""

    @pytest.mark.parametrize("name", sorted(SHUFFLE_GRAPHS))
    def test_every_reduced_word_up_to_five_letters(self, name):
        g = SHUFFLE_GRAPHS[name]()
        oracle = ShuffleOracle(g)
        letters = [(x, e) for x in g.nodes for e in (1, -1)]
        level, counts = [()], []
        for _ in range(5):
            # A prefix of a reduced word is reduced.
            level = [w + (x,) for w in level for x in letters if oracle(w + (x,))]
            for w in level:
                assert canonical(word(g, w)).letters == oracle(w)
            counts.append(len(level))
        assert counts[:2] == [len(letters), len(letters) * (len(letters) - 1)]

    @pytest.mark.parametrize("name", sorted(SHUFFLE_GRAPHS))
    def test_seeded_six_letter_words(self, name):
        g = SHUFFLE_GRAPHS[name]()
        oracle = ShuffleOracle(g)
        letters = [(x, e) for x in g.nodes for e in (1, -1)]
        rng = random.Random(f"shuffle-{name}")
        checked = 0
        for _ in range(10000):
            w = tuple(rng.choice(letters) for _ in range(6))
            least = oracle(w)
            if least is not None:
                assert canonical(word(g, w)).letters == least
                checked += 1
        assert checked > 3000

    def test_two_hundred_letter_words_on_grid(self):
        # No class is built here: the output must be a shuffle of the input
        # (the same letters in the same order on every pair of generators
        # that do not commute, Cartier and Foata's projection test) and no
        # letter may move left past letters it commutes with to a smaller
        # word (Anisimov and Knuth: then it is the least shuffle).
        g = _grid_3x3()
        adj = name_adjacency(g)
        rng = random.Random("shuffle-grid")
        pairs = [(x, y) for x in g.nodes for y in g.nodes if x <= y and y not in adj[x]]
        for _ in range(40):
            reduced = []
            while len(reduced) < 200:
                reduced = oracle_reduced_letters(g, random_word(g, rng, 400).letters)
            w = tuple(reduced[:200])  # a prefix of a reduced word is reduced
            out = canonical(word(g, w)).letters
            for pair in pairs:
                assert [l for l in out if l[0] in pair] == [l for l in w if l[0] in pair]
            for j, (gen, exp) in enumerate(out):
                i = j - 1
                while i >= 0 and out[i][0] in adj[gen]:
                    assert _key([out[i]]) < _key([(gen, exp)]), (i, j)
                    i -= 1


@pytest.fixture
def hyp():
    return pytest.importorskip("hypothesis")


PROPERTY_GRAPHS = [
    *ORACLE_GRAPHS.values(),
    lambda: DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]),
    # First-appearance order v9 v10 c b v2 a is not the sorted order
    # a b c v10 v2 v9, which the integer codes follow.
    lambda: DefiningGraph.from_edges(
        [("v9", "v10"), ("v10", "c"), ("c", "b"), ("b", "v9"), ("b", "v2"), ("v2", "a")]
    ),
]


def oracle_reduced_letters(graph, letters):
    """Reference reduction on ``(name, exp)`` letters and frozenset
    adjacency, as the word layer did before its letters became integer
    codes: each letter scans leftward through the commuting suffix of the
    output and cancels an inverse letter found there."""
    adj = name_adjacency(graph)
    out = []
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
            elif gen not in adj[g2]:
                break
            j -= 1
        if not cancelled:
            out.append((gen, exp))
    return out


def oracle_canonical_letters(graph, letters):
    """Reference least shuffle of reduced ``(name, exp)`` letters: the heap
    of ready letters keyed ``(name, -exp)``, each letter waiting for the
    last earlier letter of every generator it does not commute with."""
    n = len(letters)
    adj = name_adjacency(graph)
    waiting = [0] * n
    releases = [[] for _ in letters]
    last = {}
    for i, (gen, _) in enumerate(letters):
        for h, j in last.items():
            if h not in adj[gen]:
                waiting[i] += 1
                releases[j].append(i)
        last[gen] = i
    heap = [(gen, -exp, i) for i, (gen, exp) in enumerate(letters) if not waiting[i]]
    heapq.heapify(heap)
    out = []
    while heap:
        i = heapq.heappop(heap)[2]
        out.append(letters[i])
        for k in releases[i]:
            waiting[k] -= 1
            if not waiting[k]:
                gen, exp = letters[k]
                heapq.heappush(heap, (gen, -exp, k))
    return out


def oracle_equal(graph, u, v):
    """Reference equality: the product ``u v^-1`` reduces to nothing."""
    inverse = [(g, -e) for g, e in reversed(v)]
    return not oracle_reduced_letters(graph, list(u) + inverse)


def _letters(st, g, max_size):
    """Strategy: letter lists over the nodes of ``g``."""
    return st.lists(
        st.tuples(st.sampled_from(g.nodes), st.sampled_from((1, -1))), max_size=max_size
    )


def _words(st, max_size=40):
    """Strategy: a word over one of the property graphs."""

    @st.composite
    def draw(draw_from):
        g = draw_from(st.sampled_from(PROPERTY_GRAPHS))()
        return word(g, draw_from(_letters(st, g, max_size)))

    return draw()


def _shuffle(w, rnd, steps=30):
    """Swap adjacent letters of commuting (or equal) generators at random."""
    adj = name_adjacency(w.graph)
    letters = list(w.letters)
    for _ in range(steps if len(letters) > 1 else 0):
        i = rnd.randrange(len(letters) - 1)
        g1, g2 = letters[i][0], letters[i + 1][0]
        if g1 == g2 or g2 in adj[g1]:
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
    return word(w.graph, letters)


class TestProperties:
    """Hypothesis properties of the word layer (skipped without Hypothesis)."""

    def test_reduce_idempotent_and_shuffle_invariant_in_length(self, hyp):
        st = hyp.strategies

        @hyp.settings(max_examples=200, deadline=None)
        @hyp.given(_words(st), st.randoms(use_true_random=False))
        def prop(w, rnd):
            r = reduce_word(w)
            assert reduce_word(r).letters == r.letters
            assert len(reduce_word(_shuffle(w, rnd))) == len(r)

        prop()

    def test_canonical_invariant_under_shuffles(self, hyp):
        st = hyp.strategies

        @hyp.settings(max_examples=200, deadline=None)
        @hyp.given(_words(st), st.randoms(use_true_random=False))
        def prop(w, rnd):
            reduced = reduce_word(w)
            assert canonical(_shuffle(w, rnd)).letters == canonical(w).letters
            assert canonical(_shuffle(reduced, rnd)).letters == canonical(w).letters

        prop()

    def test_equal_matches_canonical_forms(self, hyp):
        st = hyp.strategies

        @hyp.settings(max_examples=200, deadline=None)
        @hyp.given(_words(st, 12), st.data())
        def prop(u, data):
            g = u.graph
            if data.draw(st.booleans()):
                # An equal word: shuffle and insert a cancelling pair.
                v = _shuffle(u, data.draw(st.randoms(use_true_random=False)))
                pos = data.draw(st.integers(0, len(v)))
                x = data.draw(st.sampled_from(g.nodes))
                v = word(g, v.letters[:pos] + ((x, 1), (x, -1)) + v.letters[pos:])
            else:
                v = word(g, data.draw(_letters(st, g, 12)))
            assert equal(u, v) == (canonical(u).letters == canonical(v).letters)

        prop()

    def test_integer_codes_match_tuple_letter_oracle(self, hyp):
        st = hyp.strategies

        @hyp.settings(max_examples=300, deadline=None)
        @hyp.given(_words(st), st.data())
        def prop(w, data):
            g = w.graph
            reduced = oracle_reduced_letters(g, w.letters)
            assert reduce_word(w).letters == tuple(reduced)
            assert canonical(w).letters == tuple(oracle_canonical_letters(g, reduced))
            v = _shuffle(w, data.draw(st.randoms(use_true_random=False)))
            if data.draw(st.booleans()):
                v = word(g, [*v.letters, *data.draw(_letters(st, g, 3))])
            assert equal(w, v) == oracle_equal(g, w.letters, v.letters)

        prop()

    def test_str_parse_round_trip(self, hyp):
        st = hyp.strategies

        @hyp.settings(max_examples=200, deadline=None)
        @hyp.given(_words(st))
        def prop(w):
            # The empty word prints as "1", which parses back to it on
            # every graph without a node named "1" (all of these).
            assert "1" not in w.graph.code
            assert parse_word(w.graph, str(w)).letters == w.letters

        prop()


class TestCyclicReduce:
    def test_adjacent_wrap_reduces_first(self, g_p5):
        conj, core = cyclic_reduce(parse_word(g_p5, "c b c^-1"))
        assert conj.is_empty
        assert str(core) == "b"

    def test_non_adjacent_wrap_extracts(self, g_p5):
        conj, core = cyclic_reduce(parse_word(g_p5, "c e c^-1"))
        assert str(conj) == "c"
        assert str(core) == "e"

    def test_empty(self, g_p5):
        conj, core = cyclic_reduce(empty_word(g_p5))
        assert conj.is_empty and core.is_empty

    def test_decomposition_identity(self, g_p5):
        rng = random.Random(41)
        for _ in range(120):
            w = random_word(g_p5, rng, rng.randrange(10))
            conj, core = cyclic_reduce(w)
            assert equal(w, conj * core * conj.inverse())
            again_conj, again_core = cyclic_reduce(core)
            assert again_conj.is_empty
            assert canonical(again_core).letters == canonical(core).letters

    @pytest.mark.parametrize("graph", ["g_grid", "g_c5l", "p4"])
    def test_matches_the_pair_search(self, request, graph):
        # Conjugated random words, so that most have something to extract.
        if graph == "p4":
            g = DefiningGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        else:
            g = request.getfixturevalue(graph)
        rng = random.Random(43)
        for _ in range(400):
            outer = random_word(g, rng, rng.randrange(4))
            w = outer * random_word(g, rng, rng.randrange(16)) * outer.inverse()
            conj, core = cyclic_reduce(w)
            assert (conj.codes, core.codes) == reference_cyclic_reduce(w)


def reference_cyclic_reduce(w):
    """Cyclic reduction by the direct pair search: the first letter that
    shuffles to the front with the first inverse letter that shuffles to the
    end, each checked against every letter in its way."""
    from raagvcd.words import _reduced_codes

    g = w.graph
    star, bit = g.star, g.bit

    def cancelling_ends(codes):
        n = len(codes)
        for i, c in enumerate(codes):
            if any(not star[c] & bit[d] for d in codes[:i]):
                continue
            for j in range(n):
                if j != i and codes[j] == -c and all(
                    star[c] & bit[codes[m]] for m in range(j + 1, n) if m != i
                ):
                    return i, j
        return None

    codes = _reduced_codes(g, w.codes)
    conj = []
    while (pair := cancelling_ends(codes)) is not None:
        conj.append(codes[pair[0]])
        codes = _reduced_codes(g, [c for m, c in enumerate(codes) if m not in pair])
    return tuple(_reduced_codes(g, conj)), tuple(codes)


class TestValidation:
    """The public constructors still check every letter; only internal
    paths over letters of already checked words skip it."""

    def test_unknown_node_rejected(self, g_p5):
        with pytest.raises(WordError):
            RaagWord(g_p5, (("zz", 1),))

    def test_exponent_two_rejected(self, g_p5):
        with pytest.raises(WordError):
            RaagWord(g_p5, (("a", 2),))
        with pytest.raises(WordError):
            word(g_p5, [("a", 1), ("b", 2)])
        with pytest.raises(WordError):
            generator(g_p5, "a", 2)

    def test_products_across_graphs_rejected(self, g_p5, free3):
        with pytest.raises(WordError):
            generator(g_p5, "a") * generator(free3, "x")

    def test_structurally_equal_graph_accepted(self, g_p5):
        # An equal graph built another way is the same object, so words over
        # either work together.
        from raagvcd.graph_core import parse_graph

        twin = parse_graph("".join(f"edge {a} {b}\n" for a, b in zip("abcd", "bcde")))
        assert twin is g_p5
        product = parse_word(g_p5, "a b") * parse_word(twin, "b^-1 c")
        assert str(reduce_word(product)) == "a c"
        assert equal(parse_word(g_p5, "a b"), parse_word(twin, "b a"))

    def test_equal_graphs_share_one_context(self, g_p5):
        # Equal graphs are one object, which carries the one coding.
        twin = DefiningGraph(g_p5.nodes, frozenset(map(frozenset, g_p5.edges)))
        assert twin is g_p5
        assert twin.names == tuple(sorted(g_p5.nodes))
        reordered = DefiningGraph(tuple(reversed(g_p5.nodes)), g_p5.edges)
        assert reordered is not g_p5  # the graphs differ

    def test_derived_words_equal_validated_ones(self, g_p5):
        # Words from internal paths compare and hash like checked words.
        rng = random.Random(3)
        for _ in range(50):
            w = random_word(g_p5, rng, rng.randrange(10))
            for derived in (reduce_word(w), canonical(w), w.inverse(), w * w):
                checked = RaagWord(g_p5, derived.letters)
                assert derived == checked
                assert hash(derived) == hash(checked)
