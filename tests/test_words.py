"""Kernel tests: reduction, minimal rotation, canonical forms, and the
splice kernel against the reference kernel."""

import functools
import random

import pytest
from conftest import torus_grid
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcalc import _wordpure
from loopcalc import words as wordmod
from loopcalc.closed import build_from_graph, from_triangulation
from loopcalc.fuzz import random_loop, surface_from_spec
from loopcalc.loops import encoded_word
from loopcalc.words import CyclicWord, join_canonical


letters = st.integers(min_value=0, max_value=15)
word_lists = st.lists(letters, max_size=40)


# The test ids name the kernel module under test.
@pytest.mark.parametrize("impl", [_wordpure], ids=lambda m: m.__name__)
class TestKernel:
    def test_reduce_examples(self, impl):
        assert impl.reduce_word([]) == []
        assert impl.reduce_word([4, 5]) == []
        assert impl.reduce_word([4, 6, 7, 5]) == []
        assert impl.reduce_word([4, 6, 6, 5]) == [4, 6, 6, 5]

    def test_cyclic_reduce_wraps(self, impl):
        assert impl.cyclic_reduce([3, 6, 7, 2]) == []
        assert impl.cyclic_reduce([3, 8, 2]) == [8]
        assert impl.cyclic_reduce([8]) == [8]

    def test_least_rotation_brute_force(self, impl):
        rng = random.Random(42)
        for _ in range(500):
            w = [rng.randrange(10) for _ in range(rng.randrange(1, 25))]
            k = impl.least_rotation(w)
            rotations = [tuple(w[i:] + w[:i]) for i in range(len(w))]
            assert tuple(w[k:] + w[:k]) == min(rotations)

    def test_canonical_rotation_invariant(self, impl):
        rng = random.Random(7)
        for _ in range(300):
            w = [rng.randrange(12) for _ in range(rng.randrange(0, 20))]
            base = impl.canonical(w)
            for shift in range(1, max(len(w), 1)):
                assert impl.canonical(w[shift:] + w[:shift]) == base

    def test_canonical_absorbs_inserted_inverse_pairs(self, impl):
        rng = random.Random(13)
        for _ in range(300):
            w = [rng.randrange(12) for _ in range(rng.randrange(0, 16))]
            base = impl.canonical(w)
            x = rng.randrange(12)
            at = rng.randrange(len(w) + 1)
            padded = w[:at] + [x, x ^ 1] + w[at:]
            assert impl.canonical(padded) == base

    def test_canonical_is_cyclically_reduced(self, impl):
        rng = random.Random(99)
        for _ in range(300):
            w = [rng.randrange(12) for _ in range(rng.randrange(0, 20))]
            out = impl.canonical(w)
            for i, x in enumerate(out):
                assert out[(i + 1) % len(out)] != x ^ 1 or len(out) == 1


@settings(max_examples=200)
@given(word_lists, st.integers(min_value=0, max_value=39))
def test_canonical_idempotent_and_rotation_stable(w, shift):
    base = _wordpure.canonical(w)
    assert _wordpure.canonical(list(base)) == base
    if w:
        s = shift % len(w)
        assert _wordpure.canonical(w[s:] + w[:s]) == base


def test_letter_table_roundtrip():
    table = wordmod.LetterTable([("s", 1), ("s", 0), ("t", 2)])
    assert table.gates == (("s", 0), ("s", 1), ("t", 2))
    for gate in table.gates:
        for direction in (wordmod.IN, wordmod.OUT):
            code = table.encode(gate, direction)
            assert table.decode(code) == (gate, direction)
            assert code ^ 1 == table.encode(gate, 1 - direction)


def test_decode_word_reads_the_shared_letters():
    table = wordmod.LetterTable([("s", 1), ("s", 0), ("t", 2)])
    word = [5, 0, 3, 3, 2, 1, 4]
    decoded = table.decode_word(word)
    assert decoded == tuple((table.gates[c // 2], c % 2) for c in word)
    assert decoded[2] is decoded[3] is table.decode(3)
    assert table.decode_word(()) == ()
    with pytest.raises(IndexError):
        table.decode_word([6])


def test_backend_selected():
    assert wordmod.BACKEND == "pure"
    assert wordmod.canonical is _wordpure.canonical


# -- the splice kernel ------------------------------------------------------------


def rotation(word, at):
    return list(word[at:]) + list(word[:at])


def check_splices(u, v):
    """Every segment of ``u`` is its free reduction, and the splice kernel
    equals ``canonical`` on every piece of ``u`` and every graft of a
    rotation of ``u`` with one of ``v``."""
    cu, cv = CyclicWord(u), CyclicWord(v)
    for i in range(len(u)):
        for length in range(len(u) + 1):
            piece = rotation(u, i)[:length]
            assert cu.segment(i, length) == tuple(_wordpure.reduce_word(piece))
            assert join_canonical(cu.segment(i, length), ()) == _wordpure.canonical(piece)
        for j in range(len(v)):
            spliced = rotation(u, i) + rotation(v, j)
            assert join_canonical(cu.segment(i, len(u)), cv.segment(j, len(v))) == (
                _wordpure.canonical(spliced)
            )


# Few letters, so that random words cancel a lot.
small_words = st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=24)


@settings(max_examples=150, deadline=None)
@given(small_words, small_words)
def test_splice_kernel_matches_canonical_on_random_words(u, v):
    check_splices(u, v)


@functools.lru_cache(maxsize=None)
def loop_surface(name):
    if name == "torus":
        return build_from_graph(from_triangulation(torus_grid(3))).surface
    return surface_from_spec(name)[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["g1b1", "g2b1", "torus"]), st.integers(min_value=0, max_value=2**32))
def test_splice_kernel_matches_canonical_on_loop_words(name, seed):
    surface = loop_surface(name)
    rng = random.Random(seed)
    u, v = (encoded_word(surface, random_loop(surface, rng, 10)) for _ in range(2))
    if u and v:
        check_splices(u, v)


def test_join_canonical_examples():
    assert join_canonical((), ()) == ()
    assert join_canonical((4, 2), (3, 5)) == ()
    assert join_canonical((3, 8), (2,)) == (8,)
    assert join_canonical((2, 0, 2), (0,)) == (0, 2, 0, 2)
    assert CyclicWord([1, 4, 0]).segment(1, 3) == (4,)


def test_cyclic_word_keeps_linear_node_arrays():
    # A cyclically reduced word never cancels, so its square's prefixes
    # make the most nodes: 2n + 1, the empty word included.
    for word in ([0, 2, 4, 2] * 25, [1, 4, 0] * 30, [3] * 7, []):
        n = len(word)
        cyclic = CyclicWord(word)
        assert len(cyclic.word) == n
        assert len(cyclic._at) == 2 * n + 1
        nodes = {len(a) for a in (cyclic._parent, cyclic._depth, cyclic._last)}
        assert len(nodes) == 1 and nodes.pop() <= 2 * n + 1
        # Past the word itself, every field is an int or a list of ints.
        for name in CyclicWord.__slots__:
            value = getattr(cyclic, name)
            if name != "word":
                assert type(value) is int or all(type(x) is int for x in value)
    assert len(CyclicWord([0, 2, 4, 2] * 25)._parent) == 201


def test_segments_of_a_long_word_are_reduced_rotations():
    rng = random.Random(2000)
    word = [rng.randrange(6) for _ in range(2000)]
    cyclic = CyclicWord(word)
    n = len(word)
    for s in range(n):
        assert cyclic.segment(s, n) == tuple(_wordpure.reduce_word(rotation(word, s)))


def loop_shaped(draws):
    """A word of two letters per transit, entry then exit, from ``(entry,
    exit, passes_on)`` draws: a transit that passes on from the one before
    enters by the inverse of its exit letter, so the pair cancels inside a
    passage."""
    word = []
    for entry, exit_, passes_on in draws:
        word += [word[-1] ^ 1 if passes_on and word else entry, exit_]
    return word


transit_draws = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.booleans()), min_size=1, max_size=8
)
memo_words = st.one_of(small_words.filter(lambda w: len(w) <= 16), transit_draws.map(loop_shaped))


@settings(max_examples=150, deadline=None)
@given(memo_words, memo_words)
def test_splice_memo_keys_by_reduced_prefixes(u, v):
    """The memo keys a cut by the trie node of its reduced prefix: two
    starts at one node have one reduced rotation, and every graft and split
    the memo returns, looked up in any order through one shared memo, is
    ``canonical`` of its raw spliced word."""
    memo = wordmod.SpliceMemo()
    fu, fv = wordmod.FamilyWord(tuple(u), memo, 0), wordmod.FamilyWord(tuple(v), memo, 1)
    for word in (fu, fv):
        n, at = len(word.word), word.cyclic._at
        for s in range(n):
            for s2 in range(n):
                if at[s] == at[s2]:
                    assert word.cyclic.segment(s, n) == word.cyclic.segment(s2, n)
    for x, y in ((fu, fv), (fv, fu), (fu, fu)):
        for s in range(len(x.word)):
            for t in range(len(y.word)):
                spliced = rotation(x.word, s) + rotation(y.word, t)
                assert memo.graft(x, s, y, t) == _wordpure.canonical(spliced)
    for x in (fu, fv):
        for start in range(len(x.word)):
            for length in range(len(x.word) + 1):
                piece = rotation(x.word, start)[:length]
                assert memo.split(x, start, length) == _wordpure.canonical(piece)
