"""Kernel tests: reduction, minimal rotation, canonical forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcalc import _wordpure
from loopcalc import words as wordmod


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
