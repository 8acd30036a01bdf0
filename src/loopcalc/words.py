"""Cyclic-word canonicalization and the letter/integer encoding.

Free homotopy classes of loops are stored as cyclically reduced cyclic
words over directed gate letters.  The reduction kernel works on integer
letters (inverse of ``x`` is ``x ^ 1``); :class:`LetterTable` translates
between integers and ``(gate, direction)`` pairs.  The kernel
(``reduce_word``, ``cyclic_reduce``, ``least_rotation`` and ``canonical``)
is the pure-Python ``loopcalc._wordpure``.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from loopcalc._wordpure import canonical, cyclic_reduce, least_rotation, reduce_word

#: The word kernel in use; recorded by the benchmark.
BACKEND: str = "pure"

#: Direction of a letter relative to its star (or to the surface core in a
#: raw gate configuration): IN enters, OUT leaves.
IN = 0
OUT = 1


class LetterTable:
    """Bijection between directed gate letters and small integers.

    Gates are any sortable hashable keys; the table sorts them once and
    encodes ``(gate, IN)`` as ``2 * index`` and ``(gate, OUT)`` as
    ``2 * index + 1``.  Integer order therefore matches the lexicographic
    order on ``(gate, direction)``, which makes minimal rotations canonical
    across every word built from the same table.  Decoding reads a
    precomputed tuple of the letters, so every decoded word shares the
    table's letter objects.
    """

    __slots__ = ("gates", "_index", "_letters")

    def __init__(self, gates: Iterable[Hashable]):
        self.gates = tuple(sorted(set(gates)))
        self._index = {g: i for i, g in enumerate(self.gates)}
        self._letters = tuple((g, d) for g in self.gates for d in (IN, OUT))

    def encode(self, gate: Hashable, direction: int) -> int:
        return 2 * self._index[gate] + direction

    def decode(self, code: int) -> tuple[Hashable, int]:
        return self._letters[code]

    def decode_word(self, word: Sequence[int]) -> tuple[tuple[Hashable, int], ...]:
        return tuple(map(self._letters.__getitem__, word))

    def encode_word(self, letters: Sequence[tuple[Hashable, int]]) -> tuple[int, ...]:
        return tuple(self.encode(g, d) for g, d in letters)

    def __len__(self) -> int:
        return len(self.gates)

    def __contains__(self, gate: Hashable) -> bool:
        return gate in self._index
