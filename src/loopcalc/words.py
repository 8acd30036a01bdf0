"""Cyclic-word canonicalization and the letter/integer encoding.

Free homotopy classes of loops are stored as cyclically reduced cyclic
words over directed gate letters.  The reduction kernel works on integer
letters (inverse of ``x`` is ``x ^ 1``); :class:`LetterTable` translates
between integers and ``(gate, direction)`` pairs.  The kernel
(``reduce_word``, ``cyclic_reduce``, ``least_rotation`` and ``canonical``)
is the pure-Python ``loopcalc._wordpure``; it stays the one reference
kernel.

Splices.  Every bracket and cobracket term is the class of a spliced word:
a rotation of one cyclic word followed by a rotation of another, or one
cyclic segment.  Most of its letters cancel, so the splices do not reduce
the raw spliced word.  A :class:`CyclicWord` stores the free reduction
``P_k`` of every prefix of its square, and a segment ``w[s:e]`` reduces to
``P_s^-1 P_e``; :func:`join_canonical` then canonicalizes the product of
two reduced words.  The prefixes are trie nodes kept in three int arrays
(parent, depth and last letter), so ``n`` letters build in ``O(n)`` into
at most ``2n + 1`` nodes.  A splice therefore costs its reduced length,
and equals ``canonical`` of the raw spliced word.

A family is a list of words spliced together: a :class:`FamilyWord` is
one of them, with the family's :class:`SpliceMemo` and its index there.
The memo keeps the family's splices, the reduced rotations and the
canonical word of each graft and split, keyed in order by the words'
indices and by the trie nodes of the reduced prefixes where the splice
cuts them.  Equal nodes are equal reduced prefixes, and a reduced rotation
depends on the node of its start alone, so every cut at one reduced
prefix, such as each transit of one passage through a star, shares one
splice.  A word builds its :class:`CyclicWord` on its first splice lookup.
The loops prepared together are one family, and so are the owners of a
raw gate configuration, so the star route, the gate route and every check
on a family canonicalize each spliced word once.
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


class CyclicWord:
    """A cyclic word with the free reduction of every prefix of its square.

    The reduced prefixes form a trie: node ``0`` is the empty word, and a
    node's children extend it by one letter that does not cancel its last,
    so two prefixes reduce to one word exactly when they reach one node.
    ``_at[k]`` is the node of the reduced prefix of length ``k`` of
    ``word + word``; ``_parent``, ``_depth`` and ``_last`` hold each node's
    parent, depth and last letter (``-1`` at the root).
    """

    __slots__ = ("word", "_at", "_parent", "_depth", "_last")

    def __init__(self, word: Sequence[int]):
        self.word = word = tuple(word)
        parent, depth, last = [0], [0], [-1]
        # Child ``x`` of ``node`` is keyed ``x * size + node``; nodes < size.
        size = 2 * len(word) + 1
        children: dict[int, int] = {}
        at = [0]
        node = 0
        for x in word + word:
            if last[node] == x ^ 1:
                node = parent[node]
            else:
                key = x * size + node
                child = children.get(key)
                if child is None:
                    child = children[key] = len(parent)
                    parent.append(node)
                    depth.append(depth[node] + 1)
                    last.append(x)
                node = child
            at.append(node)
        self._at, self._parent, self._depth, self._last = at, parent, depth, last

    def segment(self, start: int, length: int) -> tuple[int, ...]:
        """The free reduction of the ``length`` letters from ``start`` on,
        read cyclically, for ``0 <= start < n`` and ``0 <= length <= n`` in
        a word of ``n`` letters.  It walks from both prefixes to their
        common one, spelling the letters it undoes and adds, so it costs the
        length of the result.

        >>> word = CyclicWord([0, 4, 5, 2])
        >>> word.segment(0, 4)
        (0, 2)
        >>> word.segment(3, 3)
        (2, 0, 4)
        >>> word.segment(1, 2)
        ()
        """
        parent, depth, last = self._parent, self._depth, self._last
        u, v = self._at[start], self._at[start + length]
        undo, add = [], []
        while u != v:
            # The deeper node (u, at equal depths) lies below the common prefix.
            if depth[u] >= depth[v]:
                undo.append(last[u] ^ 1)
                u = parent[u]
            else:
                add.append(last[v])
                v = parent[v]
        add.reverse()
        return tuple(undo + add)


class FamilyWord:
    """One word of a family: the integer ``word``, the family's ``memo``
    and the word's ``index`` in it.  Its :class:`CyclicWord` is made on its
    first splice lookup, so a word that is never spliced makes none.
    """

    __slots__ = ("word", "memo", "index", "_cyclic")

    def __init__(self, word: tuple[int, ...], memo: SpliceMemo, index: int):
        self.word = word
        self.memo = memo
        self.index = index
        self._cyclic: CyclicWord | None = None

    @property
    def cyclic(self) -> CyclicWord:
        """The word with its reduced prefixes, for splicing."""
        if self._cyclic is None:
            self._cyclic = CyclicWord(self.word)
        return self._cyclic


class SpliceMemo:
    """The canonical words spliced from one family of words, each known by
    its index in the family and by the trie nodes of its reduced prefixes.

    A splice is keyed by the prefix nodes ``at`` of its cuts
    (:class:`CyclicWord`), which name reduced prefixes exactly.  For ``0 <=
    s < n`` in a word ``w`` of ``n`` letters, the reduced rotation at ``s``
    is ``P_s^-1 P_{s+n}`` with ``P_{s+n} = red(red(w) P_s)``, so it depends
    on ``at[s]`` alone: every cut that leaves the word at one reduced
    prefix, such as the transits of one passage through a star, splices one
    word.  ``rotations`` maps ``(i, at_i[s])`` to the reduced rotation of
    word ``i`` at ``s``.  ``spliced`` maps a graft ``(i, at_i[s], j,
    at_j[t])``, rotation ``s`` of word ``i`` followed by rotation ``t`` of
    word ``j``, and a split ``(i, at_i[start], at_i[start + length])``, a
    cyclic segment of word ``i``, to its canonical word; the two key shapes
    are disjoint.  Each is worked out on first use.  Keys stay ordered: the
    grafts of ``(u, s, v, t)`` and ``(v, t, u, s)`` name one class but are
    spliced apart.  The memo holds only integers and tuples, so the words
    that share it make no reference cycle.
    """

    __slots__ = ("rotations", "spliced")

    def __init__(self):
        self.rotations: dict[tuple[int, int], tuple[int, ...]] = {}
        self.spliced: dict[tuple[int, ...], tuple[int, ...]] = {}

    def graft(self, u: FamilyWord, s: int, v: FamilyWord, t: int) -> tuple[int, ...]:
        """Canonical word of ``u`` from letter ``s`` on, then ``v`` from
        letter ``t`` on, for words ``u`` and ``v`` of this family and ``0 <=
        s < len(u.word)``, ``0 <= t < len(v.word)``."""
        cu, cv = u._cyclic or u.cyclic, v._cyclic or v.cyclic
        i, x, j, y = u.index, cu._at[s], v.index, cv._at[t]
        key = (i, x, j, y)
        word = self.spliced.get(key)
        if word is None:
            rotations = self.rotations
            left = rotations.get((i, x))
            if left is None:
                left = rotations[i, x] = cu.segment(s, len(cu.word))
            right = rotations.get((j, y))
            if right is None:
                right = rotations[j, y] = cv.segment(t, len(cv.word))
            word = self.spliced[key] = join_canonical(left, right)
        return word

    def split(self, u: FamilyWord, start: int, length: int) -> tuple[int, ...]:
        """Canonical word of the ``length`` letters of ``u``, a word of this
        family, from ``start`` on, read cyclically, for ``0 <= start <
        len(u.word)`` and ``0 <= length <= len(u.word)``."""
        cu = u._cyclic or u.cyclic
        at = cu._at
        key = (u.index, at[start], at[start + length])
        word = self.spliced.get(key)
        if word is None:
            word = self.spliced[key] = join_canonical(cu.segment(start, length), ())
        return word


def join_canonical(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """``canonical(u + v)`` for freely reduced words ``u`` and ``v``: cancel
    at the junction, reduce cyclically, and take the least of the
    rotations that start at the smallest letter.

    >>> join_canonical((4, 2), (3, 5, 0))
    (0,)
    >>> join_canonical((6, 2), (9,))
    (2, 9, 6)
    """
    n = 0
    top = len(u)
    while n < top and n < len(v) and u[top - 1 - n] == v[n] ^ 1:
        n += 1
    w = u[: top - n] + v[n:] if n else u + v
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == w[hi - 1] ^ 1:
        lo += 1
        hi -= 1
    if lo:
        w = w[lo:hi]
    if len(w) <= 1:
        return w
    least = min(w)
    i = w.index(least)
    best = w[i:] + w[:i]
    for _ in range(w.count(least) - 1):
        i = w.index(least, i + 1)
        rotation = w[i:] + w[:i]
        if rotation < best:
            best = rotation
    return best


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
