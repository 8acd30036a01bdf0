"""Pure-Python kernel for reduced cyclic words.

Words are sequences of nonnegative integer letters.  Letters come in
inverse pairs: the inverse of ``x`` is ``x ^ 1``, so ``(2k, 2k + 1)`` are a
generator/inverse pair.  Lexicographic order on the integers is the
canonical letter order.
"""

from __future__ import annotations

from typing import Sequence


def reduce_word(word: Sequence[int]) -> list[int]:
    """Freely reduce a linear word.

    >>> reduce_word([0, 2, 3, 1])
    []
    >>> reduce_word([0, 3, 2, 0])
    [0, 0]
    """
    out: list[int] = []
    for x in word:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return out


def cyclic_reduce(word: Sequence[int]) -> list[int]:
    """Freely reduce a word regarded as cyclic (reduction across the wrap).

    >>> cyclic_reduce([1, 2, 3, 0])
    []
    >>> cyclic_reduce([1, 4, 2, 3, 0])
    [4]
    """
    out = reduce_word(word)
    lo, hi = 0, len(out)
    while hi - lo >= 2 and out[lo] == out[hi - 1] ^ 1:
        lo += 1
        hi -= 1
    return out[lo:hi]


def least_rotation(word: Sequence[int]) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm).

    >>> least_rotation([2, 0, 1])
    1
    >>> least_rotation([0, 0, 1, 0])
    3
    """
    n = len(word)
    if n <= 1:
        return 0
    s = list(word) + list(word)
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def canonical(word: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of a cyclic word: reduce cyclically, then rotate to
    the lexicographically least rotation.

    >>> canonical([5, 2, 0, 1, 4])
    (2,)
    >>> canonical([4, 7, 2])
    (2, 4, 7)
    >>> canonical([0, 1])
    ()
    """
    w = cyclic_reduce(word)
    r = least_rotation(w)
    return tuple(w[r:] + w[:r])
