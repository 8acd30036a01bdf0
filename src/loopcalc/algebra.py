"""Free homotopy classes and integer combinations of them.

:class:`HomotopyClass` is a canonically reduced cyclic word over directed
gate letters (minimal rotation, no letter followed by its inverse, also
across the wrap).  The empty word is the class of contractible loops.

:class:`FormalSum` and :class:`TensorSum` are finitely supported integer
maps on classes and on ordered class pairs; zero coefficients are never
stored.  Keys only need to be hashable and sortable, so the closed-surface
module reuses both containers for its own normalized classes.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Tuple

Letter = Tuple[Hashable, int]  # (gate key, direction IN=0 / OUT=1)


@dataclass(frozen=True, order=True)
class HomotopyClass:
    """A free homotopy class, stored as its canonical cyclic gate word.

    Its hash is computed on first use and kept in the ``_hash`` slot, outside
    the instance dict, so ``vars`` shows only ``letters``.  A copy, a
    pickle or :func:`dataclasses.replace` carries only the letters
    (``__getstate__``) and hashes afresh: string hashes differ between
    processes.
    """

    __slots__ = ("__dict__", "_hash")

    letters: tuple[Letter, ...]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.letters,))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        return {"letters": self.letters}

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def to_json(self) -> list[dict]:
        return letters_json(self.letters)


def letters_json(letters: Iterable[Letter]) -> list[dict]:
    """Directed gate letters as JSON objects: ``star`` and ``edge`` for a
    star gate, ``gate`` for a raw one, and ``dir`` ``"in"`` or ``"out"``."""
    out = []
    for gate, direction in letters:
        side = "in" if direction == 0 else "out"
        if isinstance(gate, tuple):
            star, edge = gate
            out.append({"star": star, "edge": edge, "dir": side})
        else:
            out.append({"gate": gate, "dir": side})
    return out


TRIVIAL_CLASS = HomotopyClass(())


class FormalSum:
    """Finitely supported integer combination of hashable keys.

    No method changes a sum in place: each operation returns a new sum.
    So one empty sum can stand for zero in many places at once (the star
    route shares one for every star that gets no term)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        acc: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                acc[key] = acc.get(key, 0) + coeff
        # Drop zeros in place: a new dict would hash every key again.
        for key in [k for k, c in acc.items() if c == 0]:
            del acc[key]
        self._terms = acc

    @classmethod
    def _of(cls, terms: dict) -> "FormalSum":
        """The sum whose terms are ``terms`` as given: every key once, no
        zero coefficient.  The arithmetic builds each result dict once and
        hands it over here, so nothing is added up or hashed again."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key) -> int:
        return self._terms.get(key, 0)

    def items(self) -> Iterator[tuple]:
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0]))

    def keys(self):
        return self._terms.keys()

    def coefficients(self):
        return self._terms.values()

    @classmethod
    def sum_of(cls, parts: Iterable["FormalSum"]) -> "FormalSum":
        """Sum of many formal sums, collected in one accumulator."""
        return cls(term for part in parts for term in part._terms.items())

    def _plus(self, other: "FormalSum", sign: int) -> "FormalSum":
        merged = dict(self._terms)
        for k, c in other._terms.items():
            c = merged.get(k, 0) + sign * c
            if c:
                merged[k] = c
            else:
                del merged[k]
        return type(self)._of(merged)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return self._plus(other, 1)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self._plus(other, -1)

    def __neg__(self) -> "FormalSum":
        return type(self)._of({k: -c for k, c in self._terms.items()})

    def __rmul__(self, scalar: int) -> "FormalSum":
        if not scalar:
            return type(self)._of({})
        return type(self)._of({k: scalar * c for k, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{c}*{k}" for k, c in self.items())
        return f"{type(self).__name__}({body})"

    def all_even(self) -> bool:
        return all(c % 2 == 0 for c in self._terms.values())

    def halved(self) -> "FormalSum":
        if not self.all_even():
            raise ValueError("formal sum has an odd coefficient, cannot halve")
        return type(self)._of({k: c // 2 for k, c in self._terms.items()})

    def total(self) -> int:
        """Signed sum of all coefficients."""
        return sum(self._terms.values())

    def to_json(self) -> list[dict]:
        out = []
        for key, coeff in self.items():
            out.append({"class": _key_json(key), "coeff": coeff})
        return out


class TensorSum(FormalSum):
    """Integer combination of ordered pairs of classes."""

    def transpose(self) -> "TensorSum":
        """Apply the factor-swapping automorphism to every term."""
        return TensorSum._of({(right, left): c for (left, right), c in self._terms.items()})

    def to_json(self) -> list[dict]:
        out = []
        for (left, right), coeff in self.items():
            out.append({"left": _key_json(left), "right": _key_json(right), "coeff": coeff})
        return out


def decoded(table, terms: Mapping, pairs: bool = False) -> FormalSum:
    """The nonzero terms of a sum keyed by canonical integer words, or with
    ``pairs`` by ``(left, right)`` pairs of them, as a :class:`FormalSum`
    or :class:`TensorSum` of classes.  ``table`` is the
    :class:`~loopcalc.words.LetterTable` of the words, and each distinct
    word becomes one :class:`HomotopyClass`."""
    classes: dict = {}

    def cls(word):
        value = classes.get(word)
        if value is None:
            value = classes[word] = HomotopyClass(table.decode_word(word))
        return value

    if pairs:
        return TensorSum._of(
            {(cls(left), cls(right)): c for (left, right), c in terms.items() if c}
        )
    return FormalSum._of({cls(word): c for word, c in terms.items() if c})


def _key_json(key):
    return key.to_json() if hasattr(key, "to_json") else repr(key)
