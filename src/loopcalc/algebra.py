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

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping, Tuple

Letter = Tuple[Hashable, int]  # (gate key, direction IN=0 / OUT=1)


@dataclass(frozen=True, order=True)
class HomotopyClass:
    """A free homotopy class, stored as its canonical cyclic gate word."""

    letters: tuple[Letter, ...]

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def to_json(self) -> list[dict]:
        out = []
        for gate, direction in self.letters:
            if isinstance(gate, tuple):
                star, edge = gate
                out.append({"star": star, "edge": edge, "dir": "in" if direction == 0 else "out"})
            else:
                out.append({"gate": gate, "dir": "in" if direction == 0 else "out"})
        return out


TRIVIAL_CLASS = HomotopyClass(())


class FormalSum:
    """Finitely supported integer combination of hashable keys."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        acc: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                acc[key] = acc.get(key, 0) + coeff
        self._terms = {k: c for k, c in acc.items() if c != 0}

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

    def __add__(self, other: "FormalSum") -> "FormalSum":
        merged = dict(self._terms)
        for k, c in other._terms.items():
            merged[k] = merged.get(k, 0) + c
        return type(self)(merged)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __neg__(self) -> "FormalSum":
        return type(self)({k: -c for k, c in self._terms.items()})

    def __rmul__(self, scalar: int) -> "FormalSum":
        return type(self)({k: scalar * c for k, c in self._terms.items()})

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
        return type(self)({k: c // 2 for k, c in self._terms.items()})

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
        return TensorSum({(right, left): c for (left, right), c in self._terms.items()})

    def to_json(self) -> list[dict]:
        out = []
        for (left, right), coeff in self.items():
            out.append({"left": _key_json(left), "right": _key_json(right), "coeff": coeff})
        return out


def _key_json(key):
    return key.to_json() if hasattr(key, "to_json") else repr(key)


def singleton(key, coeff: int = 1) -> FormalSum:
    return FormalSum({key: coeff})
