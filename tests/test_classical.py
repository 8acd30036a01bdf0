"""Classical values checked against the reference kernel, not the splice
memo: for simple loops ``x1`` and ``y1`` meeting once, Goldman's bracket
(W. Goldman, Invariant functions on Lie groups and Hamiltonian flows of
surface group representations, Invent. Math. 85, 1986) of their powers
has one term, and Turaev's cobracket (V. Turaev, Skein quantization of
Poisson algebras of loops on surfaces, Ann. Sci. ENS 24, 1991) vanishes on
every power of a simple loop."""

import itertools

import pytest

from loopcalc.algebra import FormalSum
from loopcalc.fuzz import surface_from_spec
from loopcalc.loops import compile_word, make_generic, to_class
from loopcalc.stars import aggregate

POWERS = range(1, 6)


@pytest.mark.parametrize("method", ["star", "gate"])
@pytest.mark.parametrize("spec", ["g1b1", "g2b1"])
def test_powers_of_loops_meeting_once(spec, method):
    """The halved bracket ``[x1^p, y1^q]`` is ``p*q <x1^p y1^q>``, with the
    class read by ``to_class``, and the halved cobracket of ``x1^p`` is
    ``0``."""
    surface, generators = surface_from_spec(spec)

    def power(name, k):
        return compile_word(surface, generators, [name] * k)

    for p, q in itertools.product(POWERS, repeat=2):
        a, b = make_generic(surface, [power("x1", p), power("y1", q)])
        product = compile_word(surface, generators, ["x1"] * p + ["y1"] * q)
        expected = FormalSum({to_class(surface, product): p * q})
        assert aggregate(surface, {"a": a, "b": b}, "bracket", method).halved == expected, (p, q)
    for p in POWERS:
        assert aggregate(surface, {"a": power("x1", p)}, "cobracket", method).halved.is_zero, p
