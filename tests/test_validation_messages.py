"""Exact loop-validation reports: every kind of problem, its text and the
order of the three kinds (transit lookups, shared points, region chain),
and the :class:`~loopcalc.loops.LoopError` text that joins them."""

from fractions import Fraction

import pytest

from loopcalc.loops import CombinatorialLoop, LoopError, Transit, require_valid_loop, validate_loop
from loopcalc.surface import canonical_surface


def loop(*transits, anchor=None):
    return CombinatorialLoop(
        tuple(Transit(s, e, sign, Fraction(pos)) for s, e, sign, pos in transits), anchor=anchor
    )


# On g1b1: one star "s" with edges 0..3; region r0 holds gates 0 and 2,
# region r1 gates 1 and 3.
CASES = {
    "unknown star": (
        loop(("s", 0, 1, 1), ("q", 0, 1, 1), ("s", 2, -1, 1)),
        ("transit 1: unknown star 'q'",),
    ),
    "edge out of range": (
        loop(("s", 4, 1, 1), ("s", -1, 1, 1)),
        (
            "transit 0: edge 4 out of range for star s",
            "transit 1: edge -1 out of range for star s",
        ),
    ),
    "bad sign": (
        loop(("s", 0, 0, 1), ("s", 1, 2, 1)),
        ("transit 0: sign 0 is not +1/-1", "transit 1: sign 2 is not +1/-1"),
    ),
    "edge out of range and bad sign": (
        loop(("s", 9, 3, 1)),
        ("transit 0: edge 9 out of range for star s", "transit 0: sign 3 is not +1/-1"),
    ),
    "edge not on its star": (
        loop(("s", 0.5, 1, 1)),
        ("transit 0: edge 0.5 is not an edge of star s",),
    ),
    "transit problems hide the others": (
        loop(("s", 0, 1, 1), ("s", 0, 1, 1), ("q", 0, 1, 1), ("s", 1, 5, 1)),
        ("transit 2: unknown star 'q'", "transit 3: sign 5 is not +1/-1"),
    ),
    "three transits on one point": (
        loop(("s", 0, 1, "1/2"), ("s", 0, -1, "1/2"), ("s", 0, 1, "2/4"), ("s", 0, -1, 1)),
        (
            "transits 0 and 1 share point (star=s, edge=0, pos=1/2)",
            "transits 1 and 2 share point (star=s, edge=0, pos=1/2)",
        ),
    ),
    "shared point before region chain": (
        loop(("s", 0, 1, 1), ("s", 0, 1, 1)),
        (
            "transits 0 and 1 share point (star=s, edge=0, pos=1)",
            "transits 0 -> 1: exit region r1 != entry region r0",
            "transits 1 -> 0: exit region r1 != entry region r0",
        ),
    ),
    "region chain": (
        loop(("s", 0, 1, 1), ("s", 0, 1, 2)),
        (
            "transits 0 -> 1: exit region r1 != entry region r0",
            "transits 1 -> 0: exit region r1 != entry region r0",
        ),
    ),
    "region chain wrapping around": (
        loop(("s", 0, 1, 1), ("s", 1, 1, 1), ("s", 2, 1, 1)),
        ("transits 2 -> 0: exit region r1 != entry region r0",),
    ),
    "empty loop without anchor": (loop(), ("empty loop has no anchor region",)),
    "empty loop in an unknown region": (
        loop(anchor="nope"),
        ("empty loop anchored in unknown region 'nope'",),
    ),
}


@pytest.fixture(scope="module")
def torus1():
    return canonical_surface(1, 1)[0]


@pytest.mark.parametrize("case", CASES)
def test_validation_report_and_error_text(torus1, case):
    bad, problems = CASES[case]
    assert validate_loop(torus1, bad).problems == problems
    with pytest.raises(LoopError) as info:
        require_valid_loop(torus1, bad)
    assert str(info.value) == "; ".join(problems)


def test_valid_loops_have_no_problems(torus1):
    for good in (loop(("s", 0, 1, 1), ("s", 3, 1, 1)), loop(anchor="r0")):
        assert validate_loop(torus1, good).problems == ()
        require_valid_loop(torus1, good)
