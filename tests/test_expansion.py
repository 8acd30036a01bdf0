"""The expansion of a star into its gate configuration, checked from the
outside: the crossed gates' crossings rebuilt from the raw transits, the
gates a configuration lists, and the work one expansion does."""

import functools
import random
import re
from fractions import Fraction

import pytest
from conftest import torus_grid

from loopcalc import stars
from loopcalc.closed import build_from_graph, from_triangulation
from loopcalc.fuzz import random_loop_pair, random_move, surface_from_spec
from loopcalc.gates import GateCalculusError, GateCrossing, raw_config_from_json
from loopcalc.loops import CombinatorialLoop, LoopError, Transit, apply_move
from loopcalc.stars import expand_to_gates, prepare_loops
from loopcalc.words import IN, OUT


@functools.lru_cache(maxsize=None)
def surface_of(name):
    if name == "torus":
        return build_from_graph(from_triangulation(torus_grid(3))).surface
    return surface_from_spec(name)[0]


def moved_pairs(surface, seed, count=6, moves=6):
    """Fuzz pairs, made generic by ``make_generic``, then moved so that
    inserted and repositioned transits sit at positions with denominators
    other than 1; a pair whose moves made it share a point is skipped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        loops = dict(zip("ab", random_loop_pair(surface, rng)))
        for _ in range(moves):
            name = rng.choice("ab")
            try:
                loops[name] = apply_move(surface, loops[name], random_move(surface, loops[name], rng))
            except LoopError:
                continue
        points = [{(t.star, t.edge, t.pos) for t in loop.transits} for loop in loops.values()]
        if not points[0] & points[1]:
            out.append(loops)
    return out


def expected_crossings(star, loops):
    """Each gate's crossings as ``(gate, eps, owner, letter_index, slot)``,
    rebuilt from the raw transits by the convention of :mod:`loopcalc.stars`.
    A transit ``i`` across edge ``e`` with sign ``s`` owns letters ``2i``
    (entry) and ``2i + 1`` (exit); it crosses gate ``(star, e)`` with sign
    ``s``, entering there when ``s`` is ``+1``, and gate ``(star, e-)``
    with sign ``-s``.  Along gate ``(star, e)`` come first the transits
    across ``e`` by decreasing position, then those across ``e+`` by
    increasing position."""

    def across(edge):
        return [
            (t.pos, owner, i, t.sign)
            for owner, loop in loops.items()
            for i, t in enumerate(loop.transits)
            if (t.star, t.edge) == (star.id, edge)
        ]

    out = {}
    for e in range(star.edge_count):
        gate = (star.id, e)
        near = [
            (gate, sign, owner, 2 * i if sign > 0 else 2 * i + 1)
            for _, owner, i, sign in sorted(across(e), reverse=True)
        ]
        far = [
            (gate, -sign, owner, 2 * i + 1 if sign > 0 else 2 * i)
            for _, owner, i, sign in sorted(across(star.succ(e)))
        ]
        out[gate] = [row + (slot,) for slot, row in enumerate(near + far)]
    return out


@pytest.mark.parametrize("name", ["g1b1", "g2b1", "torus"])
def test_expansion_matches_the_raw_transits(name):
    """A configuration lists exactly the gates next to a crossed edge, in
    gate order, each with the rows rebuilt from the raw transits; every
    other gate of the star reads ``()``, and a gate of no star of it is
    unknown."""
    surface = surface_of(name)
    table = surface.letter_table()
    pairs = moved_pairs(surface, seed=name)
    assert any(
        t.pos.denominator != 1 for loops in pairs for loop in loops.values() for t in loop.transits
    )
    unlisted = 0
    for loops in pairs:
        prepared = prepare_loops(surface, loops)
        for star in surface.stars:
            config = expand_to_gates(surface, star.id, prepared)
            expected = expected_crossings(star, loops)
            crossed = {
                t.edge for loop in loops.values() for t in loop.transits if t.star == star.id
            }
            beside = sorted({(star.id, g) for e in crossed for g in (e, star.pred(e))})
            assert list(config.crossings) == beside
            for gate, rows in expected.items():
                got = config.gate_crossings(gate)
                assert [
                    (c.gate, c.eps, c.owner, c.letter_index, c.slot) for c in got
                ] == rows
                assert bool(rows) == (gate in beside)
                if gate not in beside:
                    unlisted += 1
                    assert got == () and config.gate_crossings(gate, "a") == ()
                # Each crossing's letter is its gate, entered when eps is +1.
                for c in got:
                    word = prepared[c.owner].word
                    assert table.decode(word[c.letter_index]) == (gate, IN if c.eps > 0 else OUT)
            others = [(s.id, 0) for s in surface.stars if s.id != star.id] + [("no-star", 0)]
            for gate in [(star.id, star.edge_count), (star.id, -1), *others]:
                with pytest.raises(GateCalculusError, match=re.escape(f"unknown gate {gate!r}")):
                    config.gate_crossings(gate)
    assert unlisted > 0


def test_a_raw_configuration_lists_every_gate_with_its_own_signs():
    """The raw parser keeps every gate it is given, crossed or not, and the
    ``eps_omega`` of each."""
    config = raw_config_from_json(
        {
            "gates": [
                {
                    "id": "g1",
                    "eps_omega": -1,
                    "crossings": [
                        {"owner": "a", "eps": 1, "slot": 0, "link": {"gate": "g2", "slot": 0}},
                    ],
                },
                {"id": "g0", "eps_omega": -1},
                {
                    "id": "g2",
                    "crossings": [
                        {"owner": "a", "eps": -1, "slot": 0, "link": {"gate": "g1", "slot": 0}},
                    ],
                },
            ]
        }
    )
    assert list(config.crossings) == ["g1", "g0", "g2"]
    assert config.crossings["g0"] == config.gate_crossings("g0") == ()
    assert config.gates == ("g0", "g1", "g2")
    assert config.base_omega == {"g1": -1, "g0": -1, "g2": 1}
    with pytest.raises(GateCalculusError, match="unknown gate 'g3'"):
        config.gate_crossings("g3")


def test_configuration_lists_every_gate_and_its_crossings_are_immutable():
    # The fuzzer draws one random sign per listed gate, so its stream
    # depends on every gate being listed, crossed or not.
    surface = surface_of("g2b1")
    (loops,) = moved_pairs(surface, seed=3, count=1)
    (star,) = surface.stars
    for family in (loops, {"a": loops["a"]}):
        config = expand_to_gates(surface, star.id, prepare_loops(surface, family))
        assert config.gates == tuple((star.id, e) for e in range(star.edge_count))
    # The lone loop leaves some gate uncrossed.
    assert any(not config.gate_crossings(gate) for gate in config.gates)
    crossing = next(c for gate in config.gates for c in config.gate_crossings(gate))
    assert isinstance(crossing, GateCrossing)
    with pytest.raises(AttributeError):
        crossing.eps = -crossing.eps
    with pytest.raises(AttributeError):
        crossing.extra = 1


def test_expansion_sorts_each_crossed_edge_once(monkeypatch):
    """Each edge crossed more than once is sorted once, each of its rows
    keyed once by an integer; an edge crossed once is not sorted."""
    sorts = []  # the rows keyed by each sort, one list per sort key made
    position_key = stars._position_key

    def counting_position_key(rows):
        keyed = []
        sorts.append(keyed)
        inner = position_key(rows)

        def key(row):
            keyed.append(row)
            value = inner(row)
            assert type(value) is int
            return value

        return key

    monkeypatch.setattr(stars, "_position_key", counting_position_key)
    surface = surface_of("torus")
    sorted_edges = 0
    for loops in moved_pairs(surface, seed=5, count=3):
        prepared = prepare_loops(surface, loops)
        for star in surface.stars:
            sorts.clear()
            expand_to_gates(surface, star.id, prepared)
            crossed = {}
            for loop in loops.values():
                for t in loop.transits:
                    if t.star == star.id:
                        crossed[t.edge] = crossed.get(t.edge, 0) + 1
            assert sorted(map(len, sorts)) == sorted(n for n in crossed.values() if n > 1)
            sorted_edges += len(sorts)
    assert sorted_edges > 0


def test_a_generic_family_is_not_checked_point_by_point(monkeypatch):
    """Neither route finds a shared point in a generic family, so neither
    runs the point-by-point disjointness check on it: not the gate route,
    which compares neighbouring rows of each sorted edge, and not the star
    bracket or the star-route cobracket of a family, which compare the
    points of the edges two loops both cross."""
    calls = []
    check = stars._check_disjoint

    def counting_check(star, loops):
        calls.append(star.id)
        return check(star, loops)

    monkeypatch.setattr(stars, "_check_disjoint", counting_check)
    for name in ("g1b1", "g2b1", "torus"):
        surface = surface_of(name)
        for loops in moved_pairs(surface, seed=name, count=3):
            for op in ("form", "bracket", "cobracket"):
                stars.aggregate(surface, loops, op, method="gate")
                stars.aggregate(surface, loops, op, method="star")
            assert calls == []


def test_the_first_clash_in_loop_order_is_named():
    """Three copies of ``x1`` on ``g1b1`` (edge 0, then edge 3): ``b``
    shares a point with ``a`` on edge 3 and ``c`` one on edge 0, so the
    first clash in sorted position order is ``c``'s, but the error names
    the first in loop order, ``b``'s."""
    surface = surface_of("g1b1")

    def x1_at(pos0, pos3):
        return CombinatorialLoop(
            (Transit("s", 0, 1, Fraction(pos0)), Transit("s", 3, 1, Fraction(pos3)))
        )

    loops = {"a": x1_at(1, 5), "b": x1_at(2, 5), "c": x1_at(1, 3)}
    message = "loops 'a' and 'b' share point edge=3 pos=5 on star s"
    with pytest.raises(LoopError) as raised:
        expand_to_gates(surface, "s", prepare_loops(surface, loops))
    assert str(raised.value) == message
    for op in ("form", "bracket", "cobracket"):
        with pytest.raises(LoopError) as raised:
            stars.aggregate(surface, loops, op, method="gate")
        assert str(raised.value) == message
    # The star bracket reads a and b; the star cobracket checks the family.
    for op in ("bracket", "cobracket"):
        with pytest.raises(LoopError) as raised:
            stars.aggregate(surface, loops, op, method="star")
        assert str(raised.value) == message


def test_a_clash_on_a_star_the_split_loop_never_crosses_is_named():
    """On the 3x3 torus, ``c`` is ``b`` moved off every point except on one
    star that ``a`` never crosses: the star-route cobracket of the family
    still finds the clash there, and names ``c``'s first point in loop
    order, as the gate route does; the bracket of ``a`` and ``b`` does not
    read ``c``."""
    surface = surface_of("torus")
    rng = random.Random(13)
    while True:
        a, b = random_loop_pair(surface, rng, 12)
        crossed = {t.star for t in a.transits}
        missed = [t.star for t in b.transits if t.star not in crossed]
        if crossed and missed:
            break
    star = missed[0]
    shift = Fraction(1, 1009)
    c = CombinatorialLoop(
        tuple(
            t if t.star == star else Transit(t.star, t.edge, t.sign, t.pos + shift)
            for t in b.transits
        ),
        b.anchor,
    )
    loops = {"a": a, "b": b, "c": c}
    points = {
        name: {(t.star, t.edge, t.pos) for t in loop.transits} for name, loop in loops.items()
    }
    assert not points["a"] & (points["b"] | points["c"])
    assert {s for s, _, _ in points["b"] & points["c"]} == {star}
    first = next(t for t in c.transits if t.star == star)
    message = f"loops 'b' and 'c' share point edge={first.edge} pos={first.pos} on star {star}"
    for method in ("star", "gate"):
        with pytest.raises(LoopError) as raised:
            stars.aggregate(surface, loops, "cobracket", method=method)
        assert str(raised.value) == message
    stars.aggregate(surface, loops, "bracket", method="star")
