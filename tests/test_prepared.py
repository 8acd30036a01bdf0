"""Prepared loops: a public call validates each loop once and encodes it at
most once, whatever the number of stars, and only when it splices; every
per-star function gives the same value on a prepared loop as on the raw
loop."""

import random

import pytest
from conftest import torus_grid

from loopcalc import gates
from loopcalc import loops as loopmod
from loopcalc import stars
from loopcalc.closed import build_from_graph, from_triangulation
from loopcalc.fuzz import random_loop_pair
from loopcalc.loops import LoopError, inverse_loop


@pytest.fixture(scope="module")
def torus_pairs():
    """Seeded loop pairs on the 25- and 64-star triangulated tori."""
    out = []
    rng = random.Random(5)
    for n in (5, 8):
        surface = build_from_graph(from_triangulation(torus_grid(n))).surface
        assert len(surface.stars) == n * n
        out += [(surface, *random_loop_pair(surface, rng, 16)) for _ in range(3)]
    return out


@pytest.fixture
def counts(monkeypatch):
    """The ids of the loops passed to the validator (as held by ``stars``)
    and to the encoder, one entry per call."""
    seen = {"validate": [], "encode": []}

    def counting(kind, fn):
        def wrapper(surface, loop):
            seen[kind].append(id(loop))
            return fn(surface, loop)

        return wrapper

    monkeypatch.setattr(stars, "require_valid_loop", counting("validate", stars.require_valid_loop))
    monkeypatch.setattr(loopmod, "encoded_word", counting("encode", loopmod.encoded_word))
    return seen


@pytest.mark.parametrize("method", ["star", "gate"])
@pytest.mark.parametrize("op", ["form", "bracket", "cobracket"])
def test_aggregate_validates_each_loop_once(torus_pairs, counts, op, method):
    for surface, a, b in torus_pairs:
        loops = {"a": a} if op == "cobracket" else {"a": a, "b": b}
        counts["validate"].clear()
        counts["encode"].clear()
        stars.aggregate(surface, loops, op, method)
        ids = sorted(id(loop) for loop in loops.values())
        assert sorted(counts["validate"]) == ids
        assert len(counts["encode"]) == len(set(counts["encode"]))
        if op == "form":
            assert counts["encode"] == []


def test_gate_configuration_encodes_on_first_splice(torus_pairs, counts):
    """A configuration reads a loop's word on its first splice: the form
    encodes nothing, and each loop a bracket or cobracket splices is
    encoded once, however many stars and gates splice it."""
    for surface, a, b in torus_pairs:
        loops = stars.prepare_loops(surface, {"a": a, "b": b})
        configs = [stars.expand_to_gates(surface, star.id, loops) for star in surface.stars]
        counts["encode"].clear()
        for config in configs:
            gates.form(config)
        assert counts["encode"] == []
        for config in configs:
            gates.bracket(config)
            gates.cobracket(config, "a")
            gates.cobracket(config, "b")
        spliced = {owner for config in configs for owner in config.words.loaded}
        assert sorted(counts["encode"]) == sorted(id(loops[owner].loop) for owner in spliced)
        assert all(config.words["a"] == loops["a"].word for config in configs)


def test_per_star_values_same_on_prepared_loops(torus_pairs):
    for surface, a, b in torus_pairs:
        pa, pb = stars.prepare_loop(surface, a), stars.prepare_loop(surface, b)
        assert stars.prepare_loop(surface, pa) is pa
        for star in surface.stars:
            s = star.id
            assert stars.edge_counts(surface, s, pa) == stars.edge_counts(surface, s, a)
            assert stars.star_form(surface, s, pa, pb) == stars.star_form(surface, s, a, b)
            assert stars.star_bracket(surface, s, pa, pb) == stars.star_bracket(surface, s, a, b)
            assert stars.star_cobracket(surface, s, pa) == stars.star_cobracket(surface, s, a)
            raw = stars.expand_to_gates(surface, s, {"a": a, "b": b})
            prepared = stars.expand_to_gates(surface, s, {"a": pa, "b": pb})
            assert (raw.crossings, raw.words) == (prepared.crossings, prepared.words)


def test_splices_same_on_prepared_loops(torus_pairs):
    surface, a, b = torus_pairs[0]
    pa, pb = stars.prepare_loop(surface, a), stars.prepare_loop(surface, b)
    for p in range(len(a)):
        for q in range(len(b)):
            if a.transits[p].star == b.transits[q].star:
                assert loopmod.graft(surface, pa, p, pb, q) == loopmod.graft(surface, a, p, b, q)
        for p2 in range(len(a)):
            if p2 != p and a.transits[p2].star == a.transits[p].star:
                assert loopmod.subloop(surface, pa, p, p2) == loopmod.subloop(surface, a, p, p2)


def test_first_shared_point_in_loop_order():
    """The disjointness check reports the clash that comes first along the
    later loop, not the one on the lowest edge."""
    surface = build_from_graph(from_triangulation(torus_grid(3))).surface
    rng = random.Random(2)
    checked = 0
    for _ in range(40):
        a, _ = random_loop_pair(surface, rng, 12)
        b = inverse_loop(a)
        for star in {t.star for t in a.transits}:
            mine = [(i, t) for i, t in enumerate(b.transits) if t.star == star]
            first = mine[0][1]
            with pytest.raises(LoopError) as info:
                stars.expand_to_gates(surface, star, {"a": a, "b": b})
            assert str(info.value) == (
                f"loops 'a' and 'b' share point edge={first.edge} pos={first.pos} on star {star}"
            )
            checked += min(t.edge for _, t in mine) < first.edge
    assert checked > 0
