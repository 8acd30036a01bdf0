"""Prepared loops: a prepared loop is a validated loop, and a public call
validates each loop once and encodes it at most once, in the same scan,
whatever the number of stars."""

import gc
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import torus_grid

from loopcalc import fuzz, gates
from loopcalc import loops as loopmod
from loopcalc import stars, words
from loopcalc import closed
from loopcalc.closed import build_from_graph, canonical_filling_graph, from_triangulation
from loopcalc.fuzz import random_loop_pair
from loopcalc.loops import LoopError, PreparedLoop, Transit, inverse_loop
from loopcalc.words import SpliceMemo


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
    """The ids of the loops passed to the validator and to the encoder, one
    entry per call."""
    seen = {"validate": [], "encode": []}

    def counting(kind, fn):
        def wrapper(surface, loop):
            seen[kind].append(id(loop))
            return fn(surface, loop)

        return wrapper

    validate = counting("validate", loopmod.require_valid_loop)
    monkeypatch.setattr(loopmod, "require_valid_loop", validate)
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


def test_gate_configuration_encodes_on_first_splice(torus_pairs, counts, monkeypatch):
    """Each loop is encoded once, in its scan: the configurations encode
    nothing and hold the prepared loops as their words, the form makes no
    cyclic word, and each loop a bracket or cobracket splices makes its
    cyclic word once, however many stars and gates splice it."""
    made = []
    original = words.CyclicWord

    def counting(word):
        made.append(original(word))
        return made[-1]

    monkeypatch.setattr(words, "CyclicWord", counting)
    for surface, a, b in torus_pairs:
        counts["validate"].clear()
        counts["encode"].clear()
        made.clear()
        loops = stars.prepare_loops(surface, {"a": a, "b": b})
        assert sorted(counts["validate"]) == sorted([id(a), id(b)])
        configs = [stars.expand_to_gates(surface, star.id, loops) for star in surface.stars]
        for config in configs:
            assert all(config.words[owner] is loop for owner, loop in loops.items())
            gates.form(config)
        assert made == []
        for config in configs:
            gates.bracket(config)
            gates.cobracket(config, "a")
            gates.cobracket(config, "b")
        assert counts["encode"] == []
        assert sorted(counts["validate"]) == sorted([id(a), id(b)])
        assert made
        by_word = {id(loop.word): loop for loop in loops.values()}
        assert len({id(cyclic.word) for cyclic in made}) == len(made)
        for cyclic in made:
            assert by_word[id(cyclic.word)].cyclic is cyclic


def test_methods_agree_validates_each_loop_once_per_route(torus_pairs, counts):
    surface, a, b = torus_pairs[0]
    stars.methods_agree(surface, {"a": a, "b": b}, "bracket")
    assert sorted(counts["validate"]) == sorted([id(a), id(b)] * 2)


def test_fuzz_checks_read_the_prepared_pair(torus_pairs, counts):
    """The shadow check and the move check's baseline read the words that
    :func:`~loopcalc.fuzz.fuzz_pair` prepared: each loop of the pair is
    validated once and encoded at most once."""
    for surface, a, b in torus_pairs:
        counts["validate"].clear()
        counts["encode"].clear()
        pair = fuzz.fuzz_pair(surface, a, b)
        assert fuzz.shadow_failures(pair) == []
        assert fuzz.move_invariance_failures(pair, random.Random(0), steps=0) == []
        for loop in (a, b):
            assert counts["validate"].count(id(loop)) == 1
            assert counts["encode"].count(id(loop)) <= 1


def test_build_from_graph_validates_each_relator_once(monkeypatch, counts):
    monkeypatch.setattr(closed, "require_valid_loop", loopmod.require_valid_loop)
    spec = canonical_filling_graph(2)
    graph = build_from_graph(spec)
    assert len(counts["validate"]) == len(graph.relators) == len(spec.red)


def test_preparing_validates(torus_pairs):
    """A loop that fails validation cannot be prepared, so the per-star
    functions only ever see valid loops."""
    surface, a, _ = torus_pairs[0]
    first = a.transits[0]
    flipped = replace(a, transits=(replace(first, sign=-first.sign),) + a.transits[1:])
    stray = replace(a, transits=a.transits + (Transit("nowhere", 0, 1, first.pos),))
    for loop in (flipped, stray):
        with pytest.raises(LoopError):
            PreparedLoop(surface, loop, SpliceMemo(), 0)
        with pytest.raises(LoopError):
            stars.prepare_loops(surface, {"a": a, "b": loop})


def test_first_shared_point_in_loop_order():
    """The disjointness check reports the clash that comes first along the
    later loop, not the one on the lowest edge."""
    surface = build_from_graph(from_triangulation(torus_grid(3))).surface
    rng = random.Random(2)
    checked = 0
    for _ in range(40):
        a, _ = random_loop_pair(surface, rng, 12)
        b = inverse_loop(a)
        loops = stars.prepare_loops(surface, {"a": a, "b": b})
        for star in {t.star for t in a.transits}:
            mine = [(i, t) for i, t in enumerate(b.transits) if t.star == star]
            first = mine[0][1]
            with pytest.raises(LoopError) as info:
                stars.expand_to_gates(surface, star, loops)
            assert str(info.value) == (
                f"loops 'a' and 'b' share point edge={first.edge} pos={first.pos} on star {star}"
            )
            checked += min(t.edge for _, t in mine) < first.edge
    assert checked > 0


@pytest.fixture
def hashed(monkeypatch):
    """The number of ``Fraction.__hash__`` calls so far."""
    calls = [0]
    original = Fraction.__hash__

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    return calls


def test_points_are_compared_without_hashing_fractions(torus_pairs, hashed):
    """Validation and the disjointness check key each point by the integers
    of its position, and still find a shared point."""
    for surface, a, b in torus_pairs:
        loops = stars.prepare_loops(surface, {"a": a, "b": b})
        for star in surface.stars:
            stars.expand_to_gates(surface, star.id, loops)
        clash = stars.prepare_loops(surface, {"a": a, "b": inverse_loop(a)})
        star = a.transits[0].star
        with pytest.raises(LoopError, match="share point"):
            stars.expand_to_gates(surface, star, clash)
        t = a.transits[0]
        twice = replace(a, transits=a.transits + (Transit(t.star, t.edge, t.sign, t.pos),))
        assert any("share point" in p for p in loopmod.validate_loop(surface, twice).problems)
    assert hashed[0] == 0


def test_move_check_validates_each_loop_once(monkeypatch):
    """The move check validates each loop of its move sequences once: the
    pair's loops are valid already, and each move validates its result
    only; the loops it prepares at the end are validated once too."""
    surface, _ = fuzz.surface_from_spec("g2b1")
    rng = random.Random(4)
    validated = []  # the loops themselves, so no id is reused
    original = loopmod.require_valid_loop

    def counting(surface, loop):
        validated.append(loop)
        return original(surface, loop)

    monkeypatch.setattr(loopmod, "require_valid_loop", counting)
    moved = 0
    for _ in range(4):
        pair = fuzz.fuzz_pair(surface, *random_loop_pair(surface, rng, 12))
        validated.clear()
        assert fuzz.move_invariance_failures(pair, rng, steps=20) == []
        assert all(loop is not pair.a and loop is not pair.b for loop in validated)
        counts = {}
        for loop in validated:
            counts[id(loop)] = counts.get(id(loop), 0) + 1
        assert set(counts.values()) == {1}
        moved += len(validated) - 2
    assert moved > 0


def test_apply_move_validates_outside_input(torus_pairs):
    surface, a, _ = torus_pairs[0]
    first = a.transits[0]
    flipped = replace(a, transits=(replace(first, sign=-first.sign),) + a.transits[1:])
    with pytest.raises(LoopError):
        loopmod.apply_move(surface, flipped, loopmod.RotateBasepoint(0))


@pytest.mark.parametrize("method", ["star", "gate"])
@pytest.mark.parametrize("op", ["form", "bracket", "cobracket"])
def test_aggregate_leaves_no_reference_cycle(torus_pairs, op, method):
    """A prepared family, its splice memo and the configurations made from
    it are freed by reference counting alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for surface, a, b in torus_pairs:
            stars.aggregate(surface, {"a": a} if op == "cobracket" else {"a": a, "b": b}, op, method)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
