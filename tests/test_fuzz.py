"""The randomized harness itself: generators produce valid data, reports
are deterministic, and a sabotaged evaluator is caught."""

import doctest
import json
import random
from collections import Counter

import pytest

from loopcalc import _wordpure, cli, fuzz, gates, stars
from loopcalc.algebra import TRIVIAL_CLASS, TensorSum
from loopcalc.fuzz import (
    random_loop,
    random_loop_pair,
    random_move,
    run_fuzz,
    surface_from_spec,
)
from loopcalc.loops import apply_move, validate_loop, LoopError
from loopcalc.surface import canonical_surface


def test_wordpure_doctests():
    failed, attempted = doctest.testmod(_wordpure)
    assert attempted > 0
    assert failed == 0


def test_random_loops_are_valid():
    rng = random.Random(0)
    for spec in ("g0b2", "g0b3", "g1b1", "g2b1"):
        surf, _ = surface_from_spec(spec)
        for _ in range(25):
            loop = random_loop(surf, rng, 12)
            assert validate_loop(surf, loop).valid
            assert len(loop.transits) <= 12


def test_random_pairs_jointly_generic():
    surf, _ = canonical_surface(1, 1)
    rng = random.Random(1)
    for _ in range(25):
        a, b = random_loop_pair(surf, rng, 10)
        points = [(t.star, t.edge, t.pos) for t in a.transits + b.transits]
        assert len(points) == len(set(points))


def test_random_moves_apply_cleanly():
    surf, _ = canonical_surface(0, 3)
    rng = random.Random(2)
    loop = random_loop(surf, rng, 8)
    applied = 0
    for _ in range(60):
        move = random_move(surf, loop, rng)
        try:
            loop = apply_move(surf, loop, move)
            applied += 1
        except LoopError:
            continue
    assert applied >= 50
    assert validate_loop(surf, loop).valid


def test_run_fuzz_clean_and_deterministic():
    first = run_fuzz("g0b3", pairs=8, moves=10, seed=5)
    second = run_fuzz("g0b3", pairs=8, moves=10, seed=5)
    assert first.ok
    assert first.to_json() == second.to_json()
    assert first.checks["oracle"] == 8


def test_run_fuzz_catches_injected_bug():
    report = run_fuzz("g1b1", pairs=4, seed=1, inject_bug=True)
    assert not report.ok
    payload = report.to_json()
    assert payload["counterexample"]["check"] == "oracle"
    assert payload["counterexample"]["loops"]["a"]


def test_fuzz_builds_one_configuration_per_star_and_pair(monkeypatch):
    """The gate checks share each pair's configurations, so ``run_fuzz``
    expands each star once per pair."""
    calls = []

    def counting(surface, star_id, loops):
        calls.append(star_id)
        return expand(surface, star_id, loops)

    expand = stars.expand_to_gates
    monkeypatch.setattr(stars, "expand_to_gates", counting)
    for spec, pairs in (("g1b1", 6), ("g2b1", 4)):
        calls.clear()
        assert run_fuzz(spec, pairs=pairs, moves=3, seed=2).ok
        surface, _ = surface_from_spec(spec)
        assert sorted(calls) == sorted(star.id for star in surface.stars) * pairs


def test_fuzz_evaluates_each_star_once_per_route_and_pair(monkeypatch):
    """Every check reads one ``stars.evaluate`` of the fuzz calls by each
    route: per pair, one skew gate form, bracket and cobracket per star and
    loop, and each star function once on each star its call's loops cross
    (a star form on each star ``a`` crosses, a star bracket on each star
    both loops cross, a star cobracket on each star each loop crosses) and
    never on any other star.  Each move check adds one star-route
    evaluation, of the moved pair, and nothing calls ``stars.aggregate``."""
    counts = Counter()
    crossed = Counter()  # the star function calls the loops of each evaluation call for

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key(*args, **kwargs)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def skew(op):
        def key(config, x="a", y="b", omega=None):
            return (op, config.gates[0][0], x, y, omega is None)

        return key

    counting(stars, "star_form", lambda surface, star_id, a, b: ("star_form", star_id))
    counting(stars, "star_bracket", lambda surface, star_id, a, b: ("star_bracket", star_id))
    counting(stars, "star_cobracket", lambda surface, star_id, a: ("star_cobracket", star_id, a))
    counting(gates, "form", skew("form"))
    counting(gates, "bracket", skew("bracket"))
    counting(
        gates,
        "cobracket",
        lambda config, owner=None, omega=None: ("cobracket", config.gates[0][0], owner, omega is None),
    )
    counting(stars, "aggregate", lambda *args, **kwargs: "aggregate")

    def evaluate_key(surface, prepared, calls, method="star", omega=None):
        if method == "star":
            a, b = ({t.star for t in prepared[name].transits} for name in "ab")
            crossed.update(("star_form", star_id) for star_id in a)
            crossed.update(("star_bracket", star_id) for star_id in a & b)
            for name, stars_crossed in (("a", a), ("b", b)):
                crossed.update(("star_cobracket", s, prepared[name]) for s in stars_crossed)
        return ("evaluate", method, calls)

    counting(stars, "evaluate", evaluate_key)
    for spec, pairs in (("g1b1", 6), ("g2b1", 4), ("g3b2", 2)):
        counts.clear()
        crossed.clear()
        report = run_fuzz(spec, pairs=pairs, moves=3, seed=2)
        assert report.ok and report.checks["moves"] > 0
        assert counts["aggregate"] == 0
        evaluated = pairs + report.checks["moves"]
        assert counts["evaluate", "star", fuzz.CALLS] == evaluated
        assert counts["evaluate", "gate", fuzz.CALLS] == pairs
        assert all(n == 1 for key, n in crossed.items() if key[0] == "star_cobracket")
        assert Counter({k: n for k, n in counts.items() if k[0].startswith("star_")}) == crossed
        surface, _ = surface_from_spec(spec)
        for star in surface.stars:
            assert counts["form", star.id, "a", "b", True] == pairs
            assert counts["bracket", star.id, "a", "b", True] == pairs
            for owner in ("a", "b"):
                assert counts["cobracket", star.id, owner, True] == pairs


def test_odd_star_sum_is_reported_not_raised(monkeypatch, capsys):
    """A star route whose sums are odd fails the evenness check; the move
    check compares unhalved sums, so the run reports instead of raising and
    the CLI exits 1."""
    star_form = stars.star_form
    monkeypatch.setattr(stars, "star_form", lambda *args: star_form(*args) + 1)
    report = run_fuzz("g1b1", pairs=3, moves=2, seed=1)
    assert report.checks["moves"] == 1
    assert "form: aggregate form -7 is odd" in {
        f["message"] for f in report.failures if f["check"] == "evenness"
    }
    argv = ["fuzz", "--surface", "g1b1", "--pairs", "3", "--moves", "2", "--seed", "1"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == report.to_json()


def test_b_cobracket_sums_are_checked(monkeypatch):
    """The evenness and move checks read ``b``'s star cobracket sum as well
    as ``a``'s, and their failures name the loop.  The ``k``-th star-route
    evaluation adds ``k`` to one term of ``b``'s cobracket: the first pair
    is odd there, and the second pair's moved evaluation differs from its
    own."""
    evaluate = stars.evaluate
    calls = []

    def perturbed(surface, prepared, evaluated, method="star", omega=None):
        values, configs = evaluate(surface, prepared, evaluated, method, omega)
        if method == "star":
            calls.append(len(calls) + 1)
            key = ("cobracket", "b")
            (star, first), *rest = values[key]
            extra = TensorSum({(TRIVIAL_CLASS, TRIVIAL_CLASS): calls[-1]})
            values[key] = ((star, first + extra), *rest)
        return values, configs

    monkeypatch.setattr(stars, "evaluate", perturbed)
    report = run_fuzz("g1b1", pairs=2, moves=2, seed=1)
    assert calls == [1, 2, 3]
    messages = {
        check: [f["message"] for f in report.failures if f["check"] == check]
        for check in ("evenness", "moves")
    }
    (odd,) = messages["evenness"]
    assert odd.startswith("cobracket(b): aggregate cobracket(b) has an odd coefficient")
    (moved,) = messages["moves"]
    assert moved.startswith("moves changed aggregated cobracket(b): ")
    assert not any("cobracket(a)" in f["message"] for f in report.failures)


def test_injected_bug_fails_only_the_oracle():
    """The sign flip stays in the oracle's copy of the gate form: no other
    check, reading the same shared values, sees it."""
    for spec in ("g1b1", "g2b1", "g3b2"):
        report = run_fuzz(spec, pairs=6, moves=3, seed=3, inject_bug=True)
        assert report.failures
        assert {f["check"] for f in report.failures} == {"oracle"}
        assert report.checks["moves"] > 0 and report.checks["omega_independence"] > 0


def test_run_fuzz_rejects_negative_counts():
    for kwargs, message in (
        ({"pairs": -3}, "pairs must be 0 or more, got -3"),
        ({"moves": -2}, "moves must be 0 or more, got -2"),
    ):
        with pytest.raises(ValueError, match=message):
            run_fuzz("g1b1", seed=1, **kwargs)
    empty = run_fuzz("g1b1", pairs=0, seed=1)
    assert empty.ok and empty.checks == {}
    still = run_fuzz("g1b1", pairs=2, moves=0, seed=1)
    assert still.ok and "moves" not in still.checks


def test_hop_table_is_built_once_per_surface(monkeypatch):
    """``random_loop`` reads the surface's hop table, built on first use:
    two gate lookups per hop, once, however many loops are drawn."""
    surface, _ = surface_from_spec("g2b1")
    lookups = []
    region_of = surface.region_of
    monkeypatch.setattr(surface, "region_of", lambda gate: lookups.append(gate) or region_of(gate))
    rng = random.Random(4)
    for _ in range(5):
        random_loop(surface, rng, 12)
    hops = surface.region_hops()
    assert surface.region_hops() is hops
    assert len(lookups) == 2 * sum(len(h) for h in hops.values())
    assert len(lookups) == 2 * sum(s.edge_count * (s.edge_count - 1) for s in surface.stars)
