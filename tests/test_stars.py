"""Star calculus: per-star formulas, expansion oracle, aggregation."""

import random
from fractions import Fraction

import pytest
from conftest import prepared

from loopcalc import gates as gatecalc
from loopcalc import stars
from loopcalc.algebra import FormalSum
from loopcalc.fuzz import fuzz_pair, oracle_failures, random_loop_pair
from loopcalc.loops import (
    CombinatorialLoop,
    InsertCancellingPair,
    LoopError,
    Reposition,
    apply_move,
    compile_word,
    make_generic,
    to_class,
)
from loopcalc.stars import (
    OddCoefficientError,
    aggregate,
    expand_to_gates,
    halve,
    methods_agree,
    prepare_loops,
    star_bracket,
    star_cobracket,
    star_form,
)
from loopcalc.surface import canonical_surface


def edge_counts(surface, star_id, loop):
    """The prepared loop's signed crossing count of each edge of the star."""
    first = surface.first_edge[star_id]
    return [loop.counts.get(first + e, 0) for e in range(surface.star(star_id).edge_count)]


@pytest.fixture(scope="module")
def annulus():
    return canonical_surface(0, 2)


@pytest.fixture(scope="module")
def torus1():
    return canonical_surface(1, 1)


def test_star_form_equal_count_vectors_vanish(annulus):
    surf, gens = annulus
    core = prepared(surf, gens["z1"])
    assert edge_counts(surf, "s", core) == [1, 0]
    assert star_form(surf, "s", core, core) == 0


def test_star_form_torus_star_counts():
    """The four-edge star with counts (-1,-1,0,0) against (1,0,0,1) pairs
    to exactly 2."""
    from loopcalc.closed import build_from_graph, canonical_filling_graph

    fg = build_from_graph(canonical_filling_graph(1))
    a = CombinatorialLoop.from_crossings("p", [(0, -1), (1, -1)])
    b = CombinatorialLoop.from_crossings("p", [(0, 1), (3, 1)])
    a, b = prepared(fg.surface, *make_generic(fg.surface, [a, b]))
    assert edge_counts(fg.surface, "p", a) == [-1, -1, 0, 0]
    assert edge_counts(fg.surface, "p", b) == [1, 0, 0, 1]
    assert star_form(fg.surface, "p", a, b) == 2


def test_star_form_antisymmetric_random(torus1):
    surf, _ = torus1
    rng = random.Random(2)
    for _ in range(30):
        a, b = prepared(surf, *random_loop_pair(surf, rng, 10))
        assert star_form(surf, "s", a, b) == -star_form(surf, "s", b, a)


def test_star_bracket_disjoint_cores_vanish(annulus):
    surf, gens = annulus
    a, b = prepared(surf, *make_generic(surf, [gens["z1"], gens["z1"]]))
    assert star_bracket(surf, "s", a, b).is_zero


def test_star_bracket_requires_disjoint_points(annulus):
    surf, gens = annulus
    with pytest.raises(LoopError):
        star_bracket(surf, "s", *prepared(surf, gens["z1"], gens["z1"]))


def test_star_bracket_antisymmetric_random(torus1):
    surf, _ = torus1
    rng = random.Random(3)
    for _ in range(20):
        a, b = prepared(surf, *random_loop_pair(surf, rng, 8))
        assert star_bracket(surf, "s", a, b) == -star_bracket(surf, "s", b, a)


def test_star_cobracket_annulus_core_vanishes(annulus):
    surf, gens = annulus
    assert star_cobracket(surf, "s", prepared(surf, gens["z1"])).is_zero


def test_star_cobracket_antisymmetric(torus1):
    surf, _ = torus1
    rng = random.Random(4)
    for _ in range(20):
        a, _ = random_loop_pair(surf, rng, 10)
        nu = star_cobracket(surf, "s", prepared(surf, a))
        assert nu.transpose() == -nu


def test_known_values_one_holed_torus(torus1):
    surf, gens = torus1
    a, b = make_generic(surf, [gens["x1"], gens["y1"]])
    form_res = aggregate(surf, {"a": a, "b": b}, "form")
    assert form_res.total == 2 and form_res.halved == 1
    bracket_res = aggregate(surf, {"a": a, "b": b}, "bracket")
    xy = to_class(surf, compile_word(surf, gens, "x1 y1"))
    assert bracket_res.total == FormalSum({xy: 2})
    assert bracket_res.halved == FormalSum({xy: 1})
    for gen in ("x1", "y1"):
        nu = aggregate(surf, {"a": gens[gen]}, "cobracket")
        assert nu.total.is_zero


def test_aggregate_annulus_cores_all_zero(annulus):
    surf, gens = annulus
    a, b = make_generic(surf, [gens["z1"], gens["z1"]])
    assert aggregate(surf, {"a": a, "b": b}, "form").total == 0
    assert aggregate(surf, {"a": a, "b": b}, "bracket").total.is_zero
    assert aggregate(surf, {"a": a}, "cobracket").total.is_zero


def test_bracket_with_contractible_loop_vanishes(torus1):
    surf, gens = torus1
    trivial = compile_word(surf, gens, "x1 x1^-1")
    a, b = make_generic(surf, [gens["y1"], trivial])
    assert aggregate(surf, {"a": a, "b": b}, "bracket").total.is_zero
    assert aggregate(surf, {"a": a, "b": b}, "form").total == 0


def test_cobracket_of_core_powers_vanishes(annulus):
    surf, gens = annulus
    for k in range(1, 5):
        loop = compile_word(surf, gens, " ".join(["z1"] * k))
        assert aggregate(surf, {"a": loop}, "cobracket").total.is_zero


def test_methods_agree_on_deterministic_cases(torus1):
    surf, gens = torus1
    a, b = make_generic(surf, [gens["x1"], gens["y1"]])
    for op in ("form", "bracket", "cobracket"):
        loops = {"a": a} if op == "cobracket" else {"a": a, "b": b}
        star_res, gate_res, agree = methods_agree(surf, loops, op)
        assert agree, (op, star_res.total, gate_res.total)


def test_differential_oracle_spotcheck_multi_surface():
    rng = random.Random(17)
    for spec in ((0, 2), (0, 3), (1, 1), (2, 1)):
        surf, _ = canonical_surface(*spec)
        for _ in range(10):
            a, b = random_loop_pair(surf, rng, 10)
            assert oracle_failures(fuzz_pair(surf, a, b)) == []


def test_star_ops_position_independent(torus1):
    """Re-ranking positions and inserting/removing cancelling pairs leaves
    every per-star operation unchanged."""
    surf, gens = torus1
    rng = random.Random(9)
    a0 = compile_word(surf, gens, "x1 y1 x1^-1")
    b0 = compile_word(surf, gens, "y1 x1")
    a0, b0 = make_generic(surf, [a0, b0])
    pa0, pb0 = prepared(surf, a0, b0)
    base = (
        star_form(surf, "s", pa0, pb0),
        star_bracket(surf, "s", pa0, pb0),
        star_cobracket(surf, "s", pa0),
    )
    from loopcalc.fuzz import _random_positions

    for _ in range(10):
        a = apply_move(surf, a0, Reposition(_random_positions(a0, rng)))
        # The loop closes in the region of gate (s, 0), so a tongue across
        # edge 0 may be inserted at the basepoint.
        a = apply_move(
            surf,
            a,
            InsertCancellingPair(
                "s", 0, 0, 1, (Fraction(rng.randrange(50, 100)), Fraction(rng.randrange(100, 150)))
            ),
        )
        # Spliced loops are prepared together, as one family.
        a, b = prepared(surf, a, b0)
        got = (
            star_form(surf, "s", a, b),
            star_bracket(surf, "s", a, b),
            star_cobracket(surf, "s", a),
        )
        assert got == base


def test_aggregate_evenness_random(torus1):
    surf, _ = torus1
    rng = random.Random(31)
    for _ in range(20):
        a, b = random_loop_pair(surf, rng, 10)
        assert aggregate(surf, {"a": a, "b": b}, "form").total % 2 == 0
        assert aggregate(surf, {"a": a, "b": b}, "bracket").total.all_even()
        assert aggregate(surf, {"a": a}, "cobracket").total.all_even()


def test_expand_refuses_non_generic(annulus):
    surf, gens = annulus
    with pytest.raises(LoopError):
        expand_to_gates(surf, "s", prepare_loops(surf, {"a": gens["z1"], "b": gens["z1"]}))


def test_aggregate_result_json(torus1):
    surf, gens = torus1
    a, b = make_generic(surf, [gens["x1"], gens["y1"]])
    payload = aggregate(surf, {"a": a, "b": b}, "bracket").to_json()
    assert payload["op"] == "bracket"
    assert payload["per_star"][0]["star"] == "s"
    assert payload["sum"][0]["coeff"] == 2


def test_halve_ints_and_sums():
    assert halve(-6, "form") == -3
    assert halve(FormalSum({"u": 4, "v": -2}), "bracket") == FormalSum({"u": 2, "v": -1})
    with pytest.raises(OddCoefficientError, match="^form 3 is odd$"):
        halve(3, "form")
    with pytest.raises(OddCoefficientError, match="^bracket has an odd coefficient"):
        halve(FormalSum({"u": 4, "v": 1}), "bracket")


def test_aggregate_with_omega_sums_oriented_gate_values():
    surf, gens = canonical_surface(2, 1)
    a, b = make_generic(surf, [compile_word(surf, gens, "x1 y1 x2^-1 y2"), gens["y1"]])
    omega = {(g.star, g.edge): (-1 if g.edge % 3 == 0 else 1) for g in surf.gates()}
    evaluate = {
        "form": gatecalc.form_omega,
        "bracket": gatecalc.bracket_omega,
        "cobracket": gatecalc.cobracket_omega,
    }
    for op, fn in evaluate.items():
        loops = {"a": a} if op == "cobracket" else {"a": a, "b": b}
        result = aggregate(surf, loops, op, method="gate", omega=omega)
        config = expand_to_gates(surf, "s", prepare_loops(surf, loops))
        assert result.per_star == (("s", fn(config, omega)),)
        assert result.halved is None
        with pytest.raises(ValueError, match="gate route"):
            aggregate(surf, loops, op, method="star", omega=omega)


@pytest.mark.parametrize("op", ["form", "bracket", "cobracket"])
def test_aggregate_omega_missing_a_gate_names_it(op):
    surf, gens = canonical_surface(1, 1)
    a, b = make_generic(surf, [gens["x1"], gens["y1"]])
    loops = {"a": a} if op == "cobracket" else {"a": a, "b": b}
    omega = {(g.star, g.edge): 1 for g in surf.gates() if g.edge != 2}
    missing = r"^gate orientation missing gate \('s', 2\)$"
    with pytest.raises(gatecalc.GateCalculusError, match=missing):
        aggregate(surf, loops, op, method="gate", omega=omega)


def test_genericity_contract_on_a_loop_with_itself(torus1):
    """Only the star-route form reads a non-generic pair: ``x1`` with
    itself has form 0 there, and the star bracket and every gate-route call
    name the shared point."""
    surf, gens = torus1
    loops = {"a": gens["x1"], "b": gens["x1"]}
    assert aggregate(surf, loops, "form").total == 0
    shared = r"^loops 'a' and 'b' share point edge=0 pos=1 on star s$"
    calls = [("bracket", "star")] + [(op, "gate") for op in ("form", "bracket", "cobracket")]
    for op, method in calls:
        with pytest.raises(LoopError, match=shared):
            aggregate(surf, loops, op, method)


def test_cobracket_of_a_pair_splits_a_on_both_routes():
    """Given two loops, the cobracket splits the one named ``a`` on either
    route, and both routes name a point the loops share."""
    surf, gens = canonical_surface(2, 1)
    a, b = make_generic(surf, [compile_word(surf, gens, "x1 y1 x2^-1 y2"), gens["y1"]])
    for method in ("star", "gate"):
        pair = aggregate(surf, {"a": a, "b": b}, "cobracket", method)
        alone = aggregate(surf, {"a": a}, "cobracket", method)
        assert not alone.total.is_zero
        assert (pair.per_star, pair.total) == (alone.per_star, alone.total)
    shared = r"^loops 'a' and 'b' share point edge=\d+ pos=1 on star s$"
    for method in ("star", "gate"):
        with pytest.raises(LoopError, match=shared):
            aggregate(surf, {"a": gens["x1"], "b": gens["x1"]}, "cobracket", method)


def test_an_unknown_method_or_op_fails_before_any_loop_is_prepared(monkeypatch):
    """``method="gates"``, or any route but ``star`` and ``gate``, raises
    rather than running the gate route, and so does an unknown operation;
    neither prepares a loop, and ``stars.evaluate`` checks the same."""
    surf, gens = canonical_surface(1, 1)
    a, b = make_generic(surf, [gens["x1"], gens["y1"]])
    family = prepare_loops(surf, {"a": a, "b": b})
    prepared_loops = []
    monkeypatch.setattr(stars, "prepare_loops", lambda *args: prepared_loops.append(args))
    unknown = "^unknown method 'gates': use 'star' or 'gate'$"
    for op in ("form", "bracket", "cobracket"):
        with pytest.raises(ValueError, match=unknown):
            aggregate(surf, {"a": a, "b": b}, op, method="gates")
    with pytest.raises(ValueError, match="^unknown operation 'twist'$"):
        aggregate(surf, {"a": a, "b": b}, "twist", method="gate")
    assert prepared_loops == []
    with pytest.raises(ValueError, match=unknown):
        stars.evaluate(surf, family, [("form", "a", "b")], "gates")
    with pytest.raises(ValueError, match="^unknown operation 'twist'$"):
        stars.evaluate(surf, family, [("twist", "a")])


@pytest.mark.parametrize("method", ["star", "gate"])
def test_a_missing_loop_fails_alike_on_both_routes(monkeypatch, method):
    """A loop that the operation reads and the caller left out raises one
    :class:`ValueError` naming the operation and the loop, on either route
    and before any loop is prepared; ``stars.evaluate`` names a call's
    missing loop the same way."""
    surf, gens = canonical_surface(1, 1)
    a, b = make_generic(surf, [gens["x1"], gens["y1"]])
    family = prepare_loops(surf, {"a": a, "b": b})
    prepared_loops = []
    monkeypatch.setattr(stars, "prepare_loops", lambda *args: prepared_loops.append(args))
    for op, loops, name in (
        ("form", {"a": a}, "b"),
        ("bracket", {"b": b}, "a"),
        ("cobracket", {"b": b}, "a"),
    ):
        with pytest.raises(ValueError, match=f"^{op} needs a loop named '{name}'$"):
            aggregate(surf, loops, op, method)
    assert prepared_loops == []
    with pytest.raises(ValueError, match="^bracket needs a loop named 'c'$"):
        stars.evaluate(surf, family, [("form", "a", "b"), ("bracket", "a", "c")], method)
