"""Gate calculus: expansion conventions, dual maps, forms, brackets,
cobrackets, and the two band examples where everything vanishes."""

import random

import pytest

from loopcalc.algebra import FormalSum, HomotopyClass, TensorSum
from loopcalc.fuzz import random_loop_pair, random_omega
from loopcalc.gates import (
    GateCalculusError,
    bracket,
    bracket_omega,
    cobracket,
    cobracket_omega,
    flip_check,
    form,
    form_omega,
    mu,
    omega_flip,
    omega_reverse,
    raw_config_from_json,
    v,
)
from loopcalc.loops import CombinatorialLoop, Transit, compile_word, make_generic
from loopcalc.stars import expand_to_gates, prepare_loops
from loopcalc.surface import canonical_surface
from fractions import Fraction

from conftest import one_gate_config, two_gate_config


@pytest.fixture(scope="module")
def annulus():
    return canonical_surface(0, 2)


@pytest.fixture(scope="module")
def torus1():
    return canonical_surface(1, 1)


# -- expansion conventions ------------------------------------------------------


def test_annulus_core_expansion(annulus):
    surf, gens = annulus
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": gens["z1"]}))
    (c0,) = config.gate_crossings(("s", 0))
    (c1,) = config.gate_crossings(("s", 1))
    assert c0.eps == 1  # the transit enters through gate (s, 0)
    assert c1.eps == -1  # and leaves through gate (s, 1)


def test_same_edge_slot_order_outermost_first(annulus):
    surf, gens = annulus
    loop = compile_word(surf, gens, "z1 z1")  # two crossings of edge 0, pos 1 < 2
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": loop}))
    near = config.gate_crossings(("s", 0))
    # Near-side crossings sit before far-side ones; outermost position first.
    assert [c.eps for c in near] == [1, 1]
    pos_of_letter = {0: 1, 2: 2}  # letter index 0 -> pos 1, letter 2 -> pos 2
    assert [pos_of_letter[c.letter_index] for c in near] == [2, 1]


def test_near_side_precedes_far_side(annulus):
    surf, gens = annulus
    core = gens["z1"]
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": core}))
    # Gate (s, 1): nothing crosses edge 1, so its only crossing is the
    # far-side copy of the edge-0 transit; on gate (s, 0) the near-side
    # crossing of the same transit is the one with eps = +1.
    (far,) = config.gate_crossings(("s", 1))
    assert far.eps == -1
    loop2 = CombinatorialLoop(
        (Transit("s", 0, 1, Fraction(1)), Transit("s", 1, 1, Fraction(1)))
    )
    config2 = expand_to_gates(surf, "s", prepare_loops(surf, {"a": loop2}))
    crossings = config2.gate_crossings(("s", 0))
    assert [c.eps for c in crossings] == [1, -1]  # near before far


def test_expand_rejects_shared_positions(annulus):
    surf, gens = annulus
    core = gens["z1"]
    from loopcalc.loops import LoopError

    with pytest.raises(LoopError):
        expand_to_gates(surf, "s", prepare_loops(surf, {"a": core, "b": core}))


# -- dual counts ----------------------------------------------------------------


def test_v_on_annulus_core(annulus):
    surf, gens = annulus
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": gens["z1"]}))
    assert v(config, ("s", 0)) == 1
    assert v(config, ("s", 1)) == -1


def test_v_on_contractible_tongue(annulus):
    surf, _ = annulus
    tongue = CombinatorialLoop(
        (Transit("s", 0, 1, Fraction(1)), Transit("s", 0, -1, Fraction(2)))
    )
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": tongue}))
    assert v(config, ("s", 0)) == 0
    assert v(config, ("s", 1)) == 0


def test_v_on_core_squared(annulus):
    surf, gens = annulus
    loops = prepare_loops(surf, {"a": compile_word(surf, gens, "z1 z1")})
    config = expand_to_gates(surf, "s", loops)
    assert v(config, ("s", 0)) == 2


def test_v_unknown_gate(annulus):
    surf, gens = annulus
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": gens["z1"]}))
    with pytest.raises(GateCalculusError):
        v(config, ("s", 9))


# -- single-term configurations -------------------------------------------------


def single_term_config():
    return raw_config_from_json(
        {
            "gates": [
                {
                    "id": "g",
                    "eps_omega": 1,
                    "crossings": [
                        {"owner": "b", "eps": 1, "slot": 0, "link": {"gate": "g", "slot": 0}},
                        {"owner": "a", "eps": 1, "slot": 1, "link": {"gate": "g", "slot": 1}},
                    ],
                }
            ]
        }
    )


def test_form_omega_single_term():
    config = single_term_config()
    assert form_omega(config) == 1


def test_reversal_identity_single_term():
    config = single_term_config()
    omega = config.base_omega
    assert form_omega(config, omega, "a", "b") == -form_omega(
        config, omega_reverse(omega), "b", "a"
    )


def test_bracket_omega_single_term():
    config = single_term_config()
    sum_ = bracket_omega(config)
    assert len(sum_) == 1
    ((cls, coeff),) = sum_.items()
    assert coeff == 1
    assert len(cls.letters) == 2


def test_mu_empty_and_single(annulus):
    surf, gens = annulus
    core = gens["z1"]
    other = CombinatorialLoop((Transit("s", 1, 1, Fraction(5)),))
    a, b = make_generic(surf, [core, other])
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": a, "b": b}))
    # a crosses edge 0, b crosses edge 1: gate (s, 1) carries a's far-side
    # crossing and b's near-side crossing; gate (s, 0) carries a near- and
    # b far-side crossing.
    for gate in (("s", 0), ("s", 1)):
        pair = mu(config, gate)
        assert len(pair) == 1


def test_cobracket_needs_named_loop_on_two_loop_config(torus1):
    surf, gens = torus1
    x, y = make_generic(surf, [gens["x1"], gens["y1"]])
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": x, "b": y}))
    with pytest.raises(GateCalculusError, match="name the one"):
        cobracket_omega(config)
    assert cobracket_omega(config, owner="a") is not None
    single = expand_to_gates(surf, "s", prepare_loops(surf, {"a": x}))
    assert cobracket(single) == cobracket(config, owner="a")


def test_form_needs_two_loops(torus1):
    surf, gens = torus1
    single = expand_to_gates(surf, "s", prepare_loops(surf, {"a": gens["x1"]}))
    with pytest.raises(GateCalculusError, match="no loop 'b'"):
        form_omega(single)


def test_mu_vanishes_when_a_loop_misses_the_gate(torus1):
    surf, gens = torus1
    x, y = make_generic(surf, [gens["x1"], gens["y1"]])
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": x, "b": y}))
    # x never touches gate (s, 1): no near crossing of edge 1, no far
    # crossing of edge 2.
    assert not config.gate_crossings(("s", 1), "a")
    assert mu(config, ("s", 1)).is_zero


def test_mu_symmetric_random(torus1):
    surf, _ = torus1
    rng = random.Random(5)
    for _ in range(20):
        a, b = random_loop_pair(surf, rng, 8)
        config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": a, "b": b}))
        for gate in config.gates:
            assert mu(config, gate, "a", "b") == mu(config, gate, "b", "a")


# -- flips ------------------------------------------------------------------------


def test_flip_identity_and_involution(torus1):
    surf, _ = torus1
    rng = random.Random(11)
    for _ in range(20):
        a, b = random_loop_pair(surf, rng, 8)
        config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": a, "b": b}))
        omega = random_omega(config.gates, rng)
        for gate in config.gates:
            lhs, rhs = flip_check(config, omega, gate)
            assert lhs == rhs
            double = omega_flip(omega_flip(omega, gate), gate)
            assert form_omega(config, double) == form_omega(config, omega)


def test_flip_noop_when_dual_count_vanishes(annulus):
    surf, gens = annulus
    tongue = CombinatorialLoop(
        (Transit("s", 0, 1, Fraction(10)), Transit("s", 0, -1, Fraction(11)))
    )
    a, b = make_generic(surf, [gens["z1"], tongue])
    # x = tongue, v = 0
    config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": b, "b": a}))
    omega = {g: 1 for g in config.gates}
    for gate in config.gates:
        assert v(config, gate, "a") == 0
        assert form_omega(config, omega_flip(omega, gate)) == form_omega(config, omega)


# -- the one-gate band example ----------------------------------------------------


def test_one_gate_everything_vanishes():
    config = one_gate_config()
    for omega in ({"g1": 1}, {"g1": -1}):
        assert form_omega(config, omega, "a", "b") == 0
        assert form_omega(config, omega, "b", "a") == 0
        assert bracket_omega(config, omega, "a", "b").is_zero
        assert cobracket_omega(config, omega, "a").is_zero
        assert cobracket_omega(config, omega, "b").is_zero
    assert form(config) == 0
    assert bracket(config).is_zero
    assert cobracket(config, "a").is_zero
    assert cobracket(config, "b").is_zero


# -- the two-gate band example -----------------------------------------------------


def test_two_gate_aligned_everything_vanishes():
    config = two_gate_config(aligned=True)
    omega = config.base_omega
    assert form_omega(config, omega, "a", "b") == 0
    assert form_omega(config, omega, "b", "a") == 0
    assert bracket_omega(config, omega, "a", "b").is_zero
    assert bracket_omega(config, omega, "b", "a").is_zero
    assert cobracket_omega(config, omega, "a").is_zero
    assert cobracket_omega(config, omega, "b").is_zero
    assert form(config) == 0
    assert bracket(config).is_zero
    assert cobracket(config, "a").is_zero
    assert cobracket(config, "b").is_zero


def test_two_gate_anti_aligned_can_be_nonzero():
    config = two_gate_config(aligned=False)
    omega = config.base_omega
    assert form_omega(config, omega, "b", "a") != 0
    assert not cobracket_omega(config, omega, "a").is_zero
    # The orientation-independent operations still vanish.
    assert form(config) == 0
    assert cobracket(config, "a").is_zero
    assert cobracket(config, "b").is_zero


def test_two_gate_flip_matches_dual_counts():
    config = two_gate_config(aligned=True)
    omega = dict(config.base_omega)
    lhs, rhs = flip_check(config, omega, "g1")
    assert lhs == rhs
    assert lhs == form_omega(config, omega) - omega["g1"] * v(config, "g1", "a") * v(
        config, "g1", "b"
    )
    assert v(config, "g1", "a") == 2
    assert v(config, "g1", "b") == 2


def test_raw_config_words_are_indexed_in_the_order_given():
    """A raw configuration's owners are one family of their own: their
    words share one splice memo and are indexed in it by the owners'
    sorted order; the splices give the same values through it."""
    config = two_gate_config(aligned=False)
    omega = config.base_omega
    words = config.words
    assert bracket(config).is_zero
    assert {owner: word.index for owner, word in words.items()} == {"a": 0, "b": 1}
    assert words["a"].memo is words["b"].memo
    core = HomotopyClass((("g1", 0), ("g2", 1)))
    assert bracket_omega(config, omega) == FormalSum({HomotopyClass(core.letters * 4): 4})
    for owner in "ab":
        assert cobracket_omega(config, omega, owner) == TensorSum({(core, core): 2})
    assert {owner: word.index for owner, word in words.items()} == {"a": 0, "b": 1}
    assert {key[0] for key in words["a"].memo.spliced} == {0, 1}


# -- raw parsing ------------------------------------------------------------------


def test_raw_config_missing_link_rejected():
    with pytest.raises(GateCalculusError):
        raw_config_from_json(
            {"gates": [{"id": "g", "eps_omega": 1, "crossings": [{"owner": "a", "eps": 1, "slot": 0}]}]}
        )


def test_raw_config_cross_owner_link_rejected():
    with pytest.raises(GateCalculusError):
        raw_config_from_json(
            {
                "gates": [
                    {
                        "id": "g",
                        "eps_omega": 1,
                        "crossings": [
                            {"owner": "a", "eps": 1, "slot": 0, "link": {"gate": "g", "slot": 1}},
                            {"owner": "b", "eps": -1, "slot": 1, "link": {"gate": "g", "slot": 0}},
                        ],
                    }
                ]
            }
        )


def test_raw_config_split_cycles_rejected():
    with pytest.raises(GateCalculusError):
        raw_config_from_json(
            {
                "gates": [
                    {
                        "id": "g",
                        "eps_omega": 1,
                        "crossings": [
                            {"owner": "a", "eps": 1, "slot": 0, "link": {"gate": "g", "slot": 0}},
                            {"owner": "a", "eps": -1, "slot": 1, "link": {"gate": "g", "slot": 1}},
                        ],
                    }
                ]
            }
        )


def test_raw_config_duplicate_slot_rejected():
    with pytest.raises(GateCalculusError):
        raw_config_from_json(
            {
                "gates": [
                    {
                        "id": "g",
                        "eps_omega": 1,
                        "crossings": [
                            {"owner": "a", "eps": 1, "slot": 0, "link": {"gate": "g", "slot": 0}},
                            {"owner": "a", "eps": -1, "slot": 0, "link": {"gate": "g", "slot": 0}},
                        ],
                    }
                ]
            }
        )


def _crossing(**fields):
    return {"owner": "a", "eps": 1, "slot": 0, "link": {"gate": "g", "slot": 0}, **fields}


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"gates": [{"id": "g", "crossings": [{"slot": 0}]}]},
            "gate g crossing 0 has no 'owner'",
        ),
        (
            {"gates": [{"id": "g", "crossings": [_crossing(slot="x")]}]},
            "gate g crossing 0: slot 'x' is not valid",
        ),
        ({"gates": 3}, "a raw configuration: gates 3 is not valid"),
        ([{"id": "g"}], "a raw configuration must be an object, not list"),
        ({"gates": [7]}, "gate 0 must be an object, not int"),
        (
            {"gates": [{"id": "g", "crossings": [_crossing(eps=2)]}]},
            "gate g crossing 0: eps 2 is not valid",
        ),
        (
            {"gates": [{"id": "g", "crossings": [_crossing(link=[])]}]},
            "gate g crossing 0 link must be an object, not list",
        ),
        ({"gates": [{"id": "g"}, {"id": "g"}]}, "gate g: duplicate id"),
        ("{", "raw configuration is not JSON"),
    ],
)
def test_raw_config_malformed_names_the_gate(data, message):
    with pytest.raises(GateCalculusError) as info:
        raw_config_from_json(data)
    assert str(info.value).startswith(message)


# -- doubling identities on star-derived configurations ---------------------------


def test_doubling_identities_random(torus1):
    surf, _ = torus1
    rng = random.Random(23)
    for _ in range(25):
        a, b = random_loop_pair(surf, rng, 8)
        config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": a, "b": b}))
        omega = random_omega(config.gates, rng)
        mu_total = FormalSum()
        vv = 0
        for gate in config.gates:
            mu_total = mu_total + omega[gate] * mu(config, gate)
            vv += omega[gate] * v(config, gate, "a") * v(config, gate, "b")
        assert 2 * form_omega(config, omega) == form(config) + vv
        assert 2 * bracket_omega(config, omega) == bracket(config) + mu_total
        nu = cobracket(config, "a", omega=omega)
        assert nu.transpose() == -nu
