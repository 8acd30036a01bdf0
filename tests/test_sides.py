"""The side table of a gate configuration: the operations read the signed
value of each gate side from one walk along its gate, so a second sweep
over all gate orientations walks no gate and splices nothing; each side
equals a pair-by-pair reference with the explicit slot rule, the values
equal the pair-by-pair definitions and those of fresh configurations; and
breaking the order or the sign of a side is caught by the fuzz harness."""

import itertools
import random
import re

import pytest
from conftest import as_class, one_gate_config
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcalc import gates
from loopcalc.algebra import FormalSum, TensorSum
from loopcalc.fuzz import random_loop_pair, run_fuzz, surface_from_spec
from loopcalc.gates import GateCalculusError, raw_config_from_json
from loopcalc.stars import expand_to_gates, prepare_loops


@pytest.fixture(scope="module")
def star_pairs():
    """Seeded loop pairs on the one-star surfaces g1b1 (4 gates) and g2b1
    (8 gates)."""
    rng = random.Random(23)
    out = []
    for spec in ("g1b1", "g2b1"):
        surface, _ = surface_from_spec(spec)
        out += [(surface, *random_loop_pair(surface, rng, 10)) for _ in range(3)]
    return out


def orientations(config) -> list[dict]:
    return [
        dict(zip(config.gates, signs))
        for signs in itertools.product((1, -1), repeat=len(config.gates))
    ]


# -- the definitions, pair by pair ---------------------------------------------


def first(sign, q, p) -> bool:
    """Whether ``q`` comes before ``p`` along their gate under ``sign``."""
    return q.slot < p.slot if sign > 0 else q.slot > p.slot


def gate_pairs(config, x, y):
    """``(gate, p, q)`` for every crossing ``p`` of ``x`` and ``q`` of ``y``
    on one gate."""
    return [
        (g, p, q)
        for g in config.gates
        for p in config.gate_crossings(g, x)
        for q in config.gate_crossings(g, y)
    ]


def form_by_pairs(config, omega, x, y) -> int:
    return sum(
        omega[g] * p.eps * q.eps for g, p, q in gate_pairs(config, x, y) if first(omega[g], q, p)
    )


def bracket_by_pairs(config, omega, x, y) -> FormalSum:
    return FormalSum(
        (as_class(config.table, gates.graft_at(config, p, q)), omega[g] * p.eps * q.eps)
        for g, p, q in gate_pairs(config, x, y)
        if first(omega[g], q, p)
    )


def cobracket_by_pairs(config, omega, owner) -> TensorSum:
    terms = []
    for g, p1, p2 in gate_pairs(config, owner, owner):
        if p1 is p2 or not first(omega[g], p1, p2):
            continue
        left = as_class(config.table, gates.split_at(config, p2, p1))
        right = as_class(config.table, gates.split_at(config, p1, p2))
        if not (left.is_trivial or right.is_trivial):
            terms.append(((left, right), omega[g] * p1.eps * p2.eps))
    return TensorSum(terms)


def mu_by_pairs(config, gate, x, y) -> FormalSum:
    return FormalSum(
        (as_class(config.table, gates.graft_at(config, p, q)), p.eps * q.eps)
        for g, p, q in gate_pairs(config, x, y)
        if g == gate
    )


def side_by_pairs(config, op, gate, sign, owners):
    """One gate side summed over every ordered pair of the gate's crossings,
    keeping a pair when :func:`first` puts its second crossing first: the
    form's count, or the bracket's or cobracket's nonzero terms by integer
    word, as :func:`gates._side` keeps them."""
    if op == "cobracket":
        (owner,) = owners
        cs = config.gate_crossings(gate, owner)
        pairs = [(p1, p2) for p2 in cs for p1 in cs if p1 is not p2 and first(sign, p1, p2)]
        terms = {}
        for p1, p2 in pairs:
            left, right = gates.split_at(config, p2, p1), gates.split_at(config, p1, p2)
            if left and right:
                terms[left, right] = terms.get((left, right), 0) + sign * p1.eps * p2.eps
    else:
        x, y = owners
        pairs = [
            (p, q)
            for p in config.gate_crossings(gate, x)
            for q in config.gate_crossings(gate, y)
            if first(sign, q, p)
        ]
        if op == "form":
            return sum(sign * p.eps * q.eps for p, q in pairs)
        terms = {}
        for p, q in pairs:
            word = gates.graft_at(config, p, q)
            terms[word] = terms.get(word, 0) + sign * p.eps * q.eps
    return {key: coeff for key, coeff in terms.items() if coeff}


def assert_sides_match_the_pairs(config) -> None:
    """Every side of every gate, at both signs and in each order of the
    owners, equals :func:`side_by_pairs`."""
    owners = [(x, y) for x in "ab" for y in "ab"]
    for gate in config.gates:
        for sign in (1, -1):
            for op, named in (("form", owners), ("bracket", owners), ("cobracket", "ab")):
                for names in named:
                    names = tuple(names)
                    assert gates._side(config, op, gate, sign, names) == side_by_pairs(
                        config, op, gate, sign, names
                    ), (op, gate, sign, names)


@st.composite
def raw_configs(draw):
    """A raw configuration of loops ``a`` and ``b``, each a cycle of one
    to six crossings of up to three gates, in random slot orders and with
    random ``eps_omega`` signs."""
    count = draw(st.integers(min_value=1, max_value=3))
    crossing = st.tuples(st.integers(min_value=0, max_value=count - 1), st.sampled_from((1, -1)))
    cycles = {owner: draw(st.lists(crossing, min_size=1, max_size=6)) for owner in "ab"}
    on_gate = {g: [] for g in range(count)}
    for owner, cycle in cycles.items():
        for i, (g, _) in enumerate(cycle):
            on_gate[g].append((owner, i))
    slot = {}
    for members in on_gate.values():
        for rank, member in enumerate(draw(st.permutations(members))):
            slot[member] = rank
    raw = []
    for g, members in on_gate.items():
        crossings = []
        for owner, i in members:
            cycle = cycles[owner]
            nxt = (i + 1) % len(cycle)
            link = {"gate": f"g{cycle[nxt][0]}", "slot": slot[owner, nxt]}
            crossings.append(
                {"owner": owner, "eps": cycle[i][1], "slot": slot[owner, i], "link": link}
            )
        sign = draw(st.sampled_from((1, -1)))
        raw.append({"id": f"g{g}", "eps_omega": sign, "crossings": crossings})
    return raw_config_from_json({"gates": raw})


@settings(max_examples=60, deadline=None)
@given(raw_configs())
def test_sides_match_the_pairs_on_raw_configurations(config):
    assert_sides_match_the_pairs(config)


def test_sides_match_the_pairs_on_expansions(star_pairs):
    for surface, a, b in star_pairs:
        assert_sides_match_the_pairs(
            expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b}))
        )


def test_sides_sum_to_the_pair_definitions(star_pairs):
    rng = random.Random(5)
    checked = 0
    for surface, a, b in star_pairs:
        loops = prepare_loops(surface, {"a": a, "b": b})
        config = expand_to_gates(surface, "s", loops)
        reference = expand_to_gates(surface, "s", loops)
        for omega in rng.sample(orientations(config), 6):
            for x, y in (("a", "b"), ("b", "a")):
                assert gates.form_omega(config, omega, x, y) == form_by_pairs(
                    reference, omega, x, y
                )
                assert gates.bracket_omega(config, omega, x, y) == bracket_by_pairs(
                    reference, omega, x, y
                )
                assert gates.cobracket_omega(config, omega, x) == cobracket_by_pairs(
                    reference, omega, x
                )
                for gate in config.gates:
                    assert gates.mu(config, gate, x, y) == mu_by_pairs(reference, gate, x, y)
                checked += 1
    assert checked == 2 * 6 * len(star_pairs)


# -- one pass per side ----------------------------------------------------------


def sweep(config, omega) -> tuple:
    """Every operation of the gate calculus under one orientation."""
    out = []
    for x, y in (("a", "b"), ("b", "a")):
        out += [
            gates.form_omega(config, omega, x, y),
            gates.form(config, x, y, omega=omega),
            gates.bracket_omega(config, omega, x, y),
            gates.bracket(config, x, y, omega=omega),
            gates.cobracket_omega(config, omega, x),
            gates.cobracket(config, x, omega=omega),
        ]
        for gate in config.gates:
            out += [gates.mu(config, gate, x, y), gates.flip_check(config, omega, gate, x, y)]
    return tuple(out)


@pytest.fixture
def visits(monkeypatch):
    """Calls, by name, of the order rule, the splices and the side pass."""
    calls = {}
    for name in ("_along", "graft_at", "split_at", "_side_pass"):
        original = getattr(gates, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(gates, name, counting)
    return calls


def test_second_sweep_visits_no_pair(star_pairs, visits):
    for surface, a, b in star_pairs:
        loops = prepare_loops(surface, {"a": a, "b": b})
        omegas = orientations(expand_to_gates(surface, "s", loops))
        fresh = [sweep(expand_to_gates(surface, "s", loops), omega) for omega in omegas]
        config = expand_to_gates(surface, "s", loops)
        visits.clear()
        assert [sweep(config, omega) for omega in omegas] == fresh
        # One walk per side: a gate, a sign, an operation and its owners.
        assert visits["_side_pass"] == len(config.sides) <= len(config.gates) * 2 * 6
        assert visits["_along"] == visits["_side_pass"]
        visits.clear()
        assert [sweep(config, omega) for omega in omegas] == fresh
        assert visits == {}


def test_side_keys_and_values(star_pairs):
    """The skew operations sum the +1 side of each gate that every owner
    crosses, in each order of the owners; a gate one owner misses has no
    side."""
    shared = 0
    for surface, a, b in star_pairs:
        config = expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b}))
        gates.form(config)
        gates.bracket(config)
        gates.cobracket(config, "a")
        crossed = {
            owner: {g for g in config.gates if config.gate_crossings(g, owner)} for owner in "ab"
        }
        both = crossed["a"] & crossed["b"]
        assert set(config.sides) == {
            (op, g, 1, owners)
            for g in both
            for op in ("form", "bracket")
            for owners in (("a", "b"), ("b", "a"))
        } | {("cobracket", g, 1, ("a",)) for g in crossed["a"]}
        for (op, *_), value in config.sides.items():
            if op == "form":
                assert isinstance(value, int)
            else:
                assert isinstance(value, dict) and all(value.values())
        shared += len(both)
        # Each configuration has its own table.
        assert not expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b})).sides
    assert shared > 0


def test_empty_gate_is_skipped_after_its_sign_is_checked():
    """The one-gate band example with a second gate that nothing crosses."""
    crossings = [
        {"owner": owner, "eps": eps, "slot": slot, "link": {"gate": "g1", "slot": slot ^ 1}}
        for owner, eps, slot in (("a", 1, 0), ("a", -1, 1), ("b", 1, 2), ("b", -1, 3))
    ]
    config = raw_config_from_json(
        {"gates": [{"id": "g1", "crossings": crossings}, {"id": "g3", "crossings": []}]}
    )
    band, omega = one_gate_config(), {"g1": -1, "g3": 1}
    assert gates.form_omega(config, omega) == gates.form_omega(band, {"g1": -1})
    assert gates.bracket_omega(config, omega) == gates.bracket_omega(band, {"g1": -1})
    assert config.sides and all(key[1] != "g3" for key in config.sides)
    for bad, message in (
        ({"g1": 1}, "gate orientation missing gate 'g3'"),
        ({"g1": 1, "g3": 0}, "gate orientation sign 0 is not +-1"),
    ):
        for op in (gates.form_omega, gates.bracket_omega):
            with pytest.raises(GateCalculusError, match=re.escape(message)):
                op(config, bad)
        with pytest.raises(GateCalculusError, match=re.escape(message)):
            gates.cobracket_omega(config, bad, "a")


# -- mutations ------------------------------------------------------------------


def _unsigned(value, sign):
    """A side's value with its sign dropped."""
    if isinstance(value, int):
        return sign * value
    return {key: sign * coeff for key, coeff in value.items()}


MUTATIONS = {
    "before ignores sign -1": ("_along", lambda original: lambda sign, crossings: crossings),
    "side drops its sign": (
        "_side_pass",
        lambda original: lambda config, op, gate, sign, owners: _unsigned(
            original(config, op, gate, sign, owners), sign
        ),
    ),
}


@pytest.mark.parametrize("spec", ["g1b1", "g2b1"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_fuzz_catches_a_broken_side(monkeypatch, spec, mutation):
    assert run_fuzz(spec, pairs=10, moves=2, seed=0).ok
    name, make = MUTATIONS[mutation]
    monkeypatch.setattr(gates, name, make(getattr(gates, name)))
    report = run_fuzz(spec, pairs=10, moves=2, seed=0)
    assert not report.ok
    # The skew values sum the +1 sides only, so the oracle still agrees:
    # the identities and orientation independence catch the mutation.
    assert {f["check"] for f in report.failures} <= {"identities", "omega_independence"}
