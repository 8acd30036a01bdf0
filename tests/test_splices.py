"""The splice table of a gate configuration: repeated operations on one
configuration, under every gate orientation, canonicalize each ordered
crossing pair at most once and give the values of fresh configurations;
the two orders of a pair are still spliced apart."""

import itertools
import random

import pytest

from loopcalc import gates
from loopcalc.fuzz import random_loop_pair, surface_from_spec
from loopcalc.stars import expand_to_gates
from loopcalc.words import canonical


@pytest.fixture(scope="module")
def star_pairs():
    """Seeded loop pairs on the one-star surfaces g1b1 (4 gates) and g2b1
    (8 gates)."""
    rng = random.Random(11)
    out = []
    for spec in ("g1b1", "g2b1"):
        surface, _ = surface_from_spec(spec)
        out += [(surface, *random_loop_pair(surface, rng, 10)) for _ in range(3)]
    return out


@pytest.fixture
def canonicalized(monkeypatch):
    """The words handed to the word kernel by the gate calculus, one entry
    per call."""
    words = []

    def counting(word):
        words.append(tuple(word))
        return canonical(word)

    monkeypatch.setattr(gates, "canonical", counting)
    return words


def ordered_pairs(config) -> set:
    """The splice keys of every ordered pair of distinct crossings on one
    gate: grafts across owners, splits within one."""
    keys = set()
    for gate in config.gates:
        for p, q in itertools.product(config.gate_crossings(gate), repeat=2):
            if p.owner != q.owner:
                keys.add((p.owner, p.letter_index, q.owner, q.letter_index))
            elif p.letter_index != q.letter_index:
                keys.add((p.owner, p.letter_index, q.letter_index))
    return keys


def orientations(config) -> list[dict]:
    return [
        dict(zip(config.gates, signs))
        for signs in itertools.product((1, -1), repeat=len(config.gates))
    ]


def values(config, omega) -> tuple:
    return (
        gates.bracket(config, omega=omega),
        gates.bracket(config, "b", "a", omega=omega),
        gates.bracket_omega(config, omega),
        gates.bracket_omega(config, omega, "b", "a"),
        gates.cobracket(config, "a", omega=omega),
        gates.cobracket(config, "b", omega=omega),
        gates.cobracket_omega(config, omega, "a"),
    )


def test_each_ordered_pair_is_canonicalized_once(star_pairs, canonicalized):
    spliced = 0
    for surface, a, b in star_pairs:
        loops = {"a": a, "b": b}
        omegas = orientations(expand_to_gates(surface, "s", loops))
        fresh = [values(expand_to_gates(surface, "s", loops), omega) for omega in omegas]
        config = expand_to_gates(surface, "s", loops)
        canonicalized.clear()
        for _ in range(2):
            assert [values(config, omega) for omega in omegas] == fresh
        assert len(canonicalized) == len(config.splices)
        assert set(config.splices) <= ordered_pairs(config)
        spliced += len(canonicalized)
    assert spliced > 0


def test_mu_splices_both_orders(star_pairs, canonicalized):
    checked = 0
    for surface, a, b in star_pairs:
        config = expand_to_gates(surface, "s", {"a": a, "b": b})
        for gate in config.gates:
            n = len(config.gate_crossings(gate, "a")) * len(config.gate_crossings(gate, "b"))
            canonicalized.clear()
            ab = gates.mu(config, gate, "a", "b")
            assert len(canonicalized) == n
            ba = gates.mu(config, gate, "b", "a")
            assert len(canonicalized) == 2 * n
            assert ab == ba
            checked += n
    assert checked > 0


def test_tables_are_not_shared(star_pairs):
    surface, a, b = star_pairs[0]
    first = expand_to_gates(surface, "s", {"a": a, "b": b})
    gates.bracket(first)
    second = expand_to_gates(surface, "s", {"a": a, "b": b})
    assert first.splices and not second.splices
