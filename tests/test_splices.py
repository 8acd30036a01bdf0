"""The splice table of a gate configuration: repeated operations on one
configuration, under every gate orientation, run the splice kernel at most
once per spliced word and give the values of fresh configurations; a
transit's two gate crossings share their splices; the two orders of a pair
are still spliced apart.  The table holds the canonical integer word of
each splice, and each operation decodes only its nonzero terms."""

import itertools
import random

import pytest

from loopcalc import algebra, gates
from loopcalc.fuzz import random_loop_pair, surface_from_spec
from loopcalc.stars import expand_to_gates, prepare_loops, star_bracket, star_cobracket
from loopcalc.words import canonical, join_canonical


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
    """The reduced word pairs handed to the splice kernel by the gate
    calculus, one entry per call."""
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return join_canonical(u, v)

    monkeypatch.setattr(gates, "join_canonical", counting)
    return calls


def start(config, c) -> int:
    """Where a crossing rotates its owner's word: just after an entering
    letter, at a leaving one."""
    return (c.letter_index + 1) % len(config.words[c.owner]) if c.eps > 0 else c.letter_index


def splice_key(config, p, q) -> tuple:
    """The word a pair of crossings on one gate splices: a graft across
    owners, the piece from ``p`` forward to ``q`` within one."""
    if p.owner != q.owner:
        return (p.owner, start(config, p), q.owner, start(config, q))
    count = (q.letter_index - p.letter_index) % len(config.words[p.owner])
    return (p.owner, start(config, p), count + 1 - (p.eps > 0) - (q.eps < 0))


def raw_splice(config, key) -> tuple:
    """The unreduced word a splice table key names: two rotations for a
    graft, a piece of one rotation for a split."""

    def rotated(owner, at):
        word = config.words[owner]
        return word[at:] + word[:at]

    if len(key) == 4:
        return rotated(key[0], key[1]) + rotated(key[2], key[3])
    return rotated(key[0], key[1])[: key[2]]


def ordered_pairs(config) -> list:
    """Every ordered pair of distinct crossings on one gate."""
    return [
        (p, q)
        for gate in config.gates
        for p, q in itertools.product(config.gate_crossings(gate), repeat=2)
        if p is not q
    ]


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


def test_each_spliced_word_is_canonicalized_once(star_pairs, canonicalized):
    spliced = pairs = 0
    for surface, a, b in star_pairs:
        loops = prepare_loops(surface, {"a": a, "b": b})
        omegas = orientations(expand_to_gates(surface, "s", loops))
        fresh = [values(expand_to_gates(surface, "s", loops), omega) for omega in omegas]
        config = expand_to_gates(surface, "s", loops)
        canonicalized.clear()
        for _ in range(2):
            assert [values(config, omega) for omega in omegas] == fresh
        assert len(canonicalized) == len(config.splices)
        assert set(config.splices) <= {splice_key(config, p, q) for p, q in ordered_pairs(config)}
        for key, word in config.splices.items():
            assert word == canonical(raw_splice(config, key))
        spliced += len(canonicalized)
        pairs += len(ordered_pairs(config))
    assert 0 < spliced < pairs


def test_a_transits_two_crossings_share_one_splice(star_pairs, canonicalized):
    """Two transits crossing one edge meet on both gates beside it; each
    crossing pair of the far gate splices the word of its near-gate pair."""
    shared = 0
    for surface, a, b in star_pairs:
        config = expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b}))
        partner = {}  # each crossing -> the transit's crossing on its other gate
        by_transit = {}
        for c in itertools.chain.from_iterable(config.crossings.values()):
            by_transit.setdefault((c.owner, c.letter_index // 2), []).append(c)
        for near, far in by_transit.values():
            assert near.gate != far.gate and start(config, near) == start(config, far)
            partner[near], partner[far] = far, near
        for p, q in ordered_pairs(config):
            if partner[p].gate != partner[q].gate or p.gate > partner[p].gate:
                continue
            fresh = expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b}))
            splice = gates.graft_at if p.owner != q.owner else gates.split_at
            canonicalized.clear()
            first = splice(fresh, p, q)
            second = splice(fresh, partner[p], partner[q])
            assert second == first
            assert len(canonicalized) == 1 and len(fresh.splices) == 1
            shared += 1
    assert shared > 0


def test_mu_splices_both_orders(star_pairs, canonicalized):
    checked = 0
    for surface, a, b in star_pairs:
        for gate in expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b})).gates:
            # A fresh configuration per gate: the pairs of a neighbouring
            # gate may already have spliced this gate's words.
            config = expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b}))
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
    first = expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b}))
    gates.bracket(first)
    second = expand_to_gates(surface, "s", prepare_loops(surface, {"a": a, "b": b}))
    assert first.splices and not second.splices


@pytest.fixture
def built(monkeypatch):
    """Every class the decoding helper builds, one entry per build."""
    classes = []
    original = algebra.HomotopyClass

    def counting(letters):
        classes.append(letters)
        return original(letters)

    monkeypatch.setattr(algebra, "HomotopyClass", counting)
    return classes


def support(value) -> set:
    """The distinct classes among a sum's keys, or its pairs' keys."""
    out = set()
    for key in value.keys():
        out.update(key if isinstance(key, tuple) else (key,))
    return out


def test_only_nonzero_terms_become_classes(star_pairs, built):
    """Each operation builds one class per distinct class of its nonzero
    terms; the words of the splices that cancel never become classes."""
    calls = fewer = 0
    for surface, a, b in star_pairs:
        loops = prepare_loops(surface, {"a": a, "b": b})
        gate_ops = [
            lambda config: gates.bracket(config),
            lambda config: gates.bracket_omega(config, {g: -1 for g in config.gates}),
            lambda config: gates.cobracket(config, "a"),
            lambda config: gates.cobracket_omega(config, None, "b"),
            lambda config: gates.mu(config, config.gates[0]),
        ]
        for operation in gate_ops:
            config = expand_to_gates(surface, "s", loops)
            built.clear()
            value = operation(config)
            assert len(built) == len(support(value))
            fewer += len(built) < len(config.splices)
            calls += 1
        for operation in (
            lambda: star_bracket(surface, "s", loops["a"], loops["b"]),
            lambda: star_cobracket(surface, "s", loops["b"]),
        ):
            built.clear()
            value = operation()
            assert len(built) == len(support(value))
            calls += 1
    assert calls == 7 * len(star_pairs) and fewer > 0
