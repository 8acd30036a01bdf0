"""The splice memo of a prepared family: the loops prepared together share
one memo, so repeated operations on the family, under every gate
orientation and by both routes, run the splice kernel at most once per
spliced word and give the values of fresh preparations; a transit's two
gate crossings share their splices with each other and with the star
route; the two orders of a pair are still spliced apart; a fresh
preparation starts with an empty memo.  The memo holds the canonical
integer word of each splice, and each operation decodes only its nonzero
terms."""

import itertools
import random

import pytest

from loopcalc import algebra, fuzz, gates, stars, words
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
    """The reduced word pairs handed to the splice kernel by the splice
    memo, for either route, one entry per call."""
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return join_canonical(u, v)

    monkeypatch.setattr(words, "join_canonical", counting)
    return calls


def family(surface, a, b):
    """The pair prepared afresh as one family."""
    return prepare_loops(surface, {"a": a, "b": b})


def start(config, c) -> int:
    """Where a crossing rotates its owner's word: just after an entering
    letter, at a leaving one."""
    return (c.letter_index + 1) % len(config.words[c.owner].word) if c.eps > 0 else c.letter_index


def splice_key(config, p, q) -> tuple:
    """The word a pair of crossings on one gate splices, with each owner
    named by its index in the family: a graft across owners, the piece
    from ``p`` forward to ``q`` within one."""
    pw, qw = config.words[p.owner], config.words[q.owner]
    if p.owner != q.owner:
        return (pw.index, start(config, p), qw.index, start(config, q))
    count = (q.letter_index - p.letter_index) % len(pw.word)
    return (pw.index, start(config, p), count + 1 - (p.eps > 0) - (q.eps < 0))


def raw_splice(loops, key) -> tuple:
    """The unreduced word a memo key names in a family: two rotations for a
    graft, a piece of one rotation for a split."""
    by_index = [loop.word for loop in loops.values()]

    def rotated(i, at):
        word = by_index[i]
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
        config = expand_to_gates(surface, "s", family(surface, a, b))
        omegas = orientations(config)
        fresh = [values(expand_to_gates(surface, "s", family(surface, a, b)), o) for o in omegas]
        loops = family(surface, a, b)
        memo = loops["a"].memo
        config = expand_to_gates(surface, "s", loops)
        canonicalized.clear()
        for _ in range(2):
            assert [values(config, omega) for omega in omegas] == fresh
            # The star route reads the same memo, and splices nothing new.
            before = len(canonicalized)
            star_bracket(surface, "s", loops["a"], loops["b"])
            star_cobracket(surface, "s", loops["a"])
            assert len(canonicalized) == before
        assert all(word.memo is memo for word in config.words.values())
        assert loops["b"].memo is memo
        assert len(canonicalized) == len(memo.spliced)
        assert set(memo.spliced) <= {splice_key(config, p, q) for p, q in ordered_pairs(config)}
        for key, word in memo.spliced.items():
            assert word == canonical(raw_splice(loops, key))
        spliced += len(canonicalized)
        pairs += len(ordered_pairs(config))
    assert 0 < spliced < pairs


def test_a_transits_two_crossings_share_one_splice(star_pairs, canonicalized):
    """Two transits crossing one edge meet on both gates beside it; each
    crossing pair of the far gate splices the word of its near-gate pair."""
    shared = 0
    for surface, a, b in star_pairs:
        config = expand_to_gates(surface, "s", family(surface, a, b))
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
            fresh = expand_to_gates(surface, "s", family(surface, a, b))
            splice = gates.graft_at if p.owner != q.owner else gates.split_at
            canonicalized.clear()
            first = splice(fresh, p, q)
            second = splice(fresh, partner[p], partner[q])
            assert second == first
            assert len(canonicalized) == 1 and len(fresh.words[p.owner].memo.spliced) == 1
            shared += 1
    assert shared > 0


def test_mu_splices_both_orders(star_pairs, canonicalized):
    checked = 0
    for surface, a, b in star_pairs:
        for gate in expand_to_gates(surface, "s", family(surface, a, b)).gates:
            # A fresh family per gate: the pairs of a neighbouring gate may
            # already have spliced this gate's words.
            config = expand_to_gates(surface, "s", family(surface, a, b))
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
    """Configurations of one family share its memo; a fresh preparation
    starts with an empty one."""
    surface, a, b = star_pairs[0]
    loops = family(surface, a, b)
    first = expand_to_gates(surface, "s", loops)
    again = expand_to_gates(surface, "s", loops)
    gates.bracket(first)
    gates.cobracket(again, "a")
    memo = loops["a"].memo
    assert memo.spliced
    assert all(word.memo is memo for config in (first, again) for word in config.words.values())
    fresh = family(surface, a, b)["a"].memo
    assert fresh is not memo and not fresh.spliced and not fresh.rotations


def test_loops_of_two_families_are_not_expanded_together(star_pairs):
    """Memo keys are indices in one family, so a configuration does not
    hold the loops of two preparations: it is refused when it is made, and
    the gate route's form, bracket and cobracket all raise."""
    surface, a, b = star_pairs[0]
    mixed = {"a": family(surface, a, b)["a"], "b": family(surface, a, b)["b"]}
    with pytest.raises(gates.GateCalculusError, match="prepared as one family"):
        expand_to_gates(surface, "s", mixed)
    for call in (("form", "a", "b"), ("bracket", "a", "b"), ("cobracket", "a")):
        with pytest.raises(gates.GateCalculusError, match="prepared as one family"):
            stars.evaluate(surface, mixed, [call], "gate")


def test_an_empty_configuration_has_no_words():
    config = gates.raw_config_from_json({"gates": [{"id": "g", "crossings": []}]})
    assert config.words.get("a") is None


def test_fuzz_pair_canonicalizes_each_key_once(canonicalized):
    """On one fuzz pair, the star route, the gate route and every check that
    reads the pair run the splice kernel once per distinct key, and the two
    routes share most of their words."""
    rng = random.Random(3)
    surface, _ = surface_from_spec("g2b1")
    shared = 0
    for _ in range(4):
        a, b = random_loop_pair(surface, rng, 12)
        alone = 0
        for method in ("star", "gate"):
            canonicalized.clear()
            stars.evaluate(surface, family(surface, a, b), fuzz.CALLS, method)
            alone += len(canonicalized)
        canonicalized.clear()
        pair = fuzz.fuzz_pair(surface, a, b)
        assert fuzz.oracle_failures(pair) == []
        assert fuzz.identity_failures(pair, rng) == []
        assert fuzz.omega_independence_failures(pair, rng) == []
        assert fuzz.shadow_failures(pair) == []
        assert fuzz.evenness_failures(pair) == []
        memo = pair.prepared["a"].memo
        assert len(canonicalized) == len(memo.spliced) == len(set(memo.spliced))
        assert len(memo.spliced) <= alone
        shared += alone - len(memo.spliced)
    assert shared > 0


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
        gate_ops = [
            lambda config: gates.bracket(config),
            lambda config: gates.bracket_omega(config, {g: -1 for g in config.gates}),
            lambda config: gates.cobracket(config, "a"),
            lambda config: gates.cobracket_omega(config, None, "b"),
            lambda config: gates.mu(config, config.gates[0]),
        ]
        for operation in gate_ops:
            loops = family(surface, a, b)
            config = expand_to_gates(surface, "s", loops)
            built.clear()
            value = operation(config)
            assert len(built) == len(support(value))
            fewer += len(built) < len(loops["a"].memo.spliced)
            calls += 1
        loops = family(surface, a, b)
        for operation in (
            lambda: star_bracket(surface, "s", loops["a"], loops["b"]),
            lambda: star_cobracket(surface, "s", loops["b"]),
        ):
            built.clear()
            value = operation()
            assert len(built) == len(support(value))
            calls += 1
    assert calls == 7 * len(star_pairs) and fewer > 0
