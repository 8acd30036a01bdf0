"""Acceptance criteria.

Each test implements one criterion exactly at its stated tolerance (all
exact integer/term equality) and prints one pass line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

import pytest

from loopcalc import gates as gatecalc
from loopcalc.algebra import FormalSum
from loopcalc.closed import build_from_graph, canonical_filling_graph, closed_form
from loopcalc.fuzz import (
    evenness_failures,
    fuzz_pair,
    identity_failures,
    move_invariance_failures,
    oracle_failures,
    random_loop_pair,
    shadow_failures,
)
from loopcalc.loops import CombinatorialLoop, compile_word, make_generic, to_class
from loopcalc.stars import aggregate, expand_to_gates, prepare_loops
from loopcalc.surface import canonical_surface

SURFACES = ((0, 2), (0, 3), (1, 1), (2, 1))


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_torus_example():
    """Filling graph with 1 blue, 1 red, 4 edges; counts a.e1 = a.e2 = -1,
    b.e1 = b.e4 = 1: the doubled intersection number is exactly 2."""
    start = time.time()
    graph = build_from_graph(canonical_filling_graph(1))
    assert len(graph.spec.blue) == 1
    assert len(graph.spec.red) == 1
    assert len(graph.spec.edges) == 4
    a = CombinatorialLoop.from_crossings("p", [(0, -1), (1, -1)])
    b = CombinatorialLoop.from_crossings("p", [(0, 1), (3, 1)])
    a, b = make_generic(graph.surface, [a, b])
    result = closed_form(graph, a, b)
    assert result.doubled == 2
    assert result.halved == 1
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"torus filling-graph example: doubled 2, halved 1 ({elapsed:.3f}s)")


def test_criterion_2_vanishing_examples():
    """Both band examples vanish for every operation and both orientation
    conventions; the anti-aligned orientation admits a nonzero value."""
    from conftest import one_gate_config, two_gate_config

    start = time.time()
    one = one_gate_config()
    for omega in ({"g1": 1}, {"g1": -1}):
        assert gatecalc.form_omega(one, omega, "a", "b") == 0
        assert gatecalc.form_omega(one, omega, "b", "a") == 0
        assert gatecalc.bracket_omega(one, omega, "a", "b").is_zero
        assert gatecalc.cobracket_omega(one, omega, "a").is_zero
    assert gatecalc.form(one) == 0
    assert gatecalc.bracket(one).is_zero
    assert gatecalc.cobracket(one, "a").is_zero
    assert gatecalc.cobracket(one, "b").is_zero

    two = two_gate_config(aligned=True)
    omega = two.base_omega
    for x, y in (("a", "b"), ("b", "a")):
        assert gatecalc.form_omega(two, omega, x, y) == 0
        assert gatecalc.bracket_omega(two, omega, x, y).is_zero
    assert gatecalc.cobracket_omega(two, omega, "a").is_zero
    assert gatecalc.cobracket_omega(two, omega, "b").is_zero
    assert gatecalc.form(two) == 0
    assert gatecalc.bracket(two).is_zero
    assert gatecalc.cobracket(two, "a").is_zero
    assert gatecalc.cobracket(two, "b").is_zero

    anti = two_gate_config(aligned=False)
    nonzero = gatecalc.form_omega(anti, anti.base_omega, "b", "a")
    assert nonzero != 0
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(
        2,
        f"band examples vanish; anti-aligned orientation gives {nonzero} ({elapsed:.3f}s)",
    )


def test_criterion_3_differential_oracle():
    """1000 seeded random loop pairs across four surfaces: the per-star
    formulas agree exactly with the expanded gate configurations."""
    start = time.time()
    rng = random.Random(2024)
    mismatches = []
    total = 0
    for genus, boundary in SURFACES:
        surf, _ = canonical_surface(genus, boundary)
        for _ in range(250):
            a, b = random_loop_pair(surf, rng, 12)
            mismatches += oracle_failures(fuzz_pair(surf, a, b))
            total += 1
    elapsed = time.time() - start
    assert total == 1000
    assert mismatches == []
    assert elapsed < 60.0
    report(3, f"star vs gate route identical on 1000 pairs ({elapsed:.1f}s)")


def test_criterion_4_omega_independence_exhaustive():
    """For every surface with at most 6 gates, all 2^gates orientations
    give the same skew form, bracket and cobracket."""
    start = time.time()
    rng = random.Random(4)
    checked = 0
    for genus, boundary in SURFACES:
        surf, _ = canonical_surface(genus, boundary)
        if surf.gate_count() > 6:
            continue
        for _ in range(5):
            a, b = random_loop_pair(surf, rng, 10)
            config = expand_to_gates(surf, "s", prepare_loops(surf, {"a": a, "b": b}))
            gates = config.gates
            base = (
                gatecalc.form(config),
                gatecalc.bracket(config),
                gatecalc.cobracket(config, "a"),
            )
            for signs in itertools.product((1, -1), repeat=len(gates)):
                omega = dict(zip(gates, signs))
                got = (
                    gatecalc.form(config, omega=omega),
                    gatecalc.bracket(config, omega=omega),
                    gatecalc.cobracket(config, "a", omega=omega),
                )
                assert got == base, omega
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(4, f"skew operations constant over {checked} gate orientations ({elapsed:.1f}s)")


def test_criterion_5_identity_suite():
    """Flip, reversal, pairing symmetry, doubling and antisymmetry
    identities on 500 seeded random instances."""
    start = time.time()
    rng = random.Random(5)
    failures = []
    for index in range(500):
        genus, boundary = SURFACES[index % len(SURFACES)]
        surf, _ = canonical_surface(genus, boundary)
        a, b = random_loop_pair(surf, rng, 10)
        failures += identity_failures(fuzz_pair(surf, a, b), rng)
    elapsed = time.time() - start
    assert failures == []
    report(5, f"identity suite exact on 500 instances ({elapsed:.1f}s)")


def test_criterion_6_evenness():
    """Every aggregated coefficient over a star filling is even."""
    start = time.time()
    rng = random.Random(6)
    failures = []
    for index in range(200):
        genus, boundary = SURFACES[index % len(SURFACES)]
        surf, _ = canonical_surface(genus, boundary)
        a, b = random_loop_pair(surf, rng, 12)
        failures += evenness_failures(fuzz_pair(surf, a, b))
    elapsed = time.time() - start
    assert failures == []
    report(6, f"aggregated coefficients even on 200 instances ({elapsed:.1f}s)")


def test_criterion_7_homotopy_invariance():
    """Outputs invariant under 50-step random move sequences, 200 seeded
    instances."""
    start = time.time()
    rng = random.Random(7)
    failures = []
    for index in range(200):
        genus, boundary = SURFACES[index % len(SURFACES)]
        surf, _ = canonical_surface(genus, boundary)
        a, b = random_loop_pair(surf, rng, 8)
        failures += move_invariance_failures(fuzz_pair(surf, a, b), rng, steps=50)
    elapsed = time.time() - start
    assert failures == []
    report(7, f"50-step move invariance on 200 instances ({elapsed:.1f}s)")


def test_criterion_8_known_values():
    """One-holed torus symplectic basis: doubled form 2, doubled bracket
    exactly twice the product class, generator cobrackets zero."""
    surf, gens = canonical_surface(1, 1)
    a, b = make_generic(surf, [gens["x1"], gens["y1"]])
    form_res = aggregate(surf, {"a": a, "b": b}, "form")
    assert form_res.total == 2 and form_res.halved == 1
    bracket_res = aggregate(surf, {"a": a, "b": b}, "bracket")
    xy = to_class(surf, compile_word(surf, gens, "x1 y1"))
    assert bracket_res.total == FormalSum({xy: 2})
    for name in ("x1", "y1"):
        assert aggregate(surf, {"a": gens[name]}, "cobracket").total.is_zero
    for op in ("form", "bracket"):
        star = aggregate(surf, {"a": a, "b": b}, op, method="star").total
        gate = aggregate(surf, {"a": a, "b": b}, op, method="gate").total
        assert star == gate
    assert shadow_failures(fuzz_pair(surf, a, b)) == []
    report(8, "one-holed torus: form 2, bracket 2<xy>, generator cobrackets 0")


def test_criterion_9_abelianization_shadows():
    """Bracket terms abelianize to h(a) + h(b); cobracket tensor factors
    split h(a); signed bracket total equals the form."""
    start = time.time()
    rng = random.Random(9)
    failures = []
    for index in range(200):
        genus, boundary = SURFACES[index % len(SURFACES)]
        surf, _ = canonical_surface(genus, boundary)
        a, b = random_loop_pair(surf, rng, 12)
        failures += shadow_failures(fuzz_pair(surf, a, b))
    elapsed = time.time() - start
    assert failures == []
    report(9, f"abelianization shadows exact on 200 instances ({elapsed:.1f}s)")
