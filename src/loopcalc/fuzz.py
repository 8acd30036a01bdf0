"""Randomized property harness.

Generates seeded random loops and gate orientations on the canonical
surfaces and checks every algebraic contract the engine promises:

* method agreement: per-star values equal the gate-calculus values of the
  expanded configurations;
* orientation independence of the skew operations;
* the single-gate flip identity, order-reversal identities, per-gate
  pairing symmetry, and the doubling identities relating oriented and skew
  operations;
* evenness of aggregated coefficients, abelianization shadows, and
  invariance under class-preserving loop moves.

``run_fuzz`` drives all of this and returns a deterministic report; the
CLI and the acceptance tests are thin wrappers around it.  ``inject_bug``
deliberately mis-signs one evaluator so the harness can demonstrate that a
wrong engine is caught.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from loopcalc import gates as gatecalc
from loopcalc import stars as starcalc
from loopcalc.algebra import FormalSum
from loopcalc.gates import omega_reverse
from loopcalc.loops import (
    CombinatorialLoop,
    InsertCancellingPair,
    LoopError,
    RemoveCancellingPair,
    Reposition,
    RotateBasepoint,
    Transit,
    abelianization,
    apply_move,
    make_generic,
    to_class,
)
from loopcalc.surface import GateRef, StarFilledSurface, SurfaceError, canonical_surface


def surface_from_spec(spec: str):
    """Parse ``g<G>b<B>`` into the canonical surface and its generators."""
    spec = spec.strip().lower()
    if not spec.startswith("g") or "b" not in spec:
        raise SurfaceError(f"surface spec {spec!r} is not of the form g<G>b<B>")
    g_str, b_str = spec[1:].split("b", 1)
    try:
        genus, boundary = int(g_str), int(b_str)
    except ValueError:
        raise SurfaceError(f"surface spec {spec!r} is not of the form g<G>b<B>") from None
    return canonical_surface(genus, boundary, allow_trivial=True)


# -- random generation ----------------------------------------------------------


def _region_hops(surface: StarFilledSurface):
    """Hops region -> region through one star: (entry gate, exit gate)."""
    hops: dict[str, list[tuple[GateRef, GateRef, str]]] = {r.id: [] for r in surface.regions}
    for star in surface.stars:
        gates = star.gates()
        for gin in gates:
            for gout in gates:
                if gin != gout:
                    hops[surface.region_of(gin)].append(
                        (gin, gout, surface.region_of(gout))
                    )
    return hops


def _passage(surface: StarFilledSurface, entry: GateRef, exit_: GateRef):
    """Edge crossings of one pass through a star disk between two gates."""
    star = surface.star(entry.star)
    n = star.edge_count
    cw = (entry.edge - exit_.edge) % n
    ccw = (exit_.edge - entry.edge) % n
    if cw <= ccw:
        return [((entry.edge - i) % n, 1) for i in range(cw)]
    return [((entry.edge + 1 + i) % n, -1) for i in range(ccw)]


def random_loop(
    surface: StarFilledSurface, rng: random.Random, max_transits: int = 12
) -> CombinatorialLoop:
    """Seeded random loop of at most ``max_transits`` transits: a random
    gate walk closed up by a shortest path back to the start region, with
    random distinct positions."""
    surface.require_valid()
    hops = _region_hops(surface)
    start = rng.choice(surface.regions).id

    walk: list[tuple[GateRef, GateRef, str, str]] = []  # (gin, gout, from, to)
    here = start
    budget = rng.randint(1, max_transits)
    length = 0
    while length < budget:
        gin, gout, there = rng.choice(hops[here])
        step = len(_passage(surface, gin, gout))
        if length + step > budget:
            break
        walk.append((gin, gout, here, there))
        here = there
        length += step

    def closing_passages(origin: str) -> list[tuple[GateRef, GateRef]]:
        if origin == start:
            return []
        parents: dict[str, tuple[str, GateRef, GateRef]] = {}
        frontier = [origin]
        seen = {origin}
        while frontier and start not in seen:
            nxt = []
            for r in frontier:
                for gin, gout, there in hops[r]:
                    if there not in seen:
                        seen.add(there)
                        parents[there] = (r, gin, gout)
                        nxt.append(there)
            frontier = nxt
        path = []
        cur = start
        while cur != origin:
            prev, gin, gout = parents[cur]
            path.append((gin, gout))
            cur = prev
        path.reverse()
        return path

    # Trim the walk until walk + closing path fits the cap.
    while True:
        closing = closing_passages(here)
        total = length + sum(len(_passage(surface, gi, go)) for gi, go in closing)
        if total <= max_transits:
            break
        gin, gout, prev, _ = walk.pop()
        length -= len(_passage(surface, gin, gout))
        here = prev

    crossings: list[tuple[str, int, int]] = []
    for gin, gout, _, _ in walk:
        crossings.extend((gin.star, e, s) for e, s in _passage(surface, gin, gout))
    for gin, gout in closing:
        crossings.extend((gin.star, e, s) for e, s in _passage(surface, gin, gout))

    if not crossings:
        return CombinatorialLoop((), anchor=start)

    by_edge: dict[tuple[str, int], list[int]] = {}
    for i, (s, e, _) in enumerate(crossings):
        by_edge.setdefault((s, e), []).append(i)
    pos: dict[int, Fraction] = {}
    for key, idxs in by_edge.items():
        ranks = list(range(1, len(idxs) + 1))
        rng.shuffle(ranks)
        for i, r in zip(idxs, ranks):
            pos[i] = Fraction(r)
    transits = tuple(
        Transit(s, e, sign, pos[i]) for i, (s, e, sign) in enumerate(crossings)
    )
    return CombinatorialLoop(transits)


def random_loop_pair(surface, rng: random.Random, max_transits: int = 12):
    a = random_loop(surface, rng, max_transits)
    b = random_loop(surface, rng, max_transits)
    a, b = make_generic(surface, [a, b])
    return a, b


def random_omega(gates: Sequence, rng: random.Random) -> dict:
    return {g: rng.choice((1, -1)) for g in gates}


def random_move(surface: StarFilledSurface, loop: CombinatorialLoop, rng: random.Random):
    """A random applicable class-preserving move."""
    kinds = ["insert", "reposition", "rotate"]
    pairs = _cancelling_pairs(loop)
    if pairs:
        kinds.append("remove")
    kind = rng.choice(kinds)
    if kind == "remove":
        return RemoveCancellingPair(rng.choice(pairs))
    if kind == "rotate":
        return RotateBasepoint(rng.randrange(max(len(loop.transits), 1)))
    if kind == "reposition":
        return Reposition(_random_positions(loop, rng))
    where = rng.randrange(max(len(loop.transits), 1))
    if loop.transits:
        from loopcalc.loops import exit_gate

        region = surface.region_of(exit_gate(surface, loop.transits[where - 1]))
    else:
        region = loop.anchor
    gate = rng.choice(surface.region(region).gate_cycle())
    star = surface.star(gate.star)
    sign = rng.choice((1, -1))
    edge = gate.edge if sign > 0 else star.succ(gate.edge)
    taken = {t.pos for t in loop.transits if (t.star, t.edge) == (gate.star, edge)}
    picks: list[Fraction] = []
    while len(picks) < 2:
        p = Fraction(rng.randrange(1, 10**6), rng.choice((1, 2, 3, 5, 7)))
        if p not in taken and p not in picks:
            picks.append(p)
    return InsertCancellingPair(gate.star, edge, where, sign, (picks[0], picks[1]))


def _cancelling_pairs(loop: CombinatorialLoop) -> list[int]:
    n = len(loop.transits)
    out = []
    for i in range(n):
        t1, t2 = loop.transits[i], loop.transits[(i + 1) % n]
        if n >= 2 and (t1.star, t1.edge) == (t2.star, t2.edge) and t1.sign == -t2.sign:
            out.append(i)
    return out


def _random_positions(loop: CombinatorialLoop, rng: random.Random):
    by_edge: dict[tuple[str, int], list[int]] = {}
    for i, t in enumerate(loop.transits):
        by_edge.setdefault((t.star, t.edge), []).append(i)
    pos: dict[int, Fraction] = {}
    for key, idxs in by_edge.items():
        values: set[Fraction] = set()
        while len(values) < len(idxs):
            values.add(Fraction(rng.randrange(1, 10**6), rng.choice((1, 2, 3))))
        for i, v in zip(idxs, sorted(values, key=lambda _: rng.random())):
            pos[i] = v
    return tuple(pos[i] for i in range(len(loop.transits)))


# -- checks ---------------------------------------------------------------------


def oracle_failures(
    surface: StarFilledSurface,
    loops: Mapping[str, CombinatorialLoop],
    inject_bug: bool = False,
) -> list[str]:
    """Per-star disagreement between the star formulas and the gate route."""
    failures = []
    two = "a" in loops and "b" in loops
    loops = starcalc.prepare_loops(surface, loops)
    for star in surface.stars:
        config = starcalc.expand_to_gates(surface, star.id, loops)
        if two:
            sf = starcalc.star_form(surface, star.id, loops["a"], loops["b"])
            gf = gatecalc.form(config)
            if inject_bug:
                gf = -gf if gf else gf + 2
            if sf != gf:
                failures.append(f"star {star.id}: form {sf} != gate form {gf}")
            sb = starcalc.star_bracket(surface, star.id, loops["a"], loops["b"])
            gb = gatecalc.bracket(config)
            if sb != gb:
                failures.append(f"star {star.id}: bracket mismatch {sb!r} vs {gb!r}")
        for owner in loops:
            sc = starcalc.star_cobracket(surface, star.id, loops[owner])
            gc = gatecalc.cobracket(config, owner)
            if sc != gc:
                failures.append(
                    f"star {star.id}: cobracket({owner}) mismatch {sc!r} vs {gc!r}"
                )
    return failures


def identity_failures(
    surface: StarFilledSurface,
    loops: Mapping[str, CombinatorialLoop],
    rng: random.Random,
) -> list[str]:
    """Flip, reversal, pairing-symmetry and doubling identities on one
    random gate orientation per star."""
    failures = []
    loops = starcalc.prepare_loops(surface, loops)
    for star in surface.stars:
        config = starcalc.expand_to_gates(surface, star.id, loops)
        omega = random_omega(config.gates, rng)
        rev = omega_reverse(omega)
        for gate in config.gates:
            lhs, rhs = gatecalc.flip_check(config, omega, gate)
            if lhs != rhs:
                failures.append(f"star {star.id} gate {gate}: flip identity {lhs} != {rhs}")
        fo_ab = gatecalc.form_omega(config, omega, "a", "b")
        fo_ba_rev = gatecalc.form_omega(config, rev, "b", "a")
        if fo_ab != -fo_ba_rev:
            failures.append(
                f"star {star.id}: form reversal {fo_ab} != -({fo_ba_rev})"
            )
        bo_ab = gatecalc.bracket_omega(config, omega, "a", "b")
        bo_ba_rev = gatecalc.bracket_omega(config, rev, "b", "a")
        if bo_ab != -bo_ba_rev:
            failures.append(f"star {star.id}: bracket reversal identity failed")
        skew_form = gatecalc.form(config)
        skew_bracket = gatecalc.bracket(config)
        if skew_form != -gatecalc.form(config, "b", "a"):
            failures.append(f"star {star.id}: form is not antisymmetric")
        if skew_bracket != -gatecalc.bracket(config, "b", "a"):
            failures.append(f"star {star.id}: bracket is not antisymmetric")
        mu_total = FormalSum()
        vv_total = 0
        for gate in config.gates:
            sign = omega[gate]
            mu_total = mu_total + sign * gatecalc.mu(config, gate, "a", "b")
            vv_total += sign * gatecalc.v(config, gate, "a") * gatecalc.v(config, gate, "b")
            mu_ab = gatecalc.mu(config, gate, "a", "b")
            mu_ba = gatecalc.mu(config, gate, "b", "a")
            if mu_ab != mu_ba:
                failures.append(f"star {star.id} gate {gate}: pairing not symmetric")
        if 2 * fo_ab != skew_form + vv_total:
            failures.append(
                f"star {star.id}: 2*form_omega {2 * fo_ab} != form {skew_form} + {vv_total}"
            )
        if 2 * bo_ab != skew_bracket + mu_total:
            failures.append(f"star {star.id}: bracket doubling identity failed")
        nu = gatecalc.cobracket(config, "a", omega=omega)
        if nu.transpose() != -nu:
            failures.append(f"star {star.id}: cobracket is not antisymmetric")
    return failures


def omega_independence_failures(
    surface: StarFilledSurface,
    loops: Mapping[str, CombinatorialLoop],
    rng: random.Random | None = None,
    exhaustive_limit: int = 6,
    samples: int = 8,
) -> list[str]:
    """Skew operations must not depend on the gate orientation; exhaustive
    when the star has few gates, sampled otherwise."""
    failures = []
    two = "a" in loops and "b" in loops
    loops = starcalc.prepare_loops(surface, loops)
    for star in surface.stars:
        config = starcalc.expand_to_gates(surface, star.id, loops)
        gates = config.gates
        if len(gates) <= exhaustive_limit:
            omegas = [
                dict(zip(gates, signs))
                for signs in itertools.product((1, -1), repeat=len(gates))
            ]
        else:
            if rng is None:
                rng = random.Random(0)
            omegas = [random_omega(gates, rng) for _ in range(samples)]
        base_form = gatecalc.form(config) if two else None
        base_bracket = gatecalc.bracket(config) if two else None
        base_nu = gatecalc.cobracket(config, "a")
        for omega in omegas:
            if two and gatecalc.form(config, omega=omega) != base_form:
                failures.append(f"star {star.id}: form depends on orientation {omega}")
            if two and gatecalc.bracket(config, omega=omega) != base_bracket:
                failures.append(f"star {star.id}: bracket depends on orientation {omega}")
            if gatecalc.cobracket(config, "a", omega=omega) != base_nu:
                failures.append(f"star {star.id}: cobracket depends on orientation {omega}")
    return failures


def _snapshot(surface: StarFilledSurface, loops: Mapping[str, CombinatorialLoop]):
    out = {name: to_class(surface, loop) for name, loop in loops.items()}
    loops = starcalc.prepare_loops(surface, loops)
    ops = {}
    if "a" in loops and "b" in loops:
        ops["form"] = starcalc.aggregate(surface, loops, "form").total
        ops["bracket"] = starcalc.aggregate(surface, loops, "bracket").total
    ops["cobracket"] = starcalc.aggregate(surface, {"a": loops["a"]}, "cobracket").total
    return out, ops


def move_invariance_failures(
    surface: StarFilledSurface,
    loops: Mapping[str, CombinatorialLoop],
    rng: random.Random,
    steps: int = 50,
) -> list[str]:
    """Apply a random move sequence to the loops; classes and aggregated
    outputs must not change."""
    baseline_classes, baseline_ops = _snapshot(surface, loops)
    work = dict(loops)
    names = sorted(work)
    for _ in range(steps):
        name = rng.choice(names)
        move = random_move(surface, work[name], rng)
        try:
            work[name] = apply_move(surface, work[name], move)
        except LoopError:
            continue  # move not applicable against the other loop's points
    repositioned = make_generic(surface, [work[n] for n in names])
    work = dict(zip(names, repositioned))
    classes, ops = _snapshot(surface, work)
    failures = []
    for name in names:
        if classes[name] != baseline_classes[name]:
            failures.append(f"moves changed the class of loop {name!r}")
    for op, value in baseline_ops.items():
        if ops[op] != value:
            failures.append(f"moves changed aggregated {op}: {value!r} -> {ops[op]!r}")
    return failures


def shadow_failures(
    surface: StarFilledSurface, loops: Mapping[str, CombinatorialLoop]
) -> list[str]:
    """Abelianization shadows: bracket terms sit over h(a) + h(b), cobracket
    tensor factors split h(a), and the bracket's signed coefficient total
    equals the form."""
    failures = []
    h = abelianization(surface)
    ha = h(loops["a"])
    hb = h(loops["b"]) if "b" in loops else None
    loops = starcalc.prepare_loops(surface, loops)
    for star in surface.stars:
        if hb is not None:
            br = starcalc.star_bracket(surface, star.id, loops["a"], loops["b"])
            expected = tuple(x + y for x, y in zip(ha, hb))
            for cls in br.keys():
                if h(cls) != expected:
                    failures.append(
                        f"star {star.id}: bracket term {cls!r} abelianizes to {h(cls)}, "
                        f"expected {expected}"
                    )
            sf = starcalc.star_form(surface, star.id, loops["a"], loops["b"])
            if br.total() != sf:
                failures.append(
                    f"star {star.id}: bracket coefficient total {br.total()} != form {sf}"
                )
        nu = starcalc.star_cobracket(surface, star.id, loops["a"])
        for (left, right) in nu.keys():
            got = tuple(x + y for x, y in zip(h(left), h(right)))
            if got != ha:
                failures.append(
                    f"star {star.id}: cobracket term splits {got}, expected {ha}"
                )
    return failures


def evenness_failures(
    surface: StarFilledSurface, loops: Mapping[str, CombinatorialLoop]
) -> list[str]:
    failures = []
    ops = ["cobracket"] if "b" not in loops else ["form", "bracket", "cobracket"]
    loops = starcalc.prepare_loops(surface, loops)
    for op in ops:
        args = {"a": loops["a"]} if op == "cobracket" else loops
        try:
            starcalc.aggregate(surface, args, op)
        except starcalc.OddCoefficientError as exc:
            failures.append(f"{op}: {exc}")
    return failures


# -- the driver -------------------------------------------------------------------


@dataclass
class FuzzReport:
    spec: str
    seed: int
    pairs: int
    moves: int
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        counterexample = None
        if self.failures:
            counterexample = min(self.failures, key=lambda f: f.get("size", 0))
        return {
            "surface": self.spec,
            "seed": self.seed,
            "pairs": self.pairs,
            "moves": self.moves,
            "checks": dict(sorted(self.checks.items())),
            "ok": self.ok,
            "failures": self.failures,
            "counterexample": counterexample,
        }


def run_fuzz(
    spec: str = "g1b1",
    pairs: int = 50,
    moves: int = 20,
    seed: int = 0,
    inject_bug: bool = False,
    max_transits: int = 12,
) -> FuzzReport:
    surface, _ = surface_from_spec(spec)
    rng = random.Random(seed)
    report = FuzzReport(spec=spec, seed=seed, pairs=pairs, moves=moves)

    def record(name: str, failures: list[str], loops) -> None:
        report.checks[name] = report.checks.get(name, 0) + 1
        for message in failures:
            report.failures.append(
                {
                    "check": name,
                    "message": message,
                    "size": sum(len(l.transits) for l in loops.values()),
                    "loops": {k: v.to_json() for k, v in loops.items()},
                }
            )

    for index in range(pairs):
        a, b = random_loop_pair(surface, rng, max_transits)
        loops = {"a": a, "b": b}
        record("oracle", oracle_failures(surface, loops, inject_bug=inject_bug), loops)
        record("identities", identity_failures(surface, loops, rng), loops)
        record("evenness", evenness_failures(surface, loops), loops)
        record("shadows", shadow_failures(surface, loops), loops)
        if index % 5 == 0:
            record(
                "omega_independence",
                omega_independence_failures(surface, loops, rng, exhaustive_limit=4, samples=4),
                loops,
            )
        if moves and index % 5 == 1:
            record("moves", move_invariance_failures(surface, loops, rng, moves), loops)
    return report
