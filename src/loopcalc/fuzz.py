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

``run_fuzz`` drives all of this and returns a deterministic report.  Each
loop pair becomes one :class:`FuzzPair` (:func:`fuzz_pair`), which holds
both routes' per-star values from :func:`loopcalc.stars.evaluate`, and
every check takes that pair; the CLI and the acceptance tests are thin
wrappers around them.  ``inject_bug`` deliberately mis-signs one evaluator
so the harness can demonstrate that a wrong engine is caught.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from loopcalc import gates as gatecalc
from loopcalc import stars as starcalc
from loopcalc.algebra import FormalSum
from loopcalc.gates import GateConfiguration, omega_reverse
from loopcalc.loops import (
    CombinatorialLoop,
    InsertCancellingPair,
    LoopError,
    PreparedLoop,
    RemoveCancellingPair,
    Reposition,
    RotateBasepoint,
    Transit,
    abelianization,
    apply_move,
    exit_gate,
    make_generic,
)
from loopcalc.surface import Star, StarFilledSurface, SurfaceError, canonical_surface


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
    return canonical_surface(genus, boundary)


# -- random generation ----------------------------------------------------------


def random_loop(
    surface: StarFilledSurface, rng: random.Random, max_transits: int = 12
) -> CombinatorialLoop:
    """Seeded random loop of at most ``max_transits`` transits: a random
    gate walk closed up by a shortest path back to the start region, with
    random distinct positions.

    The walk stops at the first hop whose passage would exceed its drawn
    budget, so on a star with many edges, where most passages are long,
    the loop is most often empty.  At seed 11 and cap 12, 80 draws gave 2
    empty loops on ``g1b1``, but 63 on ``g10b1``, 74 on ``g50b1`` and 77 on
    ``g100b1``.  A caller that needs crossings must draw until it has
    them; the draws themselves are pinned by the fuzz digest."""
    surface.require_valid()
    hops = surface.region_hops()
    start = rng.choice(surface.regions).id

    walk: list[tuple[Star, int, int, str]] = []  # (star, entry, exit, region left)
    here = start
    budget = rng.randint(1, max_transits)
    length = 0
    while length < budget:
        star, entry, exit_, there = rng.choice(hops[here])
        step = len(star.passage(entry, exit_))
        if length + step > budget:
            break
        walk.append((star, entry, exit_, here))
        here = there
        length += step

    def closing_passages(origin: str) -> list[tuple[Star, int, int]]:
        if origin == start:
            return []
        parents: dict[str, tuple[str, tuple[Star, int, int]]] = {}
        frontier = [origin]
        seen = {origin}
        while frontier and start not in seen:
            nxt = []
            for r in frontier:
                for star, entry, exit_, there in hops[r]:
                    if there not in seen:
                        seen.add(there)
                        parents[there] = (r, (star, entry, exit_))
                        nxt.append(there)
            frontier = nxt
        path = []
        cur = start
        while cur != origin:
            cur, hop = parents[cur]
            path.append(hop)
        path.reverse()
        return path

    # Trim the walk until walk + closing path fits the cap.
    while True:
        closing = closing_passages(here)
        total = length + sum(len(star.passage(i, o)) for star, i, o in closing)
        if total <= max_transits:
            break
        star, entry, exit_, here = walk.pop()
        length -= len(star.passage(entry, exit_))

    taken = [(star, entry, exit_) for star, entry, exit_, _ in walk] + closing
    crossings = [
        (star.id, e, s) for star, entry, exit_ in taken for e, s in star.passage(entry, exit_)
    ]

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
#
# ``run_fuzz`` makes one :class:`FuzzPair` per loop pair: :func:`fuzz_pair`
# runs :func:`~loopcalc.stars.evaluate` once by each route on the four
# ``CALLS``, and every check reads those values: the oracle compares them,
# the star-route checks (shadows, evenness, the moves baseline) and the
# gate-route checks (identities, omega independence) read their own
# route's.  The gate route also gives each star's configuration, and the
# pair's prepared loops carry one splice memo, which serves both routes
# and every orientation the gate checks evaluate.

#: Stars with at most this many gates get every orientation in the
#: omega-independence check, larger ones ``SAMPLES`` random orientations.
EXHAUSTIVE_LIMIT = 4
SAMPLES = 4

#: What each pair evaluates by both routes: the form and the bracket of
#: ``a`` and ``b``, and the cobracket of each loop.
CALLS = (("form", "a", "b"), ("bracket", "a", "b"), ("cobracket", "a"), ("cobracket", "b"))


@dataclass(frozen=True)
class FuzzPair:
    """A loop pair ``a``, ``b`` on ``surface``, the pair as prepared once
    by :func:`fuzz_pair` (by name), the ``CALLS``' per-star values by the
    star route and by the gate route (as :func:`~loopcalc.stars.evaluate`
    returns them, by call), and each star's gate configuration, by star
    id."""

    surface: StarFilledSurface
    a: CombinatorialLoop
    b: CombinatorialLoop
    prepared: Mapping[str, PreparedLoop]
    star_values: Mapping[tuple[str, ...], tuple[tuple[str, object], ...]]
    gate_values: Mapping[tuple[str, ...], tuple[tuple[str, object], ...]]
    configs: Mapping[str, GateConfiguration]

    @property
    def loops(self) -> dict[str, CombinatorialLoop]:
        return {"a": self.a, "b": self.b}


def fuzz_pair(
    surface: StarFilledSurface, a: CombinatorialLoop, b: CombinatorialLoop
) -> FuzzPair:
    """Prepare the loops once and evaluate each star once by each route."""
    loops = starcalc.prepare_loops(surface, {"a": a, "b": b})
    star_values, _ = starcalc.evaluate(surface, loops, CALLS)
    gate_values, configs = starcalc.evaluate(surface, loops, CALLS, "gate")
    return FuzzPair(surface, a, b, loops, star_values, gate_values, configs)


def _by_star(values: Mapping[tuple[str, ...], Sequence]) -> Iterator[tuple]:
    """Each star's id, form, bracket, cobracket of ``a`` and cobracket of
    ``b``, from one route's values."""
    for row in zip(*(values[call] for call in CALLS)):
        yield (row[0][0], *[value for _, value in row])


def _sums(values: Mapping[tuple[str, ...], Sequence]) -> dict[str, object]:
    """The unhalved sums over the filling of the ``CALLS``, by name."""
    names = ("form", "bracket", "cobracket(a)", "cobracket(b)")
    return {name: starcalc.sum_stars(call[0], values[call]) for name, call in zip(names, CALLS)}


def oracle_failures(pair: FuzzPair, inject_bug: bool = False) -> list[str]:
    """Per-star disagreement between the star formulas and the gate route."""
    failures = []
    rows = zip(_by_star(pair.star_values), _by_star(pair.gate_values))
    for (sid, sf, sb, *scs), (_, gf, gb, *gcs) in rows:
        if inject_bug:
            gf = -gf if gf else gf + 2
        if sf != gf:
            failures.append(f"star {sid}: form {sf} != gate form {gf}")
        if sb != gb:
            failures.append(f"star {sid}: bracket mismatch {sb!r} vs {gb!r}")
        for owner, sc, gc in zip("ab", scs, gcs):
            if sc != gc:
                failures.append(f"star {sid}: cobracket({owner}) mismatch {sc!r} vs {gc!r}")
    return failures


def identity_failures(pair: FuzzPair, rng: random.Random) -> list[str]:
    """Flip, reversal, pairing-symmetry and doubling identities on one
    random gate orientation per star."""
    failures = []
    for sid, skew_form, skew_bracket, _, _ in _by_star(pair.gate_values):
        config = pair.configs[sid]
        omega = random_omega(config.gates, rng)
        rev = omega_reverse(omega)
        for gate in config.gates:
            lhs, rhs = gatecalc.flip_check(config, omega, gate)
            if lhs != rhs:
                failures.append(f"star {sid} gate {gate}: flip identity {lhs} != {rhs}")
        fo_ab = gatecalc.form_omega(config, omega, "a", "b")
        fo_ba_rev = gatecalc.form_omega(config, rev, "b", "a")
        if fo_ab != -fo_ba_rev:
            failures.append(
                f"star {sid}: form reversal {fo_ab} != -({fo_ba_rev})"
            )
        bo_ab = gatecalc.bracket_omega(config, omega, "a", "b")
        bo_ba_rev = gatecalc.bracket_omega(config, rev, "b", "a")
        if bo_ab != -bo_ba_rev:
            failures.append(f"star {sid}: bracket reversal identity failed")
        if skew_form != -gatecalc.form(config, "b", "a"):
            failures.append(f"star {sid}: form is not antisymmetric")
        if skew_bracket != -gatecalc.bracket(config, "b", "a"):
            failures.append(f"star {sid}: bracket is not antisymmetric")
        mu_total = FormalSum()
        vv_total = 0
        for gate in config.gates:
            sign = omega[gate]
            mu_ab = gatecalc.mu(config, gate, "a", "b")
            mu_total = mu_total + sign * mu_ab
            vv_total += sign * gatecalc.v(config, gate, "a") * gatecalc.v(config, gate, "b")
            mu_ba = gatecalc.mu(config, gate, "b", "a")
            if mu_ab != mu_ba:
                failures.append(f"star {sid} gate {gate}: pairing not symmetric")
        if 2 * fo_ab != skew_form + vv_total:
            failures.append(
                f"star {sid}: 2*form_omega {2 * fo_ab} != form {skew_form} + {vv_total}"
            )
        if 2 * bo_ab != skew_bracket + mu_total:
            failures.append(f"star {sid}: bracket doubling identity failed")
        nu = gatecalc.cobracket(config, "a", omega=omega)
        if nu.transpose() != -nu:
            failures.append(f"star {sid}: cobracket is not antisymmetric")
    return failures


def omega_independence_failures(pair: FuzzPair, rng: random.Random) -> list[str]:
    """Skew operations must not depend on the gate orientation; every
    orientation of a star with at most ``EXHAUSTIVE_LIMIT`` gates, sampled
    otherwise."""
    failures = []
    for sid, form, bracket, cobracket, _ in _by_star(pair.gate_values):
        config = pair.configs[sid]
        gates = config.gates
        if len(gates) <= EXHAUSTIVE_LIMIT:
            omegas = [
                dict(zip(gates, signs))
                for signs in itertools.product((1, -1), repeat=len(gates))
            ]
        else:
            omegas = [random_omega(gates, rng) for _ in range(SAMPLES)]
        for omega in omegas:
            if gatecalc.form(config, omega=omega) != form:
                failures.append(f"star {sid}: form depends on orientation {omega}")
            if gatecalc.bracket(config, omega=omega) != bracket:
                failures.append(f"star {sid}: bracket depends on orientation {omega}")
            if gatecalc.cobracket(config, "a", omega=omega) != cobracket:
                failures.append(f"star {sid}: cobracket depends on orientation {omega}")
    return failures


def move_invariance_failures(pair: FuzzPair, rng: random.Random, steps: int = 50) -> list[str]:
    """Apply a random move sequence to the loops; their classes and the
    star route's sums over the filling must not change.  The pair's loops
    are valid, and each move's input is the pair's loop or an earlier
    result, so :func:`~loopcalc.loops.apply_move` validates only each
    result."""
    surface = pair.surface
    baseline_classes = {name: loop.homotopy_class() for name, loop in pair.prepared.items()}
    baseline_sums = _sums(pair.star_values)
    work = pair.loops
    names = sorted(work)
    for _ in range(steps):
        name = rng.choice(names)
        move = random_move(surface, work[name], rng)
        try:
            work[name] = apply_move(surface, work[name], move, checked=True)
        except LoopError:
            continue  # move not applicable against the other loop's points
    work = dict(zip(names, make_generic(surface, [work[n] for n in names])))
    prepared = starcalc.prepare_loops(surface, work)
    classes = {name: loop.homotopy_class() for name, loop in prepared.items()}
    sums = _sums(starcalc.evaluate(surface, prepared, CALLS)[0])
    failures = []
    for name in names:
        if classes[name] != baseline_classes[name]:
            failures.append(f"moves changed the class of loop {name!r}")
    for op, value in baseline_sums.items():
        if sums[op] != value:
            failures.append(f"moves changed aggregated {op}: {value!r} -> {sums[op]!r}")
    return failures


def shadow_failures(pair: FuzzPair) -> list[str]:
    """Abelianization shadows: bracket terms sit over h(a) + h(b), cobracket
    tensor factors split h(a), and the bracket's signed coefficient total
    equals the form."""
    failures = []
    h = abelianization(pair.surface)
    ha = h(pair.prepared["a"])
    expected = tuple(x + y for x, y in zip(ha, h(pair.prepared["b"])))
    for sid, sf, br, cobracket, _ in _by_star(pair.star_values):
        for cls in br.keys():
            if h(cls) != expected:
                failures.append(
                    f"star {sid}: bracket term {cls!r} abelianizes to {h(cls)}, "
                    f"expected {expected}"
                )
        if br.total() != sf:
            failures.append(
                f"star {sid}: bracket coefficient total {br.total()} != form {sf}"
            )
        for (left, right) in cobracket.keys():
            got = tuple(x + y for x, y in zip(h(left), h(right)))
            if got != ha:
                failures.append(
                    f"star {sid}: cobracket term splits {got}, expected {ha}"
                )
    return failures


def evenness_failures(pair: FuzzPair) -> list[str]:
    """The star route's sums over the filling, each loop's cobracket
    included, must halve."""
    failures = []
    for op, total in _sums(pair.star_values).items():
        try:
            starcalc.halve(total, f"aggregate {op}")
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
) -> FuzzReport:
    """Check ``pairs`` seeded random loop pairs on the surface ``spec``,
    with ``moves`` random moves in each move check; raises
    :class:`ValueError` when either count is negative."""
    for name, value in (("pairs", pairs), ("moves", moves)):
        if value < 0:
            raise ValueError(f"{name} must be 0 or more, got {value}")
    surface, _ = surface_from_spec(spec)
    rng = random.Random(seed)
    report = FuzzReport(spec=spec, seed=seed, pairs=pairs, moves=moves)

    def record(name: str, failures: list[str], pair: FuzzPair) -> None:
        report.checks[name] = report.checks.get(name, 0) + 1
        for message in failures:
            report.failures.append(
                {
                    "check": name,
                    "message": message,
                    "size": len(pair.a.transits) + len(pair.b.transits),
                    "loops": {k: v.to_json() for k, v in pair.loops.items()},
                }
            )

    for index in range(pairs):
        pair = fuzz_pair(surface, *random_loop_pair(surface, rng))
        record("oracle", oracle_failures(pair, inject_bug), pair)
        record("identities", identity_failures(pair, rng), pair)
        record("evenness", evenness_failures(pair), pair)
        record("shadows", shadow_failures(pair), pair)
        if index % 5 == 0:
            record("omega_independence", omega_independence_failures(pair, rng), pair)
        if moves and index % 5 == 1:
            record("moves", move_invariance_failures(pair, rng, moves), pair)
    return report
