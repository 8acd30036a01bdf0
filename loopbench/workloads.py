"""Seeded inputs and the workloads of the loopcalc benchmark.

Every input is made here from the workload seed: bounded-surface loops come
from this module's own walk generator, never from ``loopcalc.fuzz``, so a
change to the library's generators cannot change what is measured.  The
library is reached only through its public calls: ``stars.aggregate``,
``closed.closed_form/_bracket/_cobracket`` and ``fuzz.run_fuzz``.

A workload is a list of *items*; one item is one unit of work (a loop pair
and all of its calls, or one fuzz block).  ``run_item`` times each public
call on its own, checks the outputs, and digests the results.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import statistics
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

MODULES = ("algebra", "loops", "stars", "gates", "closed", "fuzz", "surface", "words", "_wordpure")
ROUTES = ("star", "gate")
OPS = ("form", "bracket", "cobracket")
#: Per-call latency keys, one per (route, op); every workload times all six.
CALL_KEYS = tuple(f"{route}.{op}" for route in ROUTES for op in OPS)


def import_loopcalc(fresh: bool) -> SimpleNamespace:
    """Import the package's modules; ``fresh`` drops any earlier import
    first, so the import itself is part of a timed set-up."""
    if fresh:
        for name in [n for n in sys.modules if n == "loopcalc" or n.startswith("loopcalc.")]:
            del sys.modules[name]
    ns = SimpleNamespace(**{m: importlib.import_module(f"loopcalc.{m}") for m in MODULES})
    ns.package = sys.modules["loopcalc"]
    return ns


# -- loop generation ------------------------------------------------------------


def _passage(n: int, entry: int, exit_: int) -> list[tuple[int, int]]:
    """(edge, sign) crossings of the shorter way through an ``n``-edge star
    from gate ``entry`` to gate ``exit_``; gate ``k`` lies between edges
    ``k`` and ``k + 1``."""
    cw = (entry - exit_) % n
    ccw = (exit_ - entry) % n
    if cw <= ccw:
        return [((entry - i) % n, 1) for i in range(cw)]
    return [((entry + 1 + i) % n, -1) for i in range(ccw)]


class LoopMaker:
    """Random closed walks through the stars of one surface.

    A walk leaves a region through a gate, crosses the star to another of
    its gates and arrives in that gate's region; it never re-enters the
    gate it just left, so walks rarely backtrack.  Once the target length
    is nearly spent, the walk closes along a shortest way home.
    """

    def __init__(self, ns: SimpleNamespace, surface):
        self.ns = ns
        self.regions = [r.id for r in surface.regions]
        self.hops: dict[str, list] = {r: [] for r in self.regions}
        for star in surface.stars:
            gates = star.gates()
            for gin in gates:
                for gout in gates:
                    if gin != gout:
                        cross = tuple(
                            (star.id, e, s) for e, s in _passage(star.edge_count, gin.edge, gout.edge)
                        )
                        self.hops[surface.region_of(gin)].append(
                            (gin, gout, surface.region_of(gout), cross)
                        )
        self._dist: dict[str, dict[str, int]] = {}

    def _dist_to(self, home: str) -> dict[str, int]:
        """Fewest transits from each region back to ``home``."""
        if home not in self._dist:
            dist = {r: float("inf") for r in self.regions}
            dist[home] = 0
            changed = True
            while changed:
                changed = False
                for r, hops in self.hops.items():
                    best = min((len(h[3]) + dist[h[2]] for h in hops), default=dist[r])
                    if best < dist[r]:
                        dist[r] = best
                        changed = True
            self._dist[home] = dist
        return self._dist[home]

    def crossings(self, rng: random.Random, target: int) -> list[tuple[str, int, int]]:
        home = rng.choice(self.regions)
        dist = self._dist_to(home)
        here, last_out, out = home, None, []
        while True:
            options = [
                h for h in self.hops[here]
                if h[0] != last_out and len(out) + len(h[3]) + dist[h[2]] <= target
            ]
            if not options:
                break
            _, last_out, here, cross = rng.choice(options)
            out.extend(cross)
        while here != home:
            _, _, here, cross = next(
                h for h in self.hops[here] if len(h[3]) + dist[h[2]] == dist[here]
            )
            out.extend(cross)
        return out

    def place(self, rng: random.Random, walks):
        """Loops from crossing walks, with distinct random positions on every
        edge the walks share."""
        slots: dict[tuple[str, int], list[tuple[int, int]]] = {}
        for owner, walk in enumerate(walks):
            for i, (star, edge, _) in enumerate(walk):
                slots.setdefault((star, edge), []).append((owner, i))
        pos = {}
        for occupants in slots.values():
            ranks = list(range(1, len(occupants) + 1))
            rng.shuffle(ranks)
            pos.update(zip(occupants, ranks))
        loops = self.ns.loops
        return tuple(
            loops.CombinatorialLoop(
                tuple(
                    loops.Transit(star, edge, sign, Fraction(pos[owner, i]))
                    for i, (star, edge, sign) in enumerate(walk)
                )
            )
            for owner, walk in enumerate(walks)
        )


def splice_work(surface, walk_a, walk_b) -> tuple[int, int]:
    """Letters the star route splices for a pair: crossing pairs on
    consecutive edges times the length of the words they splice; for the
    bracket of a with b and for the cobracket of a."""
    counts = []
    for walk in (walk_a, walk_b):
        c: dict[tuple[str, int], int] = {}
        for star, edge, _ in walk:
            c[star, edge] = c.get((star, edge), 0) + 1
        counts.append(c)
    ca, cb = counts
    cross = own = 0
    for star in surface.stars:
        n = star.edge_count
        for e in range(n):
            here, nxt = (star.id, e), (star.id, (e + 1) % n)
            cross += ca.get(here, 0) * cb.get(nxt, 0) + ca.get(nxt, 0) * cb.get(here, 0)
            own += ca.get(here, 0) * ca.get(nxt, 0)
    return (cross + 1) * (len(walk_a) + len(walk_b)), (own + 1) * len(walk_a)


def stratified_lengths(rng: random.Random, cap: int, count: int) -> list[int]:
    """``count`` loop lengths spread evenly over ``[cap // 2, cap]`` in
    random order."""
    low = cap // 2
    span = cap - low + 1
    lengths = [low + int(span * (k + rng.random()) / count) for k in range(count)]
    rng.shuffle(lengths)
    return lengths


#: Candidate pairs drawn per pair kept.
OVERSAMPLE = 8


def pair_items(rng, maker, surface, label, cap, count):
    """``count`` typical pairs of one size class: of ``OVERSAMPLE`` times
    as many candidates, the ones whose bracket and cobracket splice work
    lie closest to the candidates' medians.  Random walks of one length
    differ several-fold in splice work; keeping typical pairs makes each
    cap a tight cost class, so percentiles over the mix, and the cost of a
    round, stay nearly the same from seed to seed."""
    total = count * OVERSAMPLE
    candidates = [
        (maker.crossings(rng, la), maker.crossings(rng, lb))
        for la, lb in zip(stratified_lengths(rng, cap, total), stratified_lengths(rng, cap, total))
    ]
    work = [splice_work(surface, *walks) for walks in candidates]
    medians = [statistics.median(w[i] for w in work) for i in (0, 1)]

    def distance(k):
        return sum(abs(math.log(work[k][i] / medians[i])) for i in (0, 1))

    chosen = sorted(range(total), key=lambda k: (distance(k), k))[:count]
    items = []
    for k in chosen:
        a, b = maker.place(rng, candidates[k])
        items.append(Item(label=f"{label}/cap{cap}", surface=surface, a=a, b=b))
    return items


# -- workloads ------------------------------------------------------------------


@dataclass
class Item:
    """One unit of work: a loop pair on a surface (or filling graph), or a
    block of ``run_fuzz`` pairs."""

    label: str
    surface: object
    a: object = None
    b: object = None
    graph: object = None
    fuzz: tuple | None = None  # (spec, block seed, block pairs)
    visits: int = 1  # runs per round

    def loop_pairs(self) -> list:
        return [] if self.fuzz else [(self.a, self.b)]

    def pairs(self) -> int:
        return self.fuzz[2] if self.fuzz else 1


#: Pairs per cost class.  ``tri-torus`` has three classes of equal size
#: whose costs differ several-fold, so the median call falls in the middle
#: of the middle class and the tail (the 11th slowest call) inside the top
#: class, never in the gap between two classes.  With 16 a class the tail
#: is the top class's sixth fastest call rather than one of its extremes,
#: so it moves little from seed to seed: over eight seeds the cobracket
#: tails' quartiles lay 0.02 of their median apart, against 0.17 with 12.
CLASS_SIZE = 16


def torus_grid(n: int):
    """Triangles of the n x n grid triangulation of the torus, each square
    split along its rising diagonal, corners in counterclockwise order."""
    def v(i, j):
        return f"v{i % n}_{j % n}"

    tris = []
    for i in range(n):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    return tris


def _tri_torus(ns, rng):
    # Cap 12: the time goes to rescanning each loop once per star, which
    # short loops still do, and short calls more often meet the shared host
    # at full speed (cap-24 runs spread up to twice as much).
    items = []
    for n in (3, 5, 8):
        graph = ns.closed.build_from_graph(ns.closed.from_triangulation(torus_grid(n)))
        maker = LoopMaker(ns, graph.surface)
        items += pair_items(rng, maker, graph.surface, f"torus{n}x{n}", 12, CLASS_SIZE)
    return items


#: Caps and pairs per cap of the genus-2 set.  Exact genus >= 2
#: normalization grows steeply with loop length (on a 2-vCPU x86-64 host a
#: closed bracket call took up to 0.08 s at cap 16, 0.2 s at cap 20 and
#: seconds at cap 40), so the caps stay short.
CLOSED_G2_CAPS = (8, 12, 16)
CLOSED_G2_CLASS = 6


def closed_g2_items(ns, seed: int) -> list[Item]:
    """Pairs on the genus-2 filling graph whose star-route calls are the
    closed operations, so they reach the genus >= 2 normalizer.  Its cost
    is too heavy-tailed for a timed workload; traced runs of ``tri-torus``
    add this set so the ``closed.*`` layers are measured on it."""
    rng = random.Random(f"closed-g2/{seed}")
    graph = ns.closed.build_from_graph(ns.closed.canonical_filling_graph(2))
    maker = LoopMaker(ns, graph.surface)
    items = []
    for cap in CLOSED_G2_CAPS:
        for item in pair_items(rng, maker, graph.surface, "closed-g2", cap, CLOSED_G2_CLASS):
            item.graph = graph
            items.append(item)
    return _prepared(ns, items)


FUZZ_BLOCK = 5  # run_fuzz's omega and move checks each come once per 5 pairs
#: Blocks per surface.  A round takes about 2 s on a 2-vCPU host.  run_fuzz
#: draws its own loops, so a round's run_fuzz time varies with the seed (by
#: 0.1 of its median, quartile to quartile, over eight seeds).
FUZZ_BLOCKS = 8
#: Pairs for the six calls, each run ``FUZZ_BENCH_VISITS`` times a round at
#: random places in it.  With one visit a round, the latency tails of runs
#: on a slow host spread up to 0.25 of their median: too few of a call's
#: runs met the host at full speed.
FUZZ_BENCH = 40
FUZZ_BENCH_VISITS = 4


def _fuzz_oracle(ns, rng):
    # The six calls run on typical cap-12 pairs of g2b1, one tight class,
    # listed among the blocks so that any prefix of the items has both.
    bench_surface, _ = ns.fuzz.surface_from_spec("g2b1")
    bench = pair_items(rng, LoopMaker(ns, bench_surface), bench_surface, "g2b1", 12, FUZZ_BENCH)
    for item in bench:
        item.visits = FUZZ_BENCH_VISITS
    blocks = [(spec, rng.randrange(2**31)) for spec in ("g1b1", "g2b1") for _ in range(FUZZ_BLOCKS)]
    items = []
    for k, (spec, seed) in enumerate(blocks):
        items.append(Item(label=f"fuzz/{spec}", surface=bench_surface, fuzz=(spec, seed, FUZZ_BLOCK)))
        items += bench[k * FUZZ_BENCH // len(blocks): (k + 1) * FUZZ_BENCH // len(blocks)]
    return items


WORKLOADS = {
    "tri-torus": _tri_torus,
    "fuzz-oracle": _fuzz_oracle,
}


def build_items(ns, name: str, seed: int) -> list[Item]:
    """The workload's items for ``seed``, with every loop validated and the
    surfaces' lazy caches filled."""
    return _prepared(ns, WORKLOADS[name](ns, random.Random(f"{name}/{seed}")))


#: Items that traced runs of a workload add to its own.
TRACE_EXTRAS = {"tri-torus": closed_g2_items}


def _prepared(ns, items: list[Item]) -> list[Item]:
    for item in items:
        item.surface.letter_table()
        item.surface.validation()
        for pair in item.loop_pairs():
            for loop in pair:
                ns.loops.require_valid_loop(item.surface, loop)
    return items


def input_digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.label.encode())
        if item.fuzz:
            h.update(repr(item.fuzz).encode())
        for pair in item.loop_pairs():
            h.update(json.dumps([loop.to_json() for loop in pair], sort_keys=True).encode())
    return h.hexdigest()


# -- running one item -------------------------------------------------------------


def _timed(times: dict, key: str, fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    times.setdefault(key, []).append(perf_counter() - start)
    return result


def _route_calls(ns, surface, a, b, times, results, problems):
    """The six bounded calls on one pair; the routes must agree."""
    both, one = {"a": a, "b": b}, {"a": a}
    for op in OPS:
        loops = one if op == "cobracket" else both
        star = _timed(times, f"star.{op}", ns.stars.aggregate, surface, loops, op, method="star")
        gate = _timed(times, f"gate.{op}", ns.stars.aggregate, surface, loops, op, method="gate")
        if star.per_star != gate.per_star or star.total != gate.total:
            problems.append(f"{op}: star and gate routes disagree")
        results += [star, gate]


def _closed_calls(ns, item, times, results, problems):
    """Closed operations by the star route, and the gate route over the
    same filling's bounded surface; their per-star values must agree."""
    a, b, graph = item.a, item.b, item.graph
    closed = ns.closed
    form = _timed(times, "star.form", closed.closed_form, graph, a, b)
    bracket = _timed(times, "star.bracket", closed.closed_bracket, graph, a, b)
    cobracket = _timed(times, "star.cobracket", closed.closed_cobracket, graph, a)
    both, one = {"a": a, "b": b}, {"a": a}
    for op, res, loops in (("form", form, both), ("bracket", bracket, both), ("cobracket", cobracket, one)):
        gate = _timed(times, f"gate.{op}", ns.stars.aggregate, graph.surface, loops, op, method="gate")
        if gate.per_star != res.per_star:
            problems.append(f"{op}: closed per-star values differ from the gate route")
        results += [res, gate]
    if bracket.doubled.total() != form.doubled:
        problems.append("closed bracket coefficients do not add up to the closed form")
    if cobracket.doubled.transpose() != -cobracket.doubled:
        problems.append("closed cobracket is not minus its transpose")
    unsaturated = sum(1 for res in (bracket, cobracket) if not res.saturated)
    return unsaturated


def _key_text(memo: dict, key) -> str:
    """repr of a class, or a tuple of classes, as plain tuples; ``memo``
    keeps one text per key object, since a result's per-star values, sum
    and halved value share their keys."""
    text = memo.get(id(key))
    if text is None:
        if isinstance(key, tuple):
            text = repr(tuple(_key_text(memo, k) for k in key))
        else:
            text = repr(tuple(vars(key).values()))
        memo[id(key)] = text
    return text


def _feed(h, ns, memo, value) -> None:
    """Hash a result value; formal sums go in as sorted plain terms."""
    if isinstance(value, ns.algebra.FormalSum):
        terms = sorted((_key_text(memo, k), value.coefficient(k)) for k in value.keys())
        h.update("".join(f"{text}*{coeff};" for text, coeff in terms).encode())
    elif isinstance(value, tuple):
        for part in value:
            _feed(h, ns, memo, part)
    else:
        h.update(repr(value).encode())


def results_digest(ns, results) -> str:
    """sha256 over every field of every result, in order."""
    h = hashlib.sha256()
    memo: dict = {}
    for result in results:
        for f in fields(result):
            h.update(f.name.encode())
            _feed(h, ns, memo, getattr(result, f.name))
    return h.hexdigest()


@dataclass
class Outcome:
    times: dict  # call key -> seconds of each such call, in call order
    digest: str
    problems: list
    unsaturated: int = 0


def run_item(ns, item: Item, keep_digest: bool) -> Outcome:
    """Run one item's calls, timing each; raise nothing.  Checks and the
    digest happen outside the timed calls."""
    times: dict = {}
    results: list = []
    problems: list = []
    unsaturated = 0
    try:
        if item.fuzz:
            spec, seed, pairs = item.fuzz
            report = _timed(times, "fuzz", ns.fuzz.run_fuzz, spec, pairs=pairs, seed=seed)
            if not report.ok:
                problems.append(f"fuzz report not ok: {report.failures[:1]}")
            results.append(report)
        elif item.graph is not None:
            unsaturated = _closed_calls(ns, item, times, results, problems)
        else:
            _route_calls(ns, item.surface, item.a, item.b, times, results, problems)
    except Exception as exc:  # a failed unit is counted, not fatal
        problems.append(f"{type(exc).__name__}: {exc}")
    digest = results_digest(ns, results) if keep_digest and not problems else ""
    return Outcome(times, digest, problems, unsaturated)
