#!/usr/bin/env python3
"""The loopcalc benchmark.

    python3 loopbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there, and the run fails (exit 2) when it is missing.  The load is
closed-loop: one caller in one thread, each call starting when the previous
one returns.

Workloads (``workloads.py`` says why each exists): ``tri-torus`` and
``fuzz-oracle``.  One *pair* is a loop pair with all six
calls on it (form, bracket and cobracket of ``a``, by the star and by the
gate route); on ``fuzz-oracle`` each ``run_fuzz`` pair is one pair too.

Set-up imports the package afresh, builds the surfaces, generates and
validates the inputs and fills the surfaces' lazy caches.  It runs
``SETUP_REPS`` times: once before the timed phase, and then at even
intervals through it (the phase is lengthened by the time they take), with
the package in use put back after each; ``setup_s`` is the fastest, as for
the other timings here: on a 2-vCPU host set-up times within one run fell
in two modes up to 1.7x apart, and their median moved between the modes
from run to run.
The timed phase runs every item in rounds, each in a new seeded order,
until ``--seconds`` have passed; an item runs ``item.visits`` times a round.  Every call is timed on its own and each
call of each item keeps its fastest run, which drops the machine's short
stalls; the latency metrics are percentiles over these per-call times:
``p50`` and the tail, the highest percentile with at least ten calls beyond
it (the run record gives the percentile and the call count).
``pairs_per_s`` is the number of pairs over the sum of these per-call
times, ``run_fuzz`` calls included.  On a shared 2-vCPU
host whose speed changes from second to second, the rate of a complete
round spread by a quarter and more from run to run, and the sum of each
item's fastest visit (all of its calls back to back) by 0.17 over 55 s
windows of one process, against 0.11 for the sum of per-call minima.
The outputs of every call are checked; a failed item is counted and left
out of the timings.

With ``--trace 1`` the run alternates untraced and traced rounds and prints
the per-layer metrics of ``layers.py`` instead; counts come from the first
traced round, times are medians over traced rounds, and
``trace.overhead_frac`` compares traced with untraced round times.  On
``tri-torus`` these rounds also run the genus-2 set of
``workloads.closed_g2_items``, which is the only input that reaches the
genus >= 2 normalizer; it has its own digests in the run record.
``words.kernel.*`` time the pure and the compiled word kernel on words the
traced round canonicalized; the compiled kernel is the package's own when
it imports, else it is compiled from ``src/loopcalc/_wordcore.c`` into
``.bench_build/``, and ``compiled_us`` is -1 when neither works.

Output: a ``{"run_record": ...}`` line (versions, machine, calibration
loop, digests, percentiles, failures), then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import sysconfig
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "wordcore"

SETUP_REPS = 7
TAIL_BEYOND = 10


def calibration_ms() -> float:
    """Median of three timings of a fixed pure-Python loop; compared at the
    start and end of a run, it tells machine slowdowns from code ones."""
    runs = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        runs.append(perf_counter() - start)
    return statistics.median(runs) * 1000


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def set_up(workloads, name: str, seed: int):
    """(seconds, modules, items) of one set-up from a fresh import."""
    began = perf_counter()
    ns = workloads.import_loopcalc(fresh=True)
    items = workloads.build_items(ns, name, seed)
    return perf_counter() - began, ns, items


def spare_set_up(workloads, name: str, seed: int) -> float:
    """Seconds of one more set-up, whose results are dropped; the package
    modules in use are put back in ``sys.modules`` afterwards."""
    def ours():
        return [n for n in sys.modules if n == "loopcalc" or n.startswith("loopcalc.")]

    kept = {n: sys.modules[n] for n in ours()}
    try:
        return set_up(workloads, name, seed)[0]
    finally:
        for n in ours():
            del sys.modules[n]
        sys.modules.update(kept)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    ``TAIL_BEYOND`` values beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Tally:
    """Outcomes of every item run in a phase."""

    def __init__(self):
        self.calls: dict[tuple, list[float]] = {}  # (key, item, call index) -> seconds
        self.done: set[int] = set()  # items that ran without a failure
        self.outputs: dict[int, str] = {}  # item -> digest of its results
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.unsaturated = 0
        self.closed_results = 0

    def add(self, index: int, item, outcome) -> None:
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{item.label} #{index}: {'; '.join(outcome.problems)}")
            return
        for key, samples in outcome.times.items():
            for j, seconds in enumerate(samples):
                self.calls.setdefault((key, index, j), []).append(seconds)
        self.done.add(index)
        if outcome.digest:
            self.outputs[index] = outcome.digest
        if item.graph is not None:
            self.unsaturated += outcome.unsaturated
            self.closed_results += 2

    def output_digest(self, indices) -> str:
        """Digest of the outputs of the items at ``indices``."""
        return hashlib.sha256(
            "".join(self.outputs[i] for i in sorted(set(indices)) if i in self.outputs).encode()
        ).hexdigest()


def run_round(workloads, ns, items, order, tally, deadline=None, digest=False) -> bool:
    """Run items in ``order`` until done or past ``deadline``; True when
    every item ran."""
    for index in order:
        if deadline is not None and perf_counter() >= deadline:
            return False
        item = items[index]
        tally.add(index, item, workloads.run_item(ns, item, digest and index not in tally.outputs))
    return True


def measure(workloads, ns, items, seed, seconds, spare_set_up):
    """Rounds over every item until ``seconds`` have passed, with a spare
    set-up at even intervals; the end-to-end metrics and the set-up times."""
    rng = random.Random(f"order/{seed}")
    tally = Tally()
    order = [i for i, item in enumerate(items) for _ in range(item.visits)]
    setups = []
    interval = seconds / SETUP_REPS
    start = perf_counter()
    deadline, next_set_up = start + seconds, start + interval
    rounds = 0
    while not rounds or perf_counter() < deadline:
        if perf_counter() >= next_set_up and len(setups) < SETUP_REPS - 1:
            setups.append(spare_set_up())
            deadline += setups[-1]
            next_set_up += interval + setups[-1]
        rng.shuffle(order)
        rounds += run_round(workloads, ns, items, order, tally, deadline if rounds else None, digest=True)
    while len(setups) < SETUP_REPS - 1:
        setups.append(spare_set_up())
    metrics = {}
    percentiles = {}
    for key in workloads.CALL_KEYS:
        values = [min(v) for (k, _, _), v in tally.calls.items() if k == key]
        if not values:
            raise RuntimeError(f"no successful {key} calls to report")
        pct, value = tail(values)
        metrics[f"{key}.p50_ms"] = (statistics.median(values) * 1000, "ms")
        metrics[f"{key}.tail_ms"] = (value * 1000, "ms")
        percentiles[key] = {"tail_percentile": round(pct, 2), "calls": len(values)}
    pairs = sum(items[i].pairs() for i in tally.done)
    metrics["pairs_per_s"] = (pairs / sum(map(min, tally.calls.values())), "pairs/s")
    record = {
        "rounds_complete": rounds,
        "output_digest": tally.output_digest(order),
        "timed_s": perf_counter() - start,
        "percentiles": percentiles,
    }
    return metrics, tally, setups, record


def compiled_kernel(ns):
    """(module, source) of a compiled word kernel, building one from the
    committed C source into ``.bench_build`` when the package has none."""
    try:
        return importlib.import_module("loopcalc._wordcore"), "package"
    except ImportError:
        pass
    source = SRC / "loopcalc" / "_wordcore.c"
    compiler = shutil.which("cc") or shutil.which("gcc")
    if not source.is_file() or compiler is None:
        return None, "unavailable"
    tag = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    target = BUILD / tag / ("_wordcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not target.is_file():
        target.parent.mkdir(parents=True, exist_ok=True)
        partial = target.with_name(target.name + ".part")
        try:
            build = subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"],
                 str(source), "-o", str(partial)],
                capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            return None, "build timed out"
        if build.returncode != 0:
            return None, "build failed: " + build.stderr.strip()[-300:]
        os.replace(partial, target)
    spec = importlib.util.spec_from_file_location("_wordcore", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, "built in .bench_build"


def kernel_us(kernel, words) -> float:
    """Median over five passes of the time per word of ``kernel.canonical``."""
    runs = []
    for _ in range(5):
        start = perf_counter()
        for word in words:
            kernel.canonical(word)
        runs.append(perf_counter() - start)
    return statistics.median(runs) / len(words) * 1e6


def traced(workloads, layers, ns, items, extras, seed, seconds):
    """Alternate untraced and traced rounds of ``items`` followed by
    ``extras``; the per-layer metrics."""
    rng = random.Random(f"order/{seed}")
    order = list(range(len(items)))
    extra_order = list(range(len(items), len(items) + len(extras)))
    items = items + extras
    plain_walls, traced_walls, snapshots = [], [], []
    tracer = layers.Tracer()
    first = None
    start = perf_counter()
    while True:
        rng.shuffle(order)
        began = perf_counter()
        run_round(workloads, ns, items, order + extra_order, Tally(), digest=True)
        plain_walls.append(perf_counter() - began)
        tally = Tally()
        tracer.reset()
        tracer.install()
        try:
            began = perf_counter()
            run_round(workloads, ns, items, order + extra_order, tally, digest=True)
            traced_walls.append(perf_counter() - began)
        finally:
            tracer.uninstall()
        snapshots.append(tracer.metrics())
        first = first or tally
        pair_wall = plain_walls[-1] + traced_walls[-1]
        if perf_counter() - start + pair_wall > seconds:
            break
    leftovers = layers.leftover_wrappers()
    metrics = {}
    for name, value in snapshots[0].items():
        if name.endswith(".self_s"):
            metrics[name] = (statistics.median(s[name] for s in snapshots), "s")
        elif name.endswith(".calls") or name.endswith((".letters", ".crossings")):
            metrics[name] = (value, "count")
        else:
            metrics[name] = (value, "ratio")
    metrics["closed.unsaturated_frac"] = (first.unsaturated / max(first.closed_results, 1), "ratio")
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    words = tracer.words
    compiled, compiled_source = compiled_kernel(ns)
    metrics["words.kernel.pure_us"] = (kernel_us(ns._wordpure, words), "us")
    metrics["words.kernel.compiled_us"] = (kernel_us(compiled, words) if compiled else -1.0, "us")
    record = {
        "traced_rounds": len(traced_walls),
        "plain_round_s": plain_walls,
        "traced_round_s": traced_walls,
        "trace_restored": not leftovers,
        "leftover_wrappers": leftovers,
        "kernel_words": len(words),
        "compiled_kernel": compiled_source,
        "output_digest": first.output_digest(order),
    }
    if extras:
        record["trace_extras"] = {
            "items": len(extras),
            "input_digest": workloads.input_digest(extras),
            "output_digest": first.output_digest(extra_order),
        }
    if leftovers:
        first.failed += 1
        first.problems.append(f"trace left wrappers behind: {leftovers}")
    return metrics, first, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopcalc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; 0 runs one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=0,
                        help="use only the first N items (smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "loopcalc" / "__init__.py").is_file():
        print(f"loopbench: no package source at {SRC}; run from a loopcalc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"loopbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    calibration_start = calibration_ms()
    seconds, ns, items = set_up(workloads, args.workload, args.seed)
    setups = [seconds]
    if not Path(ns.package.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"loopbench: imported loopcalc from {ns.package.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.items:
        items = items[: args.items]

    if args.trace:
        make_extras = workloads.TRACE_EXTRAS.get(args.workload)
        extras = make_extras(ns, args.seed) if make_extras else []
        metrics, tally, phase = traced(workloads, layers, ns, items, extras, args.seed, args.seconds)
    else:
        metrics, tally, spares, phase = measure(
            workloads, ns, items, args.seed, args.seconds,
            lambda: spare_set_up(workloads, args.workload, args.seed),
        )
        setups += spares
        metrics["setup_s"] = (min(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loopcalc_version": ns.package.__version__,
        "git_commit": git_commit(),
        "words_backend": ns.words.BACKEND,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "calibration_ms": {"start": calibration_start, "end": calibration_ms()},
        "setup_s": setups,
        "items": len(items),
        "input_digest": workloads.input_digest(items),
        "problems": tally.problems,
        **phase,
    }
    print(json.dumps({"run_record": record}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
