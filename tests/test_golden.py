"""Golden outputs, compared byte for byte: the README's CLI examples, a
few orientation-dependent (``--omega``) runs on ``g2b1``, fuzz reports on
``g2b1`` and ``g3b2`` with and without ``--inject-bug``, seeded
aggregates by both routes on a triangulated torus and on ``g2b1``, seeded
closed operations on the canonical genus-2 filling graph, the texts of
loop errors, and one digest of many seeded ``run_fuzz`` reports.

``golden.json`` holds the inputs (loops as transit JSON) next to the
outputs, so it does not depend on the random generators staying the same.
Rewrite it, only when an output is meant to change, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import torus_grid

from loopcalc import closed, stars
from loopcalc.cli import main
from loopcalc.closed import build_from_graph, canonical_filling_graph, from_triangulation
from loopcalc.fuzz import CALLS, random_loop_pair, run_fuzz, surface_from_spec
from loopcalc.loops import CombinatorialLoop, LoopError, Transit, inverse_loop
from loopcalc.surface import canonical_surface

GOLDEN = Path(__file__).with_name("golden.json")

#: README examples; ``{name}`` stands for the path of input file ``name``.
CLI_CASES = [
    ["surface", "new", "--genus", "1", "--boundary", "1"],
    ["surface", "load", "{surface}"],
    ["surface", "validate", "{surface}"],
    ["surface", "dual", "{surface}", "--dot"],
    ["surface", "dual", "{surface}"],
    *(
        ["compute", op, "--surface", "g1b1", "--a", "x", "--b", "y", "--method", method, "--halve"]
        for op in ("form", "bracket", "cobracket")
        for method in ("star", "gate", "both")
    ),
    [
        "compute", "bracket", "--surface", "g1b1", "--loop", "c=x1 y1^-1",
        "--loop", "d=@{loop}", "--a", "c", "--b", "d",
    ],
    ["compute", "cobracket", "--surface", "g2b1", "--loop", "c=x1 y1 x2^-1 y2", "--a", "c"],
    *(
        ["compute", op, "--surface", "g1b1", "--a", "x", "--b", "y", "--omega", "s:0=-1"]
        for op in ("form", "bracket", "cobracket")
    ),
    ["compute", "form", "--surface", "g1b1", "--a", "x", "--b", "y", "--omega", "s:0=-1", "--halve"],
    ["compute", "form", "--closed-genus", "1", "--a", "@{a}", "--b", "@{b}", "--halve"],
    ["compute", "bracket", "--closed-genus", "1", "--a", "@{a}", "--b", "@{b}", "--halve"],
    ["closed", "new", "--genus", "2"],
    ["closed", "load", "{graph}"],
    ["fuzz", "--surface", "g1b1", "--pairs", "200", "--moves", "20", "--seed", "7"],
    ["fuzz", "--surface", "g1b1", "--pairs", "3", "--moves", "5", "--seed", "7", "--inject-bug"],
    *(
        ["fuzz", "--surface", spec, "--pairs", pairs, "--moves", "5", "--seed", "7", *bug]
        for spec in ("g2b1", "g3b2")
        for pairs, bug in (("20", []), ("5", ["--inject-bug"]))
    ),
    *(
        [
            "compute", op, "--surface", "g2b1", "--loop", "c=x1 y1 x2^-1 y2", "--a", "c",
            "--b", "x1 x2", "--omega", "s:0=-1,s:3=-1,s:5=-1,s:6=-1", *halve,
        ]
        for op in ("form", "bracket", "cobracket")
        for halve in ([], ["--halve"])
    ),
]

#: Closed operations run on the canonical genus-2 filling graph with this
#: normalization bound.
CLOSED_BOUND = 8

#: ``run_fuzz`` reports pinned by one digest: every surface and seed, with
#: and without ``inject_bug``, at this many pairs.
FUZZ_SPECS = ("g1b1", "g2b1", "g3b2")
FUZZ_SEEDS = range(10)
FUZZ_PAIRS = 5


def cli_inputs() -> dict:
    torus_a = CombinatorialLoop.from_crossings("p", [(0, -1), (1, -1)])
    torus_b = CombinatorialLoop.from_crossings("p", [(0, 1), (3, 1)])
    surface, gens = canonical_surface(1, 1)
    return {
        "surface": surface.to_json(),
        "loop": gens["y1"].to_json(),
        "a": torus_a.to_json(),
        "b": torus_b.to_json(),
        "graph": canonical_filling_graph(1).to_json(),
    }


def run_cli(argv: list[str], inputs: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in inputs.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(data))
        args = [arg.format(**paths) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_surfaces() -> dict:
    return {
        "torus5x5": build_from_graph(from_triangulation(torus_grid(5))).surface,
        "g2b1": surface_from_spec("g2b1")[0],
    }


def aggregate_inputs(surfaces: dict) -> list[dict]:
    cases = []
    for name, surface in surfaces.items():
        rng = random.Random(f"golden/{name}")
        for _ in range(2):
            a, b = random_loop_pair(surface, rng, max_transits=12)
            cases.append({"surface": name, "a": a.to_json(), "b": b.to_json()})
    return cases


def aggregate_outputs(surfaces: dict, case: dict) -> dict:
    surface = surfaces[case["surface"]]
    a = CombinatorialLoop.from_json(case["a"])
    b = CombinatorialLoop.from_json(case["b"])
    out = {}
    for op in ("form", "bracket", "cobracket"):
        loops = {"a": a} if op == "cobracket" else {"a": a, "b": b}
        for method in ("star", "gate"):
            out[f"{method}.{op}"] = stars.aggregate(surface, loops, op, method=method).to_json()
    return out


def closed_graph():
    return build_from_graph(canonical_filling_graph(2))


def closed_inputs(graph) -> list[dict]:
    rng = random.Random("golden/closed-g2")
    cases = []
    for _ in range(2):
        a, b = random_loop_pair(graph.surface, rng, max_transits=16)
        cases.append({"a": a.to_json(), "b": b.to_json()})
    return cases


def closed_outputs(graph, case: dict) -> dict:
    a = CombinatorialLoop.from_json(case["a"])
    b = CombinatorialLoop.from_json(case["b"])
    return {
        "form": closed.closed_form(graph, a, b).to_json(),
        "bracket": closed.closed_bracket(graph, a, b, bound=CLOSED_BOUND).to_json(),
        "cobracket": closed.closed_cobracket(graph, a, bound=CLOSED_BOUND).to_json(),
    }


def error_inputs(aggregates: list[dict]) -> dict:
    """Loops that fail: two malformed loops, and loops sharing points."""
    torus = next(c for c in aggregates if c["surface"] == "torus5x5")
    a = CombinatorialLoop.from_json(torus["a"])
    flipped = list(a.transits)
    flipped[1] = replace(flipped[1], sign=-flipped[1].sign)
    stray = a.transits + (Transit("nowhere", 0, 1, Fraction(1)),)
    k = len(a.transits) // 2
    return {
        "a": torus["a"],
        "b": torus["b"],
        "flipped": CombinatorialLoop(tuple(flipped)).to_json(),
        "stray": CombinatorialLoop(stray).to_json(),
        "rotated": CombinatorialLoop(a.transits[k:] + a.transits[:k]).to_json(),
        "inverse": inverse_loop(a).to_json(),
    }


def error_outputs(surfaces: dict, inputs: dict) -> dict:
    surface = surfaces["torus5x5"]
    loop = {name: CombinatorialLoop.from_json(data) for name, data in inputs.items()}

    def text(fn, *args):
        with pytest.raises(LoopError) as info:
            fn(*args)
        return str(info.value)

    out = {}
    for method in ("star", "gate"):
        out[f"invalid.{method}.form"] = text(
            stars.aggregate, surface, {"a": loop["a"], "b": loop["flipped"]}, "form", method
        )
        out[f"invalid.{method}.cobracket"] = text(
            stars.aggregate, surface, {"a": loop["stray"]}, "cobracket", method
        )
        out[f"shared.{method}.bracket"] = text(
            stars.aggregate, surface, {"a": loop["a"], "b": loop["rotated"]}, "bracket", method
        )
    family = stars.prepare_loops(surface, {"c": loop["a"], "a": loop["b"], "b": loop["inverse"]})
    for t in loop["inverse"].transits:
        out[f"shared.expand.{t.star}"] = text(stars.expand_to_gates, surface, t.star, family)
    return out


def fuzz_digest() -> str:
    """sha256 of the JSON bytes of every pinned ``run_fuzz`` report, in order."""
    h = hashlib.sha256()
    for spec in FUZZ_SPECS:
        for seed in FUZZ_SEEDS:
            for inject_bug in (False, True):
                report = run_fuzz(spec, pairs=FUZZ_PAIRS, seed=seed, inject_bug=inject_bug)
                h.update(_dump(report.to_json()).encode())
    return h.hexdigest()


def golden_data() -> dict:
    surfaces = golden_surfaces()
    inputs = cli_inputs()
    aggregates = aggregate_inputs(surfaces)
    errors = error_inputs(aggregates)
    graph = closed_graph()
    return {
        "cli_inputs": inputs,
        "cli": [run_cli(argv, inputs) for argv in CLI_CASES],
        "aggregate": [dict(case, outputs=aggregate_outputs(surfaces, case)) for case in aggregates],
        "closed": [dict(c, outputs=closed_outputs(graph, c)) for c in closed_inputs(graph)],
        "error_inputs": errors,
        "errors": error_outputs(surfaces, errors),
        "fuzz_digest": fuzz_digest(),
    }


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def surfaces():
    return golden_surfaces()


@pytest.mark.parametrize("index", range(len(CLI_CASES)))
def test_cli_example_output_unchanged(golden, index):
    expected = golden["cli"][index]
    assert expected["argv"] == CLI_CASES[index]
    assert _dump(run_cli(CLI_CASES[index], golden["cli_inputs"])) == _dump(expected)


def test_aggregates_unchanged(golden, surfaces):
    for case in golden["aggregate"]:
        got = aggregate_outputs(surfaces, case)
        for key, value in case["outputs"].items():
            assert _dump(got[key]) == _dump(value), (case["surface"], key)


def test_one_evaluation_of_the_fuzz_calls_matches_each_call_alone(
    golden, surfaces, monkeypatch
):
    """On every golden aggregate input, by the star route, the gate route
    and the gate route with an omega, one ``stars.evaluate`` of the four
    fuzz calls gives each call's ``per_star`` exactly as a one-call
    evaluate and ``aggregate`` do.  It expands each star once on the gate
    route.  On the star route it runs each call's star function once on
    each star the call's loops cross (``a``, and for the bracket ``b``
    too), read from the raw transits, and never on any other star."""
    counts = Counter()

    def counting(name):
        original = getattr(stars, name)

        def wrapper(surface, star_id, *args):
            counts[name, star_id] += 1
            return original(surface, star_id, *args)

        monkeypatch.setattr(stars, name, wrapper)

    for name in ("expand_to_gates", "star_form", "star_bracket", "star_cobracket"):
        counting(name)
    star_function = {"form": "star_form", "bracket": "star_bracket", "cobracket": "star_cobracket"}
    uncrossed = 0  # stars no loop of their case crosses

    def exact(per_star):
        return _dump([[star_id, stars.value_json(value)] for star_id, value in per_star])

    for case in golden["aggregate"]:
        surface = surfaces[case["surface"]]
        a, b = (CombinatorialLoop.from_json(case[name]) for name in "ab")
        prepared = stars.prepare_loops(surface, {"a": a, "b": b})
        rng = random.Random(f"omega/{case['surface']}")
        omega = {(g.star, g.edge): rng.choice((1, -1)) for g in surface.gates()}
        ids = [star.id for star in surface.stars]
        crossed = {"a": {t.star for t in a.transits}, "b": {t.star for t in b.transits}}
        on_star_route = Counter()
        for call in CALLS:
            loops = call[1:] if call[0] == "bracket" else call[1:2]
            for star_id in set.intersection(*(crossed[name] for name in loops)):
                on_star_route[star_function[call[0]], star_id] += 1
        uncrossed += len(set(ids) - crossed["a"] - crossed["b"])
        for method, orientation in (("star", None), ("gate", None), ("gate", omega)):
            counts.clear()
            values, configs = stars.evaluate(surface, prepared, CALLS, method, orientation)
            if method == "star":
                assert counts == on_star_route
            else:
                assert counts == Counter({("expand_to_gates", star_id): 1 for star_id in ids})
            assert list(configs) == (ids if method == "gate" else [])
            assert list(values) == list(CALLS)
            for call in CALLS:
                op, loop = call[0], {"a": a, "b": b}[call[1]]
                loops = {"a": loop} if op == "cobracket" else {"a": a, "b": b}
                alone = stars.evaluate(surface, prepared, [call], method, orientation)[0]
                result = stars.aggregate(surface, loops, op, method, orientation)
                assert exact(values[call]) == exact(alone[call]) == exact(result.per_star)
                assert [star_id for star_id, _ in values[call]] == ids
    assert uncrossed > 0


def test_closed_operations_unchanged(golden):
    graph = closed_graph()
    for case in golden["closed"]:
        got = closed_outputs(graph, case)
        for key, value in case["outputs"].items():
            assert _dump(got[key]) == _dump(value), key


def test_error_texts_unchanged(golden, surfaces):
    assert _dump(error_outputs(surfaces, golden["error_inputs"])) == _dump(golden["errors"])


def test_fuzz_reports_unchanged(golden):
    assert fuzz_digest() == golden["fuzz_digest"]


if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden_data()) + "\n")
    sys.exit(0)
