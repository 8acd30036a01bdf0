"""Golden outputs, compared byte for byte: the README's CLI examples,
seeded aggregates by both routes on a triangulated torus and on ``g2b1``,
and the texts of loop errors.

``golden.json`` holds the inputs (loops as transit JSON) next to the
outputs, so it does not depend on the random generators staying the same.
Rewrite it, only when an output is meant to change, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import torus_grid

from loopcalc import stars
from loopcalc.cli import main
from loopcalc.closed import build_from_graph, canonical_filling_graph, from_triangulation
from loopcalc.fuzz import random_loop_pair, surface_from_spec
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
]


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
    for t in loop["inverse"].transits:
        out[f"shared.expand.{t.star}"] = text(
            stars.expand_to_gates,
            surface,
            t.star,
            {"c": loop["a"], "a": loop["b"], "b": loop["inverse"]},
        )
    return out


def golden_data() -> dict:
    surfaces = golden_surfaces()
    inputs = cli_inputs()
    aggregates = aggregate_inputs(surfaces)
    errors = error_inputs(aggregates)
    return {
        "cli_inputs": inputs,
        "cli": [run_cli(argv, inputs) for argv in CLI_CASES],
        "aggregate": [dict(case, outputs=aggregate_outputs(surfaces, case)) for case in aggregates],
        "error_inputs": errors,
        "errors": error_outputs(surfaces, errors),
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


def test_error_texts_unchanged(golden, surfaces):
    assert _dump(error_outputs(surfaces, golden["error_inputs"])) == _dump(golden["errors"])


if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden_data()) + "\n")
    sys.exit(0)
