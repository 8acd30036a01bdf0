"""Command-line interface: reports, exit codes, determinism."""

import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopcalc
from loopcalc import closed as closed_mod
from loopcalc.cli import main
from loopcalc.fuzz import surface_from_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_surface_new_g1b1(capsys):
    code, out, _ = run_cli(capsys, "surface", "new", "--genus", "1", "--boundary", "1")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["generators"]) == ["x1", "y1"]
    assert payload["surface"]["genus"] == 1


def test_surface_new_annulus(capsys):
    code, out, _ = run_cli(capsys, "surface", "new", "--genus", "0", "--boundary", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["surface"]["stars"] == [{"id": "s", "edges": 2}]
    assert sorted(payload["generators"]) == ["z1"]


def test_surface_load_bad_region_exits_2(capsys, tmp_path):
    bad = {
        "stars": [{"id": "s", "edges": 2}],
        "regions": [
            {
                "id": "r0",
                "boundary": [
                    "arc",
                    {"gate": {"star": "s", "edge": 0}},
                    "arc",
                    {"gate": {"star": "s", "edge": 1}},
                    "arc",
                ],
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "surface", "load", str(path))
    assert code == 2
    payload = json.loads(out)
    assert not payload["valid"]
    assert any("r0" in p for p in payload["problems"])


def test_surface_load_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "surface", "new", "--genus", "0", "--boundary", "3")
    blob = json.loads(out)["surface"]
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run_cli(capsys, "surface", "load", str(path))
    assert code == 0
    assert json.loads(out) == blob
    # emit -> parse -> emit is idempotent
    path.write_text(out)
    code, out2, _ = run_cli(capsys, "surface", "load", str(path))
    assert out2 == out


def test_surface_dual_dot(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "surface", "new", "--genus", "1", "--boundary", "1")
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(json.loads(out)["surface"]))
    code, out, _ = run_cli(capsys, "surface", "dual", str(path), "--dot")
    assert code == 0
    assert out.startswith("graph dual {")
    assert '"s" -- ' in out


def test_compute_form_both_halve(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "form", "--surface", "g1b1",
        "--a", "x", "--b", "y", "--method", "both", "--halve",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"] == 2
    assert payload["halved"] == 1
    assert payload["methods_agree"] is True


def test_compute_bracket_word_loops(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "bracket", "--surface", "g1b1",
        "--loop", "c=x1 y1", "--a", "c", "--b", "x1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["methods_agree"] is True


def test_compute_cobracket_core_empty(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "cobracket", "--surface", "g0b2", "--a", "core"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"] == []


#: Two loops on the canonical closed torus with form 1.
TORUS_LOOPS = {
    "a": [
        {"star": "p", "edge": 0, "sign": -1, "pos": "1/1"},
        {"star": "p", "edge": 1, "sign": -1, "pos": "1/1"},
    ],
    "b": [
        {"star": "p", "edge": 0, "sign": 1, "pos": "2/1"},
        {"star": "p", "edge": 3, "sign": 1, "pos": "1/1"},
    ],
}


def torus_loop_args(tmp_path) -> list[str]:
    args = []
    for role, loop in TORUS_LOOPS.items():
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(loop))
        args += [f"--{role}", f"@{path}"]
    return args


def test_compute_closed_torus_example(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "compute", "form", "--closed-genus", "1", *torus_loop_args(tmp_path), "--halve"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"] == 2
    assert payload["halved"] == 1
    assert payload["methods_agree"] is True


@pytest.mark.parametrize("op", ["form", "bracket"])
def test_closed_methods_give_the_same_sum(capsys, tmp_path, op):
    argv = ["compute", op, "--closed-genus", "1", *torus_loop_args(tmp_path)]
    runs = {m: run_cli(capsys, *argv, "--method", m) for m in ("star", "gate", "both")}
    assert {code for code, _, _ in runs.values()} == {0}
    sums = [json.loads(out)["sum"] for _, out, _ in runs.values()]
    assert sums[0] == sums[1] == sums[2]
    assert json.loads(runs["star"][1])["methods_agree"] is None


def test_compute_omega_dependent(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "form", "--surface", "g1b1",
        "--a", "x", "--b", "y", "--omega", "s:1=-1,s:3=-1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == {"s:0": 1, "s:1": -1, "s:2": 1, "s:3": -1}
    assert isinstance(payload["sum"], int)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--surface", "g1b1", "--a", "x", "--b", "y", "--method", "star"],
         "--omega needs the gate route: use --method gate or both"),
        (["--closed-genus", "1", "--a", "x", "--b", "y"], "--omega needs a bounded surface"),
    ],
)
def test_compute_omega_that_cannot_be_honored_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "compute", "form", *argv, "--omega", "s:0=-1")
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--surface", "g1b1", "--a", "x", "--b", "y", "--conjugacy-bound", "-5"],
         "--conjugacy-bound must be 0 or more, got -5"),
        (["--surface", "g1b1", "--a", "x", "--b", "y", "--conjugacy-bound", "3"],
         "--conjugacy-bound needs a closed surface"),
        (["--closed-genus", "1", "--a", "x", "--b", "y", "--conjugacy-bound", "-1"],
         "--conjugacy-bound must be 0 or more, got -1"),
    ],
)
def test_compute_conjugacy_bound_that_cannot_be_honored_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "compute", "bracket", *argv)
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("flag, bound", [([], 8), (["--conjugacy-bound", "3"], 3)])
def test_closed_bracket_reports_its_bound(capsys, tmp_path, flag, bound):
    code, out, _ = run_cli(
        capsys, "compute", "bracket", "--closed-genus", "1", *torus_loop_args(tmp_path), *flag
    )
    assert code == 0
    assert json.loads(out)["normalization"]["bound"] == bound


def test_compute_omega_halve_odd_exits_4(capsys):
    code, out, err = run_cli(
        capsys,
        "compute", "form", "--surface", "g1b1",
        "--a", "x", "--b", "y", "--omega", "", "--halve",
    )
    assert code == 4
    assert "odd" in err


@pytest.mark.parametrize(
    "omega, message",
    [
        ("s:0=1,s:0=-1", "--omega names gate 's:0' twice"),
        ("bogus", "--omega item 'bogus' is not STAR:EDGE=SIGN"),
        ("s:x=1", "--omega item 's:x=1' is not STAR:EDGE=SIGN"),
        ("s:0", "--omega sign '' must be +1 or -1"),
        ("t:0=1", "--omega names unknown gate 't:0'"),
    ],
)
def test_compute_bad_omega_exits_2(capsys, omega, message):
    code, out, err = run_cli(
        capsys, "compute", "form", "--surface", "g1b1", "--a", "x", "--b", "y", "--omega", omega
    )
    assert (code, out, err) == (2, "", message + "\n")


def test_compute_unknown_generator_fails(capsys):
    code, _, err = run_cli(
        capsys, "compute", "form", "--surface", "g1b1", "--a", "nope", "--b", "y"
    )
    assert code == 2
    assert "unknown generator" in err


def test_compute_a_from_file_on_bounded_surface(capsys, tmp_path):
    path = tmp_path / "x1.json"
    path.write_text(json.dumps(surface_from_spec("g1b1")[1]["x1"].to_json()))
    by_file = run_cli(
        capsys, "compute", "form", "--surface", "g1b1", "--a", f"@{path}", "--b", "y"
    )
    by_name = run_cli(capsys, "compute", "form", "--surface", "g1b1", "--a", "x1", "--b", "y")
    assert by_file == by_name
    assert by_file[0] == 0


#: ``x1 x1`` on g1b1 with transit 2 moved onto transit 0's point.
SELF_SHARED_LOOP = [
    {"star": "s", "edge": 0, "sign": 1, "pos": "1"},
    {"star": "s", "edge": 3, "sign": 1, "pos": "1"},
    {"star": "s", "edge": 0, "sign": 1, "pos": "1"},
    {"star": "s", "edge": 3, "sign": 1, "pos": "2"},
]


@pytest.mark.parametrize("method", ["star", "gate", "both"])
def test_a_loops_own_shared_point_exits_2(capsys, tmp_path, method):
    """A loop is validated before two loops are made generic, so a point it
    shares with itself is reported, not moved."""
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(SELF_SHARED_LOOP))
    argv = ["--surface", "g1b1", "--a", f"@{path}", "--b", "y1", "--method", method]
    code, out, err = run_cli(capsys, "compute", "form", *argv)
    assert (code, out) == (2, "")
    assert err == "transits 0 and 2 share point (star=s, edge=0, pos=1)\n"
    argv = ["--surface", "g1b1", "--a", "x1", "--b", "x1", "--method", method]
    code, out, err = run_cli(capsys, "compute", "form", *argv)
    assert (code, err) == (0, "")


BAD_LOOP_FILES = {
    "zero-denominator": [{"star": "s", "edge": 0, "sign": 1, "pos": "1/0"}],
    "no-pos": [{"star": "s", "edge": 0, "sign": 1}],
    "object": {"star": "s", "edge": 0, "sign": 1, "pos": "1/1"},
    "string-transit": ["s:0"],
    "non-numeric-edge": [{"star": "s", "edge": "e", "sign": 1, "pos": "1/1"}],
    "list-pos": [{"star": "s", "edge": 0, "sign": 1, "pos": [1]}],
}


@pytest.mark.parametrize("route", ["loop", "bounded", "closed"])
@pytest.mark.parametrize("case", sorted(BAD_LOOP_FILES))
def test_malformed_loop_file_exits_2(capsys, tmp_path, case, route):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(BAD_LOOP_FILES[case]))
    argv = {
        "loop": ["--surface", "g1b1", "--loop", f"c=@{path}", "--a", "c", "--b", "y"],
        "bounded": ["--surface", "g1b1", "--a", f"@{path}", "--b", "y"],
        "closed": ["--closed-genus", "1", "--a", f"@{path}", "--b", f"@{path}"],
    }[route]
    code, out, err = run_cli(capsys, "compute", "form", *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "transit" in err


def test_compute_deterministic(capsys):
    _, first, _ = run_cli(
        capsys, "compute", "bracket", "--surface", "g2b1", "--a", "x1 y2", "--b", "y1"
    )
    _, second, _ = run_cli(
        capsys, "compute", "bracket", "--surface", "g2b1", "--a", "x1 y2", "--b", "y1"
    )
    assert first == second


def test_fuzz_small_run_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "fuzz", "--surface", "g1b1", "--pairs", "6", "--moves", "10", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checks"]["oracle"] == 6


def test_fuzz_deterministic_reports(capsys):
    args = ["fuzz", "--surface", "g0b3", "--pairs", "5", "--moves", "8", "--seed", "3"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_fuzz_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("LOOPCALC_SEED", "99")
    code, out, _ = run_cli(capsys, "fuzz", "--surface", "g0b2", "--pairs", "3")
    assert code == 0
    assert json.loads(out)["seed"] == 99


@pytest.mark.parametrize(
    "argv, seed, message",
    [
        (["--pairs", "-3"], None, "--pairs must be 0 or more, got -3"),
        (["--moves", "-2"], None, "--moves must be 0 or more, got -2"),
        ([], "abc", "LOOPCALC_SEED 'abc' is not an integer"),
    ],
)
def test_fuzz_that_cannot_be_honored_exits_2(capsys, monkeypatch, argv, seed, message):
    if seed is not None:
        monkeypatch.setenv("LOOPCALC_SEED", seed)
    code, out, err = run_cli(capsys, "fuzz", "--surface", "g0b2", "--pairs", "2", *argv)
    assert (code, out, err) == (2, "", message + "\n")


def test_fuzz_injected_bug_emits_counterexample(capsys):
    code, out, _ = run_cli(
        capsys,
        "fuzz", "--surface", "g1b1", "--pairs", "3", "--seed", "1", "--inject-bug",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["counterexample"] is not None
    assert payload["counterexample"]["loops"]


def test_closed_new_and_load(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "closed", "new", "--genus", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload["graph"]))
    code, out, _ = run_cli(capsys, "closed", "load", str(path))
    assert code == 0
    assert json.loads(out)["genus"] == 2


@pytest.fixture
def mis_signed_gate_form(monkeypatch):
    """Make the gate route's form 2 too large."""
    from loopcalc import stars as starcalc

    real = starcalc.aggregate

    def sabotaged(surface, loops, op, method="star"):
        result = real(surface, loops, op, method)
        if method == "gate" and op == "form":
            return starcalc.AggregateResult(
                op=result.op,
                method=result.method,
                per_star=result.per_star,
                total=result.total + 2,
                halved=result.halved + 1,
            )
        return result

    monkeypatch.setattr("loopcalc.stars.aggregate", sabotaged)


@pytest.mark.usefixtures("mis_signed_gate_form")
def test_method_disagreement_exits_3(capsys):
    """A wrong evaluator makes --method both exit 3 with both reports."""
    code, out, err = run_cli(
        capsys,
        "compute", "form", "--surface", "g1b1",
        "--a", "x", "--b", "y", "--method", "both",
    )
    assert code == 3
    assert "disagree" in err
    payload = json.loads(out)
    assert payload["methods_agree"] is False
    assert "gate_route" in payload


@pytest.mark.usefixtures("mis_signed_gate_form")
def test_closed_method_disagreement_exits_3(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "compute", "form", "--closed-genus", "1", *torus_loop_args(tmp_path)
    )
    assert (code, err) == (3, "star and gate routes disagree\n")
    payload = json.loads(out)
    assert payload["methods_agree"] is False
    assert payload["sum"] == 2 and payload["gate_route"]["sum"] == 4


def test_method_star_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "form", "--surface", "g1b1",
        "--a", "x", "--b", "y", "--method", "star",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"] == 2
    assert payload["methods_agree"] is None


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def __init__(self, fd: int):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.fd


def test_broken_pipe_exits_0_quietly(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = main(["compute", "form", "--surface", "g1b1", "--a", "x", "--b", "y"])
    assert (code, capsys.readouterr().err) == (0, "")


def test_broken_pipe_process_exits_0_quietly():
    """Through a real pipe whose read end is closed, interpreter exit
    included."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    paths = [str(Path(loopcalc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "loopcalc.cli", "compute", "form", "--a", "x", "--b", "y"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


@pytest.mark.parametrize("extra, code", [((), 0), (("--inject-bug",), 1)])
def test_python_dash_m_loopcalc_runs_the_cli(extra, code):
    """``python -m loopcalc`` exits with the code of ``cli.main``: 0 for a
    clean fuzz run, 1 when a bug is injected."""
    paths = [str(Path(loopcalc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["fuzz", "--surface", "g2b1", "--pairs", "5", *extra]
    done = subprocess.run(
        [sys.executable, "-m", "loopcalc", *argv], capture_output=True, env=env, timeout=120
    )
    assert done.returncode == code == main(argv)
    assert json.loads(done.stdout)["ok"] is (code == 0)


# -- malformed files: every mutation exits with a documented code, no traceback --

RETYPED = [None, True, -1, 2.5, float("inf"), "x", [], {}]


def mutations(doc):
    """``(label, file bytes)`` pairs: the document cut short, not UTF-8, in
    other JSON shapes, with each object key dropped, and with each value
    replaced by one of another type."""
    yield "cut short", json.dumps(doc)[:-1].encode()
    yield "not UTF-8", b"\xff\xfe"
    for label, other in (("in a list", [doc]), ("in an object", {"d": doc}), ("as text", "d")):
        yield label, json.dumps(other).encode()

    def walk(node, path):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in children:
            yield path + (key,), node, key, child
            if isinstance(child, (dict, list)):
                yield from walk(child, path + (key,))

    for path, _, key, value in list(walk(doc, ())):
        if isinstance(key, str):
            yield f"drop {path}", json.dumps(_edited(doc, path, None, drop=True)).encode()
        for new in RETYPED:
            if type(new) is not type(value):
                yield f"{path} = {new!r}", json.dumps(_edited(doc, path, new)).encode()


def _edited(doc, path, value, drop=False):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _fixtures():
    surface, gens = surface_from_spec("g1b1")
    return {
        "surface": surface.to_json(),
        "graph": closed_mod.canonical_filling_graph(1).to_json(),
        "loop": gens["x1"].to_json(),
    }


MUTATED_RUNS = {
    "surface": [["surface", "load", "{file}"], ["surface", "dual", "{file}"],
                ["compute", "form", "--surface", "{file}", "--a", "@{a}", "--b", "@{a}"]],
    "graph": [["closed", "load", "{file}"],
              ["compute", "bracket", "--graph", "{file}", "--a", "@{a}", "--b", "@{b}"]],
    "loop": [["compute", "bracket", "--surface", "g1b1", "--a", "@{file}", "--b", "y"],
             ["compute", "cobracket", "--closed-genus", "1", "--a", "@{file}"]],
}


@pytest.mark.parametrize("kind", sorted(MUTATED_RUNS))
def test_mutated_files_exit_with_documented_codes(capsys, tmp_path, kind):
    files = {"file": tmp_path / "mutated.json", "a": tmp_path / "a.json", "b": tmp_path / "b.json"}
    files["a"].write_text(json.dumps(TORUS_LOOPS["a"]))
    files["b"].write_text(json.dumps(TORUS_LOOPS["b"]))
    bad = []
    count = 0
    for label, content in mutations(_fixtures()[kind]):
        files["file"].write_bytes(content)
        for argv in MUTATED_RUNS[kind]:
            count += 1
            code, _, err = run_cli(capsys, *(arg.format(**files) for arg in argv))
            if code not in (0, 2, 3, 4) or "Traceback" in err or err.count("\n") > 1:
                bad.append((label, argv[:2], code, err))
    assert count > 100
    assert not bad, bad[:5]
