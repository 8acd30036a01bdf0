"""Command-line interface: reports, exit codes, determinism."""

import json

import pytest

from loopcalc.cli import main


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


def test_compute_closed_torus_example(capsys, tmp_path):
    a = [
        {"star": "p", "edge": 0, "sign": -1, "pos": "1/1"},
        {"star": "p", "edge": 1, "sign": -1, "pos": "1/1"},
    ]
    b = [
        {"star": "p", "edge": 0, "sign": 1, "pos": "2/1"},
        {"star": "p", "edge": 3, "sign": 1, "pos": "1/1"},
    ]
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code, out, _ = run_cli(
        capsys,
        "compute", "form", "--closed-genus", "1",
        "--a", f"@{pa}", "--b", f"@{pb}", "--halve",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"] == 2
    assert payload["halved"] == 1


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


def test_method_disagreement_exits_3(capsys, monkeypatch):
    """A wrong evaluator makes --method both exit 3 with both reports."""
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
