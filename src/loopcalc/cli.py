"""Command-line front end.

Reports are JSON on stdout (deterministic: sorted keys, stable ordering);
diagnostics go to stderr.  Exit codes: 0 success, 2 validation failure,
3 method disagreement, 4 odd coefficient under ``--halve``, 1 any other
error (including fuzz failures).

Surfaces are named by spec (``g1b1``) or loaded from JSON files; loops are
compiled from generator words (``--loop c="x1 y1^-1"``) or loaded from
transit JSON files (``--loop c=@loop.json`` or ``--a @loop.json``).
Generator aliases ``x, y`` (first handle pair) and ``a, core`` (first
boundary generator) resolve to ``x1, y1, z1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from loopcalc import closed as closedmod
from loopcalc import fuzz as fuzzmod
from loopcalc import stars as starcalc
from loopcalc.loops import CombinatorialLoop, LoopError, compile_word, make_generic
from loopcalc.stars import OddCoefficientError
from loopcalc.surface import (
    StarFilledSurface,
    SurfaceError,
    dual_graph,
    validate_surface,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_ODD = 4


def _emit(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _fail(message: str, code: int = 1) -> int:
    print(message, file=sys.stderr)
    return code


def _load_surface(args) -> tuple[StarFilledSurface, dict]:
    spec = args.surface
    if os.path.exists(spec):
        with open(spec) as fh:
            surface = StarFilledSurface.from_json(json.load(fh))
        return surface, {}
    return fuzzmod.surface_from_spec(spec)


ALIASES = {"x": "x1", "y": "y1", "a": "z1", "core": "z1"}


def _load_loop(token: str) -> CombinatorialLoop:
    """The loop in the transit JSON file named by ``@PATH``."""
    with open(token[1:]) as fh:
        return CombinatorialLoop.from_json(json.load(fh))


def _resolve_loops(args, surface, generators) -> dict[str, CombinatorialLoop]:
    named = dict(generators)
    for spec in args.loop or []:
        if "=" not in spec:
            raise LoopError(f"--loop expects NAME=WORD or NAME=@FILE, got {spec!r}")
        name, value = spec.split("=", 1)
        if value.startswith("@"):
            named[name] = _load_loop(value)
        else:
            named[name] = compile_word(surface, generators, value)
    out = {}
    for role in ("a", "b"):
        token = getattr(args, role, None)
        if token is None:
            continue
        if token.startswith("@"):
            out[role] = _load_loop(token)
        elif token in named:
            out[role] = named[token]
        elif token in ALIASES and ALIASES[token] in named:
            out[role] = named[ALIASES[token]]
        else:
            out[role] = compile_word(surface, generators, token)
    return out


def _parse_omega(spec: str, surface: StarFilledSurface) -> dict:
    omega = {(g.star, g.edge): 1 for g in surface.gates()}
    if not spec:
        return omega
    named = set()
    for item in spec.split(","):
        key, _, value = item.partition("=")
        star, _, edge = key.partition(":")
        try:
            gate = (star, int(edge))
        except ValueError:
            raise SurfaceError(f"--omega item {item!r} is not STAR:EDGE=SIGN") from None
        if gate not in omega:
            raise SurfaceError(f"--omega names unknown gate {key!r}")
        if gate in named:
            raise SurfaceError(f"--omega names gate {key!r} twice")
        if value not in ("1", "+1", "-1"):
            raise SurfaceError(f"--omega sign {value!r} must be +1 or -1")
        named.add(gate)
        omega[gate] = 1 if value in ("1", "+1") else -1
    return omega


# -- surface commands -----------------------------------------------------------


def cmd_surface(args) -> int:
    if args.action == "new":
        try:
            surface, gens = fuzzmod.surface_from_spec(f"g{args.genus}b{args.boundary}")
        except SurfaceError as exc:
            return _fail(str(exc), EXIT_INVALID)
        _emit(
            {
                "surface": surface.to_json(),
                "generators": {name: loop.to_json() for name, loop in sorted(gens.items())},
            }
        )
        return EXIT_OK

    with open(args.file) as fh:
        surface = StarFilledSurface.from_json(json.load(fh))
    report = validate_surface(surface)
    if args.action == "validate" or not report.valid:
        _emit(report.to_json())
        return EXIT_OK if report.valid else EXIT_INVALID
    if args.action == "load":
        _emit(surface.to_json())
        return EXIT_OK
    if args.action == "dual":
        graph = dual_graph(surface)
        if args.dot:
            print(graph.to_dot())
        else:
            _emit(
                {
                    "vertices": list(graph.vertices),
                    "edges": [
                        {"gate": g.to_json(), "star": s, "region": r}
                        for g, s, r in graph.edges
                    ],
                    "betti": graph.betti,
                }
            )
        return EXIT_OK
    return _fail(f"unknown surface action {args.action!r}")


# -- compute ----------------------------------------------------------------------


def cmd_compute(args) -> int:
    if args.graph or args.closed_genus is not None:
        return _compute_closed(args)
    try:
        surface, generators = _load_surface(args)
        report = validate_surface(surface)
        if not report.valid:
            _emit(report.to_json())
            return EXIT_INVALID
        loops = _resolve_loops(args, surface, generators)
    except (SurfaceError, LoopError, OSError) as exc:
        return _fail(str(exc), EXIT_INVALID)

    needed = ("a",) if args.op == "cobracket" else ("a", "b")
    for role in needed:
        if role not in loops:
            return _fail(f"compute {args.op} needs --{role}", EXIT_INVALID)
    loops = dict(zip(needed, make_generic(surface, [loops[r] for r in needed])))

    if args.omega is not None:
        return _compute_omega(args, surface, loops)

    try:
        if args.method in ("star", "gate"):
            result = starcalc.aggregate(surface, loops, args.op, method=args.method)
            payload = result.to_json()
            payload["methods_agree"] = None
        else:
            star_res, gate_res, agree = starcalc.methods_agree(surface, loops, args.op)
            payload = star_res.to_json()
            payload["methods_agree"] = agree
            if not agree:
                payload["gate_route"] = gate_res.to_json()
                _emit(payload)
                return _fail("star and gate routes disagree", EXIT_MISMATCH)
    except OddCoefficientError as exc:
        return _fail(str(exc), EXIT_ODD)
    if not args.halve:
        payload.pop("halved", None)
    _emit(payload)
    return EXIT_OK


def _compute_omega(args, surface, loops) -> int:
    """Orientation-dependent operations, reported per star."""
    try:
        omega = _parse_omega(args.omega, surface)
    except SurfaceError as exc:
        return _fail(str(exc), EXIT_INVALID)
    result = starcalc.aggregate(surface, loops, args.op, method="gate", omega=omega)
    payload = result.to_json()
    del payload["method"], payload["halved"]
    payload["omega"] = {f"{s}:{e}": v for (s, e), v in sorted(omega.items())}
    if args.halve:
        try:
            payload["halved"] = starcalc.value_json(
                starcalc.halve(result.total, "orientation-dependent value")
            )
        except OddCoefficientError:
            _emit(payload)
            return _fail("orientation-dependent value is odd, cannot halve", EXIT_ODD)
    _emit(payload)
    return EXIT_OK


def _compute_closed(args) -> int:
    try:
        if args.graph:
            with open(args.graph) as fh:
                graph = closedmod.filling_graph_from_json(fh.read())
        else:
            graph = closedmod.build_from_graph(
                closedmod.canonical_filling_graph(args.closed_genus)
            )
    except (closedmod.FillingGraphError, SurfaceError, OSError) as exc:
        return _fail(str(exc), EXIT_INVALID)

    loops = {}
    for role in ("a", "b"):
        token = getattr(args, role, None)
        if token is None:
            continue
        if not token.startswith("@"):
            return _fail(
                f"closed-surface loops must be transit JSON files (--{role} @file.json)",
                EXIT_INVALID,
            )
        loops[role] = _load_loop(token)
    needed = ("a",) if args.op == "cobracket" else ("a", "b")
    for role in needed:
        if role not in loops:
            return _fail(f"compute {args.op} needs --{role}", EXIT_INVALID)
    loops = dict(zip(needed, make_generic(graph.surface, [loops[r] for r in needed])))

    try:
        result = closedmod.closed_aggregate(graph, loops, args.op, args.conjugacy_bound)
    except (OddCoefficientError, LoopError) as exc:
        return _fail(str(exc), EXIT_ODD if isinstance(exc, OddCoefficientError) else EXIT_INVALID)
    payload = result.to_json()
    if not args.halve:
        payload.pop("halved", None)
    _emit(payload)
    return EXIT_OK


# -- fuzz --------------------------------------------------------------------------


def cmd_fuzz(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("LOOPCALC_SEED", "0"))
    report = fuzzmod.run_fuzz(
        spec=args.surface,
        pairs=args.pairs,
        moves=args.moves,
        seed=seed,
        inject_bug=args.inject_bug,
    )
    _emit(report.to_json())
    return EXIT_OK if report.ok else 1


# -- closed graph commands -----------------------------------------------------------


def cmd_closed(args) -> int:
    if args.action == "new":
        try:
            spec = closedmod.canonical_filling_graph(args.genus)
            graph = closedmod.build_from_graph(spec)
        except closedmod.FillingGraphError as exc:
            return _fail(str(exc), EXIT_INVALID)
        _emit(
            {
                "graph": spec.to_json(),
                "derived_surface": graph.surface.to_json(),
                "genus": graph.genus,
                "relators": [r.to_json() for r in graph.relators],
            }
        )
        return EXIT_OK
    if args.action == "load":
        try:
            with open(args.file) as fh:
                graph = closedmod.filling_graph_from_json(fh.read())
        except (closedmod.FillingGraphError, SurfaceError) as exc:
            return _fail(str(exc), EXIT_INVALID)
        _emit(
            {
                "graph": graph.spec.to_json(),
                "derived_surface": graph.surface.to_json(),
                "genus": graph.genus,
            }
        )
        return EXIT_OK
    return _fail(f"unknown closed action {args.action!r}")


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcalc",
        description="Intersection forms, brackets and cobrackets of loops on "
        "star-filled surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_surface = sub.add_parser("surface", help="build, validate and inspect surfaces")
    surf_sub = p_surface.add_subparsers(dest="action", required=True)
    p_new = surf_sub.add_parser("new", help="canonical surface for a genus/boundary pair")
    p_new.add_argument("--genus", type=int, required=True)
    p_new.add_argument("--boundary", type=int, required=True)
    for action, help_text in (
        ("load", "parse, validate and echo a surface JSON file"),
        ("validate", "validation report for a surface JSON file"),
        ("dual", "dual graph of a surface JSON file"),
    ):
        p = surf_sub.add_parser(action, help=help_text)
        p.add_argument("file")
        if action == "dual":
            p.add_argument("--dot", action="store_true", help="emit DOT text")
    p_surface.set_defaults(func=cmd_surface)

    p_compute = sub.add_parser("compute", help="evaluate an operation on loops")
    p_compute.add_argument("op", choices=["form", "bracket", "cobracket"])
    p_compute.add_argument("--surface", default="g1b1", help="gXbY spec or surface JSON file")
    p_compute.add_argument("--graph", help="filling-graph JSON file (closed surface)")
    p_compute.add_argument(
        "--closed-genus", type=int, help="canonical closed surface of this genus"
    )
    p_compute.add_argument("--a", help="loop name, generator word, or @file")
    p_compute.add_argument("--b", help="loop name, generator word, or @file")
    p_compute.add_argument(
        "--loop", action="append", help="define a named loop: NAME=WORD or NAME=@FILE"
    )
    p_compute.add_argument("--method", choices=["star", "gate", "both"], default="both")
    p_compute.add_argument(
        "--omega", help="gate orientation signs, e.g. 's:0=-1,s:2=-1' (default all +1)"
    )
    p_compute.add_argument("--halve", action="store_true", help="also report half the sum")
    p_compute.add_argument("--conjugacy-bound", type=int, default=8)
    p_compute.set_defaults(func=cmd_compute)

    p_fuzz = sub.add_parser("fuzz", help="randomized property checks")
    p_fuzz.add_argument("--surface", default="g1b1")
    p_fuzz.add_argument("--pairs", type=int, default=50)
    p_fuzz.add_argument("--moves", type=int, default=20)
    p_fuzz.add_argument("--seed", type=int, default=None, help="default: $LOOPCALC_SEED or 0")
    p_fuzz.add_argument(
        "--inject-bug",
        action="store_true",
        help="deliberately mis-sign one evaluator (harness self-test)",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_closed = sub.add_parser("closed", help="filling graphs of closed surfaces")
    closed_sub = p_closed.add_subparsers(dest="action", required=True)
    p_cnew = closed_sub.add_parser("new", help="canonical filling graph of a closed surface")
    p_cnew.add_argument("--genus", type=int, required=True)
    p_cload = closed_sub.add_parser("load", help="parse and validate a filling-graph file")
    p_cload.add_argument("file")
    p_closed.set_defaults(func=cmd_closed)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SurfaceError, LoopError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
