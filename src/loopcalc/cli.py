"""Command-line front end.

Reports are JSON on stdout (deterministic: sorted keys, stable ordering);
diagnostics go to stderr as one line.  ``main`` alone turns errors into
exit codes:

* 0 success, or stdout closed by its reader (a broken pipe);
* 1 a fuzz run found a failure;
* 2 invalid input: a malformed or invalid surface, filling-graph or loop
  file, an unreadable file, text that is not UTF-8 JSON, an unknown
  generator, a missing loop, a bad ``--omega``, a negative
  ``--conjugacy-bound`` or one given for a bounded surface, a negative
  ``fuzz --pairs`` or ``--moves``, a ``LOOPCALC_SEED`` that is not an
  integer, or an option that cannot be honored;
* 3 ``--method both`` and the star and gate routes disagree;
* 4 ``--halve`` on an odd coefficient.

``compute`` runs one flow on every surface: load it (a ``gXbY`` spec or a
surface file, or the filling graph of a closed surface from ``--graph`` or
``--closed-genus``), resolve the loops, evaluate by ``--method`` (``star``,
``gate``, or ``both``, which compares the two), normalize on a closed
surface, and halve on request.  ``--omega`` evaluates the
orientation-dependent operations, which only the gate route has, on a
bounded surface; with ``--method star`` or on a closed surface it exits 2.

Surfaces are named by spec (``g1b1``) or loaded from JSON files; loops are
compiled from generator words (``--loop c="x1 y1^-1"``) or loaded from
transit JSON files (``--loop c=@loop.json`` or ``--a @loop.json``).
Generator aliases ``x, y`` (first handle pair) and ``a, core`` (first
boundary generator) resolve to ``x1, y1, z1``.  Surface files and closed
surfaces have no generators, so their loops come from files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import ChainMap

from loopcalc import closed as closedmod
from loopcalc import fuzz as fuzzmod
from loopcalc import stars as starcalc
from loopcalc.loops import (
    CombinatorialLoop,
    LoopError,
    compile_word,
    make_generic,
    require_valid_loop,
)
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
    # Flushed here so that a closed pipe raises inside main, not at exit.
    print(json.dumps(data, sort_keys=True, indent=2), flush=True)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _load_surface(args) -> tuple[StarFilledSurface, dict, closedmod.FillingGraph | None]:
    """The surface to compute on, its named generators, and its filling
    graph (``None`` unless the surface is closed)."""
    if args.graph:
        with open(args.graph) as fh:
            graph = closedmod.filling_graph_from_json(fh.read())
        return graph.surface, {}, graph
    if args.closed_genus is not None:
        graph = closedmod.build_from_graph(closedmod.canonical_filling_graph(args.closed_genus))
        return graph.surface, {}, graph
    if os.path.exists(args.surface):
        with open(args.surface) as fh:
            return StarFilledSurface.from_json(json.load(fh)), {}, None
    return (*fuzzmod.surface_from_spec(args.surface), None)


ALIASES = {"x": "x1", "y": "y1", "a": "z1", "core": "z1"}


def _load_loop(token: str) -> CombinatorialLoop:
    """The loop in the transit JSON file named by ``@PATH``."""
    with open(token[1:]) as fh:
        return CombinatorialLoop.from_json(json.load(fh))


def _resolve_loops(args, surface, generators) -> dict[str, CombinatorialLoop]:
    """The loops ``a`` and ``b``; only the generators named are made."""
    named = ChainMap({}, generators)
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
        surface, gens = fuzzmod.surface_from_spec(f"g{args.genus}b{args.boundary}")
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
    graph = dual_graph(surface)
    if args.dot:
        print(graph.to_dot(), flush=True)
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


# -- compute ----------------------------------------------------------------------


def cmd_compute(args) -> int:
    """Load the surface, resolve the loops, evaluate by the requested routes,
    normalize on a closed surface, and halve on request."""
    bound = args.conjugacy_bound
    if args.omega is not None and args.method == "star":
        return _fail("--omega needs the gate route: use --method gate or both", EXIT_INVALID)
    if bound is not None and bound < 0:
        return _fail(f"--conjugacy-bound must be 0 or more, got {bound}", EXIT_INVALID)
    surface, generators, graph = _load_surface(args)
    if args.omega is not None and graph is not None:
        return _fail("--omega needs a bounded surface", EXIT_INVALID)
    if bound is not None and graph is None:
        return _fail("--conjugacy-bound needs a closed surface", EXIT_INVALID)
    report = validate_surface(surface)
    if not report.valid:
        _emit(report.to_json())
        return EXIT_INVALID
    loops = _resolve_loops(args, surface, generators)
    needed = ("a",) if args.op == "cobracket" else ("a", "b")
    for role in needed:
        if role not in loops:
            return _fail(f"compute {args.op} needs --{role}", EXIT_INVALID)
    # Each loop must be valid on its own; only two loops' shared points are
    # moved apart.
    for role in needed:
        require_valid_loop(surface, loops[role])
    loops = dict(zip(needed, make_generic(surface, [loops[r] for r in needed])))
    omega = None if args.omega is None else _parse_omega(args.omega, surface)

    if args.method == "both" and omega is None:
        result, gate_result, agree = starcalc.methods_agree(surface, loops, args.op)
    else:
        method = args.method if omega is None else "gate"
        result = starcalc.aggregate(surface, loops, args.op, method=method, omega=omega)
        agree = None
    if graph is not None:
        if bound is None:
            bound = closedmod.DEFAULT_BOUND
        result = closedmod.normalized(graph, result, bound)

    payload = result.to_json()
    halved = payload.pop("halved")
    if omega is None:
        payload["methods_agree"] = agree
    else:
        del payload["method"]
        payload["omega"] = {f"{s}:{e}": v for (s, e), v in sorted(omega.items())}
    if agree is False:
        payload["gate_route"] = gate_result.to_json()
        _emit(payload)
        return _fail("star and gate routes disagree", EXIT_MISMATCH)
    if args.halve and omega is not None:
        # Orientation-dependent sums can be odd, so they are halved only here.
        try:
            halved = starcalc.value_json(starcalc.halve(result.total, "omega sum"))
        except OddCoefficientError:
            _emit(payload)
            raise OddCoefficientError("orientation-dependent value is odd, cannot halve") from None
    if args.halve:
        payload["halved"] = halved
    _emit(payload)
    return EXIT_OK


# -- fuzz --------------------------------------------------------------------------


def cmd_fuzz(args) -> int:
    for option, value in (("--pairs", args.pairs), ("--moves", args.moves)):
        if value < 0:
            return _fail(f"{option} must be 0 or more, got {value}", EXIT_INVALID)
    seed = args.seed
    if seed is None:
        text = os.environ.get("LOOPCALC_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            return _fail(f"LOOPCALC_SEED {text!r} is not an integer", EXIT_INVALID)
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
        spec = closedmod.canonical_filling_graph(args.genus)
        graph = closedmod.build_from_graph(spec)
        _emit(
            {
                "graph": spec.to_json(),
                "derived_surface": graph.surface.to_json(),
                "genus": graph.genus,
                "relators": [r.to_json() for r in graph.relators],
            }
        )
        return EXIT_OK
    with open(args.file) as fh:
        graph = closedmod.filling_graph_from_json(fh.read())
    _emit(
        {
            "graph": graph.spec.to_json(),
            "derived_surface": graph.surface.to_json(),
            "genus": graph.genus,
        }
    )
    return EXIT_OK


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
    p_compute.add_argument(
        "--conjugacy-bound",
        type=int,
        help="closed surfaces only: depth of the conjugacy search (default 8)",
    )
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
    except BrokenPipeError:
        # The reader closed stdout.  Point the descriptor at devnull so the
        # flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OddCoefficientError as exc:
        return _fail(str(exc), EXIT_ODD)
    except (
        SurfaceError,
        LoopError,
        closedmod.FillingGraphError,
        OSError,
        json.JSONDecodeError,
        UnicodeDecodeError,
    ) as exc:
        return _fail(str(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
