"""Star calculus: per-star forms, brackets and cobrackets, their expansion
into gate configurations, and aggregation over a star filling.

Each star carries three operations defined purely in terms of how loops
cross its edges; summed over all stars of a filling they compute twice the
classical intersection form, loop bracket and loop cobracket of the
surface.  The same star also induces a gate configuration (two crossings
per transit, one on each gate adjacent to the crossed edge), and the gate
calculus evaluated on that configuration must agree with the per-star
formulas; the test suite uses this as a differential oracle.

Expansion conventions for a transit across edge ``e`` at position ``pos``:

* one crossing on gate ``(s, e)`` with sign equal to the transit sign, and
  one on gate ``(s, e-)`` with the opposite sign;
* along gate ``(s, e)``, first the crossings of ``e``-transits ordered by
  decreasing position, then the crossings of ``e+``-transits ordered by
  increasing position.

Prepared loops.  The per-star functions (:func:`edge_counts`,
:func:`star_form`, :func:`star_bracket`, :func:`star_cobracket` and
:func:`expand_to_gates`) take raw loops or
:class:`~loopcalc.loops.PreparedLoop` objects.  They prepare a raw loop at
entry (:func:`prepare_loop`: validate once, bucket the transits by
``(star, edge)``) and pass a prepared one through, then read only the
buckets of their own star, so on prepared loops a star's term costs time
linear in the transits that cross that star.  :func:`aggregate` prepares
each loop once per call; code that loops over stars itself calls
:func:`prepare_loops` first.  A prepared loop encodes its word on first
use, so the star-route form never encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from loopcalc import gates as gatecalc
from loopcalc.algebra import FormalSum, TensorSum
from loopcalc.gates import GateConfiguration, GateCrossing
from loopcalc.loops import (
    Loop,
    LoopError,
    PreparedLoop,
    graft,
    require_valid_loop,
    subloop,
)
from loopcalc.surface import Star, StarFilledSurface


class OddCoefficientError(Exception):
    """An aggregated value failed the evenness contract."""


def prepare_loop(surface: StarFilledSurface, loop: Loop) -> PreparedLoop:
    """Validate a loop and bucket its transits for ``surface``; a loop
    already prepared for ``surface`` is returned unchanged."""
    if isinstance(loop, PreparedLoop):
        if loop.surface is surface:
            return loop
        loop = loop.loop
    require_valid_loop(surface, loop)
    return PreparedLoop(surface, loop)


def prepare_loops(
    surface: StarFilledSurface, loops: Mapping[str, Loop]
) -> dict[str, PreparedLoop]:
    return {name: prepare_loop(surface, loop) for name, loop in loops.items()}


def edge_counts(surface: StarFilledSurface, star_id: str, loop: Loop) -> list[int]:
    """Signed crossing count of the loop with each edge of the star."""
    loop = prepare_loop(surface, loop)
    star = surface.star(star_id)
    return [
        sum(t.sign for _, t in loop.on_edge(star_id, e)) for e in range(star.edge_count)
    ]


def _check_disjoint(star: Star, loops: Mapping[str, PreparedLoop]) -> None:
    """Raise on the first point of a loop, in loop order, that an earlier
    loop of the family already uses on this star."""
    seen: dict[tuple[int, object], str] = {}
    for name, loop in loops.items():
        mine = {}
        clash = None
        for e in range(star.edge_count):
            for i, t in loop.on_edge(star.id, e):
                key = (e, t.pos)
                if key in seen and (clash is None or i < clash[0]):
                    clash = (i, t)
                mine[key] = name
        if clash is not None:
            t = clash[1]
            raise LoopError(
                f"loops {seen[t.edge, t.pos]!r} and {name!r} share point edge={t.edge} "
                f"pos={t.pos} on star {star.id}"
            )
        seen.update(mine)


def star_form(surface: StarFilledSurface, star_id: str, a: Loop, b: Loop) -> int:
    """Skew pairing of edge-count vectors over consecutive edge pairs."""
    a, b = prepare_loop(surface, a), prepare_loop(surface, b)
    star = surface.star(star_id)
    ca = edge_counts(surface, star_id, a)
    cb = edge_counts(surface, star_id, b)
    total = 0
    for e in range(star.edge_count):
        nxt = star.succ(e)
        total += ca[e] * cb[nxt] - cb[e] * ca[nxt]
    return total


def star_bracket(surface: StarFilledSurface, star_id: str, a: Loop, b: Loop) -> FormalSum:
    """Grafted classes over crossing pairs of consecutive edges."""
    a, b = prepare_loop(surface, a), prepare_loop(surface, b)
    star = surface.star(star_id)
    _check_disjoint(star, {"a": a, "b": b})
    terms = []
    for e in range(star.edge_count):
        nxt = star.succ(e)
        for p, tp in a.on_edge(star_id, e):
            for q, tq in b.on_edge(star_id, nxt):
                terms.append((graft(surface, a, p, b, q), tp.sign * tq.sign))
        for p, tp in a.on_edge(star_id, nxt):
            for q, tq in b.on_edge(star_id, e):
                terms.append((graft(surface, a, p, b, q), -tp.sign * tq.sign))
    return FormalSum(terms)


def star_cobracket(surface: StarFilledSurface, star_id: str, a: Loop) -> TensorSum:
    """Split tensor terms over self-crossing pairs of consecutive edges,
    with contractible pieces dropped."""
    a = prepare_loop(surface, a)
    star = surface.star(star_id)
    terms = []
    for e in range(star.edge_count):
        nxt = star.succ(e)
        for p1, t1 in a.on_edge(star_id, e):
            for p2, t2 in a.on_edge(star_id, nxt):
                first = subloop(surface, a, p1, p2)
                second = subloop(surface, a, p2, p1)
                if first.is_trivial or second.is_trivial:
                    continue
                sign = t1.sign * t2.sign
                terms.append(((first, second), sign))
                terms.append(((second, first), -sign))
    return TensorSum(terms)


def expand_to_gates(
    surface: StarFilledSurface,
    star_id: str,
    loops: Mapping[str, Loop],
) -> GateConfiguration:
    """Gate configuration induced by one star on a family of loops.

    Loops must be valid and jointly generic on the star (no shared
    ``(edge, pos)``); raises :class:`loopcalc.loops.LoopError` otherwise.
    """
    star = surface.star(star_id)
    loops = prepare_loops(surface, loops)
    _check_disjoint(star, loops)

    words = {name: loop.word for name, loop in loops.items()}

    # Crossings per edge: (pos, owner, transit index, sign)
    per_edge = {
        e: [
            (t.pos, name, i, t.sign)
            for name, loop in loops.items()
            for i, t in loop.on_edge(star_id, e)
        ]
        for e in range(star.edge_count)
    }

    crossings: dict[object, list[GateCrossing]] = {}
    for e in range(star.edge_count):
        gate = (star_id, e)
        slots: list[GateCrossing] = []
        # Near-side crossings: transits across e, outermost first.
        for pos, owner, i, sign in sorted(per_edge[e], key=lambda r: r[0], reverse=True):
            letter = 2 * i if sign > 0 else 2 * i + 1
            slots.append(
                GateCrossing(
                    gate=gate, eps=sign, owner=owner, letter_index=letter, slot=len(slots)
                )
            )
        # Far-side crossings: transits across e+, innermost first.
        nxt = star.succ(e)
        for pos, owner, i, sign in sorted(per_edge[nxt], key=lambda r: r[0]):
            letter = 2 * i + 1 if sign > 0 else 2 * i
            slots.append(
                GateCrossing(
                    gate=gate, eps=-sign, owner=owner, letter_index=letter, slot=len(slots)
                )
            )
        crossings[gate] = slots

    return GateConfiguration(crossings, words, surface.letter_table())


# -- dual-route evaluation and aggregation ------------------------------------


def gate_route(
    surface: StarFilledSurface,
    star_id: str,
    loops: Mapping[str, Loop],
    op: str,
):
    """Evaluate one star's contribution through the gate calculus."""
    config = expand_to_gates(surface, star_id, loops)
    if op == "form":
        return gatecalc.form(config)
    if op == "bracket":
        return gatecalc.bracket(config)
    if op == "cobracket":
        return gatecalc.cobracket(config)
    raise ValueError(f"unknown operation {op!r}")


def star_route(
    surface: StarFilledSurface,
    star_id: str,
    loops: Mapping[str, Loop],
    op: str,
):
    if op == "form":
        return star_form(surface, star_id, loops["a"], loops["b"])
    if op == "bracket":
        return star_bracket(surface, star_id, loops["a"], loops["b"])
    if op == "cobracket":
        return star_cobracket(surface, star_id, loops["a"])
    raise ValueError(f"unknown operation {op!r}")


@dataclass(frozen=True)
class AggregateResult:
    """Sum of per-star values over the filling, plus the halved value."""

    op: str
    method: str
    per_star: tuple[tuple[str, object], ...]
    total: object
    halved: object

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "method": self.method,
            "per_star": [{"star": s, "value": _value_json(v)} for s, v in self.per_star],
            "sum": _value_json(self.total),
            "halved": _value_json(self.halved),
        }


def _value_json(value):
    if isinstance(value, (FormalSum, TensorSum)):
        return value.to_json()
    return value


def _halve(op: str, value):
    if op == "form":
        if value % 2 != 0:
            raise OddCoefficientError(f"aggregate form {value} is odd")
        return value // 2
    if not value.all_even():
        raise OddCoefficientError(f"aggregate {op} has an odd coefficient: {value!r}")
    return value.halved()


def aggregate(
    surface: StarFilledSurface,
    loops: Mapping[str, Loop],
    op: str,
    method: str = "star",
) -> AggregateResult:
    """Sum one operation over every star of the filling.

    Returns both the plain sum (twice the classical operation) and the
    halved value; raises :class:`OddCoefficientError` if any aggregated
    coefficient is odd, which the doubling identity rules out.
    """
    if op not in ("form", "bracket", "cobracket"):
        raise ValueError(f"unknown operation {op!r}")
    route = star_route if method == "star" else gate_route
    loops = prepare_loops(surface, loops)
    per_star = tuple((star.id, route(surface, star.id, loops, op)) for star in surface.stars)
    values = [value for _, value in per_star]
    if op == "form":
        total: object = sum(values)
    else:
        total = (FormalSum if op == "bracket" else TensorSum).sum_of(values)
    return AggregateResult(
        op=op,
        method=method,
        per_star=per_star,
        total=total,
        halved=_halve(op, total),
    )


def methods_agree(
    surface: StarFilledSurface, loops: Mapping[str, Loop], op: str
) -> tuple[AggregateResult, AggregateResult, bool]:
    loops = prepare_loops(surface, loops)
    star_result = aggregate(surface, loops, op, method="star")
    gate_result = aggregate(surface, loops, op, method="gate")
    agree = (
        star_result.total == gate_result.total
        and star_result.per_star == gate_result.per_star
    )
    return star_result, gate_result, agree
