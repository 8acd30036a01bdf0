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
  increasing position; :func:`expand_to_gates` sorts each crossed edge
  once, by increasing position, and reads edge ``e``'s in reverse;
* only the two gates next to a crossed edge, ``(s, e)`` and ``(s, e-)``,
  get crossings, and :func:`expand_to_gates` visits and lists only those,
  in gate order.  Every other gate of the star reads ``()`` through
  ``gate_crossings``, and the configuration's ``gates`` and ``base_omega``
  (``+1`` on every gate) are the star's, which the surface builds once
  (:meth:`~loopcalc.surface.StarFilledSurface.star_gates`).  So an
  expansion costs time linear in the star's crossings, not in its edges.
* the loops must share no point.  :func:`expand_to_gates` checks this from
  each crossed edge's sorted rows: a shared point shows up as two
  neighbouring rows with one ``(numerator, denominator)``, and only then
  does it run the point-by-point check (:func:`_check_disjoint`), which
  names the first clash in loop order.  The star route checks it with
  :func:`_share_a_point`, which compares the points of the edges two loops
  both cross, and also runs :func:`_check_disjoint` only when that finds
  one.  A generic family is never checked point by point.

Prepared loops.  Loops are prepared once, at the boundary:
:func:`aggregate` prepares the raw loops it is given, and code that loops
over stars itself (the fuzz harness) calls :func:`prepare_loops` first.  A
:class:`~loopcalc.loops.PreparedLoop` is built from the one scan of its
loop (:func:`loopcalc.loops.scan_loop`), which validates it, buckets and
counts its transits by edge number, lists the edges it crosses on each
star and encodes its word.  The per-star functions (:func:`star_form`,
:func:`star_bracket`, :func:`star_cobracket` and :func:`expand_to_gates`)
take prepared loops only, trust that they are valid, and read the buckets
through ``on_edge`` and ``crossed`` only.  They walk only the edges the
loops cross on their own star: :func:`star_form` sums ``ca[e] *
(cb[e+] - cb[e-])`` over the edges ``e`` that ``a`` crosses, an exact
re-indexing of the skew sum over all edges, reading the counts at the
surface's edge numbers, and :func:`star_bracket` and :func:`star_cobracket`
read the buckets at ``e+`` and ``e-``.  So a star's term costs time
linear in the transits that cross that star, not in its edges, on both
routes.  The star route of :func:`evaluate` calls a star function only on
the stars its call's loops cross (``a``, and for the bracket ``b`` too),
one membership test per star.  Every other star gets its operation's one
shared zero (``0``, an empty :class:`~loopcalc.algebra.FormalSum` or an
empty :class:`~loopcalc.algebra.TensorSum`): no call, star lookup, bucket
read, check or decode.  Before the first cobracket of a family, the
shared-point test runs on the stars two loops of the family cross, in star
order, so the star route's cobracket of a family still finds a clash
between two loops other than ``a``.  The gate route still expands and
evaluates every star, and ``per_star`` lists each one on both routes.
Points are compared by the integers ``(numerator, denominator)`` of their
positions, and :func:`expand_to_gates` sorts an edge's crossings by
integer keys, so no :class:`~fractions.Fraction` is hashed or compared.

The splice memo.  The loops of one :func:`prepare_loops` call are one
family and share one :class:`~loopcalc.words.SpliceMemo`, keyed by their
indices in the family and the reduced prefixes where a splice cuts them.
The star route's splices and the gate route's (:mod:`loopcalc.gates`), on
every star, read and fill that memo, so one :func:`aggregate` call, or one
fuzz pair checked by both routes, works out each spliced word once.  Each
route computes its own rotation starts, so a route that rotated a word at
the wrong letter would still splice a different word.

Integer words.  The splices :func:`~loopcalc.loops.graft` and
:func:`~loopcalc.loops.subloop` return canonical integer words, and
:func:`star_bracket` and :func:`star_cobracket` sum their terms keyed by
those words (or by pairs of them).  Only the terms that survive a star's
sum are decoded into :class:`~loopcalc.algebra.HomotopyClass`, once, at
the function's return (:func:`loopcalc.algebra.decoded`); the gate
calculus does the same at the return of each of its operations.

The evaluation pipeline.  :func:`evaluate` is the only code that walks
the stars by a route: it returns the per-star values of a list of calls
on prepared loops, and the gate route expands each star once for all the
calls.  Every operation, bounded or closed, skew or orientation-dependent,
runs the same steps: prepare the loops, :func:`evaluate`, sum the
per-star values, normalize in the closed-surface group when the surface
is closed (:func:`loopcalc.closed.normalized`), and halve (:func:`halve`,
the one halving rule).  :func:`sum_stars` is the only place that sums
over stars: :func:`aggregate` evaluates one call, sums and halves it, and
the fuzz harness sums its calls' per-star values and halves only where it
checks evenness.

An ``omega`` is a gate orientation, a map from every gate ``(star,
edge)`` of the surface to ``+1`` or ``-1``.  With an omega each star's gate
configuration is evaluated by ``form_omega``, ``bracket_omega`` or
``cobracket_omega`` of :mod:`loopcalc.gates`, which check the signs of all
of that star's gates, crossed or not, and read those of the crossed ones;
those sums can be odd, so :func:`aggregate`'s ``halved`` is ``None``.
An omega needs the gate route: with ``method="star"`` it raises
:class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import itemgetter
from typing import Callable, Collection, Mapping, Sequence

from loopcalc import gates as gatecalc
from loopcalc.algebra import FormalSum, TensorSum, decoded
from loopcalc.gates import GateConfiguration, GateCrossing
from loopcalc.loops import CombinatorialLoop, LoopError, PreparedLoop, graft, subloop
from loopcalc.loops import require_valid_loop  # noqa: F401 (a public name of this module)
from loopcalc.surface import Star, StarFilledSurface
from loopcalc.words import SpliceMemo


class OddCoefficientError(Exception):
    """An aggregated value failed the evenness contract."""


# The zeros of the star bracket and cobracket, one each, shared by every
# star that gets no term: no operation on a sum changes it in place.
_NO_BRACKET = FormalSum()
_NO_COBRACKET = TensorSum()


def prepare_loops(
    surface: StarFilledSurface, loops: Mapping[str, CombinatorialLoop]
) -> dict[str, PreparedLoop]:
    """Scan each loop for ``surface`` once (validate, bucket, count and
    encode), by name, as one family with one splice memo; raises
    :class:`~loopcalc.loops.LoopError` on the first invalid loop."""
    memo = SpliceMemo()
    return {
        name: PreparedLoop(surface, loop, memo, index)
        for index, (name, loop) in enumerate(loops.items())
    }


def _check_disjoint(star: Star, loops: Mapping[str, PreparedLoop]) -> None:
    """Raise on the first point of a loop, in loop order, that an earlier
    loop of the family already uses on this star."""
    seen: dict[tuple[int, tuple[int, int]], str] = {}
    for name, loop in loops.items():
        mine = {}
        clash = None
        for e in loop.crossed(star.id):
            for i, t in loop.on_edge(star.id, e):
                key = (e, t.pos.as_integer_ratio())
                if key in seen and (clash is None or i < clash[0]):
                    clash = (i, key)
                mine[key] = name
        if clash is not None:
            t = loop.transits[clash[0]]
            raise LoopError(
                f"loops {seen[clash[1]]!r} and {name!r} share point edge={t.edge} "
                f"pos={t.pos} on star {star.id}"
            )
        seen.update(mine)


def _share_a_point(star_id: str, loops: Collection[PreparedLoop]) -> bool:
    """Whether two of the loops cross one edge of the star at one point.
    Only the edges that two loops both cross are read, as the sets of their
    points' ``(numerator, denominator)``; a loop's own points are distinct."""
    seen: set[int] = set()
    both: set[int] = set()
    for loop in loops:
        edges = loop.crossed(star_id)
        both.update(seen.intersection(edges))
        seen.update(edges)
    for e in both:
        buckets = [loop.on_edge(star_id, e) for loop in loops]
        points = {t.pos.as_integer_ratio() for bucket in buckets for _, t in bucket}
        if len(points) < sum(map(len, buckets)):
            return True
    return False


def _check_family(surface: StarFilledSurface, loops: Mapping[str, PreparedLoop]) -> None:
    """Raise on the first star, in star order, on which two loops of the
    family share a point, naming the first clash there in loop order.  Only
    the stars that two loops both cross are tested (:func:`_share_a_point`)."""
    seen: set[str] = set()
    both: set[str] = set()
    for loop in loops.values():
        both.update(seen.intersection(loop.edges))
        seen.update(loop.edges)
    for star in surface.stars:
        if star.id in both and _share_a_point(star.id, loops.values()):
            _check_disjoint(star, loops)


def star_form(
    surface: StarFilledSurface, star_id: str, a: PreparedLoop, b: PreparedLoop
) -> int:
    """Skew pairing of edge-count vectors over consecutive edge pairs,
    summed over the edges ``e`` that ``a`` crosses as ``ca[e] * (cb[e+] -
    cb[e-])``."""
    crossed = a.crossed(star_id)
    if not crossed:
        return 0
    n = surface.star(star_id).edge_count
    first = surface.first_edge[star_id]
    ca, cb = a.counts, b.counts
    total = 0
    for e in crossed:
        total += ca[first + e] * (
            cb.get(first + (e + 1) % n, 0) - cb.get(first + (e - 1) % n, 0)
        )
    return total


def star_bracket(
    surface: StarFilledSurface, star_id: str, a: PreparedLoop, b: PreparedLoop
) -> FormalSum:
    """Grafted classes over crossing pairs of consecutive edges, ``a``
    crossing ``e`` and ``b`` crossing ``e+`` (sign ``+``) or ``e-`` (sign
    ``-``); the loops must not share a point on the star.  A star that
    either loop does not cross has no term and is not read."""
    crossed = a.crossed(star_id)
    if not crossed or not b.crossed(star_id):
        return _NO_BRACKET
    star = surface.star(star_id)
    if _share_a_point(star_id, (a, b)):
        _check_disjoint(star, {"a": a, "b": b})
    terms: dict[tuple[int, ...], int] = {}
    for e in crossed:
        for sign, f in ((1, star.succ(e)), (-1, star.pred(e))):
            qs = b.on_edge(star_id, f)
            for p, tp in a.on_edge(star_id, e):
                for q, tq in qs:
                    word = graft(surface, a, p, b, q)
                    terms[word] = terms.get(word, 0) + sign * tp.sign * tq.sign
    return decoded(surface.letter_table(), terms)


def star_cobracket(surface: StarFilledSurface, star_id: str, a: PreparedLoop) -> TensorSum:
    """Split tensor terms over self-crossing pairs of consecutive edges,
    with contractible pieces dropped; a star that ``a`` does not cross
    has no term and is not read."""
    crossed = a.crossed(star_id)
    if not crossed:
        return _NO_COBRACKET
    star = surface.star(star_id)
    terms: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for e in crossed:
        nxt = a.on_edge(star_id, star.succ(e))
        for p1, t1 in a.on_edge(star_id, e):
            for p2, t2 in nxt:
                first = subloop(surface, a, p1, p2)
                second = subloop(surface, a, p2, p1)
                if not first or not second:
                    continue
                sign = t1.sign * t2.sign
                terms[first, second] = terms.get((first, second), 0) + sign
                terms[second, first] = terms.get((second, first), 0) - sign
    return decoded(surface.letter_table(), terms, pairs=True)


def expand_to_gates(
    surface: StarFilledSurface,
    star_id: str,
    loops: Mapping[str, PreparedLoop],
) -> GateConfiguration:
    """Gate configuration induced by one star on a family of prepared loops.

    The loops must be jointly generic on the star (no shared ``(edge,
    pos)``); raises :class:`loopcalc.loops.LoopError` naming the first
    clash in loop order otherwise.  Each gate's crossings are handed over
    in slot order.  The configuration splices into the family's memo, so
    the loops must come from one :func:`prepare_loops` call; raises
    :class:`~loopcalc.gates.GateCalculusError` otherwise.
    """
    star = surface.star(star_id)
    # Each crossed edge's rows ((numerator, denominator), owner, near letter,
    # sign), sorted once by ascending position (:func:`_position_key`); the
    # far letter is the near one ^ 1.
    rows: dict[int, list] = {}
    for name, loop in loops.items():
        for e in loop.crossed(star_id):
            rows.setdefault(e, []).extend(
                [
                    (t.pos.as_integer_ratio(), name, 2 * i + (t.sign < 0), t.sign)
                    for i, t in loop.on_edge(star_id, e)
                ]
            )
    shared = False
    for edge in rows.values():
        if len(edge) > 1:
            edge.sort(key=_position_key(edge))
            for row, nxt in zip(edge, edge[1:]):
                if row[0] == nxt[0]:
                    shared = True
    if shared:
        # Two neighbouring rows at one point: name the first clash in loop order.
        _check_disjoint(star, loops)

    # Only gate e and gate e- of each crossed edge e are crossed, so only
    # those are visited, in gate order; the star's other gates hold none.
    n = star.edge_count
    crossings: dict[object, tuple[GateCrossing, ...]] = {}
    for e in sorted({g for f in rows for g in (f, (f - 1) % n)}):
        gate = (star_id, e)
        near, far = rows.get(e, ()), rows.get((e + 1) % n, ())
        # Near side: transits across e, outermost first.
        slots = [
            GateCrossing(gate, sign, owner, letter, slot)
            for slot, (_, owner, letter, sign) in enumerate(reversed(near))
        ]
        # Far side: transits across e+, innermost first.
        slots += [
            GateCrossing(gate, -sign, owner, letter ^ 1, slot)
            for slot, (_, owner, letter, sign) in enumerate(far, len(slots))
        ]
        crossings[gate] = tuple(slots)

    # The prepared loops are the configuration's words.
    gates, base_omega = surface.star_gates(star_id)
    return GateConfiguration(crossings, loops, surface.letter_table(), base_omega, gates)


def _position_key(rows: Sequence[tuple]) -> Callable[[tuple], int]:
    """The sort key of one edge's rows, each led by its position as
    ``(numerator, denominator)``: the integer ``n * (L // d)``, with ``L``
    the lcm of the edge's denominators, so no Fraction is compared."""
    scale = lcm(*[row[0][1] for row in rows])
    return lambda row: row[0][0] * (scale // row[0][1])


# -- dual-route evaluation and aggregation ------------------------------------


def _check_calls(calls, names: Collection[str], method: str, omega) -> None:
    """Raise :class:`ValueError` on an unknown route, an omega on the star
    route, an unknown operation, or a call that names a loop not in
    ``names``."""
    if method != "star" and method != "gate":
        raise ValueError(f"unknown method {method!r}: use 'star' or 'gate'")
    if omega is not None and method == "star":
        raise ValueError("an orientation omega needs the gate route")
    for call in calls:
        if call[0] not in ("form", "bracket", "cobracket"):
            raise ValueError(f"unknown operation {call[0]!r}")
        for name in call[1:]:
            if name not in names:
                raise ValueError(f"{call[0]} needs a loop named {name!r}")


def evaluate(
    surface: StarFilledSurface,
    prepared: Mapping[str, PreparedLoop],
    calls: Sequence[tuple[str, ...]],
    method: str = "star",
    omega: Mapping[tuple[str, int], int] | None = None,
) -> tuple[dict[tuple[str, ...], tuple], dict[str, GateConfiguration]]:
    """Each call's per-star values by one route: ``(values, configs)``.

    A call names an operation and the loops of ``prepared`` it reads:
    ``("form", x, y)``, ``("bracket", x, y)`` or ``("cobracket", x)``.
    ``values`` maps each call to its ``per_star`` tuple, ``(star id,
    value)`` for every star in order; ``configs`` maps each star id to its
    gate configuration on the gate route, and is empty on the star route.
    The star route calls a star function only on the stars the call's
    loops cross, and lists the operation's shared zero for every other
    star.  Before its first cobracket of a family of two or more loops, it
    checks the stars that two loops cross for a shared point.  Raises
    :class:`ValueError` on an unknown operation or method, an omega on the
    star route, or a call that names a loop not prepared.
    """
    _check_calls(calls, prepared, method, omega)
    return _walk(surface, prepared, calls, method, omega)


def _walk(surface, prepared, calls, method, omega):
    """The body of :func:`evaluate`, for calls already checked:
    :func:`aggregate` checks its call before it prepares the loops."""
    values = {}
    if method == "star":
        family = len(prepared) > 1  # shared points to check before a cobracket
        # One pass over the stars per call.  A star function is called
        # directly (a per-star dispatch costs more than the smallest term)
        # and only on the stars its loops cross; the rest share one zero.
        for call in calls:
            a = prepared[call[1]]
            if call[0] == "cobracket":
                if family:
                    family = False
                    _check_family(surface, prepared)
                crossed = a.edges
                per_star = [
                    (s.id, star_cobracket(surface, s.id, a) if s.id in crossed else _NO_COBRACKET)
                    for s in surface.stars
                ]
            else:
                b = prepared[call[2]]
                if call[0] == "form":
                    fn, crossed, zero = star_form, a.edges, 0
                else:
                    fn, crossed, zero = star_bracket, a.edges.keys() & b.edges.keys(), _NO_BRACKET
                per_star = [
                    (s.id, fn(surface, s.id, a, b) if s.id in crossed else zero)
                    for s in surface.stars
                ]
            values[call] = tuple(per_star)
        return values, {}
    configs = {star.id: expand_to_gates(surface, star.id, prepared) for star in surface.stars}
    # Looked up by name at call time: gates.form, gates.form_omega, ...
    suffix, lead = ("", ()) if omega is None else ("_omega", (omega,))
    for call in calls:
        fn, args = getattr(gatecalc, call[0] + suffix), (*lead, *call[1:])
        values[call] = tuple([(sid, fn(config, *args)) for sid, config in configs.items()])
    return values, configs


@dataclass(frozen=True)
class AggregateResult:
    """Sum of per-star values over the filling, plus the halved value
    (``None`` for an orientation-dependent sum)."""

    op: str
    method: str
    per_star: tuple[tuple[str, object], ...]
    total: object
    halved: object

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "method": self.method,
            "per_star": [{"star": s, "value": value_json(v)} for s, v in self.per_star],
            "sum": value_json(self.total),
            "halved": value_json(self.halved),
        }


def value_json(value):
    if isinstance(value, (FormalSum, TensorSum)):
        return value.to_json()
    return value


def halve(value, what: str):
    """Half of an integer or of a formal sum; raises
    :class:`OddCoefficientError` naming ``what`` when the value is odd."""
    if isinstance(value, int):
        if value % 2:
            raise OddCoefficientError(f"{what} {value} is odd")
        return value // 2
    try:
        return value.halved()
    except ValueError:
        raise OddCoefficientError(f"{what} has an odd coefficient: {value!r}") from None


def aggregate(
    surface: StarFilledSurface,
    loops: Mapping[str, CombinatorialLoop],
    op: str,
    method: str = "star",
    omega: Mapping[tuple[str, int], int] | None = None,
) -> AggregateResult:
    """Sum one operation over every star of the filling.

    Prepares (validates) each raw loop once.  Returns both the plain sum
    (twice the classical operation) and the halved value; raises
    :class:`OddCoefficientError` if any aggregated coefficient is odd,
    which the doubling identity rules out.  With an ``omega`` (gate route
    only) the orientation-dependent operation is summed instead and nothing
    is halved.

    The form and the bracket read the loops named ``a`` and ``b``; the
    cobracket splits the loop named ``a`` on both routes, and any other
    loop given is validated and checked generic with it, but not split.

    The loops of a family must be generic: no point ``(star, edge, pos)``
    is shared.  Only the star-route form does not check: on ``g1b1``,
    ``x1`` with itself has star-route form ``0``, while the star bracket,
    the star cobracket of a family and every gate-route call raise
    :class:`~loopcalc.loops.LoopError` naming the first shared point in
    loop order.  The CLI makes each pair generic first.

    ``per_star`` lists every star.  The star route calls no star function
    on a star that ``a`` does not cross (for the bracket, that ``a`` or
    ``b`` does not cross) and lists the operation's shared zero for it; the
    gate route evaluates every star.

    Before any loop is prepared, raises :class:`ValueError` on an unknown
    ``op`` or ``method``, an ``omega`` with ``method="star"``, or a loop
    ``a`` (or ``b``) that the operation reads and ``loops`` lacks.
    """
    call = (op, "a") if op == "cobracket" else (op, "a", "b")
    _check_calls((call,), loops, method, omega)
    per_star = _walk(surface, prepare_loops(surface, loops), (call,), method, omega)[0][call]
    total = sum_stars(op, per_star)
    return AggregateResult(
        op=op,
        method=method,
        per_star=per_star,
        total=total,
        halved=None if omega is not None else halve(total, f"aggregate {op}"),
    )


def sum_stars(op: str, per_star: Sequence[tuple[str, object]]) -> object:
    """The plain sum of one operation's ``per_star`` values."""
    values = map(itemgetter(1), per_star)
    if op == "form":
        return sum(values)
    return (FormalSum if op == "bracket" else TensorSum).sum_of(values)


def methods_agree(
    surface: StarFilledSurface, loops: Mapping[str, CombinatorialLoop], op: str
) -> tuple[AggregateResult, AggregateResult, bool]:
    """One :func:`aggregate` call per route, and whether they agree on
    every star."""
    star_result = aggregate(surface, loops, op, method="star")
    gate_result = aggregate(surface, loops, op, method="gate")
    agree = (
        star_result.total == gate_result.total
        and star_result.per_star == gate_result.per_star
    )
    return star_result, gate_result, agree
