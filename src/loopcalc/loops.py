"""Loops on a star-filled surface as cyclic sequences of star transits.

A transit records one passage of the loop through a star disk: the edge it
crosses, the crossing sign, and a rational position rank along the edge
(smaller = closer to the center).  A transit of sign ``+1`` across edge
``e`` enters the star disk through gate ``(s, e)`` and leaves through gate
``(s, e-)``; sign ``-1`` swaps entry and exit.  Between consecutive
transits the loop travels inside a region, so the exit gate of one transit
and the entry gate of the next must lie on the same region.

Tracing the entry/exit gates of all transits yields the loop's cyclic word
in the dual graph, whose canonical form is the free homotopy class.

One scan per loop.  :func:`scan_loop` is the only pass over a loop's
transits and the only validation code path.  Keyed by the edge numbers of
``surface.transit_table()``, it checks that each transit exists, that no
two transits of one edge share a point and that the region chain closes,
and in the same pass it buckets and counts the transits by edge, lists the
edges crossed on each star and encodes the word.  :func:`validate_loop`
reports its problems, :func:`require_valid_loop` raises them and returns
the scan, and a :class:`PreparedLoop` is built from that scan, so holding
one means the loop is valid there.  Points are compared by the integers
``(numerator, denominator)`` of their positions, which is exact because a
:class:`~fractions.Fraction` is always in lowest terms.  A loop is
validated once: :func:`apply_move` validates the loop it is given and its
result, and a move sequence, whose inputs are earlier results, passes
``checked=True`` so only each result is validated.

Loops prepared together (:func:`loopcalc.stars.prepare_loops`) form a
family: each :class:`PreparedLoop` is a :class:`~loopcalc.words.FamilyWord`
with the family's :class:`~loopcalc.words.SpliceMemo` and its index there.
The splices :func:`graft` and :func:`subloop` take prepared loops of one
family only and return the canonical integer word of the spliced loop from
the memo, which works each word out once for every route and check on the
family; the per-star functions decode the terms that survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from loopcalc.algebra import HomotopyClass
from loopcalc.surface import GateRef, StarFilledSurface, SurfaceError, ValidationReport
from loopcalc.words import OUT, FamilyWord, SpliceMemo, canonical


class LoopError(Exception):
    """Raised for structurally invalid loops or illegal loop operations."""


@dataclass(frozen=True, order=True)
class Transit:
    star: str
    edge: int
    sign: int
    pos: Fraction

    def to_json(self) -> dict:
        return {
            "star": self.star,
            "edge": self.edge,
            "sign": self.sign,
            "pos": f"{self.pos.numerator}/{self.pos.denominator}",
        }


@dataclass(frozen=True)
class CombinatorialLoop:
    """Cyclic transit sequence; an empty sequence is the designated
    contractible loop and must carry its anchor region."""

    transits: tuple[Transit, ...]
    anchor: str | None = None

    @classmethod
    def from_crossings(
        cls, star_id: str, crossings: Sequence[tuple[int, int]], anchor: str | None = None
    ) -> "CombinatorialLoop":
        """Build a loop from ``(edge, sign)`` crossings of a single star,
        assigning fresh sequential positions per edge."""
        return cls(numbered((star_id, edge, sign) for edge, sign in crossings), anchor=anchor)

    def __len__(self) -> int:
        return len(self.transits)

    def to_json(self) -> list[dict]:
        return [t.to_json() for t in self.transits]

    @classmethod
    def from_json(cls, data: Sequence[Mapping], anchor: str | None = None) -> "CombinatorialLoop":
        """Parse a list of transit objects; raises :class:`LoopError` on any
        other shape, a missing key or a value that does not convert."""
        if not isinstance(data, (list, tuple)):
            raise LoopError(f"a loop is a list of transits, not {type(data).__name__}")
        transits = []
        for i, item in enumerate(data):
            try:
                star, edge, sign, pos = (item[k] for k in ("star", "edge", "sign", "pos"))
            except (KeyError, TypeError):
                raise LoopError(
                    f"transit {i} is not an object with star, edge, sign and pos: {item!r}"
                ) from None
            try:
                transits.append(Transit(str(star), int(edge), int(sign), Fraction(pos)))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise LoopError(f"transit {i} has a malformed value: {item!r}") from None
        return cls(tuple(transits), anchor=anchor)


def numbered(crossings: Iterable[tuple[str, int, int]]) -> tuple[Transit, ...]:
    """Transits for ``(star, edge, sign)`` crossings in order, positioned
    ``1, 2, ...`` along each ``(star, edge)`` in turn; the transits at one
    position share one :class:`~fractions.Fraction`."""
    counts: dict[tuple[str, int], int] = {}
    positions: list[Fraction] = []
    transits = []
    for star, edge, sign in crossings:
        count = counts[star, edge] = counts.get((star, edge), 0) + 1
        if count > len(positions):
            positions.append(Fraction(count))
        transits.append(Transit(star, edge, sign, positions[count - 1]))
    return tuple(transits)


def entry_gate(surface: StarFilledSurface, t: Transit) -> GateRef:
    return surface.gate_for_entry(t.star, t.edge, t.sign)


def exit_gate(surface: StarFilledSurface, t: Transit) -> GateRef:
    return surface.gate_for_exit(t.star, t.edge, t.sign)


def loop_letters(
    surface: StarFilledSurface, loop: CombinatorialLoop
) -> list[tuple[tuple[str, int], int]]:
    """Unreduced cyclic gate word: two letters per transit, entry then exit.
    Transit ``i`` owns letter indices ``2i`` and ``2i + 1``."""
    decode = surface.letter_table().decode
    return [decode(code) for code in encoded_word(surface, loop)]


def encoded_word(surface: StarFilledSurface, loop: CombinatorialLoop) -> tuple[int, ...]:
    table = surface.transit_table()
    word: list[int] = []
    try:
        for t in loop.transits:
            gates = table[t.star, t.edge, t.sign]
            word += (gates.entry_code, gates.exit_code)
    except KeyError as exc:
        raise LoopError(f"no transit (star, edge, sign) = {exc.args[0]} on this surface") from None
    return tuple(word)


class LoopScan(NamedTuple):
    """What one pass over a loop's transits finds on one surface.

    ``problems`` is the validation report's, in its order: the transits
    the surface has no gates for, else every point two transits share and
    then every break in the region chain.  The rest is read only from a
    valid loop: ``buckets`` maps each edge number the loop crosses
    (:attr:`~loopcalc.surface.StarFilledSurface.first_edge`) to its
    ``(index, transit)`` pairs in loop order, ``counts`` to its signed
    crossing count, ``edges`` lists the edges crossed on each star in
    order of first crossing, and ``word`` is the encoded word, two letters
    per transit, entry then exit."""

    problems: tuple[str, ...]
    buckets: dict[int, list[tuple[int, Transit]]]
    counts: dict[int, int]
    edges: dict[str, list[int]]
    word: tuple[int, ...]


def scan_loop(surface: StarFilledSurface, loop: CombinatorialLoop) -> LoopScan:
    """Validate, bucket, count and encode a loop in one pass over its
    transits, keyed by the edge numbers of ``surface.transit_table()``,
    which raises :class:`~loopcalc.surface.SurfaceError` on an invalid
    surface.

    Two transits share a point when their positions have equal
    ``(numerator, denominator)``, which is exact because a
    :class:`~fractions.Fraction` is always in lowest terms; only the
    buckets of more than one transit are compared, and no ``Fraction`` is
    hashed."""
    transits = loop.transits
    if not transits:
        surface.require_valid()
        problems = ()
        if loop.anchor is None:
            problems = ("empty loop has no anchor region",)
        else:
            try:
                surface.region(loop.anchor)
            except SurfaceError:
                problems = (f"empty loop anchored in unknown region {loop.anchor!r}",)
        return LoopScan(problems, {}, {}, {}, ())

    table = surface.transit_table()
    buckets: dict[int, list[tuple[int, Transit]]] = {}
    counts: dict[int, int] = {}
    edges: dict[str, list[int]] = {}
    word: list[int] = []
    missing: list[int] = []
    chain: list[str] = []
    exit_region = None
    for i, t in enumerate(transits):
        star, edge, sign = t.star, t.edge, t.sign
        try:
            number, entry_region, next_exit, entry_code, exit_code = table[star, edge, sign]
        except KeyError:
            missing.append(i)
            continue
        if entry_region != exit_region and i:
            chain.append(_chain_break(i - 1, i, exit_region, entry_region))
        exit_region = next_exit
        word += (entry_code, exit_code)
        bucket = buckets.get(number)
        if bucket is None:
            buckets[number] = [(i, t)]
            counts[number] = sign
            crossed = edges.get(star)
            if crossed is None:
                edges[star] = [edge]
            else:
                crossed.append(edge)
        else:
            bucket.append((i, t))
            counts[number] += sign
    if missing:
        problems = [p for i in missing for p in _transit_problems(surface, i, transits[i])]
    else:
        first = transits[0]
        entry_region = table[first.star, first.edge, first.sign].entry_region
        if exit_region != entry_region:
            chain.append(_chain_break(len(transits) - 1, 0, exit_region, entry_region))
        shared: list[tuple[int, str]] = []
        for bucket in buckets.values():
            if len(bucket) > 1:
                points = set()
                for _, t in bucket:
                    points.add(t.pos.as_integer_ratio())
                if len(points) < len(bucket):
                    shared += _shared_points(bucket)
        problems = chain
        if shared:
            shared.sort()
            problems = [problem for _, problem in shared] + chain
    return LoopScan(tuple(problems), buckets, counts, edges, tuple(word))


def _transit_problems(surface: StarFilledSurface, i: int, t: Transit) -> list[str]:
    """Why the surface has no gates for transit ``i``."""
    try:
        star = surface.star(t.star)
    except SurfaceError:
        return [f"transit {i}: unknown star {t.star!r}"]
    problems = []
    if not 0 <= t.edge < star.edge_count:
        problems.append(f"transit {i}: edge {t.edge} out of range for star {t.star}")
    if t.sign not in (1, -1):
        problems.append(f"transit {i}: sign {t.sign} is not +1/-1")
    return problems or [f"transit {i}: edge {t.edge!r} is not an edge of star {t.star}"]


def _shared_points(bucket: Sequence[tuple[int, Transit]]) -> list[tuple[int, str]]:
    """Each transit of one edge's bucket that lands on a point an earlier
    one holds, by index, with the problem naming the latest such earlier
    transit."""
    seen: dict[tuple[int, int], int] = {}
    found = []
    for i, t in bucket:
        key = t.pos.as_integer_ratio()
        if key in seen:
            found.append((i, (
                f"transits {seen[key]} and {i} share point (star={t.star}, edge={t.edge}, "
                f"pos={t.pos})"
            )))
        seen[key] = i
    return found


def _chain_break(i: int, j: int, exit_region: str | None, entry_region: str | None) -> str:
    return f"transits {i} -> {j}: exit region {exit_region} != entry region {entry_region}"


def validate_loop(surface: StarFilledSurface, loop: CombinatorialLoop) -> ValidationReport:
    return ValidationReport(scan_loop(surface, loop).problems)


def require_valid_loop(surface: StarFilledSurface, loop: CombinatorialLoop) -> LoopScan:
    """The loop's scan; raises :class:`LoopError` with its problems, joined
    by ``"; "``, when it is invalid."""
    scan = scan_loop(surface, loop)
    if scan.problems:
        raise LoopError("; ".join(scan.problems))
    return scan


def base_region(surface: StarFilledSurface, loop: CombinatorialLoop) -> str:
    """Region in which the loop's parametrization starts and ends."""
    if not loop.transits:
        if loop.anchor is None:
            raise LoopError("empty loop has no anchor region")
        return loop.anchor
    return surface.region_of(entry_gate(surface, loop.transits[0]))


def to_class(surface: StarFilledSurface, loop: CombinatorialLoop) -> HomotopyClass:
    return _word_class(surface, require_valid_loop(surface, loop).word)


def _word_class(surface: StarFilledSurface, word: Sequence[int]) -> HomotopyClass:
    """The class of a loop's encoded word, by the reference kernel."""
    return HomotopyClass(surface.letter_table().decode_word(canonical(word)))


def inverse_loop(loop: CombinatorialLoop) -> CombinatorialLoop:
    transits = tuple(Transit(t.star, t.edge, -t.sign, t.pos) for t in reversed(loop.transits))
    return CombinatorialLoop(transits, anchor=loop.anchor)


# -- word compilation ---------------------------------------------------------


def compile_word(
    surface: StarFilledSurface,
    generators: Mapping[str, CombinatorialLoop],
    word: str | Sequence[str],
) -> CombinatorialLoop:
    """Concatenate generator loops (all based in one region) into a single
    loop with fresh distinct positions.

    ``word`` is whitespace-separated tokens, each ``name`` or ``name^-1``.
    Only the generators the word names are read (the empty word reads the
    first), so a lazy mapping (:func:`~loopcalc.surface.canonical_surface`)
    makes no other loop.
    """
    tokens = word.split() if isinstance(word, str) else list(word)
    factors = [
        (token[:-3], True) if token.endswith("^-1") else (token, False) for token in tokens
    ]
    bases = {
        name: base_region(surface, generators[name])
        for name, _ in factors
        if name in generators
    }
    if len(set(bases.values())) > 1:
        raise LoopError(f"generators have incompatible basepoint regions: {bases}")

    transits: list[Transit] = []
    for name, invert in factors:
        if name not in generators:
            raise LoopError(f"unknown generator {name!r}")
        factor = generators[name]
        transits.extend(inverse_loop(factor).transits if invert else factor.transits)

    if not transits:
        if bases:
            anchor = next(iter(bases.values()))
        elif generators:
            anchor = base_region(surface, next(iter(generators.values())))
        elif surface.regions:
            anchor = surface.regions[0].id
        else:
            raise LoopError("surface has no regions to anchor the empty loop")
        return CombinatorialLoop((), anchor=anchor)

    loop = CombinatorialLoop(numbered((t.star, t.edge, t.sign) for t in transits))
    require_valid_loop(surface, loop)
    return loop


def make_generic(
    surface: StarFilledSurface, loops: Sequence[CombinatorialLoop]
) -> list[CombinatorialLoop]:
    """Reposition a family of loops so positions are globally distinct per
    edge, preserving each loop's own crossing order along every edge."""
    occurrences: dict[tuple[str, int], list[tuple[Fraction, int, int]]] = {}
    for li, loop in enumerate(loops):
        for ti, t in enumerate(loop.transits):
            occurrences.setdefault((t.star, t.edge), []).append((t.pos, li, ti))
    new_pos: dict[tuple[int, int], Fraction] = {}
    for key, occ in occurrences.items():
        occ.sort()
        for rank, (_, li, ti) in enumerate(occ, start=1):
            new_pos[(li, ti)] = Fraction(rank)
    out = []
    for li, loop in enumerate(loops):
        transits = tuple(
            Transit(t.star, t.edge, t.sign, new_pos[li, ti]) for ti, t in enumerate(loop.transits)
        )
        out.append(CombinatorialLoop(transits, anchor=loop.anchor))
    return out


# -- loop moves ---------------------------------------------------------------


@dataclass(frozen=True)
class InsertCancellingPair:
    """Push a small tongue of the loop across edge ``edge`` of ``star``,
    inserting two transits with opposite signs at index ``where``."""

    star: str
    edge: int
    where: int
    sign: int = 1
    positions: tuple[Fraction, Fraction] | None = None


@dataclass(frozen=True)
class RemoveCancellingPair:
    where: int


@dataclass(frozen=True)
class Reposition:
    """Replace position ranks; ``assignment`` gives one position per
    transit, ``None`` renumbers sequentially per edge."""

    assignment: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class RotateBasepoint:
    k: int


# A ``|`` union, not ``typing.Union``: typing caches its unions, which would
# keep every imported copy of this module alive.
Move = InsertCancellingPair | RemoveCancellingPair | Reposition | RotateBasepoint


def apply_move(
    surface: StarFilledSurface, loop: CombinatorialLoop, move: Move, *, checked: bool = False
) -> CombinatorialLoop:
    """Apply a class-preserving move and return the new loop, validated.

    The loop given is validated first unless ``checked`` says it is known
    valid, as the result of an earlier move is; a move sequence passes
    ``checked=True`` so that each of its loops is validated once."""
    if not checked:
        require_valid_loop(surface, loop)
    if isinstance(move, InsertCancellingPair):
        result = _insert_pair(surface, loop, move)
    elif isinstance(move, RemoveCancellingPair):
        result = _remove_pair(surface, loop, move.where)
    elif isinstance(move, Reposition):
        result = _reposition(loop, move.assignment)
    elif isinstance(move, RotateBasepoint):
        n = max(len(loop.transits), 1)
        k = move.k % n
        result = CombinatorialLoop(
            loop.transits[k:] + loop.transits[:k], anchor=loop.anchor
        )
    else:
        raise LoopError(f"unknown move {move!r}")
    require_valid_loop(surface, result)
    return result


def _insert_pair(
    surface: StarFilledSurface, loop: CombinatorialLoop, move: InsertCancellingPair
) -> CombinatorialLoop:
    star = surface.star(move.star)
    if not 0 <= move.edge < star.edge_count:
        raise LoopError(f"edge {move.edge} out of range for star {move.star}")
    if loop.transits:
        where = move.where % len(loop.transits)
        here = surface.region_of(exit_gate(surface, loop.transits[where - 1]))
    else:
        where = 0
        here = base_region(surface, loop)
    first_entry = surface.gate_for_entry(move.star, move.edge, move.sign)
    if surface.region_of(first_entry) != here:
        raise LoopError(
            f"cannot insert pair at index {where}: loop is in region {here}, "
            f"gate {first_entry} opens into region {surface.region_of(first_entry)}"
        )
    if move.positions is None:
        used = [t.pos for t in loop.transits if (t.star, t.edge) == (move.star, move.edge)]
        top = max(used, default=Fraction(0))
        p1, p2 = top + 1, top + 2
    else:
        p1, p2 = move.positions
    taken = {
        t.pos for t in loop.transits if (t.star, t.edge) == (move.star, move.edge)
    }
    if p1 == p2 or p1 in taken or p2 in taken:
        raise LoopError("inserted pair positions collide with existing crossings")
    pair = (
        Transit(move.star, move.edge, move.sign, p1),
        Transit(move.star, move.edge, -move.sign, p2),
    )
    transits = loop.transits[:where] + pair + loop.transits[where:]
    return CombinatorialLoop(transits, anchor=None)


def _remove_pair(
    surface: StarFilledSurface, loop: CombinatorialLoop, where: int
) -> CombinatorialLoop:
    n = len(loop.transits)
    if n < 2:
        raise LoopError("loop too short to remove a cancelling pair")
    i = where % n
    j = (where + 1) % n
    t1, t2 = loop.transits[i], loop.transits[j]
    if (t1.star, t1.edge) != (t2.star, t2.edge) or t1.sign != -t2.sign:
        raise LoopError(f"transits {i},{j} are not a cancelling pair")
    keep = [t for k, t in enumerate(loop.transits) if k not in (i, j)]
    if not keep:
        # Removing the final pair leaves the contractible loop in the
        # region the tongue came from.
        return CombinatorialLoop((), anchor=surface.region_of(exit_gate(surface, t2)))
    return CombinatorialLoop(tuple(keep), anchor=loop.anchor)


def _reposition(
    loop: CombinatorialLoop, assignment: tuple[Fraction, ...] | None
) -> CombinatorialLoop:
    if assignment is None:
        fresh = numbered((t.star, t.edge, t.sign) for t in loop.transits)
        return CombinatorialLoop(fresh, anchor=loop.anchor)
    if len(assignment) != len(loop.transits):
        raise LoopError("reposition assignment length mismatch")
    transits = tuple(
        Transit(t.star, t.edge, t.sign, p if isinstance(p, Fraction) else Fraction(p))
        for t, p in zip(loop.transits, assignment)
    )
    return CombinatorialLoop(transits, anchor=loop.anchor)


# -- prepared loops and splicing ----------------------------------------------


class PreparedLoop(FamilyWord):
    """A loop validated for one surface, built from its :class:`LoopScan`:
    its transits bucketed by edge number in loop order with their indices,
    the signed count of its crossings of each edge, the edges it crosses on
    each star (in order of first crossing), and its encoded word as word
    ``index`` of the family whose splice ``memo`` it shares.

    The constructor takes the scan from :func:`require_valid_loop`, so a
    prepared loop is a valid loop by type, and the scan is the only pass
    over its transits; :func:`loopcalc.stars.prepare_loops` prepares a
    family.  The star calculus reads the buckets through :meth:`on_edge`
    and :meth:`crossed` only, and only those of the edges the loops cross
    on the star at hand.  It lives for one call and is never cached across
    calls.
    """

    __slots__ = ("surface", "loop", "buckets", "counts", "edges", "first_edge")

    def __init__(
        self, surface: StarFilledSurface, loop: CombinatorialLoop, memo: SpliceMemo, index: int
    ):
        _, self.buckets, self.counts, self.edges, word = require_valid_loop(surface, loop)
        super().__init__(word, memo, index)
        self.surface = surface
        self.loop = loop
        self.first_edge = surface.first_edge

    @property
    def transits(self) -> tuple[Transit, ...]:
        return self.loop.transits

    def on_edge(self, star_id: str, edge: int) -> Sequence[tuple[int, Transit]]:
        """``(index, transit)`` of the transits across one edge, in loop order."""
        return self.buckets.get(self.first_edge[star_id] + edge, ())

    def crossed(self, star_id: str) -> Sequence[int]:
        """The edges of one star that the loop crosses."""
        return self.edges.get(star_id, ())

    def homotopy_class(self) -> HomotopyClass:
        """The loop's free homotopy class, read from its encoded word."""
        return _word_class(self.surface, self.word)


def graft(
    surface: StarFilledSurface,
    a: PreparedLoop,
    p: int,
    b: PreparedLoop,
    q: int,
) -> tuple[int, ...]:
    """Canonical word of the loop that follows all of ``a`` from transit
    ``p``, then all of ``b`` from transit ``q``, spliced through their
    common star."""
    ta, tb = a.transits[p], b.transits[q]
    if ta.star != tb.star:
        raise LoopError(f"graft transits lie in different stars {ta.star!r}, {tb.star!r}")
    if a.memo is not b.memo:
        raise LoopError("spliced loops must be prepared together, as one family")
    # Each word is rotated just after the transit's entering letter.
    return a.memo.graft(a, 2 * p + 1, b, 2 * q + 1)


def subloop(surface: StarFilledSurface, a: PreparedLoop, p1: int, p2: int) -> tuple[int, ...]:
    """Canonical word of the loop that runs along ``a`` from transit ``p1``
    to transit ``p2`` and closes up through their common star."""
    t1, t2 = a.transits[p1], a.transits[p2]
    if p1 == p2:
        raise LoopError("subloop endpoints must be distinct transits")
    if t1.star != t2.star:
        raise LoopError(f"subloop transits lie in different stars {t1.star!r}, {t2.star!r}")
    # The letters from exit(p1) through entry(p2).
    return a.memo.split(a, 2 * p1 + 1, (2 * p2 - 2 * p1) % len(a.word))


# -- abelianization -----------------------------------------------------------


def abelianization(surface: StarFilledSurface):
    """Return ``h`` mapping classes, loops and prepared loops to integer
    vectors in the first homology of the dual graph (one coordinate per
    non-tree gate); a prepared loop is read from its encoded word."""
    surface.require_valid()
    table = surface.letter_table()
    # BFS spanning tree over the dual graph, edges scanned in sorted order.
    adjacency: dict[str, list[tuple[tuple[str, int], str]]] = {}
    for star in surface.stars:
        adjacency[star.id] = []
    for region in surface.regions:
        adjacency[region.id] = []
    for gate in sorted(surface.gates()):
        rid = surface.region_of(gate)
        adjacency[gate.star].append(((gate.star, gate.edge), rid))
        adjacency[rid].append(((gate.star, gate.edge), gate.star))
    root = surface.stars[0].id
    reached = {root}
    tree: set[tuple[str, int]] = set()
    frontier = [root]
    while frontier:
        v = frontier.pop(0)
        for gate_key, w in adjacency[v]:
            if w not in reached:
                reached.add(w)
                tree.add(gate_key)
                frontier.append(w)
    free = [g for g in sorted(table.gates) if g not in tree]
    index = {g: i for i, g in enumerate(free)}

    def h(obj) -> tuple[int, ...]:
        if isinstance(obj, CombinatorialLoop):
            letters = loop_letters(surface, obj)
        elif isinstance(obj, PreparedLoop):
            letters = table.decode_word(obj.word)
        elif isinstance(obj, HomotopyClass):
            letters = list(obj.letters)
        else:
            raise TypeError(f"cannot abelianize {type(obj).__name__}")
        vec = [0] * len(free)
        for gate_key, direction in letters:
            i = index.get(gate_key)
            if i is not None:
                vec[i] += 1 if direction == OUT else -1
        return tuple(vec)

    h.rank = len(free)  # type: ignore[attr-defined]
    return h
