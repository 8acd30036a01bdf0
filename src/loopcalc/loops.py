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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence, Union

from loopcalc.algebra import FormalSum, HomotopyClass, singleton
from loopcalc.surface import GateRef, StarFilledSurface, ValidationReport
from loopcalc.words import OUT, canonical


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
        counts: dict[int, int] = {}
        transits = []
        for edge, sign in crossings:
            counts[edge] = counts.get(edge, 0) + 1
            transits.append(Transit(star_id, edge, sign, Fraction(counts[edge])))
        return cls(tuple(transits), anchor=anchor)

    def __len__(self) -> int:
        return len(self.transits)

    def to_json(self) -> list[dict]:
        return [t.to_json() for t in self.transits]

    @classmethod
    def from_json(cls, data: Sequence[Mapping], anchor: str | None = None) -> "CombinatorialLoop":
        transits = []
        for item in data:
            pos = item["pos"]
            frac = Fraction(pos) if isinstance(pos, str) else Fraction(pos)
            transits.append(
                Transit(str(item["star"]), int(item["edge"]), int(item["sign"]), frac)
            )
        return cls(tuple(transits), anchor=anchor)


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


def validate_loop(surface: StarFilledSurface, loop: CombinatorialLoop) -> ValidationReport:
    surface.require_valid()
    problems: list[str] = []
    if not loop.transits:
        if loop.anchor is None:
            problems.append("empty loop has no anchor region")
        else:
            try:
                surface.region(loop.anchor)
            except Exception:
                problems.append(f"empty loop anchored in unknown region {loop.anchor!r}")
        return ValidationReport(tuple(problems))

    table = surface.transit_table()
    gates = [table.get((t.star, t.edge, t.sign)) for t in loop.transits]
    for i, t in enumerate(loop.transits):
        if gates[i] is not None:
            continue
        try:
            star = surface.star(t.star)
        except Exception:
            problems.append(f"transit {i}: unknown star {t.star!r}")
            continue
        found = len(problems)
        if not 0 <= t.edge < star.edge_count:
            problems.append(f"transit {i}: edge {t.edge} out of range for star {t.star}")
        if t.sign not in (1, -1):
            problems.append(f"transit {i}: sign {t.sign} is not +1/-1")
        if len(problems) == found:
            problems.append(f"transit {i}: edge {t.edge!r} is not an edge of star {t.star}")
    if problems:
        return ValidationReport(tuple(problems))

    seen: dict[tuple[str, int, Fraction], int] = {}
    for i, t in enumerate(loop.transits):
        key = (t.star, t.edge, t.pos)
        if key in seen:
            problems.append(
                f"transits {seen[key]} and {i} share point (star={t.star}, edge={t.edge}, "
                f"pos={t.pos})"
            )
        seen[key] = i

    n = len(gates)
    for i in range(n):
        r_out = gates[i].exit_region
        r_in = gates[(i + 1) % n].entry_region
        if r_out != r_in:
            problems.append(
                f"transits {i} -> {(i + 1) % n}: exit region {r_out} != entry region {r_in}"
            )
    return ValidationReport(tuple(problems))


def require_valid_loop(surface: StarFilledSurface, loop: CombinatorialLoop) -> None:
    report = validate_loop(surface, loop)
    if not report.valid:
        raise LoopError("; ".join(report.problems))


def base_region(surface: StarFilledSurface, loop: CombinatorialLoop) -> str:
    """Region in which the loop's parametrization starts and ends."""
    if not loop.transits:
        if loop.anchor is None:
            raise LoopError("empty loop has no anchor region")
        return loop.anchor
    return surface.region_of(entry_gate(surface, loop.transits[0]))


def to_class(surface: StarFilledSurface, loop: CombinatorialLoop) -> HomotopyClass:
    require_valid_loop(surface, loop)
    word = canonical(encoded_word(surface, loop))
    return HomotopyClass(surface.letter_table().decode_word(word))


def class_or_zero(surface: StarFilledSurface, loop: CombinatorialLoop) -> FormalSum:
    cls = to_class(surface, loop)
    return FormalSum() if cls.is_trivial else singleton(cls)


def inverse_loop(loop: CombinatorialLoop) -> CombinatorialLoop:
    transits = tuple(replace(t, sign=-t.sign) for t in reversed(loop.transits))
    return CombinatorialLoop(transits, anchor=loop.anchor)


# -- word compilation ---------------------------------------------------------


def compile_word(
    surface: StarFilledSurface,
    generators: Mapping[str, CombinatorialLoop],
    word: Union[str, Sequence[str]],
) -> CombinatorialLoop:
    """Concatenate generator loops (all based in one region) into a single
    loop with fresh distinct positions.

    ``word`` is whitespace-separated tokens, each ``name`` or ``name^-1``.
    """
    tokens = word.split() if isinstance(word, str) else list(word)
    bases = {
        name: base_region(surface, loop) for name, loop in generators.items()
    }
    if len(set(bases.values())) > 1:
        raise LoopError(f"generators have incompatible basepoint regions: {bases}")

    transits: list[Transit] = []
    for token in tokens:
        if token.endswith("^-1"):
            name, invert = token[:-3], True
        else:
            name, invert = token, False
        if name not in generators:
            raise LoopError(f"unknown generator {name!r}")
        factor = generators[name]
        transits.extend(inverse_loop(factor).transits if invert else factor.transits)

    if not transits:
        if bases:
            anchor = next(iter(bases.values()))
        elif surface.regions:
            anchor = surface.regions[0].id
        else:
            raise LoopError("surface has no regions to anchor the empty loop")
        return CombinatorialLoop((), anchor=anchor)

    counts: dict[tuple[str, int], int] = {}
    fresh: list[Transit] = []
    for t in transits:
        key = (t.star, t.edge)
        counts[key] = counts.get(key, 0) + 1
        fresh.append(replace(t, pos=Fraction(counts[key])))
    loop = CombinatorialLoop(tuple(fresh))
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
            replace(t, pos=new_pos[(li, ti)]) for ti, t in enumerate(loop.transits)
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


Move = Union[InsertCancellingPair, RemoveCancellingPair, Reposition, RotateBasepoint]


def apply_move(
    surface: StarFilledSurface, loop: CombinatorialLoop, move: Move
) -> CombinatorialLoop:
    """Apply a class-preserving move and return the new loop."""
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
        counts: dict[tuple[str, int], int] = {}
        fresh = []
        for t in loop.transits:
            key = (t.star, t.edge)
            counts[key] = counts.get(key, 0) + 1
            fresh.append(replace(t, pos=Fraction(counts[key])))
        return CombinatorialLoop(tuple(fresh), anchor=loop.anchor)
    if len(assignment) != len(loop.transits):
        raise LoopError("reposition assignment length mismatch")
    transits = tuple(
        replace(t, pos=Fraction(p)) for t, p in zip(loop.transits, assignment)
    )
    return CombinatorialLoop(transits, anchor=loop.anchor)


# -- prepared loops and splicing ----------------------------------------------


class PreparedLoop:
    """A loop validated for one surface, its transits bucketed by
    ``(star, edge)`` in loop order with their indices, and its encoded word
    made on first use.

    Make one with :func:`loopcalc.stars.prepare_loop`, which validates; the
    star calculus reads only the buckets of the star at hand.  It lives for
    one call and is never cached across calls.
    """

    __slots__ = ("surface", "loop", "buckets", "_word")

    def __init__(self, surface: StarFilledSurface, loop: CombinatorialLoop):
        self.surface = surface
        self.loop = loop
        buckets: dict[tuple[str, int], list[tuple[int, Transit]]] = {}
        for i, t in enumerate(loop.transits):
            buckets.setdefault((t.star, t.edge), []).append((i, t))
        self.buckets = buckets
        self._word: tuple[int, ...] | None = None

    @property
    def transits(self) -> tuple[Transit, ...]:
        return self.loop.transits

    def on_edge(self, star_id: str, edge: int) -> Sequence[tuple[int, Transit]]:
        """``(index, transit)`` of the transits across one edge, in loop order."""
        return self.buckets.get((star_id, edge), ())

    @property
    def word(self) -> tuple[int, ...]:
        if self._word is None:
            self._word = encoded_word(self.surface, self.loop)
        return self._word


Loop = Union[CombinatorialLoop, PreparedLoop]


def _word(surface: StarFilledSurface, loop: Loop) -> tuple[int, ...]:
    return loop.word if isinstance(loop, PreparedLoop) else encoded_word(surface, loop)


def graft(
    surface: StarFilledSurface,
    a: Loop,
    p: int,
    b: Loop,
    q: int,
) -> HomotopyClass:
    """Class of the loop that follows all of ``a`` from transit ``p``, then
    all of ``b`` from transit ``q``, spliced through their common star."""
    ta, tb = a.transits[p], b.transits[q]
    if ta.star != tb.star:
        raise LoopError(f"graft transits lie in different stars {ta.star!r}, {tb.star!r}")
    wa = _word(surface, a)
    wb = _word(surface, b)
    i, j = 2 * p + 1, 2 * q + 1
    spliced = wa[i:] + wa[:i] + wb[j:] + wb[:j]
    return HomotopyClass(surface.letter_table().decode_word(canonical(spliced)))


def subloop(surface: StarFilledSurface, a: Loop, p1: int, p2: int) -> HomotopyClass:
    """Class of the loop that runs along ``a`` from transit ``p1`` to
    transit ``p2`` and closes up through their common star."""
    t1, t2 = a.transits[p1], a.transits[p2]
    if p1 == p2:
        raise LoopError("subloop endpoints must be distinct transits")
    if t1.star != t2.star:
        raise LoopError(f"subloop transits lie in different stars {t1.star!r}, {t2.star!r}")
    word = _word(surface, a)
    m = len(word)
    start = (2 * p1 + 1) % m
    end = start + (2 * p2 - 2 * p1) % m  # letters from exit(p1) through entry(p2)
    piece = word[start:end] if end <= m else word[start:] + word[: end - m]
    return HomotopyClass(surface.letter_table().decode_word(canonical(piece)))


# -- abelianization -----------------------------------------------------------


def abelianization(surface: StarFilledSurface):
    """Return ``h`` mapping classes/loops to integer vectors in the first
    homology of the dual graph (one coordinate per non-tree gate)."""
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
