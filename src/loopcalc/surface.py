"""Star-filled models of compact oriented surfaces with boundary.

A surface is presented by a family of stars (trees with a center and
``n >= 2`` leaves on the boundary) together with the complementary disk
regions.  Each star edge ``e`` carries a gate ``(star, e)`` separating the
star's disk neighborhood from the unique region behind it; edge indices
increase counterclockwise (in the surface orientation) around the center,
``e+`` is the next edge, and the gate ``(s, e)`` spans the corner between
``e`` and ``e+``.

Cyclic conventions used for assembling the surface from the combinatorial
data (these fix the orientation and make boundary tracing possible):

* walking counterclockwise around a star disk one meets
  ``leaf(e0), gate(e0), leaf(e1), gate(e1), ...``, each gate traversed
  from its ``e``-side endpoint ("lo") to its ``e+``-side endpoint ("hi");
* region boundaries are listed counterclockwise as well, hence traverse
  each of their gates from "hi" to "lo";
* region boundaries strictly alternate gates and boundary arcs.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from loopcalc.words import IN, OUT, LetterTable


class SurfaceError(Exception):
    """Raised when an operation is applied to an invalid surface."""


ARC = "arc"  # marker for a boundary arc in a region's cyclic boundary


@dataclass(frozen=True, order=True)
class GateRef:
    """The gate carried by edge ``edge`` of star ``star``."""

    star: str
    edge: int

    def to_json(self) -> dict:
        return {"star": self.star, "edge": self.edge}


# A ``|`` union, not ``typing.Union``: typing caches its unions, which would
# keep every imported copy of this module alive.
BoundaryItem = GateRef | str


class TransitGates(NamedTuple):
    """Where a transit enters and leaves its star disk: the number of the
    edge it crosses (:attr:`StarFilledSurface.first_edge`), the regions
    behind its entry and exit gates (``None`` for a gate in no region) and
    the letter codes of entering and leaving through them."""

    edge_number: int
    entry_region: str | None
    exit_region: str | None
    entry_code: int
    exit_code: int


@dataclass(frozen=True)
class Star:
    id: str
    edge_count: int

    def succ(self, edge: int) -> int:
        return (edge + 1) % self.edge_count

    def pred(self, edge: int) -> int:
        return (edge - 1) % self.edge_count

    def gates(self) -> tuple[GateRef, ...]:
        return tuple(GateRef(self.id, e) for e in range(self.edge_count))

    def passage(self, entry: int, exit_: int) -> list[tuple[int, int]]:
        """Edge crossings ``(edge, sign)`` of one pass through the star
        disk, entering through gate ``entry`` and leaving through gate
        ``exit_`` the shorter way round (clockwise on a tie)."""
        n = self.edge_count
        cw = (entry - exit_) % n
        ccw = (exit_ - entry) % n
        if cw <= ccw:
            return [((entry - i) % n, 1) for i in range(cw)]
        return [((entry + 1 + i) % n, -1) for i in range(ccw)]


@dataclass(frozen=True)
class Region:
    id: str
    boundary: tuple[BoundaryItem, ...]

    def gate_cycle(self) -> tuple[GateRef, ...]:
        return tuple(item for item in self.boundary if isinstance(item, GateRef))

    def arc_count(self) -> int:
        return sum(1 for item in self.boundary if item == ARC)


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        return {"valid": self.valid, "problems": list(self.problems)}


@dataclass(frozen=True)
class DualGraph:
    """Nerve of the star-filling: a vertex per star and per region, an edge
    per gate (oriented star -> region as the positive traversal)."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[GateRef, str, str], ...]  # (gate, star vertex, region vertex)

    @property
    def betti(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def to_dot(self) -> str:
        lines = ["graph dual {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for gate, sv, rv in self.edges:
            lines.append(f'  "{sv}" -- "{rv}" [label="{gate.star}:{gate.edge}"];')
        lines.append("}")
        return "\n".join(lines)


class StarFilledSurface:
    """Immutable star-filled surface.

    Construction never fails on structural nonsense; call
    :func:`validate_surface` to get a report.  All downstream operations
    require a valid surface and raise :class:`SurfaceError` otherwise.
    """

    def __init__(
        self,
        stars: Iterable[Star],
        regions: Iterable[Region],
        genus_hint: int | None = None,
        boundary_hint: int | None = None,
    ):
        self.stars: tuple[Star, ...] = tuple(sorted(stars, key=lambda s: s.id))
        self.regions: tuple[Region, ...] = tuple(sorted(regions, key=lambda r: r.id))
        self.genus_hint = genus_hint
        self.boundary_hint = boundary_hint
        self._star_by_id = {s.id: s for s in self.stars}
        # The surface numbers its edges once, star by star in star order:
        # edge ``e`` of star ``s`` is number ``first_edge[s] + e``.
        self.first_edge: dict[str, int] = {}
        number = 0
        for star in self.stars:
            self.first_edge[star.id] = number
            number += star.edge_count
        self._region_of_gate: dict[GateRef, str] = {}
        for region in self.regions:
            for item in region.boundary:
                if isinstance(item, GateRef):
                    self._region_of_gate.setdefault(item, region.id)
        self._report: ValidationReport | None = None
        self._table: LetterTable | None = None
        self._transits: dict[tuple[str, int, int], TransitGates] | None = None
        self._hops: dict[str, tuple[tuple[Star, int, int, str], ...]] | None = None
        self._star_gates: dict[str, tuple[tuple, Mapping]] = {}

    # -- basic accessors ---------------------------------------------------

    def star(self, star_id: str) -> Star:
        try:
            return self._star_by_id[star_id]
        except KeyError:
            raise SurfaceError(f"unknown star {star_id!r}") from None

    def gates(self) -> tuple[GateRef, ...]:
        return tuple(g for s in self.stars for g in s.gates())

    def star_gates(self, star_id: str) -> tuple[tuple, Mapping]:
        """The gate keys ``(star, edge)`` of one star, sorted, and the
        read-only orientation that is ``+1`` on each, built on first use,
        like :meth:`letter_table`; every gate configuration expanded on
        the star shares them."""
        pair = self._star_gates.get(star_id)
        if pair is None:
            gates = tuple((star_id, e) for e in range(self.star(star_id).edge_count))
            pair = self._star_gates[star_id] = (gates, MappingProxyType(dict.fromkeys(gates, 1)))
        return pair

    def gate_count(self) -> int:
        return sum(s.edge_count for s in self.stars)

    def region(self, region_id: str) -> Region:
        for r in self.regions:
            if r.id == region_id:
                return r
        raise SurfaceError(f"unknown region {region_id!r}")

    def region_of(self, gate: GateRef) -> str:
        try:
            return self._region_of_gate[gate]
        except KeyError:
            raise SurfaceError(f"gate {gate} lies in no region") from None

    def euler_characteristic(self) -> int:
        return len(self.stars) + len(self.regions) - self.gate_count()

    def letter_table(self) -> LetterTable:
        if self._table is None:
            self._table = LetterTable((g.star, g.edge) for g in self.gates())
        return self._table

    def transit_table(self) -> dict[tuple[str, int, int], TransitGates]:
        """Edge number and gates of every possible transit, keyed by
        ``(star, edge, sign)``; built on first use, like :meth:`letter_table`,
        and only on a valid surface (:meth:`require_valid`)."""
        if self._transits is None:
            self.require_valid()
            encode = self.letter_table().encode
            table = {}
            for star in self.stars:
                for edge in range(star.edge_count):
                    number = self.first_edge[star.id] + edge
                    for sign in (1, -1):
                        gin = self.gate_for_entry(star.id, edge, sign)
                        gout = self.gate_for_exit(star.id, edge, sign)
                        table[star.id, edge, sign] = TransitGates(
                            number,
                            self._region_of_gate.get(gin),
                            self._region_of_gate.get(gout),
                            encode((gin.star, gin.edge), IN),
                            encode((gout.star, gout.edge), OUT),
                        )
            self._transits = table
        return self._transits

    def region_hops(self) -> dict[str, tuple[tuple[Star, int, int, str], ...]]:
        """Hops region -> region through one star, by the region left:
        ``(star, entry edge, exit edge, region reached)``, in star order and
        then gate order; a hop's crossings are ``star.passage(entry,
        exit)``.  Built on first use, like :meth:`letter_table`."""
        if self._hops is None:
            hops: dict[str, list[tuple[Star, int, int, str]]] = {r.id: [] for r in self.regions}
            for star in self.stars:
                gates = star.gates()
                for gin in gates:
                    for gout in gates:
                        if gin != gout:
                            hops[self.region_of(gin)].append(
                                (star, gin.edge, gout.edge, self.region_of(gout))
                            )
            self._hops = {region: tuple(hs) for region, hs in hops.items()}
        return self._hops

    # -- gate geometry helpers ---------------------------------------------

    def gate_for_entry(self, star_id: str, edge: int, sign: int) -> GateRef:
        """Gate through which a transit of ``sign`` across ``edge`` enters."""
        star = self.star(star_id)
        return GateRef(star_id, edge if sign > 0 else star.pred(edge))

    def gate_for_exit(self, star_id: str, edge: int, sign: int) -> GateRef:
        star = self.star(star_id)
        return GateRef(star_id, star.pred(edge) if sign > 0 else edge)

    # -- validation ----------------------------------------------------------

    def validation(self) -> ValidationReport:
        if self._report is None:
            self._report = _validate(self)
        return self._report

    def require_valid(self) -> None:
        report = self.validation()
        if not report.valid:
            raise SurfaceError("; ".join(report.problems))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        data: dict = {
            "stars": [{"id": s.id, "edges": s.edge_count} for s in self.stars],
            "regions": [
                {"id": r.id, "boundary": _boundary_json(r.boundary)} for r in self.regions
            ],
        }
        if self.genus_hint is not None:
            data["genus"] = self.genus_hint
        if self.boundary_hint is not None:
            data["boundary"] = self.boundary_hint
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "StarFilledSurface":
        """Parse a surface object; raises :class:`SurfaceError` on any other
        shape, a missing key or a value that does not convert."""
        stars, regions = _json_fields(data, ("stars", "regions"), "a surface")
        genus, boundary = (
            None if data.get(key) is None else _json_int(data[key], f"surface {key}")
            for key in ("genus", "boundary")
        )
        return cls(
            [
                Star(str(star), _json_int(edges, f"star {star!r} edges"))
                for star, edges in _json_records(stars, ("id", "edges"), "star")
            ],
            [
                Region(str(r), tuple(map(_boundary_item, _json_list(b, f"region {r!r} boundary"))))
                for r, b in _json_records(regions, ("id", "boundary"), "region")
            ],
            genus_hint=genus,
            boundary_hint=boundary,
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    def __repr__(self) -> str:
        return (
            f"StarFilledSurface(stars={len(self.stars)}, regions={len(self.regions)}, "
            f"gates={self.gate_count()}, chi={self.euler_characteristic()})"
        )


def _json_fields(item, keys: Sequence[str], what: str) -> list:
    """The values of ``keys`` in the JSON object ``item``."""
    if not isinstance(item, Mapping):
        raise SurfaceError(f"{what} must be an object, not {type(item).__name__}")
    for key in keys:
        if key not in item:
            raise SurfaceError(f"{what} has no {key!r}")
    return [item[key] for key in keys]


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SurfaceError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _json_records(value, keys: Sequence[str], what: str) -> list[list]:
    """The values of ``keys`` in each object of the JSON list ``value``."""
    items = _json_list(value, f"the {what} list")
    return [_json_fields(item, keys, f"{what} {i}") for i, item in enumerate(items)]


def _json_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise SurfaceError(f"{what} is not an integer: {value!r}") from None


def _boundary_item(item) -> BoundaryItem:
    if item == ARC:
        return ARC
    (gate,) = _json_fields(item, ("gate",), f"boundary item {item!r}")
    star, edge = _json_fields(gate, ("star", "edge"), "boundary gate")
    return GateRef(str(star), _json_int(edge, "boundary gate edge"))


def _boundary_json(boundary: Sequence[BoundaryItem]) -> list:
    items = [
        ARC if item == ARC else {"gate": item.to_json()} for item in _minimal_rotation(boundary)
    ]
    return items


def _minimal_rotation(boundary: Sequence[BoundaryItem]) -> tuple[BoundaryItem, ...]:
    if not boundary:
        return ()

    def key(item: BoundaryItem):
        return (0,) if item == ARC else (1, item.star, item.edge)

    n = len(boundary)
    rotations = [tuple(boundary[i:]) + tuple(boundary[:i]) for i in range(n)]
    return min(rotations, key=lambda rot: [key(item) for item in rot])


# -- validation internals ----------------------------------------------------


def _validate(surface: StarFilledSurface) -> ValidationReport:
    problems: list[str] = []
    star_ids = [s.id for s in surface.stars]
    if not star_ids:
        problems.append("surface has no stars")
    if len(set(star_ids)) != len(star_ids):
        problems.append("duplicate star ids")
    region_ids = [r.id for r in surface.regions]
    if len(set(region_ids)) != len(region_ids):
        problems.append("duplicate region ids")
    for s in surface.stars:
        if s.edge_count < 2:
            problems.append(f"star {s.id}: edge count {s.edge_count} < 2")

    all_gates = set(surface.gates())
    seen: dict[GateRef, str] = {}
    for region in surface.regions:
        arcs = region.arc_count()
        if arcs not in (1, 2):
            problems.append(f"region {region.id}: has {arcs} boundary arcs, expected 1 or 2")
        if not region.boundary:
            problems.append(f"region {region.id}: empty boundary")
            continue
        n = len(region.boundary)
        for i, item in enumerate(region.boundary):
            nxt = region.boundary[(i + 1) % n]
            if item == ARC and nxt == ARC and n > 1:
                problems.append(f"region {region.id}: two adjacent boundary arcs")
            if isinstance(item, GateRef) and isinstance(nxt, GateRef):
                problems.append(f"region {region.id}: gates {item} and {nxt} are adjacent")
            if isinstance(item, GateRef):
                if item not in all_gates:
                    problems.append(f"region {region.id}: unknown gate {item}")
                elif item in seen:
                    problems.append(
                        f"gate {item} appears in region {seen[item]} and region {region.id}"
                    )
                    seen[item] = region.id
                else:
                    seen[item] = region.id
        if n == 1 and region.boundary[0] == ARC:
            problems.append(f"region {region.id}: boundary has no gates")
    missing = sorted(all_gates - set(seen))
    for gate in missing:
        problems.append(f"gate {gate} appears in no region")

    if problems:
        return ValidationReport(tuple(problems))

    # Connectivity of the dual graph.
    adjacency: dict[str, set[str]] = {s.id: set() for s in surface.stars}
    for r in surface.regions:
        adjacency[r.id] = set()
    for region in surface.regions:
        for gate in region.gate_cycle():
            adjacency[gate.star].add(region.id)
            adjacency[region.id].add(gate.star)
    vertices = list(adjacency)
    if vertices:
        stack = [vertices[0]]
        reached = {vertices[0]}
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(vertices):
            problems.append("dual graph is disconnected")

    if not problems:
        traced_b = len(trace_boundary_circles(surface))
        chi = surface.euler_characteristic()
        if surface.boundary_hint is not None and traced_b != surface.boundary_hint:
            problems.append(
                f"traced {traced_b} boundary circles, hint says {surface.boundary_hint}"
            )
        if surface.genus_hint is not None:
            expected_chi = 2 - 2 * surface.genus_hint - traced_b
            if chi != expected_chi:
                problems.append(
                    f"Euler characteristic {chi} inconsistent with genus {surface.genus_hint} "
                    f"and {traced_b} boundary circles (expected {expected_chi})"
                )
    return ValidationReport(tuple(problems))


def trace_boundary_circles(surface: StarFilledSurface) -> list[tuple[GateRef, ...]]:
    """Boundary circles of the assembled surface, each as the cyclic list of
    gates whose "lo" endpoint the circle passes.

    Walking the boundary with the surface on the left alternates leaf arcs
    and region arcs; the successor of gate ``K`` is found by taking the
    region arc that follows ``K`` in its region cycle (leading to the "hi"
    endpoint of the next gate ``K'`` of that region) and then the leaf arc
    to the "lo" endpoint of the gate after ``K'`` around its star.
    """
    next_in_region: dict[GateRef, GateRef] = {}
    for region in surface.regions:
        cycle = region.gate_cycle()
        for i, gate in enumerate(cycle):
            next_in_region[gate] = cycle[(i + 1) % len(cycle)]

    def successor(gate: GateRef) -> GateRef:
        after = next_in_region[gate]
        star = surface.star(after.star)
        return GateRef(after.star, star.succ(after.edge))

    return [tuple(c) for c in permutation_cycles(next_in_region, successor)]


def permutation_cycles(elements: Iterable, step: Callable) -> list[list]:
    """The cycles of the permutation ``step`` of ``elements``, each starting
    at its least element, ordered by those; raises :class:`ValueError` when
    ``step`` is not a permutation of ``elements``."""
    remaining = set(elements)
    cycles = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        cycle = [start]
        remaining.discard(start)
        x = step(start)
        while x != start:
            if x not in remaining:
                raise ValueError(f"{x!r} is reached twice or is not permuted")
            cycle.append(x)
            remaining.discard(x)
            x = step(x)
        cycles.append(cycle)
    return cycles


# -- spec'd operations ---------------------------------------------------------


def validate_surface(surface: StarFilledSurface) -> ValidationReport:
    return surface.validation()


def dual_graph(surface: StarFilledSurface) -> DualGraph:
    surface.require_valid()
    vertices = tuple(s.id for s in surface.stars) + tuple(r.id for r in surface.regions)
    edges = tuple(
        (gate, gate.star, region.id)
        for region in surface.regions
        for gate in region.gate_cycle()
    )
    return DualGraph(vertices, tuple(sorted(edges, key=lambda e: e[0])))


# -- canonical builder ---------------------------------------------------------


@dataclass(frozen=True)
class FillingGraphSpec:
    """Bipartite graph with rotation systems, the precursor of a filling
    graph on a closed surface.  Rotations list incident edge ids
    counterclockwise around each vertex."""

    blue: tuple[tuple[str, tuple[str, ...]], ...]
    red: tuple[tuple[str, tuple[str, ...]], ...]
    edges: tuple[tuple[str, str, str], ...]  # (edge id, blue id, red id)

    def to_json(self) -> dict:
        return {
            "blue": [{"id": v, "rotation": list(rot)} for v, rot in self.blue],
            "red": [{"id": v, "rotation": list(rot)} for v, rot in self.red],
            "edges": [{"id": e, "blue": b, "red": r} for e, b, r in self.edges],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FillingGraphSpec":
        """Parse a filling-graph object; raises :class:`SurfaceError` on any
        other shape or a missing key."""
        blue, red, edges = _json_fields(data, ("blue", "red", "edges"), "a filling graph")

        def vertices(items, color: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
            return tuple(
                (str(v), tuple(map(str, _json_list(rotation, f"{color} vertex {v!r} rotation"))))
                for v, rotation in _json_records(items, ("id", "rotation"), f"{color} vertex")
            )

        return cls(
            vertices(blue, "blue"),
            vertices(red, "red"),
            tuple(tuple(map(str, e)) for e in _json_records(edges, ("id", "blue", "red"), "edge")),
        )


def canonical_surface(
    genus: int, boundary: int
) -> tuple[StarFilledSurface, Mapping[str, "object"]]:
    """Canonical single-star model of the surface with the given genus and
    number of boundary circles, together with its standard generator loops
    (none for the disk).

    The star has ``max(2, 4*genus + 2*(boundary - 1))`` edges.  The regions
    pair up the gates: interleaved pairs ``{4t, 4t+2}, {4t+1, 4t+3}`` build
    the handles, adjacent pairs the extra boundary circles.  Generators are
    named ``x1, y1, ..., xg, yg, z1, ..., z(b-1)`` and are all based in the
    region containing gate 0.  They come as a :class:`LazyMapping`, which
    makes each loop on its first lookup: there are ``2g + b - 1`` of them,
    each with ``O(g + b)`` transits, and a caller reads only the ones it
    names.
    """
    from loopcalc.loops import CombinatorialLoop  # local import to avoid a cycle

    if genus < 0 or boundary < 1:
        raise SurfaceError(f"unsupported surface type ({genus}, {boundary})")

    rank = 2 * genus + boundary - 1
    star = Star("s", max(2, 2 * rank))

    if rank == 0:
        regions = [Region("r0", (ARC, GateRef("s", 0))), Region("r1", (ARC, GateRef("s", 1)))]
        surf = StarFilledSurface([star], regions, genus_hint=0, boundary_hint=1)
        surf.require_valid()
        return surf, {}

    pairs: list[tuple[int, int]] = []
    for t in range(genus):
        pairs.append((4 * t, 4 * t + 2))
        pairs.append((4 * t + 1, 4 * t + 3))
    for u in range(boundary - 1):
        pairs.append((4 * genus + 2 * u, 4 * genus + 2 * u + 1))

    regions = [
        Region(f"r{j}", (ARC, GateRef("s", lo), ARC, GateRef("s", hi)))
        for j, (lo, hi) in enumerate(pairs)
    ]
    surf = StarFilledSurface([star], regions, genus_hint=genus, boundary_hint=boundary)
    surf.require_valid()

    region_of_pair = {pair: f"r{j}" for j, pair in enumerate(pairs)}
    base_pair = pairs[0]
    tree_gate = {region_of_pair[p]: p[0] for p in pairs}

    def gen_loop(gate: int, pair: tuple[int, int]) -> CombinatorialLoop:
        base_gate = base_pair[0]
        crossings = star.passage(base_gate, gate)
        if pair != base_pair:
            crossings += star.passage(tree_gate[region_of_pair[pair]], base_gate)
        return CombinatorialLoop.from_crossings("s", crossings)

    builders: dict[str, Callable[[], CombinatorialLoop]] = {}
    for t in range(genus):
        builders[f"x{t + 1}"] = partial(gen_loop, 4 * t + 2, (4 * t, 4 * t + 2))
        builders[f"y{t + 1}"] = partial(gen_loop, 4 * t + 3, (4 * t + 1, 4 * t + 3))
    for u in range(boundary - 1):
        pair = (4 * genus + 2 * u, 4 * genus + 2 * u + 1)
        builders[f"z{u + 1}"] = partial(gen_loop, pair[1], pair)
    return surf, LazyMapping(builders)


class LazyMapping(Mapping):
    """A read-only mapping whose values are made on first lookup, each by
    its own builder (called with no arguments), and kept; iterating lists
    the keys without making a value.  It is copied, and pickled, as a
    plain dict of every value."""

    __slots__ = ("_builders", "_made")

    def __init__(self, builders: Mapping[str, Callable[[], object]]):
        self._builders = dict(builders)
        self._made: dict[str, object] = {}

    def __getitem__(self, key):
        try:
            return self._made[key]
        except KeyError:
            pass
        value = self._made[key] = self._builders[key]()
        return value

    def __contains__(self, key) -> bool:
        return key in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)

    def copy(self) -> dict:
        return dict(self)

    def __reduce__(self):
        return dict, (dict(self),)
