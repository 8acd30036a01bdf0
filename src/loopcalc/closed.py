"""Closed oriented surfaces presented by filling graphs.

A filling graph is an embedded bipartite graph whose complementary faces
are small disks (at most 4 edges around each face).  Removing a disk
around every red vertex leaves a bounded surface filled by one star per
blue vertex, so the star calculus computes twice the intersection form,
bracket and cobracket of the closed surface.  Output classes live in the
fundamental group of the closed surface; they are normalized against the
red-disk relators.

Rotation systems list incident edge ids counterclockwise.  Faces are
traced with the face on the left: after arriving at a vertex along an
edge, the trace leaves along the next edge of the rotation.  At a blue
corner between rotation-consecutive edges ``E, E+`` the derived region
touches gate ``(blue, index of E)``; red corners become boundary arcs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from loopcalc.algebra import FormalSum, HomotopyClass, TensorSum, letters_json
from loopcalc.loops import (
    CombinatorialLoop,
    abelianization,
    numbered,
    to_class,
)
from loopcalc.loops import require_valid_loop  # noqa: F401 (a public name of this module)
from loopcalc.stars import AggregateResult, aggregate, halve, value_json
from loopcalc.surface import (
    ARC,
    FillingGraphSpec,
    GateRef,
    Region,
    Star,
    StarFilledSurface,
    ValidationReport,
    permutation_cycles,
)
from loopcalc.words import canonical


class FillingGraphError(Exception):
    """Raised for malformed filling graphs or triangulations."""


def validate_filling_spec(spec: FillingGraphSpec) -> ValidationReport:
    problems: list[str] = []
    blue_ids = [v for v, _ in spec.blue]
    red_ids = [v for v, _ in spec.red]
    if len(set(blue_ids)) != len(blue_ids):
        problems.append("duplicate blue vertex ids")
    if len(set(red_ids)) != len(red_ids):
        problems.append("duplicate red vertex ids")
    overlap = set(blue_ids) & set(red_ids)
    if overlap:
        problems.append(f"ids used for both colors: {sorted(overlap)}")

    edge_ids = [e for e, _, _ in spec.edges]
    if not edge_ids:
        problems.append("filling graph has no edges")
    if len(set(edge_ids)) != len(edge_ids):
        problems.append("duplicate edge ids")
    incident_blue: dict[str, set[str]] = {v: set() for v in blue_ids}
    incident_red: dict[str, set[str]] = {v: set() for v in red_ids}
    for e, b, r in spec.edges:
        if b not in incident_blue:
            problems.append(f"edge {e}: unknown blue vertex {b!r}")
            continue
        if r not in incident_red:
            problems.append(f"edge {e}: unknown red vertex {r!r}")
            continue
        incident_blue[b].add(e)
        incident_red[r].add(e)
    if problems:
        return ValidationReport(tuple(problems))

    for kind, vertices, incident in (
        ("blue", spec.blue, incident_blue),
        ("red", spec.red, incident_red),
    ):
        for v, rotation in vertices:
            if set(rotation) != incident[v] or len(rotation) != len(incident[v]):
                problems.append(
                    f"{kind} vertex {v}: rotation {list(rotation)} does not list its "
                    f"incident edges {sorted(incident[v])} exactly once"
                )
            if not rotation:
                problems.append(f"{kind} vertex {v}: isolated vertex")

    # Connectivity over vertices.
    if not problems and spec.edges:
        adj: dict[str, set[str]] = {}
        for e, b, r in spec.edges:
            adj.setdefault(b, set()).add(r)
            adj.setdefault(r, set()).add(b)
        start = sorted(adj)[0]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(blue_ids) + len(red_ids):
            problems.append("filling graph is disconnected")
    return ValidationReport(tuple(problems))


@dataclass(frozen=True)
class FillingGraph:
    """A validated filling graph with its derived bounded surface."""

    spec: FillingGraphSpec
    surface: StarFilledSurface
    genus: int
    faces: tuple[tuple[tuple[str, bool], ...], ...]
    relators: tuple[HomotopyClass, ...]
    edge_index: Mapping[str, tuple[str, int]]  # edge id -> (blue id, edge index)

    def relator_words(self) -> tuple[tuple[int, ...], ...]:
        table = self.surface.letter_table()
        return tuple(table.encode_word(r.letters) for r in self.relators)

    @cached_property
    def relator_tables(self) -> RelatorTables:
        """The tables every :class:`ClosedNormalizer` of this graph reads,
        built on first use and kept with the graph."""
        return RelatorTables.of(self)


def build_from_graph(spec: FillingGraphSpec) -> FillingGraph:
    """Derive the bounded star-filled surface, its regions, and the
    red-disk relators from a filling graph."""
    report = validate_filling_spec(spec)
    if not report.valid:
        raise FillingGraphError("; ".join(report.problems))

    # Faces are cycles of darts; a dart is ``(edge id, to_red)``.
    rotation = dict(spec.blue + spec.red)
    position = {v: {e: i for i, e in enumerate(rot)} for v, rot in rotation.items()}
    head = {}
    for e, b, r in spec.edges:
        head[(e, True)] = r  # blue -> red dart ends at the red vertex
        head[(e, False)] = b

    def face_next(dart: tuple[str, bool]) -> tuple[str, bool]:
        e, to_red = dart
        v = head[dart]
        rot = rotation[v]
        return (rot[(position[v][e] + 1) % len(rot)], not to_red)

    faces = permutation_cycles(head, face_next)
    for cycle in faces:
        if len(cycle) > 4:
            raise FillingGraphError(
                f"face {[e for e, _ in cycle]} traverses {len(cycle)} edges, limit is 4"
            )

    n_vertices = len(spec.blue) + len(spec.red)
    chi = n_vertices - len(spec.edges) + len(faces)
    if chi % 2 != 0 or chi > 2:
        raise FillingGraphError(f"Euler characteristic {chi} is not that of a closed surface")
    genus = (2 - chi) // 2

    edge_index = {e: (b, position[b][e]) for e, b, _ in spec.edges}
    stars = [Star(v, len(rot)) for v, rot in spec.blue]

    regions = []
    for fi, cycle in enumerate(faces):
        boundary = []
        for dart in cycle:
            v = head[dart]
            if dart[1]:  # arrived at a red vertex
                boundary.append(ARC)
            else:
                # Arrived at blue v along edge e; the corner spans e and the
                # rotation-next edge, which is gate (v, index of e).
                boundary.append(GateRef(v, edge_index[dart[0]][1]))
        regions.append(Region(f"f{fi}", tuple(boundary)))

    surface = StarFilledSurface(
        stars, regions, genus_hint=genus, boundary_hint=len(spec.red)
    )
    surface.require_valid()

    relators = []
    for w, rot in spec.red:
        relator_loop = CombinatorialLoop(numbered((*edge_index[e], 1) for e in rot))
        relators.append(to_class(surface, relator_loop))  # validates the relator

    return FillingGraph(
        spec=spec,
        surface=surface,
        genus=genus,
        faces=tuple(tuple(c) for c in faces),
        relators=tuple(relators),
        edge_index=edge_index,
    )


# -- triangulations -------------------------------------------------------------


def from_triangulation(
    triangles: Sequence[Sequence[str]],
    gluings: Sequence[tuple[tuple[int, int], tuple[int, int]]] | None = None,
) -> FillingGraphSpec:
    """Filling graph of a closed oriented triangulation: triangulation
    vertices are blue, face centers red, and each face contributes three
    center-to-corner spokes.

    ``triangles`` lists the corner vertices of each face in its orientation
    order.  Side ``j`` of a triangle runs from corner ``j`` to corner
    ``j + 1``.  For simplicial triangulations the side gluing is derived
    from vertex names; delta-complexes (repeated vertices) must pass
    ``gluings``, a perfect matching of ``(triangle, side)`` pairs.
    """
    tris = [tuple(str(v) for v in t) for t in triangles]
    for i, t in enumerate(tris):
        if len(t) != 3:
            raise FillingGraphError(f"triangle {i} does not have 3 corners")

    glue: dict[tuple[int, int], tuple[int, int]] = {}
    if gluings is not None:
        for one, two in gluings:
            one = (int(one[0]), int(one[1]))
            two = (int(two[0]), int(two[1]))
            glue[one] = two
            glue[two] = one
        if len(glue) != 3 * len(tris):
            raise FillingGraphError("side gluing is not a perfect matching of all sides")
    else:
        by_pair: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for i, t in enumerate(tris):
            for j in range(3):
                u, w = t[j], t[(j + 1) % 3]
                if u == w:
                    raise FillingGraphError(
                        f"triangle {i} side {j} has equal endpoints; pass explicit gluings"
                    )
                by_pair.setdefault((min(u, w), max(u, w)), []).append((i, j))
        for pair, sides in by_pair.items():
            if len(sides) != 2:
                raise FillingGraphError(
                    f"edge {pair} lies on {len(sides)} triangle sides, expected 2 "
                    f"(surface not closed)"
                )
            (i1, j1), (i2, j2) = sides
            d1 = (tris[i1][j1], tris[i1][(j1 + 1) % 3])
            d2 = (tris[i2][j2], tris[i2][(j2 + 1) % 3])
            if d1 == d2:
                raise FillingGraphError(
                    f"edge {pair}: sides agree in direction, orientations incompatible"
                )
            glue[(i1, j1)] = (i2, j2)
            glue[(i2, j2)] = (i1, j1)

    def spoke(i: int, c: int) -> str:
        return f"t{i}c{c}"

    # Counterclockwise walk around a triangulation vertex: from corner c of
    # triangle i, cross the side entering that corner.
    def ccw_next(corner: tuple[int, int]) -> tuple[int, int]:
        i, c = corner
        return glue[(i, (c + 2) % 3)]

    corners = {(i, c) for i in range(len(tris)) for c in range(3)}
    vertex_of: dict[tuple[int, int], str] = {(i, c): tris[i][c] for i, c in corners}
    blue_rotations: dict[str, list[str]] = {}
    try:
        orbits = permutation_cycles(corners, ccw_next)
    except ValueError:
        raise FillingGraphError("corner gluing does not close up around a vertex") from None
    for orbit in orbits:
        names = {vertex_of[c] for c in orbit}
        if len(names) != 1:
            raise FillingGraphError(
                f"corners {orbit} glue around one point but carry names {sorted(names)}"
            )
        name = names.pop()
        if name in blue_rotations:
            raise FillingGraphError(
                f"vertex {name!r} has two distinct corner orbits; rename one"
            )
        blue_rotations[name] = [spoke(i, c) for i, c in orbit]

    blue = tuple(sorted((v, tuple(rot)) for v, rot in blue_rotations.items()))
    red = tuple(
        (f"f{i}", (spoke(i, 0), spoke(i, 1), spoke(i, 2))) for i in range(len(tris))
    )
    edges = tuple(
        (spoke(i, c), vertex_of[(i, c)], f"f{i}")
        for i in range(len(tris))
        for c in range(3)
    )
    return FillingGraphSpec(blue=blue, red=red, edges=edges)


def canonical_filling_graph(genus: int) -> FillingGraphSpec:
    """One-blue-one-red filling graph of the closed surface of the given
    genus: spokes of the standard one-vertex polygon scheme."""
    if genus < 1:
        raise FillingGraphError("canonical filling graphs need genus >= 1")
    n = 4 * genus
    partner = {}
    for t in range(genus):
        partner[4 * t] = 4 * t + 2
        partner[4 * t + 2] = 4 * t
        partner[4 * t + 1] = 4 * t + 3
        partner[4 * t + 3] = 4 * t + 1

    # Rotating counterclockwise around the glued polygon vertex: from the
    # corner between sides k-1 and k, cross side k-1 to its partner's start
    # corner.
    orbits = permutation_cycles(range(n), lambda k: partner[(k - 1) % n])
    if len(orbits) != 1:
        raise FillingGraphError("polygon corners do not glue to a single vertex")
    (orbit,) = orbits

    edges = tuple((f"e{k}", "p", "q") for k in range(n))
    blue = (("p", tuple(f"e{k}" for k in range(n))),)
    red = (("q", tuple(f"e{k}" for k in orbit)),)
    return FillingGraphSpec(blue=blue, red=red, edges=edges)


# -- classes in the closed surface group ----------------------------------------


@dataclass(frozen=True, order=True)
class ClosedClass:
    """Free homotopy class in the closed surface.

    ``kind`` is ``"abelian"`` (genus 0 or 1; ``data`` is the homology
    vector) or ``"word"`` (genus >= 2; ``data`` is the canonical cyclic
    word over directed gate letters, as produced by the bounded but not
    certified-complete conjugacy normalizer)."""

    kind: str
    data: tuple

    @property
    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.data) if self.kind == "abelian" else not self.data

    def to_json(self):
        if self.kind == "abelian":
            return {"homology": list(self.data)}
        return {"word": letters_json(self.data)}


def _hermite_columns(vectors: Sequence[Sequence[int]], dim: int) -> list[list[int]]:
    """Column echelon basis (positive pivots, rows top-down) of the integer
    lattice spanned by the vectors."""
    cols = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    row = 0
    while row < dim and cols:
        live = [c for c in cols if c[row] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            pivot = live[0]
            for c in live[1:]:
                q = c[row] // pivot[row]
                for r in range(dim):
                    c[r] -= q * pivot[r]
            live = [c for c in live if c[row] != 0]
        if live:
            pivot = live[0]
            if pivot[row] < 0:
                pivot = [-x for x in pivot]
            basis.append(pivot)
            cols = [c for c in cols if c is not live[0]]
        row += 1
    return basis


def _reduce_mod_lattice(vector: Sequence[int], basis: Sequence[Sequence[int]]) -> tuple[int, ...]:
    v = list(vector)
    for col in basis:
        row = next(r for r, x in enumerate(col) if x != 0)
        q = v[row] // col[row]
        if q:
            for r in range(len(v)):
                v[r] -= q * col[r]
    return tuple(v)


#: Closure depth of :class:`ClosedNormalizer` unless a caller names another.
DEFAULT_BOUND = 8


@dataclass(frozen=True)
class RelatorTables:
    """What normalization reads of a filling graph alone: the
    abelianization of its bounded surface, the lattice that the relators'
    homology vectors span, and, for genus >= 2, every rotation of every
    relator word and of its inverse."""

    abelianize: Callable
    lattice: tuple[tuple[int, ...], ...]
    variants: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, graph: FillingGraph) -> RelatorTables:
        abelianize = abelianization(graph.surface)
        vectors = [abelianize(r) for r in graph.relators]
        lattice = tuple(map(tuple, _hermite_columns(vectors, abelianize.rank)))
        variants = []
        if graph.genus >= 2:
            for rel in graph.relator_words():
                for word in (rel, _invert(rel)):
                    variants += (word[k:] + word[:k] for k in range(len(word)))
        return cls(abelianize, lattice, tuple(variants))


class ClosedNormalizer:
    """Conjugacy normal forms in the closed-surface group.

    Genus 0 and 1 use the abelianization, which is exact.  Higher genus
    uses cyclic reduction, greedy shortening against relator subwords
    longer than half a relator, and a breadth-limited closure under
    length-preserving half-relator swaps; ``bound`` caps the closure depth
    and is reported alongside results.  The tables that depend on the graph
    alone are the graph's :attr:`FillingGraph.relator_tables`, built once
    per graph; ``saturated`` belongs to one normalizer.
    """

    def __init__(self, graph: FillingGraph, bound: int = DEFAULT_BOUND):
        self.graph = graph
        self.bound = bound
        self.table = graph.surface.letter_table()
        tables = graph.relator_tables
        self.abelianize = tables.abelianize
        self._lattice = tables.lattice
        self._variants = tables.variants
        self.saturated = True

    # -- public API -------------------------------------------------------

    def normalize(self, cls: HomotopyClass) -> ClosedClass:
        if self.graph.genus <= 1:
            vec = _reduce_mod_lattice(self.abelianize(cls), self._lattice)
            return ClosedClass("abelian", vec)
        word = self.table.encode_word(cls.letters)
        best = self._dehn_minimal(word)
        return ClosedClass("word", self.table.decode_word(best))

    # -- genus >= 2 machinery ----------------------------------------------

    def _dehn_shorten(self, word: tuple[int, ...]) -> tuple[int, ...]:
        w = canonical(word)
        changed = True
        while changed and w:
            changed = False
            for variant in self._variants:
                ln = len(variant)
                limit = ln // 2 + 1
                hit = _find_cyclic_subword(w, variant, limit)
                if hit is not None:
                    start, length = hit
                    w = canonical(_replace_cyclic(w, start, length, variant))
                    changed = True
                    break
        return w

    def _dehn_minimal(self, word: tuple[int, ...]) -> tuple[int, ...]:
        w = self._dehn_shorten(word)
        if not w:
            return ()
        seen = {w}
        frontier = [w]
        best = w
        for _ in range(self.bound):
            new: list[tuple[int, ...]] = []
            for u in frontier:
                for candidate in self._half_swaps(u):
                    if candidate not in seen:
                        seen.add(candidate)
                        new.append(candidate)
                        if (len(candidate), candidate) < (len(best), best):
                            best = candidate
            if not new:
                break
            frontier = new
        else:
            if frontier:
                self.saturated = False
        return best

    def _half_swaps(self, word: tuple[int, ...]):
        """Same-length rewrites replacing exactly half a relator."""
        out = []
        for variant in self._variants:
            ln = len(variant)
            if ln % 2 != 0:
                continue
            half = ln // 2
            if half > len(word):
                continue
            for start in range(len(word)):
                if all(
                    word[(start + i) % len(word)] == variant[i] for i in range(half)
                ):
                    rewritten = self._dehn_shorten(
                        _replace_cyclic(word, start, half, variant)
                    )
                    if len(rewritten) <= len(word):
                        out.append(rewritten)
        return out


def _invert(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(x ^ 1 for x in reversed(word))


def _find_cyclic_subword(
    word: tuple[int, ...], variant: tuple[int, ...], min_len: int
) -> tuple[int, int] | None:
    """Longest match of a prefix of ``variant`` inside cyclic ``word`` with
    length >= ``min_len`` (and < len(variant)); returns (start, length)."""
    n = len(word)
    if n == 0:
        return None
    top = min(len(variant) - 1, n)
    for length in range(top, min_len - 1, -1):
        for start in range(n):
            if all(word[(start + i) % n] == variant[i] for i in range(length)):
                return start, length
    return None


def _replace_cyclic(
    word: tuple[int, ...], start: int, length: int, variant: tuple[int, ...]
) -> tuple[int, ...]:
    """Replace ``word[start:start+length]`` (cyclically), equal to the first
    ``length`` letters of relator ``variant``, by the inverse of the
    variant's remainder."""
    n = len(word)
    rest = [word[(start + length + i) % n] for i in range(n - length)]
    replacement = _invert(variant[length:])
    return tuple(replacement) + tuple(rest)


# -- the closed operations -------------------------------------------------------


@dataclass(frozen=True)
class ClosedResult:
    op: str
    doubled: object
    halved: object
    genus: int
    bound: int | None
    saturated: bool
    per_star: tuple

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "sum": value_json(self.doubled),
            "halved": value_json(self.halved),
            "genus": self.genus,
            "normalization": {"bound": self.bound, "saturated": self.saturated},
            "per_star": [{"star": s, "value": value_json(v)} for s, v in self.per_star],
        }


def closed_aggregate(
    graph: FillingGraph, loops: Mapping[str, CombinatorialLoop], op: str, bound: int = DEFAULT_BOUND
) -> ClosedResult:
    """One operation on the closed surface: :func:`loopcalc.stars.aggregate`
    over the filling's bounded surface, then :func:`normalized`."""
    return normalized(graph, aggregate(graph.surface, loops, op), bound)


def normalized(
    graph: FillingGraph, agg: AggregateResult, bound: int = DEFAULT_BOUND
) -> ClosedResult:
    """The closed-surface result of an aggregate over the filling's bounded
    surface: the total normalized in the closed-surface group, then halved
    (``per_star`` keeps the bounded values).  The form is an integer and
    needs no normalization, so it reports no bound.  Each distinct class is
    normalized once per call; the normalizer is deterministic, so
    ``saturated`` is as if every term were normalized."""
    op = agg.op
    if op == "form":
        return ClosedResult(op, agg.total, agg.halved, graph.genus, None, True, agg.per_star)
    normalizer = ClosedNormalizer(graph, bound)
    forms: dict[HomotopyClass, ClosedClass] = {}

    def normalize(cls: HomotopyClass) -> ClosedClass:
        form = forms.get(cls)
        if form is None:
            form = forms[cls] = normalizer.normalize(cls)
        return form

    if op == "bracket":
        doubled = FormalSum((normalize(cls), coeff) for cls, coeff in agg.total.items())
    else:
        terms = []
        for (left, right), coeff in agg.total.items():
            nl = normalize(left)
            nr = normalize(right)
            if nl.is_trivial or nr.is_trivial:
                continue  # contractible factors in the closed surface drop out
            terms.append(((nl, nr), coeff))
        doubled = TensorSum(terms)
    return ClosedResult(
        op=op,
        doubled=doubled,
        halved=halve(doubled, f"closed {op} after normalization"),
        genus=graph.genus,
        bound=bound,
        saturated=normalizer.saturated,
        per_star=agg.per_star,
    )


def closed_form(graph: FillingGraph, a: CombinatorialLoop, b: CombinatorialLoop) -> ClosedResult:
    return closed_aggregate(graph, {"a": a, "b": b}, "form")


def closed_bracket(
    graph: FillingGraph, a: CombinatorialLoop, b: CombinatorialLoop, bound: int = DEFAULT_BOUND
) -> ClosedResult:
    return closed_aggregate(graph, {"a": a, "b": b}, "bracket", bound)


def closed_cobracket(
    graph: FillingGraph, a: CombinatorialLoop, bound: int = DEFAULT_BOUND
) -> ClosedResult:
    return closed_aggregate(graph, {"a": a}, "cobracket", bound)


def filling_graph_from_json(data: Mapping | str) -> FillingGraph:
    if isinstance(data, str):
        data = json.loads(data)
    return build_from_graph(FillingGraphSpec.from_json(data))
