"""Filling graphs, the derived bounded surface, and closed-surface
operations with conjugacy normalization."""

import hashlib
import itertools
import json
import random

import pytest
from conftest import as_class, prepared, torus_grid

from loopcalc.algebra import FormalSum, HomotopyClass, TensorSum
from loopcalc.cli import main
from loopcalc.closed import (
    ClosedNormalizer,
    FillingGraphError,
    build_from_graph,
    canonical_filling_graph,
    closed_aggregate,
    closed_bracket,
    closed_cobracket,
    closed_form,
    from_triangulation,
    validate_filling_spec,
)
from loopcalc.fuzz import random_loop, random_loop_pair
from loopcalc.stars import aggregate
from loopcalc.loops import (
    CombinatorialLoop,
    abelianization,
    graft,
    make_generic,
    to_class,
    validate_loop,
)
from loopcalc.surface import FillingGraphSpec, validate_surface
from loopcalc.words import canonical


@pytest.fixture(scope="module")
def torus():
    return build_from_graph(canonical_filling_graph(1))


@pytest.fixture(scope="module")
def genus2():
    return build_from_graph(canonical_filling_graph(2))


def torus_loops(fg):
    a = CombinatorialLoop.from_crossings("p", [(0, -1), (1, -1)])
    b = CombinatorialLoop.from_crossings("p", [(0, 1), (3, 1)])
    return make_generic(fg.surface, [a, b])


# -- graph building ----------------------------------------------------------------


def graph_digest(fg) -> str:
    """Hash of everything ``build_from_graph`` derives: the surface with
    its regions, the faces, the relators and the edge index."""
    data = {
        "surface": fg.surface.to_json(),
        "faces": [list(map(list, f)) for f in fg.faces],
        "relators": [r.to_json() for r in fg.relators],
        "edge_index": sorted((e, list(v)) for e, v in fg.edge_index.items()),
    }
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


#: Digests recorded from the build that scanned each rotation with
#: ``tuple.index``, before the per-vertex position map replaced it.
GRAPH_DIGESTS = {
    ("genus", 1): "0d31a3ab36ea229e",
    ("genus", 2): "096df00fadfbc8b0",
    ("genus", 3): "8d6a6a3b89cf7ac2",
    ("genus", 4): "fe8b25c8ae78c3c1",
    ("torus", 3): "92c015fafbb01461",
    ("torus", 5): "c49f34565631fb3c",
    ("torus", 8): "4381a2ddd2d8cf95",
}


@pytest.mark.parametrize("kind, n", sorted(GRAPH_DIGESTS))
def test_built_graph_unchanged(kind, n):
    if kind == "genus":
        spec = canonical_filling_graph(n)
    else:
        spec = from_triangulation(torus_grid(n))
    assert graph_digest(build_from_graph(spec)) == GRAPH_DIGESTS[kind, n]


def test_torus_graph_shape(torus):
    assert torus.genus == 1
    assert len(torus.spec.blue) == 1 and len(torus.spec.red) == 1
    assert len(torus.spec.edges) == 4
    assert sorted(len(c) for c in torus.faces) == [4, 4]
    assert torus.surface.euler_characteristic() == -1  # chi(closed) - #red
    assert validate_surface(torus.surface).valid
    assert len(torus.relators) == 1


def test_genus2_graph_shape(genus2):
    assert genus2.genus == 2
    assert sorted(len(c) for c in genus2.faces) == [4, 4, 4, 4]
    assert genus2.surface.euler_characteristic() == -3


def test_tetrahedron_triangulation():
    spec = from_triangulation(
        [("v0", "v1", "v2"), ("v0", "v2", "v3"), ("v0", "v3", "v1"), ("v1", "v3", "v2")]
    )
    assert len(spec.blue) == 4 and len(spec.red) == 4 and len(spec.edges) == 12
    fg = build_from_graph(spec)
    assert fg.genus == 0
    assert sorted(len(c) for c in fg.faces) == [4] * 6


def test_one_vertex_torus_triangulation():
    spec = from_triangulation(
        [("v", "v", "v"), ("v", "v", "v")],
        gluings=[((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
    )
    assert len(spec.blue) == 1 and len(spec.red) == 2 and len(spec.edges) == 6
    fg = build_from_graph(spec)
    assert fg.genus == 1
    assert len(fg.relators) == 2


def test_non_closed_triangulation_rejected():
    with pytest.raises(FillingGraphError):
        from_triangulation([("v0", "v1", "v2")])


def test_blue_blue_edge_rejected():
    spec = FillingGraphSpec(
        blue=(("b1", ("e0",)), ("b2", ("e1",))),
        red=(("r1", ("e0", "e1")),),
        edges=(("e0", "b1", "r1"), ("e1", "b1", "b2")),  # e1 ends on a blue vertex
    )
    report = validate_filling_spec(spec)
    assert not report.valid
    assert any("unknown red vertex" in p for p in report.problems)
    with pytest.raises(FillingGraphError):
        build_from_graph(spec)


def test_graph_with_no_edges_rejected(tmp_path, capsys):
    """A filling graph with no edges fills no surface: it is invalid, and
    ``closed load`` exits 2 with one line on stderr."""
    spec = FillingGraphSpec(blue=(), red=(), edges=())
    assert validate_filling_spec(spec).problems == ("filling graph has no edges",)
    with pytest.raises(FillingGraphError, match="no edges"):
        build_from_graph(spec)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"blue": [], "red": [], "edges": []}))
    assert main(["closed", "load", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "no edges" in err


def test_face_bound_enforced():
    # A 3-edge path on the sphere has one face traversing 6 edge sides.
    spec = FillingGraphSpec(
        blue=(("b1", ("e0",)), ("b2", ("e1", "e2"))),
        red=(("r0", ("e0", "e1")), ("r1", ("e2",))),
        edges=(("e0", "b1", "r0"), ("e1", "b2", "r0"), ("e2", "b2", "r1")),
    )
    with pytest.raises(FillingGraphError, match="limit is 4"):
        build_from_graph(spec)


# -- the explicit torus computation --------------------------------------------------


def test_torus_loops_are_valid(torus):
    a, b = torus_loops(torus)
    assert validate_loop(torus.surface, a).valid
    assert validate_loop(torus.surface, b).valid


def test_closed_form_torus_example(torus):
    a, b = torus_loops(torus)
    result = closed_form(torus, a, b)
    assert result.doubled == 2
    assert result.halved == 1


def test_closed_form_skew(torus):
    a, b = torus_loops(torus)
    assert closed_form(torus, a, a).doubled == 0
    assert closed_form(torus, b, a).doubled == -2


def test_closed_bracket_torus_single_class(torus):
    a, b = torus_loops(torus)
    result = closed_bracket(torus, a, b)
    ((cls, coeff),) = result.doubled.items()
    assert abs(coeff) == 2
    assert cls.kind == "abelian"
    h = abelianization(torus.surface)
    norm = ClosedNormalizer(torus)
    expected = tuple(x + y for x, y in zip(h(a), h(b)))
    assert cls.data == expected


def test_closed_cobracket_simple_torus_loop_vanishes(torus):
    a, _ = torus_loops(torus)
    assert closed_cobracket(torus, a).doubled.is_zero


def test_torus_form_matches_determinant_pairing(torus):
    """On the torus the halved form equals the determinant of the two
    homology vectors: exhaustive over all valid crossing words of length
    at most 4, one representative per homology class, plus same-class
    cross-checks."""
    h = abelianization(torus.surface)
    reps = {}
    same_class_pairs = []
    for length in range(1, 5):
        for seq in itertools.product(
            [(e, s) for e in range(4) for s in (1, -1)], repeat=length
        ):
            loop = CombinatorialLoop.from_crossings("p", list(seq))
            if not validate_loop(torus.surface, loop).valid:
                continue
            hv = h(loop)
            if hv in reps:
                if len(same_class_pairs) < 60:
                    same_class_pairs.append((reps[hv], loop))
            else:
                reps[hv] = loop
    assert len(reps) >= 12  # several distinct classes realized

    for (ha, a0), (hb, b0) in itertools.combinations(reps.items(), 2):
        a, b = make_generic(torus.surface, [a0, b0])
        det = ha[0] * hb[1] - ha[1] * hb[0]
        assert closed_form(torus, a, b).halved == det
    for a0, b0 in same_class_pairs:
        a, b = make_generic(torus.surface, [a0, b0])
        assert closed_form(torus, a, b).halved == 0


# -- normalization --------------------------------------------------------------------


def test_relator_normalizes_to_trivial(torus, genus2):
    for fg in (torus, genus2):
        for relator in fg.relators:
            assert ClosedNormalizer(fg).normalize(relator).is_trivial


def test_torus_abelian_normal_form(torus):
    # b twice then a reversed-rotated: a loop with homology (2, -1).
    loop = CombinatorialLoop.from_crossings(
        "p", [(0, 1), (3, 1), (0, 1), (3, 1), (1, -1), (0, -1)]
    )
    assert validate_loop(torus.surface, loop).valid
    h = abelianization(torus.surface)
    assert h(loop) == (2, -1)
    cls = ClosedNormalizer(torus).normalize(to_class(torus.surface, loop))
    assert cls.kind == "abelian" and cls.data == (2, -1)


def test_genus2_conjugates_normalize_equal(genus2):
    table = genus2.surface.letter_table()
    rel = genus2.relator_words()[0]
    w = rel[:5]
    base = ClosedNormalizer(genus2).normalize(HomotopyClass(table.decode_word(canonical(w))))
    for g in itertools.permutations(rel[5:], 2):
        conj = tuple(g) + w + tuple(x ^ 1 for x in reversed(g))
        cls = HomotopyClass(table.decode_word(canonical(conj)))
        assert ClosedNormalizer(genus2).normalize(cls) == base


def test_genus2_relator_insertion_invariant(genus2):
    table = genus2.surface.letter_table()
    rel = genus2.relator_words()[0]
    w = rel[:5]
    base = ClosedNormalizer(genus2).normalize(HomotopyClass(table.decode_word(canonical(w))))
    for cut in range(0, 5):
        spliced = w[:cut] + rel + w[cut:]
        cls = HomotopyClass(table.decode_word(canonical(spliced)))
        assert ClosedNormalizer(genus2).normalize(cls) == base


def test_normalizer_constant_under_relator_grafts(torus, genus2):
    """Grafting a loop with a red-disk boundary loop does not change its
    class in the closed surface."""
    rng = random.Random(33)
    for fg in (torus, genus2):
        blue = fg.spec.blue[0][0]
        rot = dict(fg.spec.red)[sorted(dict(fg.spec.red))[0]]
        relator_loop = CombinatorialLoop.from_crossings(
            blue, [(fg.edge_index[e][1], 1) for e in rot]
        )
        norm = ClosedNormalizer(fg, bound=6)
        for _ in range(8):
            loop = random_loop(fg.surface, rng, 6)
            if not loop.transits:
                continue
            loop, rel = make_generic(fg.surface, [loop, relator_loop])
            base = norm.normalize(to_class(fg.surface, loop))
            p = next(
                i for i, t in enumerate(loop.transits) if t.star == blue
            )
            a, r = prepared(fg.surface, loop, rel)
            spliced = as_class(fg.surface.letter_table(), graft(fg.surface, a, p, r, 0))
            assert norm.normalize(spliced) == base


def test_genus2_bracket_stable_across_bounds(genus2):
    rng = random.Random(1)
    checked = 0
    for _ in range(40):
        a, b = random_loop_pair(genus2.surface, rng, 8)
        r4 = closed_bracket(genus2, a, b, bound=4)
        r8 = closed_bracket(genus2, a, b, bound=8)
        assert r4.doubled == r8.doubled
        if not r4.doubled.is_zero:
            checked += 1
    assert checked >= 3


def test_closed_results_even_and_metadata(genus2):
    rng = random.Random(8)
    a, b = random_loop_pair(genus2.surface, rng, 8)
    result = closed_bracket(genus2, a, b, bound=5)
    assert result.doubled.all_even()
    payload = result.to_json()
    assert payload["normalization"]["bound"] == 5
    assert "saturated" in payload["normalization"]


def test_relators_are_encoded_once_per_graph(monkeypatch):
    """The tables a normalizer reads of the graph alone (abelianization,
    relator lattice, relator variants) are built once per graph; each call
    still gets a normalizer of its own, with its own ``saturated``."""
    from loopcalc.closed import FillingGraph

    encoded = []
    original = FillingGraph.relator_words

    def counting(graph):
        encoded.append(graph)
        return original(graph)

    monkeypatch.setattr(FillingGraph, "relator_words", counting)
    made = []
    init = ClosedNormalizer.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ClosedNormalizer, "__init__", counting_init)
    graph = build_from_graph(canonical_filling_graph(2))
    rng = random.Random(8)
    results = []
    for _ in range(4):
        a, b = random_loop_pair(graph.surface, rng, 8)
        results += [closed_bracket(graph, a, b), closed_cobracket(graph, a, bound=1)]
    assert len(encoded) == 1 and len(made) == len(results) == 8
    assert all(r.bound in (1, 8) for r in results)
    other = build_from_graph(canonical_filling_graph(2))
    closed_bracket(other, a, b)
    assert len(encoded) == 2


def test_dual_filling_graph_same_form(torus):
    """Exchanging colors gives the dual filling graph; both compute the
    same doubled intersection number."""
    spec = torus.spec
    dual_spec = FillingGraphSpec(blue=spec.red, red=spec.blue, edges=tuple(
        (e, r, b) for e, b, r in spec.edges
    ))
    dual = build_from_graph(dual_spec)
    assert dual.genus == 1

    rng = random.Random(14)
    h = abelianization(torus.surface)
    hd = abelianization(dual.surface)
    for _ in range(15):
        a, b = random_loop_pair(torus.surface, rng, 6)
        da, db = _transfer(torus, dual, a), _transfer(torus, dual, b)
        da, db = make_generic(dual.surface, [da, db])
        assert validate_loop(dual.surface, da).valid
        assert closed_form(torus, a, b).doubled == closed_form(dual, da, db).doubled


def _transfer(src, dst, loop):
    """Re-express a loop on the dual graph: a crossing of edge e keeps its
    sign pattern when blue and red swap, because the edge is the same arc
    of the surface; only the star bookkeeping changes."""
    dst_blue = dst.spec.blue[0][0]
    crossings = []
    for t in loop.transits:
        edge_id = None
        for e, (b, idx) in src.edge_index.items():
            if b == t.star and idx == t.edge:
                edge_id = e
                break
        db, didx = dst.edge_index[edge_id]
        crossings.append((didx, -t.sign))
    return CombinatorialLoop.from_crossings(dst_blue, crossings)


def test_each_class_is_normalized_once_per_call(monkeypatch, genus2):
    """A closed bracket or cobracket normalizes each distinct class of its
    bounded sum once: a cobracket term puts its classes on both sides, and
    bracket terms repeat classes.  The results equal a normalization of
    every term, and ``saturated`` keeps its meaning."""
    normalized = []
    original = ClosedNormalizer.normalize

    def counting(self, cls):
        normalized.append(cls)
        return original(self, cls)

    rng = random.Random(7)
    repeated = 0
    for _ in range(12):
        a, b = random_loop_pair(genus2.surface, rng, 12)
        for op, loops in (("bracket", {"a": a, "b": b}), ("cobracket", {"a": a})):
            agg = aggregate(genus2.surface, loops, op)
            keys = [k for key in agg.total.keys() for k in (key if op == "cobracket" else (key,))]
            monkeypatch.setattr(ClosedNormalizer, "normalize", counting)
            normalized.clear()
            result = closed_aggregate(genus2, loops, op)
            monkeypatch.undo()
            assert sorted(normalized) == sorted(set(keys))
            repeated += len(keys) - len(set(keys))
            reference = ClosedNormalizer(genus2)
            if op == "bracket":
                doubled = FormalSum((reference.normalize(c), n) for c, n in agg.total.items())
            else:
                pairs = [
                    ((reference.normalize(left), reference.normalize(right)), n)
                    for (left, right), n in agg.total.items()
                ]
                doubled = TensorSum(
                    (key, n) for key, n in pairs if not (key[0].is_trivial or key[1].is_trivial)
                )
            assert (result.doubled, result.saturated) == (doubled, reference.saturated)
    assert repeated > 0
