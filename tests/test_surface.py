"""Surface model: validation, dual graph, canonical builder, JSON."""

import copy
import json
import pickle

import pytest

from loopcalc import loops
from loopcalc.cli import main
from loopcalc.surface import (
    ARC,
    FillingGraphSpec,
    GateRef,
    Region,
    Star,
    StarFilledSurface,
    SurfaceError,
    canonical_surface,
    dual_graph,
    permutation_cycles,
    trace_boundary_circles,
    validate_surface,
)


def annulus_model() -> StarFilledSurface:
    star = Star("s", 2)
    region = Region("r0", (ARC, GateRef("s", 0), ARC, GateRef("s", 1)))
    return StarFilledSurface([star], [region], genus_hint=0, boundary_hint=2)


def test_annulus_valid_and_chi():
    surf = annulus_model()
    assert validate_surface(surf).valid
    assert surf.euler_characteristic() == 0
    assert len(trace_boundary_circles(surf)) == 2


def test_duplicate_gate_invalid():
    star = Star("s", 2)
    region = Region("r0", (ARC, GateRef("s", 0), ARC, GateRef("s", 0)))
    surf = StarFilledSurface([star], [region])
    report = validate_surface(surf)
    assert not report.valid
    assert any("appears" in p for p in report.problems)


def test_three_arcs_invalid():
    star = Star("s", 2)
    region = Region(
        "r0", (ARC, GateRef("s", 0), ARC, GateRef("s", 1), ARC, GateRef("s", 1))
    )
    surf = StarFilledSurface([star], [region])
    report = validate_surface(surf)
    assert not report.valid
    assert any("3 boundary arcs" in p for p in report.problems)
    assert any("r0" in p for p in report.problems)


def test_small_star_invalid():
    surf = StarFilledSurface([Star("s", 1)], [Region("r0", (ARC, GateRef("s", 0)))])
    assert not validate_surface(surf).valid


def test_surface_with_no_stars_invalid(tmp_path, capsys):
    """A surface with no stars is invalid, and ``surface validate`` says
    so and exits 2."""
    report = validate_surface(StarFilledSurface([], []))
    assert report.problems == ("surface has no stars",)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"stars": [], "regions": []}))
    assert main(["surface", "validate", str(path)]) == 2
    out, _ = capsys.readouterr()
    assert json.loads(out) == {"problems": ["surface has no stars"], "valid": False}


def test_dual_graph_annulus():
    graph = dual_graph(annulus_model())
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 2
    assert graph.betti == 1
    assert '"s" -- "r0"' in graph.to_dot()


def test_dual_graph_one_holed_torus():
    surf, _ = canonical_surface(1, 1)
    graph = dual_graph(surf)
    assert len(graph.vertices) == 3
    assert len(graph.edges) == 4
    assert graph.betti == 2


def test_dual_graph_rejects_disconnected():
    stars = [Star("s", 2), Star("t", 2)]
    regions = [
        Region("r0", (ARC, GateRef("s", 0), ARC, GateRef("s", 1))),
        Region("r1", (ARC, GateRef("t", 0), ARC, GateRef("t", 1))),
    ]
    surf = StarFilledSurface(stars, regions)
    report = validate_surface(surf)
    assert any("disconnected" in p for p in report.problems)
    with pytest.raises(SurfaceError):
        dual_graph(surf)


@pytest.mark.parametrize(
    "genus,boundary,star_edges,regions",
    [(0, 2, 2, 1), (1, 1, 4, 2), (0, 3, 4, 2), (2, 1, 8, 4), (1, 2, 6, 3)],
)
def test_canonical_surface_counts(genus, boundary, star_edges, regions):
    surf, gens = canonical_surface(genus, boundary)
    assert validate_surface(surf).valid
    assert surf.stars[0].edge_count == star_edges
    assert len(surf.regions) == regions
    assert surf.euler_characteristic() == 2 - 2 * genus - boundary
    assert len(trace_boundary_circles(surf)) == boundary
    assert dual_graph(surf).betti == 2 * genus + boundary - 1
    assert len(gens) == 2 * genus + boundary - 1


def test_canonical_annulus_generator_is_core():
    surf, gens = canonical_surface(0, 2)
    (core,) = gens.values()
    assert [(t.edge, t.sign) for t in core.transits] == [(0, 1)]


def eager_generators(genus, boundary):
    """Every generator loop of the canonical model, built here as transit
    JSON: the passage from gate 0 to the generator's gate, then, for a
    region other than gate 0's, the passage from the region's lower gate
    back to gate 0, positioned ``1, 2, ...`` along each edge."""
    star = Star("s", 2 * (2 * genus + boundary - 1))
    pairs = [p for t in range(genus) for p in ((4 * t, 4 * t + 2), (4 * t + 1, 4 * t + 3))]
    pairs += [(4 * genus + 2 * u, 4 * genus + 2 * u + 1) for u in range(boundary - 1)]
    names = [f"{c}{t + 1}" for t in range(genus) for c in "xy"]
    names += [f"z{u + 1}" for u in range(boundary - 1)]
    out = {}
    for name, (lo, hi) in zip(names, pairs):
        crossings = star.passage(0, hi) + (star.passage(lo, 0) if lo else [])
        counts = {}
        transits = []
        for edge, sign in crossings:
            counts[edge] = counts.get(edge, 0) + 1
            transits.append({"star": "s", "edge": edge, "sign": sign, "pos": f"{counts[edge]}/1"})
        out[name] = transits
    return out


@pytest.mark.parametrize("genus, boundary", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (3, 2)])
def test_lazy_generators_equal_the_eager_build(genus, boundary):
    _, gens = canonical_surface(genus, boundary)
    expected = eager_generators(genus, boundary)
    assert list(gens) == list(expected)
    assert {name: loop.to_json() for name, loop in gens.items()} == expected


def test_generators_are_made_on_first_lookup(monkeypatch):
    made = []

    def counting_transit(*args):
        made.append(args)
        return transit(*args)

    transit = loops.Transit
    monkeypatch.setattr(loops, "Transit", counting_transit)
    surf, gens = canonical_surface(400, 1)
    assert surf.stars[0].edge_count == 1600
    assert len(gens) == 800 and "y400" in gens and "z1" not in gens
    assert list(gens)[:3] == ["x1", "y1", "x2"]
    assert made == []
    y1 = gens["y1"]
    assert len(made) == len(y1.transits) > 0
    assert gens["y1"] is y1
    assert len(made) == len(y1.transits)
    with pytest.raises(KeyError):
        gens["z1"]


def test_lazy_generators_copy_and_pickle_as_a_dict():
    _, gens = canonical_surface(2, 1)
    expected = eager_generators(2, 1)
    for copied in (gens.copy(), copy.copy(gens), pickle.loads(pickle.dumps(gens))):
        assert type(copied) is dict
        assert {name: loop.to_json() for name, loop in copied.items()} == expected


def test_trivial_surface_is_the_disk():
    surf, gens = canonical_surface(0, 1)
    assert validate_surface(surf).valid
    assert gens == {}
    assert len(trace_boundary_circles(surf)) == 1


def test_bad_signature_rejected():
    with pytest.raises(SurfaceError):
        canonical_surface(-1, 1)
    with pytest.raises(SurfaceError):
        canonical_surface(0, 0)


def test_boundary_hint_mismatch_detected():
    star = Star("s", 2)
    region = Region("r0", (ARC, GateRef("s", 0), ARC, GateRef("s", 1)))
    surf = StarFilledSurface([star], [region], genus_hint=1, boundary_hint=2)
    report = validate_surface(surf)
    assert not report.valid


def test_json_roundtrip_idempotent():
    surf, _ = canonical_surface(1, 1)
    blob = surf.dumps()
    again = StarFilledSurface.from_json(json.loads(blob))
    assert again.dumps() == blob
    assert validate_surface(again).valid


def test_json_boundary_rotated_to_minimal_form():
    star = Star("s", 2)
    r1 = Region("r0", (ARC, GateRef("s", 0), ARC, GateRef("s", 1)))
    r2 = Region("r0", (ARC, GateRef("s", 1), ARC, GateRef("s", 0)))
    s1 = StarFilledSurface([star], [r1])
    s2 = StarFilledSurface([star], [r2])
    assert s1.dumps() == s2.dumps()


def test_filling_graph_spec_json_roundtrip():
    spec = FillingGraphSpec(
        blue=(("p", ("e0", "e1")),),
        red=(("q", ("e0", "e1")),),
        edges=(("e0", "p", "q"), ("e1", "p", "q")),
    )
    assert FillingGraphSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "a surface must be an object, not list"),
        ({"stars": []}, "a surface has no 'regions'"),
        ({"stars": [{"id": "s"}], "regions": []}, "star 0 has no 'edges'"),
        ({"stars": [{"id": "s", "edges": "x"}], "regions": []},
         "star 's' edges is not an integer: 'x'"),
        ({"stars": "s", "regions": []}, "the star list must be a list, not str"),
        ({"stars": [], "regions": [["arc"]]}, "region 0 must be an object, not list"),
        ({"stars": [], "regions": [{"id": "r", "boundary": "arc"}]},
         "region 'r' boundary must be a list, not str"),
        ({"stars": [], "regions": [{"id": "r", "boundary": ["gate"]}]},
         "boundary item 'gate' must be an object, not str"),
        ({"stars": [], "regions": [{"id": "r", "boundary": [{"gate": {"star": "s"}}]}]},
         "boundary gate has no 'edge'"),
        ({"stars": [], "regions": [], "genus": "one"}, "surface genus is not an integer: 'one'"),
    ],
)
def test_surface_from_json_rejects_malformed(data, message):
    with pytest.raises(SurfaceError) as info:
        StarFilledSurface.from_json(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "a filling graph must be an object, not list"),
        ({"blue": [], "edges": []}, "a filling graph has no 'red'"),
        ({"blue": [{"id": "p"}], "red": [], "edges": []}, "blue vertex 0 has no 'rotation'"),
        ({"blue": [], "red": [{"id": "q", "rotation": 3}], "edges": []},
         "red vertex 'q' rotation must be a list, not int"),
        ({"blue": [], "red": [], "edges": ["e0"]}, "edge 0 must be an object, not str"),
    ],
)
def test_filling_graph_spec_from_json_rejects_malformed(data, message):
    with pytest.raises(SurfaceError) as info:
        FillingGraphSpec.from_json(data)
    assert str(info.value) == message


def test_permutation_cycles_start_at_least_elements():
    assert permutation_cycles(range(5), lambda k: [2, 0, 1, 4, 3][k]) == [[0, 2, 1], [3, 4]]
    with pytest.raises(ValueError):
        permutation_cycles(range(3), lambda k: 1)
