"""Per-star work that follows the crossings: the star and gate routes on
many-star surfaces checked against a skew sum read from the raw transits,
work counters that stay flat as a star grows, and the caller's omega still
checked on the gates no loop crosses."""

import functools
import random
import re
from collections import Counter

import pytest
from conftest import torus_grid

from loopcalc import gates, stars
from loopcalc.algebra import FormalSum, TensorSum
from loopcalc.closed import build_from_graph, canonical_filling_graph, from_triangulation
from loopcalc.fuzz import CALLS, random_loop_pair, surface_from_spec
from loopcalc.gates import GateCalculusError
from loopcalc.loops import PreparedLoop
from loopcalc.stars import aggregate, expand_to_gates, methods_agree, prepare_loops
from loopcalc.surface import Star, StarFilledSurface

OPS = ("form", "bracket", "cobracket")
ZERO = {"form": 0, "bracket": FormalSum(), "cobracket": TensorSum()}


@functools.lru_cache(maxsize=None)
def surface_of(name):
    if name.startswith("torus"):
        n = int(name[len("torus"):])
        return build_from_graph(from_triangulation(torus_grid(n))).surface
    if name == "closed-g2":
        return build_from_graph(canonical_filling_graph(2)).surface
    return surface_from_spec(name)[0]


def pairs_on(surface, seed, count):
    rng = random.Random(seed)
    return [dict(zip("ab", random_loop_pair(surface, rng, 12))) for _ in range(count)]


def crossing_pairs_on(surface, seed, count):
    """Cap-12 pairs in which both loops have transits.  On one large star
    most loops ``random_loop`` draws are empty, so the draw goes on until
    ``count`` pairs of two non-empty loops are found."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b = random_loop_pair(surface, rng, 12)
        if a.transits and b.transits:
            out.append({"a": a, "b": b})
    return out


def skew_sum(star, a, b):
    """The star's form from the raw transits: the skew pairing of the two
    signed edge-count vectors over every consecutive edge pair."""

    def counts(loop):
        c = [0] * star.edge_count
        for t in loop.transits:
            if t.star == star.id:
                c[t.edge] += t.sign
        return c

    ca, cb = counts(a), counts(b)
    return sum(ca[e] * cb[star.succ(e)] - cb[e] * ca[star.succ(e)] for e in range(star.edge_count))


@pytest.mark.parametrize("name", ["torus3", "torus5", "closed-g2"])
def test_routes_agree_and_star_forms_match_the_raw_skew_sum(name):
    surface = surface_of(name)
    uncrossed = 0
    for loops in pairs_on(surface, name, 20):
        crossed = {role: {t.star for t in loop.transits} for role, loop in loops.items()}
        for op in OPS:
            star_result, gate_result, agree = methods_agree(surface, loops, op)
            assert agree, op
            ids = [s for s, _ in star_result.per_star]
            assert ids == [star.id for star in surface.stars]
            # No term arises on a star that a, or for the bracket b, does not cross.
            for star_id, value in star_result.per_star:
                if star_id not in crossed["a"] or (op == "bracket" and star_id not in crossed["b"]):
                    uncrossed += 1
                    assert value == ZERO[op]
        form = dict(methods_agree(surface, loops, "form")[0].per_star)
        for star in surface.stars:
            assert form[star.id] == skew_sum(star, loops["a"], loops["b"])
    if name != "closed-g2":  # its one star is crossed by every loop
        assert uncrossed > 0


def work_per_call(monkeypatch, surface, pairs):
    """Per aggregate call, by route and op: ``on_edge`` lookups, gate
    crossings built, gate sides asked for, gates visited by
    ``expand_to_gates`` (the gates its configuration lists), ``Star.succ``
    and ``Star.pred`` calls, and configuration entries (listed gates plus
    any ``base_omega`` table other than the one the surface builds once
    per star)."""
    counts = dict.fromkeys(("on_edge", "crossings", "sides", "gates", "succ_pred", "entries"), 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counting_expand(surface, star_id, loops):
        config = expand(surface, star_id, loops)
        counts["gates"] += len(config.crossings)
        shared = config.base_omega is surface.star_gates(star_id)[1]
        counts["entries"] += len(config.crossings) + (0 if shared else len(config.base_omega))
        return config

    surface.transit_table()  # built once per surface, before counting
    expand = stars.expand_to_gates
    monkeypatch.setattr(PreparedLoop, "on_edge", counting("on_edge", PreparedLoop.on_edge))
    monkeypatch.setattr(stars, "GateCrossing", counting("crossings", stars.GateCrossing))
    monkeypatch.setattr(gates, "_side", counting("sides", gates._side))
    monkeypatch.setattr(stars, "expand_to_gates", counting_expand)
    for name in ("succ", "pred"):
        monkeypatch.setattr(Star, name, counting("succ_pred", getattr(Star, name)))
    work = {}
    for method in ("star", "gate"):
        for op in OPS:
            for key in counts:
                counts[key] = 0
            for loops in pairs:
                aggregate(surface, loops if op != "cobracket" else {"a": loops["a"]}, op, method)
            work[method, op] = {key: n / len(pairs) for key, n in counts.items()}
    monkeypatch.undo()
    return work


def test_work_per_call_does_not_grow_with_the_star(monkeypatch):
    small, large = surface_of("g10b1"), surface_of("g100b1")
    (star,) = large.stars
    assert star.edge_count == 10 * small.stars[0].edge_count
    pairs = {s: crossing_pairs_on(s, 11, 10) for s in (small, large)}
    work = {s: work_per_call(monkeypatch, s, pairs[s]) for s in (small, large)}
    for call, counts in work[large].items():
        for key, n in counts.items():
            assert n <= 2 * max(work[small][call][key], 1), (call, key)
    for op in OPS:
        assert work[large]["gate", op]["gates"] > 0
        assert work[large]["gate", op]["entries"] > 0
    assert work[large]["gate", "form"]["crossings"] > 0
    assert work[large]["star", "bracket"]["on_edge"] > 0
    assert work[large]["star", "bracket"]["succ_pred"] > 0
    # Every gate is still listed in ``gates``; those no loop crosses hold no
    # crossing.
    for loops in pairs[large]:
        config = expand_to_gates(large, star.id, prepare_loops(large, loops))
        assert config.gates == tuple((star.id, e) for e in range(star.edge_count))
        crossed = {
            e for loop in loops.values() for t in loop.transits for e in (t.edge, star.pred(t.edge))
        }
        for e in range(star.edge_count):
            assert bool(config.gate_crossings((star.id, e))) == (e in crossed)


def uncrossed_star(surface, loops):
    crossed = {t.star for loop in loops.values() for t in loop.transits}
    return next(star for star in surface.stars if star.id not in crossed)


@pytest.mark.parametrize("op", OPS)
def test_a_callers_omega_is_checked_on_uncrossed_gates(op):
    surface = surface_of("torus3")
    loops = pairs_on(surface, 3, 1)[0]
    star = uncrossed_star(surface, loops)
    full = {g: 1 for s in surface.stars for g in ((s.id, e) for e in range(s.edge_count))}
    prepared = prepare_loops(surface, loops)
    call = (op, "a") if op == "cobracket" else (op, "a", "b")
    missing = dict(full)
    del missing[star.id, 2], missing[star.id, 1]
    text = f"gate orientation missing gate {(star.id, 1)!r}"
    with pytest.raises(GateCalculusError, match=re.escape(text)):
        aggregate(surface, loops, op, "gate", omega=missing)
    with pytest.raises(GateCalculusError, match=re.escape(text)):
        stars.evaluate(surface, prepared, [call], "gate", omega=missing)
    bad = dict(full)
    bad[star.id, 0] = 2
    with pytest.raises(GateCalculusError, match=re.escape("gate orientation sign 2 is not +-1")):
        aggregate(surface, loops, op, "gate", omega=bad)
    with pytest.raises(GateCalculusError, match="is not \\+-1"):
        stars.evaluate(surface, prepared, [call], "gate", omega=bad)
    assert aggregate(surface, loops, op, "gate", omega=full).per_star


def test_a_star_no_term_can_arise_on_is_not_read(monkeypatch):
    """On ``torus5``, each star that ``a`` does not cross, or for the
    bracket that ``b`` does not cross, gets its operation's zero from the
    star route of :func:`~loopcalc.stars.evaluate` without a bucket read, a
    ``Star.succ``/``pred`` call, a disjointness check, a star lookup or a
    decode.  Each read is counted on the star it reads, and a decode on the
    star whose star function runs.  That ``per_star`` still lists it with
    its zero, and that the routes agree, is checked by
    ``test_routes_agree_and_star_forms_match_the_raw_skew_sum``."""
    surface = surface_of("torus5")
    pairs = crossing_pairs_on(surface, 5, 10)
    keys = ("on_edge", "succ_pred", "check", "star", "decoded")
    counts = Counter()
    running = [None]  # the star whose star function runs

    def counting(key, fn, star_of):
        def wrapper(*args, **kwargs):
            counts[key, star_of(*args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def entering(fn):
        def wrapper(surface, star_id, *loops):
            running[0] = star_id
            return fn(surface, star_id, *loops)

        return wrapper

    monkeypatch.setattr(
        PreparedLoop, "on_edge", counting("on_edge", PreparedLoop.on_edge, lambda _, s, e: s)
    )
    for name in ("succ", "pred"):
        succ_pred = counting("succ_pred", getattr(Star, name), lambda s, e: s.id)
        monkeypatch.setattr(Star, name, succ_pred)
    monkeypatch.setattr(
        stars, "_check_disjoint", counting("check", stars._check_disjoint, lambda s, loops: s.id)
    )
    monkeypatch.setattr(
        StarFilledSurface, "star", counting("star", StarFilledSurface.star, lambda _, s: s)
    )
    monkeypatch.setattr(
        stars, "decoded", counting("decoded", stars.decoded, lambda *_: running[0])
    )
    for name in ("star_form", "star_bracket", "star_cobracket"):
        monkeypatch.setattr(stars, name, entering(getattr(stars, name)))
    skipped = dict.fromkeys(OPS, 0)
    read = 0
    for loops in pairs:
        prepared = prepare_loops(surface, loops)
        crossed = {name: {t.star for t in loop.transits} for name, loop in loops.items()}
        for op in OPS:
            call = (op, "a") if op == "cobracket" else (op, "a", "b")
            counts.clear()
            per_star = stars.evaluate(surface, prepared, [call])[0][call]
            for star, (star_id, value) in zip(surface.stars, per_star, strict=True):
                assert star_id == star.id
                empty = star.id not in crossed["a"] or (
                    op == "bracket" and star.id not in crossed["b"]
                )
                reads = {key: counts[key, star.id] for key in keys}
                if empty:
                    skipped[op] += 1
                    assert value == ZERO[op], (star.id, op)
                    assert reads == dict.fromkeys(keys, 0), (star.id, op)
                else:
                    read += reads["on_edge"] > 0
    assert all(skipped.values()) and read > 0


def test_the_star_route_lists_all_64_stars_with_one_shared_zero_per_op():
    """On the 8x8 torus grid, for seeded cap-12 pairs, the star route's
    ``per_star`` lists all 64 stars in surface order and equals the gate
    route's.  Each star that a call's loops do not cross (``a``, and for
    the bracket ``b`` too) gets its operation's zero: ``0``, or one empty
    ``FormalSum`` or ``TensorSum`` shared by every such star."""
    surface = surface_of("torus8")
    ids = [star.id for star in surface.stars]
    assert len(ids) == 64
    zeros = {op: set() for op in OPS}  # ids of the zero objects handed out
    for loops in pairs_on(surface, 8, 12):
        prepared = prepare_loops(surface, loops)
        crossed = {role: {t.star for t in loop.transits} for role, loop in loops.items()}
        star_values = stars.evaluate(surface, prepared, CALLS)[0]
        gate_values = stars.evaluate(surface, prepared, CALLS, "gate")[0]
        for call in CALLS:
            op, per_star = call[0], star_values[call]
            assert [star_id for star_id, _ in per_star] == ids
            assert per_star == gate_values[call], call
            read = call[1:] if op == "bracket" else call[1:2]
            for star_id, value in per_star:
                if any(star_id not in crossed[role] for role in read):
                    assert type(value) is type(ZERO[op]) and value == ZERO[op], (star_id, call)
                    zeros[op].add(id(value))
    assert all(zeros.values())
    assert len(zeros["bracket"]) == len(zeros["cobracket"]) == 1


def test_the_shared_zeros_stay_zero_through_the_arithmetic():
    """Negating, adding, subtracting, scaling, transposing, halving and
    summing over stars leave the star route's shared zeros empty."""
    surface = surface_of("torus8")
    prepared = prepare_loops(surface, pairs_on(surface, 8, 1)[0])
    values = stars.evaluate(surface, prepared, CALLS)[0]
    terms = {
        "bracket": FormalSum({"x": 2, "y": -4}),
        "cobracket": TensorSum({("x", "y"): 2, ("y", "x"): -2}),
    }
    for call in CALLS[1:]:
        op, per_star = call[0], values[call]
        zero, term = ZERO[op], terms[op]
        shared = next(value for _, value in per_star if value.is_zero)
        results = [-shared, 3 * shared, 0 * term, shared.halved(), shared + shared]
        results += [shared.transpose()] if op == "cobracket" else []
        assert all(result == zero for result in results)
        assert shared + term == term + shared == term and shared - term == -term
        total = stars.sum_stars(op, [*per_star, ("t", term)])
        assert total == term and stars.halve(total, op) == term.halved()
        assert shared == zero and len(shared) == 0 and not list(shared.items()), call
        assert stars.evaluate(surface, prepared, [call])[0][call] == per_star


def test_a_familys_shared_point_test_reads_only_the_stars_two_loops_cross(monkeypatch):
    """Before the first cobracket of a family, the star route tests for a
    shared point only the stars that two loops of the family cross, in star
    order."""
    surface = surface_of("torus3")
    tested = []
    share = stars._share_a_point

    def counting(star_id, loops):
        tested.append(star_id)
        return share(star_id, loops)

    monkeypatch.setattr(stars, "_share_a_point", counting)
    both_seen = 0
    for loops in pairs_on(surface, 3, 12):
        crossed = {role: {t.star for t in loop.transits} for role, loop in loops.items()}
        tested.clear()
        stars.evaluate(surface, prepare_loops(surface, loops), [("cobracket", "a")])
        both = [star.id for star in surface.stars if star.id in crossed["a"] & crossed["b"]]
        assert tested == both
        both_seen += len(both)
    assert both_seen > 0
