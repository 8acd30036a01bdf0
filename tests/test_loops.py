"""Loop model: validity, classes, compilation, moves, grafts, subloops."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from conftest import as_class, prepared, torus_grid

from loopcalc.algebra import HomotopyClass
from loopcalc.closed import build_from_graph, from_triangulation
from loopcalc.fuzz import random_loop
from loopcalc.loops import (
    CombinatorialLoop,
    InsertCancellingPair,
    LoopError,
    RemoveCancellingPair,
    Reposition,
    RotateBasepoint,
    Transit,
    abelianization,
    apply_move,
    compile_word,
    graft,
    inverse_loop,
    make_generic,
    subloop,
    to_class,
    validate_loop,
)
from loopcalc.surface import canonical_surface
from loopcalc.words import IN, OUT


@pytest.fixture(scope="module")
def annulus():
    return canonical_surface(0, 2)


@pytest.fixture(scope="module")
def torus1():
    return canonical_surface(1, 1)


@pytest.fixture(scope="module")
def pants():
    return canonical_surface(0, 3)


def test_annulus_core_valid(annulus):
    surf, gens = annulus
    assert validate_loop(surf, gens["z1"]).valid


def test_shared_point_invalid(annulus):
    surf, _ = annulus
    loop = CombinatorialLoop(
        (Transit("s", 0, 1, Fraction(1)), Transit("s", 0, -1, Fraction(1)))
    )
    report = validate_loop(surf, loop)
    assert not report.valid
    assert any("share point" in p for p in report.problems)


def test_region_incompatibility_invalid(torus1):
    surf, _ = torus1
    # Crossing edge 0 twice in a row with sign +1 exits into the region of
    # gate 3 but re-enters through gate 0, which lies on the other region.
    loop = CombinatorialLoop(
        (Transit("s", 0, 1, Fraction(1)), Transit("s", 0, 1, Fraction(2)))
    )
    report = validate_loop(surf, loop)
    assert not report.valid
    assert any("exit region" in p for p in report.problems)


def test_empty_loop_needs_anchor(annulus):
    surf, _ = annulus
    assert not validate_loop(surf, CombinatorialLoop(())).valid
    assert validate_loop(surf, CombinatorialLoop((), anchor="r0")).valid
    assert validate_loop(surf, CombinatorialLoop((), anchor="nope")).problems == (
        "empty loop anchored in unknown region 'nope'",
    )


def test_annulus_core_class_word(annulus):
    surf, gens = annulus
    cls = to_class(surf, gens["z1"])
    assert cls.letters == ((("s", 0), IN), (("s", 1), OUT))
    assert not cls.is_trivial


def test_in_and_out_loop_is_trivial(annulus):
    surf, _ = annulus
    loop = CombinatorialLoop(
        (Transit("s", 0, 1, Fraction(1)), Transit("s", 0, -1, Fraction(2)))
    )
    assert validate_loop(surf, loop).valid
    assert to_class(surf, loop).is_trivial


def test_compile_x_xinv_trivial(torus1):
    surf, gens = torus1
    loop = compile_word(surf, gens, "x1 x1^-1")
    assert to_class(surf, loop).is_trivial


def test_compile_identity(torus1):
    surf, gens = torus1
    loop = compile_word(surf, gens, "x1")
    assert [(t.star, t.edge, t.sign) for t in loop.transits] == [
        (t.star, t.edge, t.sign) for t in gens["x1"].transits
    ]
    assert to_class(surf, loop) == to_class(surf, gens["x1"])


def test_compile_core_squared(annulus):
    surf, gens = annulus
    loop = compile_word(surf, gens, "z1 z1")
    assert len(loop.transits) == 2
    assert len({t.pos for t in loop.transits}) == 2
    cls = to_class(surf, loop)
    assert len(cls.letters) == 4


def test_compile_empty_word(annulus):
    surf, gens = annulus
    loop = compile_word(surf, gens, "")
    assert loop.transits == ()
    assert to_class(surf, loop).is_trivial


def test_compile_unknown_generator(annulus):
    surf, gens = annulus
    with pytest.raises(LoopError):
        compile_word(surf, gens, "w")


def test_compile_incompatible_basepoints(torus1):
    surf, gens = torus1
    # y1 starts in the region of gate (s, 0); rotating it by one transit
    # moves its basepoint to the other region.
    from loopcalc.loops import RotateBasepoint, apply_move

    shifted = apply_move(surf, gens["y1"], RotateBasepoint(1))
    bad = dict(gens, y1=shifted)
    with pytest.raises(LoopError, match="incompatible basepoint"):
        compile_word(surf, bad, "x1 y1")
    # Only the generators the word names are checked (and read).
    assert compile_word(surf, bad, "x1 x1").transits
    assert compile_word(surf, bad, "").transits == ()


def test_commutator_noncontractible(torus1):
    surf, gens = torus1
    loop = compile_word(surf, gens, "x1 y1 x1^-1 y1^-1")
    assert not to_class(surf, loop).is_trivial


def test_free_group_conjugacy_against_oracle(torus1, pants):
    """Classes agree with an independent free-group cyclic-reduction oracle
    on all short words (exhaustive length <= 5, sampled lengths 6..8)."""

    def oracle(word: tuple[int, ...]) -> tuple[int, ...]:
        # Independent implementation: letters +-1, +-2; reduce, cyclically
        # reduce, then take the least rotation under a custom letter order.
        out = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        while len(out) >= 2 and out[0] == -out[-1]:
            out = out[1:-1]
        if not out:
            return ()
        key = lambda w: [2 * abs(l) - (l > 0) for l in w]
        return tuple(
            min((out[i:] + out[:i] for i in range(len(out))), key=key)
        )

    for surf, gens in (torus1, pants):
        names = sorted(gens)
        symbols = {1: names[0], -1: f"{names[0]}^-1", 2: names[1], -2: f"{names[1]}^-1"}
        seen: dict[tuple[int, ...], HomotopyClass] = {}
        rng = random.Random(3)
        words = [
            w
            for length in range(0, 7)
            for w in itertools.product((1, -1, 2, -2), repeat=length)
        ]
        words += [
            tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(7, 8)))
            for _ in range(200)
        ]
        for word in words:
            cls = to_class(surf, compile_word(surf, gens, [symbols[l] for l in word]))
            normal = oracle(word)
            if normal in seen:
                assert seen[normal] == cls, (word, normal)
            else:
                assert cls not in seen.values() or normal in seen
                seen[normal] = cls


def test_moves_insert_remove_roundtrip(annulus):
    surf, gens = annulus
    core = gens["z1"]
    inserted = apply_move(surf, core, InsertCancellingPair("s", 0, 1))
    assert len(inserted.transits) == 3
    assert to_class(surf, inserted) == to_class(surf, core)
    removed = apply_move(surf, inserted, RemoveCancellingPair(1))
    assert [(t.edge, t.sign) for t in removed.transits] == [
        (t.edge, t.sign) for t in core.transits
    ]


def test_remove_non_cancelling_pair_errors(torus1):
    surf, gens = torus1
    with pytest.raises(LoopError):
        apply_move(surf, gens["x1"], RemoveCancellingPair(0))


def test_insert_wrong_region_errors(torus1):
    surf, gens = torus1
    y = gens["y1"]  # after its first transit the loop sits in region r1
    with pytest.raises(LoopError):
        # gate (s,0) opens into region r0, so inserting there is illegal
        apply_move(surf, y, InsertCancellingPair("s", 0, 1))


def test_reposition_and_rotate_keep_class(torus1):
    surf, gens = torus1
    loop = compile_word(surf, gens, "x1 y1")
    base = to_class(surf, loop)
    assert to_class(surf, apply_move(surf, loop, RotateBasepoint(3))) == base
    new_positions = tuple(Fraction(100 - i, 7) for i in range(len(loop.transits)))
    assert to_class(surf, apply_move(surf, loop, Reposition(new_positions))) == base
    assert to_class(surf, apply_move(surf, loop, Reposition(None))) == base


def test_class_invariant_under_random_move_sequences(torus1):
    surf, gens = torus1
    rng = random.Random(21)
    from loopcalc.fuzz import random_move

    for word in ("x1", "x1 y1", "x1 y1 x1^-1 y1^-1"):
        loop = compile_word(surf, gens, word)
        base = to_class(surf, loop)
        for _ in range(50):
            move = random_move(surf, loop, rng)
            try:
                loop = apply_move(surf, loop, move)
            except LoopError:
                continue
            assert to_class(surf, loop) == base


def test_graft_core_with_itself_is_core_squared(annulus):
    surf, gens = annulus
    core = gens["z1"]
    a, b = prepared(surf, *make_generic(surf, [core, core]))
    spliced = as_class(surf.letter_table(), graft(surf, a, 0, b, 0))
    doubled = to_class(surf, compile_word(surf, gens, "z1 z1"))
    assert spliced == doubled


def test_graft_with_contractible_factor(annulus):
    surf, gens = annulus
    core = gens["z1"]
    tongue = CombinatorialLoop(
        (Transit("s", 0, 1, Fraction(10)), Transit("s", 0, -1, Fraction(11)))
    )
    assert to_class(surf, tongue).is_trivial
    pcore, ptongue = prepared(surf, core, tongue)
    table = surf.letter_table()
    assert as_class(table, graft(surf, pcore, 0, ptongue, 0)) == to_class(surf, core)
    assert as_class(table, graft(surf, pcore, 0, ptongue, 1)) == to_class(surf, core)


def test_graft_xy(torus1):
    surf, gens = torus1
    x, y = prepared(surf, *make_generic(surf, [gens["x1"], gens["y1"]]))
    expected = to_class(surf, compile_word(surf, gens, "x1 y1"))
    # both transits of x and the first of y run through the star's disk
    table = surf.letter_table()
    assert as_class(table, graft(surf, x, 0, y, 0)) == expected
    assert as_class(table, graft(surf, x, 1, y, 0)) == expected


def test_graft_different_stars_rejected():
    surf = build_from_graph(from_triangulation(torus_grid(3))).surface
    rng = random.Random(1)
    loop = next(
        loop
        for loop in (random_loop(surf, rng, 8) for _ in range(50))
        if len({t.star for t in loop.transits}) > 1
    )
    q = next(i for i, t in enumerate(loop.transits) if t.star != loop.transits[0].star)
    a = prepared(surf, loop)
    with pytest.raises(LoopError, match="^graft transits lie in different stars"):
        graft(surf, a, 0, a, q)


def test_graft_of_loops_prepared_apart_rejected(torus1):
    """The splice memo keys loops by their index in one family, so loops of
    two families are not spliced together."""
    surf, gens = torus1
    x, y = make_generic(surf, [gens["x1"], gens["y1"]])
    px, py = prepared(surf, x), prepared(surf, y)
    with pytest.raises(LoopError, match="^spliced loops must be prepared together"):
        graft(surf, px, 0, py, 0)


def test_subloop_of_core_squared(annulus):
    surf, gens = annulus
    loop = prepared(surf, compile_word(surf, gens, "z1 z1"))
    core_class = to_class(surf, gens["z1"])
    table = surf.letter_table()
    assert as_class(table, subloop(surf, loop, 0, 1)) == core_class
    assert as_class(table, subloop(surf, loop, 1, 0)) == core_class


def test_subloop_pieces_abelianize_to_whole(torus1):
    surf, gens = torus1
    h = abelianization(surf)
    loop = compile_word(surf, gens, "x1 y1 x1")
    total = h(loop)
    loop = prepared(surf, loop)
    for p1 in range(len(loop.transits)):
        for p2 in range(len(loop.transits)):
            if p1 == p2:
                continue
            left = h(as_class(surf.letter_table(), subloop(surf, loop, p1, p2)))
            right = h(as_class(surf.letter_table(), subloop(surf, loop, p2, p1)))
            assert tuple(l + r for l, r in zip(left, right)) == total


def test_subloop_adjacent_transits_with_backtrack(torus1):
    surf, gens = torus1
    x = prepared(surf, gens["x1"])  # two transits crossing edges 0 then 3, consecutively
    piece = as_class(surf.letter_table(), subloop(surf, x, 0, 1))
    assert piece.is_trivial
    other = as_class(surf.letter_table(), subloop(surf, x, 1, 0))
    assert other == to_class(surf, gens["x1"])


def test_subloop_same_transit_rejected(annulus):
    surf, gens = annulus
    loop = prepared(surf, compile_word(surf, gens, "z1 z1"))
    with pytest.raises(LoopError):
        subloop(surf, loop, 0, 0)


def test_graft_abelianization_additive(torus1):
    surf, gens = torus1
    h = abelianization(surf)
    a = compile_word(surf, gens, "x1 y1")
    b = compile_word(surf, gens, "y1 x1 x1")
    a, b = make_generic(surf, [a, b])
    ha, hb = h(a), h(b)
    a, b = prepared(surf, a, b)
    for p, tp in enumerate(a.transits):
        for q, tq in enumerate(b.transits):
            if tp.star == tq.star:
                assert h(as_class(surf.letter_table(), graft(surf, a, p, b, q))) == tuple(
                    u + v for u, v in zip(ha, hb)
                )


def test_inverse_loop_class_is_inverse_in_homology(torus1):
    surf, gens = torus1
    h = abelianization(surf)
    loop = compile_word(surf, gens, "x1 y1 y1")
    assert h(inverse_loop(loop)) == tuple(-v for v in h(loop))


def test_make_generic_separates_positions(annulus):
    surf, gens = annulus
    core = gens["z1"]
    a, b = make_generic(surf, [core, core])
    pa = {(t.star, t.edge, t.pos) for t in a.transits}
    pb = {(t.star, t.edge, t.pos) for t in b.transits}
    assert not pa & pb
    assert to_class(surf, a) == to_class(surf, b) == to_class(surf, core)


def test_loop_json_roundtrip(torus1):
    surf, gens = torus1
    loop = compile_word(surf, gens, "x1 y1^-1")
    blob = json.dumps(loop.to_json())
    again = CombinatorialLoop.from_json(json.loads(blob))
    assert again == loop
    assert json.dumps(again.to_json()) == blob
