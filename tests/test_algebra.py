"""Homotopy classes hash once and stay plain values: copies, pickles and
``dataclasses.replace`` give equal classes with equal hashes, and the
instance dict holds only the letters.  Formal-sum arithmetic builds each
result once and stores no zero."""

import copy
import dataclasses
import pickle

import pytest

from loopcalc.algebra import TRIVIAL_CLASS, FormalSum, HomotopyClass, TensorSum

LETTERS = ((("s", 0), 0), (("s", 2), 1), (("t", 1), 0))


def copies(cls):
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    return {
        "copy": copy.copy(cls),
        "deepcopy": copy.deepcopy(cls),
        **{f"pickle{p}": pickle.loads(pickle.dumps(cls, p)) for p in protocols},
        "replace": dataclasses.replace(cls),
        "replace letters": dataclasses.replace(cls, letters=tuple(list(cls.letters))),
    }


@pytest.mark.parametrize("hashed", [False, True], ids=["fresh", "hashed"])
def test_copies_are_equal_classes_with_equal_hashes(hashed):
    cls = HomotopyClass(LETTERS)
    if hashed:
        hash(cls)
    for how, other in copies(cls).items():
        assert other == cls and other is not cls, how
        assert hash(other) == hash(cls), how
        assert vars(other) == {"letters": LETTERS}, how
        assert {other: 1} == {cls: 1}, how


def test_instance_dict_holds_only_the_letters():
    cls = HomotopyClass(LETTERS)
    assert vars(cls) == {"letters": LETTERS}
    hash(cls)
    assert vars(cls) == {"letters": LETTERS}
    assert tuple(vars(cls).values()) == (LETTERS,)


def test_pickles_carry_no_hash():
    """A string's hash differs between processes, so a pickle carries only
    the letters."""
    cls = HomotopyClass(LETTERS)
    hash(cls)
    assert b"_hash" not in pickle.dumps(cls)
    assert cls.__getstate__() == {"letters": LETTERS}


def test_classes_stay_frozen_and_ordered():
    cls = HomotopyClass(LETTERS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cls.letters = ()
    assert TRIVIAL_CLASS < cls and TRIVIAL_CLASS.is_trivial and len(cls) == 3
    assert hash(HomotopyClass(())) == hash(TRIVIAL_CLASS)
    total = FormalSum([(cls, 2), (copy.deepcopy(cls), -1), (TRIVIAL_CLASS, 1)])
    assert total.coefficient(cls) == 1 and len(total) == 2


def test_arithmetic_builds_each_result_once(monkeypatch):
    """Sums, differences, negation, scaling, halving and the transpose hand
    their finished terms over without a second pass through the
    constructor, and keep no zero coefficient."""
    x, y, z = "x", "y", "z"
    f = FormalSum({x: 2, y: -4})
    g = FormalSum({x: -2, z: 6})
    t = TensorSum({(x, y): 2, (y, z): -2})
    inits = []
    original = FormalSum.__init__

    def counting(self, *args, **kwargs):
        inits.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FormalSum, "__init__", counting)
    results = {
        "add": (f + g, {y: -4, z: 6}),
        "sub": (f - f, {}),
        "neg": (-f, {x: -2, y: 4}),
        "scale": (3 * f, {x: 6, y: -12}),
        "scale by zero": (0 * f, {}),
        "halve": (f.halved(), {x: 1, y: -2}),
        "transpose": (t.transpose(), {(y, x): 2, (z, y): -2}),
    }
    assert inits == []
    monkeypatch.undo()
    for how, (value, terms) in results.items():
        assert value == FormalSum(terms) and type(value) is type(f if how != "transpose" else t), how
        assert 0 not in value.coefficients(), how
