"""Homotopy classes hash once and stay plain values: copies, pickles and
``dataclasses.replace`` give equal classes with equal hashes, and the
instance dict holds only the letters."""

import copy
import dataclasses
import pickle

import pytest

from loopcalc.algebra import TRIVIAL_CLASS, FormalSum, HomotopyClass

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
