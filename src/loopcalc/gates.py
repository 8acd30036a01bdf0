"""Gate calculus: intersection forms, brackets and cobrackets computed from
per-gate crossing data.

A :class:`GateConfiguration` holds, for one or two loops, the ordered list
of crossings on every gate of interest plus each loop's full cyclic letter
word.  Crossings are kept in the reference slot order (the order induced by
the core orientation, for which every compatibility sign is ``+1``); a gate
orientation is stored as a map ``gate -> +-1`` of compatibility signs.

Configurations come from two sources: expanding loop transits across one
star (:func:`loopcalc.stars.expand_to_gates`) or raw JSON crossing data
used to encode gate-crossing examples directly.  Raw configurations assume
the complement of the core is a disjoint union of simply connected pieces
glued along one component, so classes are words in the crossing letters;
inputs outside that regime are the caller's responsibility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from loopcalc.algebra import FormalSum, HomotopyClass, TensorSum
from loopcalc.words import IN, OUT, LetterTable, canonical


class GateCalculusError(Exception):
    """Raised for malformed configurations or unknown gates/owners."""


GateKey = Hashable  # (star, edge) for star-derived gates, str for raw gates


@dataclass(frozen=True)
class GateCrossing:
    """One crossing of a gate by a loop.

    ``eps`` is ``+1`` when the loop enters the core through the gate and
    ``-1`` when it leaves; ``slot`` ranks the crossing along its gate in
    the reference orientation; ``letter_index`` points at the crossing's
    letter in the owner's unreduced cyclic word (and thereby at the
    originating transit and its near/far endpoint, for star-derived
    configurations).
    """

    gate: GateKey
    eps: int
    owner: str
    letter_index: int
    slot: int


class GateConfiguration:
    """Per-gate ordered crossings plus the owning loops' cyclic words."""

    def __init__(
        self,
        crossings: Mapping[GateKey, Sequence[GateCrossing]],
        words: Mapping[str, Sequence[int]],
        table: LetterTable,
        base_omega: Mapping[GateKey, int] | None = None,
    ):
        self.crossings = {
            g: tuple(sorted(cs, key=lambda c: c.slot)) for g, cs in crossings.items()
        }
        self.words = {owner: tuple(w) for owner, w in words.items()}
        self.table = table
        self.gates = tuple(sorted(self.crossings))
        self.base_omega = dict(base_omega) if base_omega else {g: 1 for g in self.gates}
        for g, cs in self.crossings.items():
            if len({c.slot for c in cs}) != len(cs):
                raise GateCalculusError(f"gate {g}: crossings share a slot")
            for c in cs:
                if c.gate != g:
                    raise GateCalculusError(f"crossing {c} filed under gate {g}")
                if c.owner not in self.words:
                    raise GateCalculusError(f"crossing owner {c.owner!r} has no word")

    @property
    def owners(self) -> tuple[str, ...]:
        return tuple(sorted(self.words))

    def gate_crossings(self, gate: GateKey, owner: str | None = None):
        try:
            cs = self.crossings[gate]
        except KeyError:
            raise GateCalculusError(f"unknown gate {gate!r}") from None
        if owner is None:
            return cs
        return tuple(c for c in cs if c.owner == owner)

    def omega0(self) -> dict[GateKey, int]:
        return {g: 1 for g in self.gates}

    def require_owners(self, *names: str) -> None:
        for name in names:
            if name not in self.words:
                raise GateCalculusError(f"configuration has no loop {name!r}")


# -- gate orientations ----------------------------------------------------------


def omega_reverse(omega: Mapping[GateKey, int]) -> dict[GateKey, int]:
    return {g: -e for g, e in omega.items()}


def omega_flip(omega: Mapping[GateKey, int], gate: GateKey) -> dict[GateKey, int]:
    if gate not in omega:
        raise GateCalculusError(f"unknown gate {gate!r}")
    out = dict(omega)
    out[gate] = -out[gate]
    return out


def _eps_omega(omega: Mapping[GateKey, int], gate: GateKey) -> int:
    try:
        value = omega[gate]
    except KeyError:
        raise GateCalculusError(f"gate orientation missing gate {gate!r}") from None
    if value not in (1, -1):
        raise GateCalculusError(f"gate orientation sign {value!r} is not +-1")
    return value


def _before(omega_sign: int, q: GateCrossing, p: GateCrossing) -> bool:
    """Whether ``q`` precedes ``p`` along the gate in the given orientation."""
    if omega_sign > 0:
        return q.slot < p.slot
    return q.slot > p.slot


# -- splicing -------------------------------------------------------------------


def _rotate_at(config: GateConfiguration, c: GateCrossing) -> list[int]:
    """The owner's cyclic word rotated at the crossing: an entering
    crossing contributes its letter at the end of the based word, a leaving
    one at the start."""
    word = config.words[c.owner]
    start = (c.letter_index + 1) % len(word) if c.eps > 0 else c.letter_index
    return list(word[start:]) + list(word[:start])


def graft_at(
    config: GateConfiguration, p: GateCrossing, q: GateCrossing
) -> HomotopyClass:
    """Class of the loop following all of ``p``'s owner from ``p``, then all
    of ``q``'s owner from ``q``, joined along their common gate."""
    if p.gate != q.gate:
        raise GateCalculusError("graft crossings must lie on the same gate")
    spliced = _rotate_at(config, p) + _rotate_at(config, q)
    return HomotopyClass(config.table.decode_word(canonical(spliced)))


def split_at(
    config: GateConfiguration, p1: GateCrossing, p2: GateCrossing
) -> HomotopyClass:
    """Class of the piece of the loop running from ``p1`` forward to ``p2``,
    closed up along their common gate."""
    if p1.owner != p2.owner or p1.gate != p2.gate:
        raise GateCalculusError("split crossings must share owner and gate")
    if p1.letter_index == p2.letter_index:
        raise GateCalculusError("split crossings must be distinct")
    word = config.words[p1.owner]
    m = len(word)
    count = (p2.letter_index - p1.letter_index) % m
    piece = [word[(p1.letter_index + i) % m] for i in range(count + 1)]
    if p1.eps > 0:  # entering: its own letter is not part of the forward piece
        piece = piece[1:]
    if p2.eps < 0:  # leaving: the piece stops before the crossing letter
        piece = piece[:-1]
    return HomotopyClass(config.table.decode_word(canonical(piece)))


# -- the operations -------------------------------------------------------------


def v(config: GateConfiguration, gate: GateKey, owner: str = "a") -> int:
    """Signed count of the loop's crossings of one gate."""
    config.require_owners(owner)
    return sum(c.eps for c in config.gate_crossings(gate, owner))


def form_omega(
    config: GateConfiguration,
    omega: Mapping[GateKey, int] | None = None,
    x: str = "a",
    y: str = "b",
) -> int:
    """Intersection number of the pair positioned so that ``x`` crosses
    every gate before ``y`` in the given orientation."""
    config.require_owners(x, y)
    omega = config.base_omega if omega is None else omega
    total = 0
    for gate in config.gates:
        sign = _eps_omega(omega, gate)
        ps = config.gate_crossings(gate, x)
        qs = config.gate_crossings(gate, y)
        for p in ps:
            for q in qs:
                if _before(sign, q, p):
                    total += sign * p.eps * q.eps
    return total


def form(
    config: GateConfiguration,
    x: str = "a",
    y: str = "b",
    omega: Mapping[GateKey, int] | None = None,
) -> int:
    """Orientation-independent skew form (twice the classical intersection
    number for loops in a plain surface core).  Any gate orientation gives
    the same value; ``omega`` exists so tests can assert that."""
    omega = config.omega0() if omega is None else omega
    return form_omega(config, omega, x, y) - form_omega(config, omega, y, x)


def flip_check(
    config: GateConfiguration,
    omega: Mapping[GateKey, int],
    gate: GateKey,
    x: str = "a",
    y: str = "b",
) -> tuple[int, int]:
    """Both sides of the single-gate flip identity: the form in the flipped
    orientation, and the original form minus the dual-count correction."""
    lhs = form_omega(config, omega_flip(omega, gate), x, y)
    rhs = form_omega(config, omega, x, y) - _eps_omega(omega, gate) * v(
        config, gate, x
    ) * v(config, gate, y)
    return lhs, rhs


def bracket_omega(
    config: GateConfiguration,
    omega: Mapping[GateKey, int] | None = None,
    x: str = "a",
    y: str = "b",
) -> FormalSum:
    """Orientation-dependent bracket: one grafted class per ordered crossing
    pair with ``y`` before ``x`` along a gate."""
    config.require_owners(x, y)
    omega = config.base_omega if omega is None else omega
    terms = []
    for gate in config.gates:
        sign = _eps_omega(omega, gate)
        ps = config.gate_crossings(gate, x)
        qs = config.gate_crossings(gate, y)
        for p in ps:
            for q in qs:
                if _before(sign, q, p):
                    terms.append((graft_at(config, p, q), sign * p.eps * q.eps))
    return FormalSum(terms)


def bracket(
    config: GateConfiguration,
    x: str = "a",
    y: str = "b",
    omega: Mapping[GateKey, int] | None = None,
) -> FormalSum:
    omega = config.omega0() if omega is None else omega
    return bracket_omega(config, omega, x, y) - bracket_omega(config, omega, y, x)


def mu(config: GateConfiguration, gate: GateKey, x: str = "a", y: str = "b") -> FormalSum:
    """Symmetric per-gate pairing: grafts over all crossing pairs on one
    gate, with no order condition."""
    config.require_owners(x, y)
    terms = []
    for p in config.gate_crossings(gate, x):
        for q in config.gate_crossings(gate, y):
            terms.append((graft_at(config, p, q), p.eps * q.eps))
    return FormalSum(terms)


def _resolve_owner(config: GateConfiguration, owner: str | None) -> str:
    if owner is not None:
        config.require_owners(owner)
        return owner
    if len(config.words) != 1:
        raise GateCalculusError(
            f"configuration holds loops {config.owners}; name the one to split"
        )
    return next(iter(config.words))


def cobracket_omega(
    config: GateConfiguration,
    omega: Mapping[GateKey, int] | None = None,
    owner: str | None = None,
) -> TensorSum:
    """Orientation-dependent cobracket of a single loop: a tensor term per
    chord (ordered pair of crossings on one gate), contractible pieces
    dropped."""
    owner = _resolve_owner(config, owner)
    omega = config.base_omega if omega is None else omega
    terms = []
    for gate in config.gates:
        sign = _eps_omega(omega, gate)
        cs = config.gate_crossings(gate, owner)
        for p1 in cs:
            for p2 in cs:
                if p1 is p2 or not _before(sign, p1, p2):
                    continue
                left = split_at(config, p2, p1)
                right = split_at(config, p1, p2)
                if left.is_trivial or right.is_trivial:
                    continue
                terms.append(((left, right), sign * p1.eps * p2.eps))
    return TensorSum(terms)


def cobracket(
    config: GateConfiguration,
    owner: str | None = None,
    omega: Mapping[GateKey, int] | None = None,
) -> TensorSum:
    nu = cobracket_omega(config, config.omega0() if omega is None else omega, owner)
    return nu - nu.transpose()


# -- raw configurations ----------------------------------------------------------


def raw_config_from_json(data: Mapping | str) -> GateConfiguration:
    """Parse a raw gate-configuration JSON object.

    Format::

        {"gates": [{"id": str, "eps_omega": +-1,
                    "crossings": [{"owner": "a"|"b", "eps": +-1, "slot": int,
                                   "link": {"gate": str, "slot": int}}]}]}

    ``slot`` ranks crossings along the gate in the reference orientation;
    ``link`` names the next crossing of the same loop along the loop.
    ``eps_omega`` records the configuration's own gate orientation, used as
    the default for orientation-dependent operations.
    """
    if isinstance(data, str):
        data = json.loads(data)
    raw_gates = data.get("gates", [])
    base_omega: dict[GateKey, int] = {}
    by_key: dict[tuple[str, int], dict] = {}
    successor: dict[tuple[str, int], tuple[str, int]] = {}
    for g in raw_gates:
        gid = str(g["id"])
        base_omega[gid] = int(g.get("eps_omega", 1))
        slots_seen = set()
        for c in g.get("crossings", []):
            key = (gid, int(c["slot"]))
            if int(c["slot"]) in slots_seen:
                raise GateCalculusError(f"gate {gid}: duplicate slot {c['slot']}")
            slots_seen.add(int(c["slot"]))
            by_key[key] = {"owner": str(c["owner"]), "eps": int(c["eps"])}
            link = c.get("link")
            if link is None:
                raise GateCalculusError(f"gate {gid} slot {c['slot']}: missing link")
            successor[key] = (str(link["gate"]), int(link["slot"]))

    for key, nxt in successor.items():
        if nxt not in by_key:
            raise GateCalculusError(f"crossing {key} links to unknown crossing {nxt}")
        if by_key[nxt]["owner"] != by_key[key]["owner"]:
            raise GateCalculusError(f"crossing {key} links across owners")

    # Walk each owner's cycle to build its letter word.
    table = LetterTable(base_omega.keys())
    owners = sorted({info["owner"] for info in by_key.values()})
    words: dict[str, list[int]] = {}
    letter_index: dict[tuple[str, int], int] = {}
    for owner in owners:
        keys = sorted(k for k, info in by_key.items() if info["owner"] == owner)
        start = keys[0]
        cycle = [start]
        cur = successor[start]
        while cur != start:
            if len(cycle) > len(keys):
                raise GateCalculusError(f"loop {owner!r}: links do not close a cycle")
            cycle.append(cur)
            cur = successor[cur]
        if len(cycle) != len(keys):
            raise GateCalculusError(f"loop {owner!r}: links split into several cycles")
        word = []
        for i, key in enumerate(cycle):
            eps = by_key[key]["eps"]
            word.append(table.encode(key[0], IN if eps > 0 else OUT))
            letter_index[key] = i
        words[owner] = word

    crossings: dict[GateKey, list[GateCrossing]] = {}
    for g in raw_gates:
        gid = str(g["id"])
        ordered = sorted(g.get("crossings", []), key=lambda c: int(c["slot"]))
        crossings[gid] = [
            GateCrossing(
                gate=gid,
                eps=int(c["eps"]),
                owner=str(c["owner"]),
                letter_index=letter_index[(gid, int(c["slot"]))],
                slot=int(c["slot"]),
            )
            for c in ordered
        ]
    return GateConfiguration(crossings, words, table, base_omega=base_omega)
