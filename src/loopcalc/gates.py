"""Gate calculus: intersection forms, brackets and cobrackets computed from
per-gate crossing data.

A :class:`GateConfiguration` holds, for one or two loops, the ordered list
of crossings on each gate it lists plus each loop's full cyclic letter
word.  Crossings are kept in the reference slot order (the order induced by
the core orientation, for which every compatibility sign is ``+1``); a gate
orientation is stored as a map ``gate -> +-1`` of compatibility signs.

Configurations come from two builders: expanding prepared loops across
one star (:func:`loopcalc.stars.expand_to_gates`) or parsing raw JSON
crossing data used to encode gate-crossing examples directly
(:func:`raw_config_from_json`).  Each builder hands
:class:`GateConfiguration` its gates, their orientation ``base_omega``,
the crossings of the gates it lists in slot order, filed under their own
gate, and each owner's word, and the configuration stores them as given;
the raw parser is the one place that checks outside input.  The raw parser
lists every gate it is given, crossed or not, with its own ``eps_omega``
table.  An expansion lists only the gates its loops cross: the star's
other gates read ``()``, and its ``gates`` and ``+1`` ``base_omega`` are
the star's own, built once per star
(:meth:`~loopcalc.surface.StarFilledSurface.star_gates`), so that the work
of a configuration follows its crossings.  Raw
configurations assume the complement of the core is a disjoint union of
simply connected pieces glued along one component, so classes are words
in the crossing letters; inputs outside that regime are the caller's
responsibility.

Family words.  An owner's word is a :class:`~loopcalc.words.FamilyWord`:
an expansion's are the prepared loops themselves
(:func:`loopcalc.stars.prepare_loops`), and the raw parser makes its
owners' words one family of their own, indexed in sorted owner order.  A
configuration's words must all come from one family, and it raises
:class:`GateCalculusError` when it is made if they do not.  Every
bracket, pairing and cobracket term is the class of a splice at a crossing
pair: :func:`graft_at` and :func:`split_at` return its canonical integer
word from the family's :class:`~loopcalc.words.SpliceMemo`, which works
each word out on first use, so the star route, the gate route on every
star and every check on one family fill one memo.  The memo keys each
owner by its index in the family: a graft by ``(p's owner, p's rotation
start, q's owner, q's rotation start)``, where a crossing rotates its
owner's word just after an entering letter or at a leaving one, and a
split by ``(owner, piece start, piece length)``.  A transit of a star
crosses two gates, and its two crossings rotate the owner's word at the
same letter as the star route's splices do, so the crossing pairs of two
transits on both gates and on the star route splice one word, once.  Keys
stay ordered: the graft of ``(p, q)`` and of ``(q, p)`` give the same
class, but they are spliced apart, so the pairing-symmetry check ``mu(a,
b) == mu(b, a)`` still compares two computations.  Each route computes its
own key, so a wrong rotation start still splices a different word.

The side table.  Every operation is a sum over gates of terms that depend
on the gate's sign only through which crossing of a pair comes first.  A
gate *side* is the set of ordered crossing pairs of one gate that come
first under one sign, and a configuration keeps a table ``sides`` of the
signed values of the sides it has summed, keyed by ``(op, gate, sign,
owners)``: an int for the form, and for the bracket and the cobracket a
dict of nonzero coefficients by integer word or by ``(left, right)`` pair
of words.  A side is summed on first use by one walk along its gate in
the order its sign selects, slot order for ``+1`` and reversed for ``-1``
(:func:`_along`, the one order rule; :func:`_side_pass`).  The form
weights each of ``x``'s crossings by the running sum of the signs of
``y``'s crossings walked past, so it costs time linear in the gate; the
bracket and the cobracket graft or split each crossing with the
crossings walked past only.  ``form_omega``, ``bracket_omega`` and
``cobracket_omega`` add up the side that their omega selects on each gate
both owners cross, found from the configuration's per-owner crossings, so
a gate an owner does not cross is never visited.  A caller's omega is
first checked on every gate, listed or not, in gate order; the
configuration's own ``base_omega`` (``+1`` on every gate, or checked by the
raw parser) is not checked again.  ``mu`` is the ``+1`` side minus the
``-1`` side.  So a configuration evaluated under all ``2^k`` orientations
walks each gate once per sign, operation and order of its owners.  Owners
stay ordered, so the identities of :mod:`loopcalc.fuzz` (reversal, pairing
symmetry, flip) still compare sides summed by separate walks.  The side
table lives and dies with its configuration; the splice memo lives as long
as its family's words.

Each operation sums its sides on the integer words, the skew ones take
their difference there too, and only its nonzero terms are decoded into
:class:`~loopcalc.algebra.HomotopyClass`, once, at its return
(:func:`loopcalc.algebra.decoded`).

A configuration encodes nothing: an expansion's words come from the scans
that validated its loops.  A word makes its
:class:`~loopcalc.words.CyclicWord` only when the memo misses one of its
splices, so the form makes none.  A configuration lists each owner's
crossings of each gate once, when it is made.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Hashable, NamedTuple

from loopcalc.algebra import FormalSum, TensorSum, decoded
from loopcalc.words import IN, OUT, FamilyWord, LetterTable, SpliceMemo


class GateCalculusError(Exception):
    """Raised for malformed configurations or unknown gates/owners."""


GateKey = Hashable  # (star, edge) for star-derived gates, str for raw gates


class GateCrossing(NamedTuple):
    """One crossing of a gate by a loop, an immutable named tuple.

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


def _by_owner(
    crossings: Mapping[GateKey, tuple[GateCrossing, ...]], owners: Mapping[str, object]
) -> dict[tuple[GateKey, str], tuple[GateCrossing, ...]]:
    """The crossings of each gate by each owner that crosses it, in slot
    order, by ``(gate, owner)``; a lone owner's are the gates' own."""
    if len(owners) == 1:
        (owner,) = owners
        return {(g, owner): cs for g, cs in crossings.items() if cs}
    owned = {}
    for g, cs in crossings.items():
        by_owner: dict[str, list[GateCrossing]] = {}
        for c in cs:
            by_owner.setdefault(c.owner, []).append(c)
        for owner, mine in by_owner.items():
            owned[g, owner] = tuple(mine)
    return owned


class GateConfiguration:
    """Per-gate ordered crossings plus the owners' words, and the table
    ``sides`` of the gate sides summed on it so far.  ``crossings`` maps
    gates to their crossings in slot order, stored as the builder hands
    them.  ``words`` maps each owner to its
    :class:`~loopcalc.words.FamilyWord`; they must all share one splice
    memo, or :class:`GateCalculusError` is raised.

    ``gates`` lists the configuration's gates sorted, and ``base_omega``,
    the orientation every operation given no ``omega`` uses, has them as
    its keys.  Both are kept as given: an expansion passes its star's
    (:meth:`~loopcalc.surface.StarFilledSurface.star_gates`), shared by
    every configuration on the star, and ``crossings`` then leaves out the
    gates no loop crosses, which read ``()``."""

    def __init__(
        self,
        crossings: Mapping[GateKey, tuple[GateCrossing, ...]],
        words: Mapping[str, FamilyWord],
        table: LetterTable,
        base_omega: Mapping[GateKey, int],
        gates: tuple[GateKey, ...],
    ):
        self.words = dict(words)
        if len({id(word.memo) for word in self.words.values()}) > 1:
            raise GateCalculusError("a configuration's loops must be prepared as one family")
        self.crossings = crossings
        self.table = table
        self.gates, self.base_omega = gates, base_omega
        self.sides: dict[tuple, int | dict] = {}
        # Each owner's crossings of each gate it crosses, in slot order.
        self._owned = _by_owner(crossings, self.words)

    @property
    def owners(self) -> tuple[str, ...]:
        return tuple(sorted(self.words))

    def gate_crossings(self, gate: GateKey, owner: str | None = None):
        """The crossings of one gate in slot order, or of one owner's; ``()``
        for a gate of the configuration that no loop crosses."""
        cs = self.crossings.get(gate)
        if cs is None:
            if gate not in self.base_omega:
                raise GateCalculusError(f"unknown gate {gate!r}")
            return ()
        if owner is None:
            return cs
        return self._owned.get((gate, owner), ())

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


def _along(sign: int, crossings: tuple[GateCrossing, ...]) -> tuple[GateCrossing, ...]:
    """A gate's crossings in the order they come along it under ``sign``:
    slot order for ``+1``, reversed for ``-1``.  The one order rule of the
    gate sides."""
    return crossings if sign > 0 else crossings[::-1]


# -- splicing -------------------------------------------------------------------


def _start(word: FamilyWord, c: GateCrossing) -> int:
    """Where the owner's ``word`` is rotated at the crossing: after an
    entering crossing's letter, at a leaving one's."""
    return (c.letter_index + 1) % len(word.word) if c.eps > 0 else c.letter_index


def graft_at(
    config: GateConfiguration, p: GateCrossing, q: GateCrossing
) -> tuple[int, ...]:
    """Canonical word of the loop following all of ``p``'s owner from
    ``p``, then all of ``q``'s owner from ``q``, joined along their common
    gate."""
    if p.gate != q.gate:
        raise GateCalculusError("graft crossings must lie on the same gate")
    pw, qw = config.words[p.owner], config.words[q.owner]
    return pw.memo.graft(pw, _start(pw, p), qw, _start(qw, q))


def split_at(
    config: GateConfiguration, p1: GateCrossing, p2: GateCrossing
) -> tuple[int, ...]:
    """Canonical word of the piece of the loop running from ``p1`` forward
    to ``p2``, closed up along their common gate: from ``p1``'s letter,
    without it when ``p1`` enters, to ``p2``'s letter, without it when
    ``p2`` leaves."""
    if p1.owner != p2.owner or p1.gate != p2.gate:
        raise GateCalculusError("split crossings must share owner and gate")
    if p1.letter_index == p2.letter_index:
        raise GateCalculusError("split crossings must be distinct")
    word = config.words[p1.owner]
    count = (p2.letter_index - p1.letter_index) % len(word.word)
    length = count + 1 - (p1.eps > 0) - (p2.eps < 0)
    return word.memo.split(word, _start(word, p1), length)


# -- the operations -------------------------------------------------------------


def v(config: GateConfiguration, gate: GateKey, owner: str = "a") -> int:
    """Signed count of the loop's crossings of one gate."""
    config.require_owners(owner)
    return sum(c.eps for c in config.gate_crossings(gate, owner))


def _side_pass(
    config: GateConfiguration, op: str, gate: GateKey, sign: int, owners: tuple[str, ...]
) -> int | dict:
    """One walk along a gate in the order ``sign`` selects (:func:`_along`),
    summing the pairs of the side, each weighted by ``sign`` and the
    crossings' signs.  For the form and the bracket these are the pairs
    ``(p, q)`` of ``x``'s and ``y``'s crossings with ``q`` walked past
    first: the form weights each ``p`` by the running sum of the signs of
    ``y``'s crossings walked past, and the bracket grafts ``p`` with each
    of them.  For the cobracket of one owner they are the pairs ``(p1,
    p2)`` of its crossings with ``p1`` walked past first, where the loop
    splits into two pieces, contractible pieces dropped.  A bracket or
    cobracket side is a dict of its nonzero terms, keyed by canonical
    integer words."""
    if op == "form":
        x, y = owners
        total = ys = 0
        for c in _along(sign, config.gate_crossings(gate)):
            if c.owner == x:
                total += c.eps * ys
            if c.owner == y:
                ys += c.eps
        return sign * total
    terms: dict = {}
    passed: list[GateCrossing] = []
    if op == "cobracket":
        (owner,) = owners
        for p2 in _along(sign, config.gate_crossings(gate, owner)):
            for p1 in passed:
                left = split_at(config, p2, p1)
                right = split_at(config, p1, p2)
                if left and right:
                    key = (left, right)
                    terms[key] = terms.get(key, 0) + sign * p1.eps * p2.eps
            passed.append(p2)
    else:
        x, y = owners
        for p in _along(sign, config.gate_crossings(gate)):
            if p.owner == x:
                for q in passed:
                    word = graft_at(config, p, q)
                    terms[word] = terms.get(word, 0) + sign * p.eps * q.eps
            if p.owner == y:
                passed.append(p)
    for key in [key for key, coeff in terms.items() if not coeff]:
        del terms[key]
    return terms


def _side(
    config: GateConfiguration, op: str, gate: GateKey, sign: int, owners: tuple[str, ...]
) -> int | dict:
    """The signed value of one gate side, from the configuration's side
    table or summed now by :func:`_side_pass`."""
    key = (op, gate, sign, owners)
    value = config.sides.get(key)
    if value is None:
        value = config.sides[key] = _side_pass(config, op, gate, sign, owners)
    return value


def _omega_sides(
    config: GateConfiguration, op: str, omega: Mapping[GateKey, int], owners: tuple[str, ...]
) -> list:
    """The side that ``omega`` selects of every gate both owners cross; a
    gate that one of them does not cross adds nothing.  A caller's omega
    has its sign on every gate checked first, in gate order; the
    configuration's own ``base_omega`` was checked when it was made."""
    if omega is not config.base_omega:
        for gate in config.gates:
            _eps_omega(omega, gate)
    owned = config._owned
    x, y = owners[0], owners[-1]
    return [
        _side(config, op, gate, omega[gate], owners)
        for gate, owner in owned
        if owner == x and (gate, y) in owned
    ]


def _add_terms(terms: dict, more, scale: int = 1) -> None:
    """Add ``scale`` times the ``(key, coeff)`` pairs ``more`` into
    ``terms``; zero coefficients stay until the terms are decoded."""
    for key, coeff in more:
        terms[key] = terms.get(key, 0) + scale * coeff


def _omega_terms(
    config: GateConfiguration, op: str, omega: Mapping[GateKey, int] | None, owners
) -> dict:
    """The bracket or cobracket terms, by integer word, that ``omega``
    selects (the configuration's own orientation when it is ``None``)."""
    omega = config.base_omega if omega is None else omega
    terms: dict = {}
    for side in _omega_sides(config, op, omega, owners):
        _add_terms(terms, side.items())
    return terms


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
    return sum(_omega_sides(config, "form", omega, (x, y)))


def form(
    config: GateConfiguration,
    x: str = "a",
    y: str = "b",
    omega: Mapping[GateKey, int] | None = None,
) -> int:
    """Orientation-independent skew form (twice the classical intersection
    number for loops in a plain surface core).  Any gate orientation gives
    the same value; ``omega`` exists so tests can assert that."""
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
    return decoded(config.table, _omega_terms(config, "bracket", omega, (x, y)))


def bracket(
    config: GateConfiguration,
    x: str = "a",
    y: str = "b",
    omega: Mapping[GateKey, int] | None = None,
) -> FormalSum:
    """``bracket_omega(x, y) - bracket_omega(y, x)``, taken on the integer
    words before they are decoded."""
    config.require_owners(x, y)
    terms = _omega_terms(config, "bracket", omega, (x, y))
    _add_terms(terms, _omega_terms(config, "bracket", omega, (y, x)).items(), -1)
    return decoded(config.table, terms)


def mu(config: GateConfiguration, gate: GateKey, x: str = "a", y: str = "b") -> FormalSum:
    """Symmetric per-gate pairing: grafts over all crossing pairs on one
    gate, with no order condition; the ``+1`` side minus the ``-1`` side,
    plus each crossing grafted to itself when ``x`` is ``y``."""
    config.require_owners(x, y)
    terms = dict(_side(config, "bracket", gate, 1, (x, y)))
    _add_terms(terms, _side(config, "bracket", gate, -1, (x, y)).items(), -1)
    if x == y:
        _add_terms(terms, ((graft_at(config, p, p), 1) for p in config.gate_crossings(gate, x)))
    return decoded(config.table, terms)


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
    terms = _omega_terms(config, "cobracket", omega, (owner,))
    return decoded(config.table, terms, pairs=True)


def cobracket(
    config: GateConfiguration,
    owner: str | None = None,
    omega: Mapping[GateKey, int] | None = None,
) -> TensorSum:
    """``nu - nu^T`` for the orientation-dependent cobracket ``nu``, taken
    on the integer words before they are decoded."""
    owner = _resolve_owner(config, owner)
    nu = _omega_terms(config, "cobracket", omega, (owner,))
    terms = dict(nu)
    _add_terms(terms, (((right, left), coeff) for (left, right), coeff in nu.items()), -1)
    return decoded(config.table, terms, pairs=True)


# -- raw configurations ----------------------------------------------------------


def _raw_field(item, key: str, what: str, convert=str, default=None):
    """``convert(item[key])`` for the JSON object ``item``, or ``default``
    when the key is absent and a default is given; raises
    :class:`GateCalculusError` naming ``what`` otherwise."""
    if not isinstance(item, Mapping):
        raise GateCalculusError(f"{what} must be an object, not {type(item).__name__}")
    if key not in item:
        if default is None:
            raise GateCalculusError(f"{what} has no {key!r}")
        return default
    try:
        return convert(item[key])
    except (TypeError, ValueError, OverflowError):
        raise GateCalculusError(f"{what}: {key} {item[key]!r} is not valid") from None


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def _sign(value) -> int:
    if int(value) not in (1, -1):
        raise ValueError(value)
    return int(value)


def raw_config_from_json(data: Mapping | str) -> GateConfiguration:
    """Parse a raw gate-configuration JSON object.

    Format::

        {"gates": [{"id": str, "eps_omega": +-1,
                    "crossings": [{"owner": "a"|"b", "eps": +-1, "slot": int,
                                   "link": {"gate": str, "slot": int}}]}]}

    ``slot`` ranks crossings along the gate in the reference orientation;
    ``link`` names the next crossing of the same loop along the loop.
    ``eps_omega`` records the configuration's own gate orientation, used as
    the default for orientation-dependent operations.  Any other shape, a
    missing key or a value that does not convert raises
    :class:`GateCalculusError` naming the gate or crossing.  The owners'
    words are one family, indexed in sorted owner order.

    Two loops that each enter the core through ``g1`` and leave through
    ``g2``, with ``b`` first along both gates, cross once; their form and
    bracket are doubled, as the star sums are:

    >>> config = raw_config_from_json({"gates": [
    ...     {"id": "g1", "eps_omega": 1, "crossings": [
    ...         {"owner": "a", "eps": 1, "slot": 1, "link": {"gate": "g2", "slot": 1}},
    ...         {"owner": "b", "eps": 1, "slot": 0, "link": {"gate": "g2", "slot": 0}}]},
    ...     {"id": "g2", "eps_omega": 1, "crossings": [
    ...         {"owner": "a", "eps": -1, "slot": 1, "link": {"gate": "g1", "slot": 1}},
    ...         {"owner": "b", "eps": -1, "slot": 0, "link": {"gate": "g1", "slot": 0}}]}]})
    >>> config.gates, config.owners
    (('g1', 'g2'), ('a', 'b'))
    >>> form(config)
    2
    >>> bracket(config)
    FormalSum(2*HomotopyClass(letters=(('g1', 0), ('g2', 1), ('g1', 0), ('g2', 1))))
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise GateCalculusError(f"raw configuration is not JSON: {exc}") from None
    raw_gates = _raw_field(data, "gates", "a raw configuration", _list, default=[])
    base_omega: dict[GateKey, int] = {}
    by_key: dict[tuple[str, int], tuple[str, int]] = {}  # (gate, slot) -> (owner, eps)
    successor: dict[tuple[str, int], tuple[str, int]] = {}
    for i, g in enumerate(raw_gates):
        gid = _raw_field(g, "id", f"gate {i}")
        if gid in base_omega:
            raise GateCalculusError(f"gate {gid}: duplicate id")
        base_omega[gid] = _raw_field(g, "eps_omega", f"gate {gid}", _sign, default=1)
        for j, c in enumerate(_raw_field(g, "crossings", f"gate {gid}", _list, default=[])):
            where = f"gate {gid} crossing {j}"
            key = (gid, _raw_field(c, "slot", where, int))
            if key in by_key:
                raise GateCalculusError(f"gate {gid}: duplicate slot {key[1]}")
            by_key[key] = (_raw_field(c, "owner", where), _raw_field(c, "eps", where, _sign))
            link = _raw_field(c, "link", where, lambda value: value)
            successor[key] = (
                _raw_field(link, "gate", f"{where} link"),
                _raw_field(link, "slot", f"{where} link", int),
            )

    for key, nxt in successor.items():
        if nxt not in by_key:
            raise GateCalculusError(f"crossing {key} links to unknown crossing {nxt}")
        if by_key[nxt][0] != by_key[key][0]:
            raise GateCalculusError(f"crossing {key} links across owners")

    # Walk each owner's cycle to build its letter word.
    table = LetterTable(base_omega.keys())
    owners = sorted({owner for owner, _ in by_key.values()})
    memo = SpliceMemo()
    words: dict[str, FamilyWord] = {}
    letter_index: dict[tuple[str, int], int] = {}
    for index, owner in enumerate(owners):
        keys = sorted(k for k, info in by_key.items() if info[0] == owner)
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
            eps = by_key[key][1]
            word.append(table.encode(key[0], IN if eps > 0 else OUT))
            letter_index[key] = i
        words[owner] = FamilyWord(tuple(word), memo, index)

    # Each gate's crossings in slot order.
    crossings: dict[GateKey, list[GateCrossing]] = {gid: [] for gid in base_omega}
    for (gid, slot), (owner, eps) in sorted(by_key.items()):
        crossings[gid].append(GateCrossing(gid, eps, owner, letter_index[gid, slot], slot))
    return GateConfiguration(
        {gid: tuple(cs) for gid, cs in crossings.items()},
        words,
        table,
        base_omega,
        tuple(sorted(base_omega)),
    )
