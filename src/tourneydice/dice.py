"""Dice sets realizing tournaments, plus the exact face-win count that checks them.

The construction assigns the i-th face of every die a label from the i-th
block of n consecutive integers, pairing dice within a column according to
the round-i matching of the factorization.  Within each column the pair of
dice matched there receive adjacent labels, higher label to the die the
tournament says should win; every other cross-die comparison cancels out,
so that single column decides the matchup.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import accumulate, chain, combinations, repeat
from operator import itemgetter

from ._value import _Value
from .errors import DuplicateLabelError, ParityError, ParseError, SideCountMismatchError, TieDetectedError, _echo
from .factorization import _rows, even_rounds, odd_rounds
from .tournament import Tournament, _json_object, _text_lines, _with_top, from_edges


class DiceSet(_Value):
    """n dice with equal side counts; ``faces[v-1][i-1]`` is face i of die v."""

    _fields = ("faces",)

    def __init__(self, faces: Iterable[Sequence[int]]) -> None:
        object.__setattr__(self, "faces", tuple([tuple(die) for die in faces]))

    @property
    def n(self) -> int:
        return len(self.faces)

    @property
    def sides(self) -> int:
        return len(self.faces[0]) if self.faces else 0

    @cached_property
    def _label_flags(self) -> bytearray | None:
        """:func:`dice_set`'s face-label rule, run at most once per object: flags[x] = 1 iff x is a label.

        Sparse labels (largest over twice their count) get no flags (None): a hash set finds their repeats.
        A set the rule refuses raises again on every read: a cached_property caches nothing on an exception.
        """
        faces = self.faces
        if not faces:
            raise ParseError("a dice set needs at least one die")
        sides = len(faces[0])
        for v, die in enumerate(faces, start=1):
            if len(die) != sides:
                raise SideCountMismatchError(f"die {v} has {len(die)} sides, expected {sides}")
        if not sides:
            raise ParseError("dice need at least one side")
        labels = list(chain.from_iterable(faces))
        if set(map(type, labels)) != {int} or min(labels) < 1:  # name the first bad label
            for x in labels:
                if type(x) is not int or x < 1:  # plain ints only, as vertices: bool and IntEnum are refused
                    raise ParseError(f"face label {_echo(x, repr)} is not a positive integer")
        count, top = len(labels), max(labels)
        flags = None
        if top <= 2 * count:  # a bytearray, not a list: the flags stay on the set, one byte per value, not eight
            flags = bytearray(top + 1)
            for x in chain.from_iterable(faces):
                flags[x] = 1
        if (flags.count(1) if flags else len(set(chain.from_iterable(faces)))) != count:  # a repeat is flagged once
            raise DuplicateLabelError("face labels are not pairwise distinct")
        return flags

    @cached_property
    def _pair_wins(self) -> tuple[tuple[int, int, int, int], ...]:
        """Revalidate, then (i, j, wins_i, wins_j) by the oracle for every pair i < j; once per object."""
        dice_set(self.faces)  # distinct labels, equal nonzero side counts; raises, caching nothing
        pairs = combinations(enumerate(self.faces, start=1), 2)
        return tuple([(i, j, face_wins(a, b), face_wins(b, a)) for (i, a), (j, b) in pairs])


def dice_set(faces: Iterable[Sequence[int]]) -> DiceSet:
    """Validate raw face lists and freeze them into a DiceSet, under the one face-label rule.

    Every die has the same nonzero number of faces (else ParseError or SideCountMismatchError), and every
    label is a plain int >= 1 (else ParseError, naming the first), none repeated (else DuplicateLabelError).
    """
    d = DiceSet(faces)
    d._label_flags  # raises, caching nothing, for faces the rule refuses
    return d


# probability: the chance that die a rolls the higher number, as a Fraction
class Matchup(namedtuple("Matchup", "wins_a wins_b probability")):
    """Exact result of rolling die a against die b."""

    __slots__ = ()


def face_wins(a: Sequence[int], b: Sequence[int]) -> int:
    """Count ordered face pairs (x, y) with x from a, y from b, x > y.

    This is the Mann-Whitney U statistic: sum over the faces x of a of the
    number of faces of b below x, found by one bisection of a sorted copy of
    b, so O(k log k) comparisons for k-sided dice rather than k^2.  Each
    argument is read once, so either may be a one-shot iterable.  It shares
    no code with the construction; the tests hold it equal to an exhaustive
    count of every face pair.
    """
    b = sorted(b)
    return sum(map(bisect_left, repeat(b), a))


def matchup(a: Sequence[int], b: Sequence[int]) -> Matchup:
    """Exact win counts and probability for die a against die b.

    The two-dice case of the oracle sweep: a and b are validated as a dice
    set by :func:`dice_set`, so each must have the same nonzero number of
    faces, and all labels must be distinct positive plain ints.
    """
    from fractions import Fraction  # loaded here, not at import: it also loads decimal

    ((_, _, wins_a, wins_b),) = DiceSet((a, b))._pair_wins
    return Matchup(wins_a, wins_b, Fraction(wins_a, wins_a + wins_b))  # distinct labels: the pair splits all k^2


def dominance(d: DiceSet) -> Tournament:
    """Extract the tournament the dice realize: i -> j iff die i wins more than half the face pairs."""
    beats = []  # (winner, loser) for every pair, in the sweep's order
    for i, j, wins_i, wins_j in d._pair_wins:
        if wins_i == wins_j:
            raise TieDetectedError(f"dice {i} and {j} tie at exactly 1/2")
        beats.append((i, j) if wins_i > wins_j else (j, i))
    return from_edges(d.n, beats)


def build_dice(t: Tournament) -> DiceSet:
    """Construct a dice set realizing t.

    Side count by residue of n mod 4: odd n uses n sides, n = 2 (mod 4)
    uses n-1, n = 0 (mod 4) uses n+1.  Deterministic in t.
    """
    if t.n % 2 == 1:
        return build_odd(t)
    if t.n % 4 == 2:
        return build_even_2mod4(t)
    return build_0mod4(t)


def _label_columns(t: Tournament, rows: Iterable[Iterable[tuple[int, int]]]) -> DiceSet:
    """Give column i the labels n(i-1)+1, n(i-1)+2, ... in the order of the slots of round i of rows.

    A running label, starting at 1, walks the slots of every round in turn:
    the vertex sitting the round out (odd n = t.n: vertex i sits out round i)
    takes one label, then each pair, in either orientation, takes the next
    two, the loser the lower and the winner the higher, so matched pairs get adjacent labels.
    """
    n, top = t.n, 1 << (t.n + 1)
    # bits[a][b] is "1" iff a beats b: row a shifted up one bit and read lowest first, so index b holds
    # bit b-1; with bit n+1 set, bin() is "0b1" + n+1 bits; bits[0] stands in for the absent vertex 0
    bits = [""] + [bin(row << 1 | top)[:2:-1] for row in t.rows]
    label = 1
    columns = []
    for i, row in enumerate(rows, start=1):
        column = [0] * (n + 1)  # column[v] is die v's label; slot 0 is unused
        if n % 2:
            column[i] = label
            label += 1
        for a, b in row:
            if bits[a][b] == "1":  # a beats b, so b takes the lower label
                a, b = b, a
            column[a] = label
            column[b] = label + 1
            label += 2
        columns.append(column)
    return DiceSet(list(zip(*columns))[1:])


def build_odd(t: Tournament) -> DiceSet:
    """Odd-n construction: n dice with n sides, column i labelled by round i of :func:`odd_rounds`."""
    odd_rounds(t.n)  # raises the ParityError for an even n
    return _label_columns(t, _rows(t.n))  # off the circle formula, none stored


def build_even_2mod4(t: Tournament) -> DiceSet:
    """n = 2 (mod 4) construction: n dice with n-1 sides, column i labelled by round i of :func:`even_rounds`."""
    even_rounds(t.n)  # raises the ParityError for any other n
    return _label_columns(t, _rows(t.n))  # off the circle formula, none stored


def build_0mod4(t: Tournament) -> DiceSet:
    """n = 0 (mod 4) construction: augment, build odd, drop the helper die.

    Adds vertex n+1 beating everything, runs the odd construction on the
    augmented tournament, and deletes the added die's row.  Labels keep
    their raw values (a strict subset of 1..(n+1)^2); compact separately
    if gap-free labels are wanted.
    """
    n = t.n
    if n % 4 != 0:
        raise ParityError(f"this construction needs n = 0 (mod 4), got {_echo(n)}")
    full = build_odd(_with_top(t))
    return DiceSet(full.faces[:n])


class PairEvidence(namedtuple("PairEvidence", "i j expected_winner wins_i wins_j ok")):
    """Matchup outcome for one vertex pair, against the expected direction."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "realized balance_ok matchups failures")):
    """Whether a dice set realizes a tournament, with per-pair evidence."""

    __slots__ = ()


def verify_realization(d: DiceSet, t: Tournament) -> VerificationReport:
    """Check every pair's matchup against t and the uniform-balance property, in one pass over d's cached sweep."""
    if d.n != t.n:
        return VerificationReport(
            False, False, (), (f"dice count {d.n} != tournament size {t.n}",)
        )
    rows = t.rows  # bit j-1 of rows[i-1] is set iff i beats j
    # tuple.__new__ is what PairEvidence(...) runs, without the call through the namedtuple's Python-level __new__
    evidence = tuple([
        tuple.__new__(
            PairEvidence,
            (i, j, i, wins_i, wins_j, wins_i > wins_j) if rows[i - 1] >> (j - 1) & 1
            else (i, j, j, wins_i, wins_j, wins_j > wins_i),
        )
        for i, j, wins_i, wins_j in d._pair_wins
    ])
    failures = tuple([
        f"pair ({i},{j}): expected {winner} to win, face wins {wins_i}-{wins_j}"
        for i, j, winner, wins_i, wins_j, ok in evidence
        if not ok
    ])
    return VerificationReport(not failures, is_balanced(d), evidence, failures)


class WinsAudit(namedtuple("WinsAudit", "sides loser_wins winner_wins failures")):
    """Outcome of re-deriving the guaranteed-wins split via the oracle."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def guaranteed_wins_audit(d: DiceSet, t: Tournament) -> WinsAudit:
    """Check every winner gets exactly (k^2+1)/2 face wins and every loser (k^2-1)/2.

    One pass over d's cached sweep, reading the expected winner off t's
    rows; it does not run :func:`verify_realization`.
    """
    k = d.sides
    top, bottom = k * k + 1, k * k - 1
    if d.n != t.n:  # no pair judged
        return WinsAudit(k, bottom // 2, top // 2, (f"dice count {d.n} != tournament size {t.n}",))
    rows = t.rows
    failures = []
    for i, j, wins_i, wins_j in d._pair_wins:
        if rows[i - 1] >> (j - 1) & 1:
            winner, w, l = i, wins_i, wins_j
        else:
            winner, w, l = j, wins_j, wins_i
        if 2 * w != top or 2 * l != bottom:
            failures.append(
                f"pair ({i},{j}): winner {winner} has {w} wins, loser has {l},"
                f" expected {top // 2} and {bottom // 2}"
            )
    return WinsAudit(k, bottom // 2, top // 2, tuple(failures))


def is_balanced(d: DiceSet) -> bool:
    """True iff every matchup is decided with probability exactly 1/2 + 1/(2k^2)."""
    top = d.sides ** 2 + 1
    return all(2 * (wins_i if wins_i > wins_j else wins_j) == top for _, _, wins_i, wins_j in d._pair_wins)


def compact_labels(d: DiceSet) -> DiceSet:
    """Relabel faces with their ranks 1..N, N = n*k; order-preserving, so every matchup is unchanged.

    Refuses what :func:`dice_set` refuses, with the same error, from the
    same label check, which runs at most once per set.  A set whose labels
    are exactly 1..N (odd n and n = 2 (mod 4) builds) comes back as it is.
    The check's label flags, when the labels are at most 2N (an n = 0
    (mod 4) build skips one per column), give the ranks as running counts;
    sparser labels are sorted and ranked through a dict.
    """
    flags, n_labels = d._label_flags, d.n * d.sides
    if flags is None:
        rank = dict(zip(sorted(chain.from_iterable(d.faces)), range(1, n_labels + 1)))
    elif len(flags) == n_labels + 1:  # distinct labels, none above N: their own ranks
        return d
    else:
        rank = list(accumulate(flags))  # rank[x]: labels present at or below x
    # one C call per die; itemgetter of a single key returns the bare rank, so a one-face die is mapped by hand
    return DiceSet([itemgetter(*die)(rank) if len(die) > 1 else [rank[x] for x in die] for die in d.faces])


def serialize_dice(d: DiceSet, fmt: str = "json") -> bytes:
    """Encode a dice set as JSON, CSV (one row per die), or a readable table."""
    if fmt == "json":
        payload = {"n": d.n, "sides": d.sides, "dice": d.faces}
        return json.dumps(payload, separators=(",", ":")).encode("ascii")
    if fmt == "csv":  # unquoted cells, each line ended by "\r\n", as csv.writer's excel dialect writes ints
        return "".join([",".join(map(str, die)) + "\r\n" for die in d.faces]).encode("ascii")
    if fmt == "table":  # aligned, one die per row: "X_1:  1 10 19 ..."
        width = max((len(str(x)) for die in d.faces for x in die), default=0)
        name_width = len(f"X_{d.n}:")
        lines = []
        for v, die in enumerate(d.faces, start=1):
            cells = " ".join(str(x).rjust(width) for x in die)
            lines.append(f"{f'X_{v}:'.ljust(name_width)} {cells}")
        return "\n".join(lines).encode("ascii")
    raise ValueError(f"unknown format {_echo(fmt, repr)}")


def parse_dice(data: bytes, fmt: str = "json") -> DiceSet:
    """Decode a dice set from JSON or CSV."""
    if fmt == "json":
        obj = _json_object(data, {"dice"}, 'expected an object with a "dice" list')
        rows = obj["dice"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError('"dice" must be a list of face lists')
        d = dice_set(rows)
        n, sides = obj.get("n", d.n), obj.get("sides", d.sides)
        if type(n) is not int or n != d.n:  # plain int: true and 1.0 are not 1
            raise ParseError(f'"n" is {_echo(n)} but {d.n} dice given')
        if type(sides) is not int or sides != d.sides:
            raise ParseError(f'"sides" is {_echo(sides)} but dice have {d.sides} faces')
        return d
    if fmt == "csv":
        rows = [line.split(",") for line in _text_lines(data, "CSV")]
        for cells in rows:
            if not all(c.isascii() and c.isdigit() for c in cells):
                raise ParseError(f"face labels must be plain ASCII digits, got row {_echo(cells, repr)}")
        try:
            faces = [[int(c) for c in cells] for cells in rows]
        except ValueError as exc:  # a label with more digits than sys.get_int_max_str_digits() allows
            raise ParseError(f"bad face label: {exc}") from exc
        return dice_set(faces)
    raise ValueError(f"unknown format {_echo(fmt, repr)}")
