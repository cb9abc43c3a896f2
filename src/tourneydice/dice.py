"""Dice sets realizing tournaments, plus the exhaustive face-win oracle.

The construction assigns the i-th face of every die a label from the i-th
block of n consecutive integers, pairing dice within a column according to
the round-i matching of the factorization.  Within each column the pair of
dice matched there receive adjacent labels, higher label to the die the
tournament says should win; every other cross-die comparison cancels out,
so that single column decides the matchup.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import (
    DuplicateLabelError,
    ParityError,
    ParseError,
    SideCountMismatchError,
    TieDetectedError,
)
from .factorization import OneFactorization, even_rounds, odd_rounds
from .tournament import Tournament

Faces = tuple[int, ...]


@dataclass(frozen=True)
class DiceSet:
    """n dice with equal side counts; ``faces[v-1][i-1]`` is face i of die v."""

    faces: tuple[Faces, ...]

    @property
    def n(self) -> int:
        return len(self.faces)

    @property
    def sides(self) -> int:
        return len(self.faces[0]) if self.faces else 0


def dice_set(faces: Iterable[Sequence[int]]) -> DiceSet:
    """Validate raw face lists and freeze them into a DiceSet."""
    frozen = tuple(tuple(die) for die in faces)
    if not frozen:
        raise ParseError("a dice set needs at least one die")
    sides = len(frozen[0])
    for v, die in enumerate(frozen, start=1):
        if len(die) != sides:
            raise SideCountMismatchError(f"die {v} has {len(die)} sides, expected {sides}")
    if not sides:
        raise ParseError("dice need at least one side")
    labels = [x for die in frozen for x in die]
    for x in labels:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ParseError(f"face label {x!r} is not a positive integer")
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError("face labels are not pairwise distinct")
    return DiceSet(frozen)


@dataclass(frozen=True)
class Matchup:
    """Exact result of rolling die a against die b."""

    wins_a: int
    wins_b: int
    probability: Fraction  # chance that die a rolls the higher number


def face_wins(a: Sequence[int], b: Sequence[int]) -> int:
    """Count ordered face pairs (x, y) with x from a, y from b, x > y.

    Exhaustive enumeration on purpose: this is the verification oracle and
    shares no code with the construction.
    """
    return sum(1 for x in a for y in b if x > y)


def matchup(a: Sequence[int], b: Sequence[int]) -> Matchup:
    """Exact win counts and probability for die a against die b."""
    if len(a) != len(b):
        raise SideCountMismatchError(f"side counts differ: {len(a)} vs {len(b)}")
    shared = set(a) & set(b)
    if shared:
        raise DuplicateLabelError(f"dice share labels {sorted(shared)}")
    wins_a = face_wins(a, b)
    wins_b = face_wins(b, a)
    return Matchup(wins_a, wins_b, Fraction(wins_a, len(a) * len(b)))


def _pair_wins(d: DiceSet) -> Iterator[tuple[int, int, int, int]]:
    """Revalidate d, then yield (i, j, wins_i, wins_j) by the oracle for every die pair i < j."""
    dice_set(d.faces)  # distinct labels, equal nonzero side counts
    for i, j in combinations(range(1, d.n + 1), 2):
        a, b = d.faces[i - 1], d.faces[j - 1]
        yield i, j, face_wins(a, b), face_wins(b, a)


def dominance(d: DiceSet) -> Tournament:
    """Extract the tournament the dice realize: i -> j iff die i wins more than half the face pairs."""
    edges = set()
    for i, j, wins_i, wins_j in _pair_wins(d):
        if wins_i == wins_j:
            raise TieDetectedError(f"dice {i} and {j} tie at exactly 1/2")
        edges.add((i, j) if wins_i > wins_j else (j, i))
    return Tournament(d.n, frozenset(edges))


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


def _label_columns(t: Tournament, f: OneFactorization) -> DiceSet:
    """Give column i the labels n(i-1)+1, n(i-1)+2, ... in the order of round i's slots.

    The slots are the vertex sitting the round out (odd n: vertex i sits
    out round i), then each pair with the loser before the winner, so every
    matched pair gets adjacent labels with the higher one on the winner.
    """
    n = f.n
    columns = []
    for i, row in enumerate(f.rounds, start=1):
        order = [i] if n % 2 else []
        for a, b in row:
            order += (b, a) if t.beats(a, b) else (a, b)
        column = [0] * n
        for label, v in enumerate(order, start=n * (i - 1) + 1):
            column[v - 1] = label
        columns.append(column)
    return DiceSet(tuple(zip(*columns)))


def build_odd(t: Tournament) -> DiceSet:
    """Odd-n construction: n dice with n sides, column i labelled by round i of :func:`odd_rounds`."""
    if t.n % 2 == 0:
        raise ParityError(f"odd construction needs odd n, got {t.n}")
    if t.n == 1:
        return DiceSet(((1,),))
    return _label_columns(t, odd_rounds(t.n))


def build_even_2mod4(t: Tournament) -> DiceSet:
    """n = 2 (mod 4) construction: n dice with n-1 sides, column i labelled by round i of :func:`even_rounds`."""
    if t.n % 4 != 2:
        raise ParityError(f"this construction needs n = 2 (mod 4), got {t.n}")
    return _label_columns(t, even_rounds(t.n))


def build_0mod4(t: Tournament) -> DiceSet:
    """n = 0 (mod 4) construction: augment, build odd, drop the helper die.

    Adds vertex n+1 beating everything, runs the odd construction on the
    augmented tournament, and deletes the added die's row.  Labels keep
    their raw values (a strict subset of 1..(n+1)^2); compact separately
    if gap-free labels are wanted.
    """
    n = t.n
    if n % 4 != 0:
        raise ParityError(f"this construction needs n = 0 (mod 4), got {n}")
    augmented = Tournament(
        n + 1, frozenset(t.edges | {(n + 1, v) for v in range(1, n + 1)})
    )
    full = build_odd(augmented)
    return DiceSet(full.faces[:n])


@dataclass(frozen=True)
class PairEvidence:
    """Matchup outcome for one vertex pair, against the expected direction."""

    i: int
    j: int
    expected_winner: int
    wins_i: int
    wins_j: int
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    """Whether a dice set realizes a tournament, with per-pair evidence."""

    realized: bool
    balance_ok: bool
    matchups: tuple[PairEvidence, ...]
    failures: tuple[str, ...]


def verify_realization(d: DiceSet, t: Tournament) -> VerificationReport:
    """Check every pair's matchup against t and the uniform-balance property."""
    if d.n != t.n:
        return VerificationReport(
            False, False, (), (f"dice count {d.n} != tournament size {t.n}",)
        )
    evidence = []
    for i, j, wins_i, wins_j in _pair_wins(d):
        expected = i if t.beats(i, j) else j
        ok = (wins_i > wins_j) if expected == i else (wins_j > wins_i)
        evidence.append(PairEvidence(i, j, expected, wins_i, wins_j, ok))
    failures = tuple(
        f"pair ({e.i},{e.j}): expected {e.expected_winner} to win, face wins {e.wins_i}-{e.wins_j}"
        for e in evidence
        if not e.ok
    )
    k = d.sides  # uniform balance: winner takes exactly (k^2+1)/2 face wins
    balance_ok = all(2 * max(e.wins_i, e.wins_j) == k * k + 1 for e in evidence)
    return VerificationReport(not failures, balance_ok, tuple(evidence), failures)


@dataclass(frozen=True)
class WinsAudit:
    """Outcome of re-deriving the guaranteed-wins split via the oracle."""

    sides: int
    loser_wins: int
    winner_wins: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def guaranteed_wins_audit(d: DiceSet, t: Tournament) -> WinsAudit:
    """Check that in every matchup the loser gets exactly (k^2-1)/2 face wins and the winner (k^2+1)/2."""
    k = d.sides
    report = verify_realization(d, t)
    failures = [] if report.matchups else list(report.failures)  # size mismatch: no pair judged
    for e in report.matchups:
        w, l = (e.wins_i, e.wins_j) if e.expected_winner == e.i else (e.wins_j, e.wins_i)
        if 2 * w != k * k + 1 or 2 * l != k * k - 1:
            failures.append(
                f"pair ({e.i},{e.j}): winner {e.expected_winner} has {w} wins, loser has {l},"
                f" expected {(k * k + 1) // 2} and {(k * k - 1) // 2}"
            )
    return WinsAudit(k, (k * k - 1) // 2, (k * k + 1) // 2, tuple(failures))


def is_balanced(d: DiceSet) -> bool:
    """True iff every matchup is decided with probability exactly 1/2 + 1/(2k^2)."""
    k = d.sides
    return all(2 * max(wins_i, wins_j) == k * k + 1 for _, _, wins_i, wins_j in _pair_wins(d))


def compact_labels(d: DiceSet) -> DiceSet:
    """Relabel faces with their ranks 1..n*k; order-preserving, so every matchup is unchanged."""
    ranked = {x: r for r, x in enumerate(sorted(x for die in d.faces for x in die), start=1)}
    return DiceSet(tuple(tuple(ranked[x] for x in die) for die in d.faces))


def serialize_dice(d: DiceSet, fmt: str = "json") -> bytes:
    """Encode a dice set as JSON, CSV (one row per die), or a readable table."""
    if fmt == "json":
        payload = {"n": d.n, "sides": d.sides, "dice": [list(die) for die in d.faces]}
        return json.dumps(payload, separators=(",", ":")).encode("ascii")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for die in d.faces:
            writer.writerow(die)
        return buf.getvalue().encode("ascii")
    if fmt == "table":
        return format_table(d).encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def format_table(d: DiceSet) -> str:
    """Aligned text table, one die per row: ``X_1:  1 10 19 ...``."""
    width = max(len(str(x)) for die in d.faces for x in die)
    name_width = len(f"X_{d.n}:")
    lines = []
    for v, die in enumerate(d.faces, start=1):
        cells = " ".join(str(x).rjust(width) for x in die)
        lines.append(f"{f'X_{v}:'.ljust(name_width)} {cells}")
    return "\n".join(lines)


def parse_dice(data: bytes, fmt: str = "json") -> DiceSet:
    """Decode a dice set from JSON or CSV."""
    if fmt == "json":
        try:
            obj = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        if not isinstance(obj, dict) or "dice" not in obj:
            raise ParseError('expected an object with a "dice" list')
        rows = obj["dice"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError('"dice" must be a list of face lists')
        d = dice_set(rows)
        n, sides = obj.get("n", d.n), obj.get("sides", d.sides)
        if type(n) is not int or n != d.n:  # plain int: true and 1.0 are not 1
            raise ParseError(f'"n" is {n} but {d.n} dice given')
        if type(sides) is not int or sides != d.sides:
            raise ParseError(f'"sides" is {sides} but dice have {d.sides} faces')
        return d
    if fmt == "csv":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"CSV is not valid text: {exc}") from exc
        try:
            records = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:  # e.g. a field over the reader's size limit
            raise ParseError(f"bad CSV: {exc}") from exc
        rows = []
        for cells in records:
            if not cells:
                continue
            if not all(c.isascii() and c.isdigit() for c in cells):
                raise ParseError(f"face labels must be plain ASCII digits, got row {cells!r}")
            rows.append([int(c) for c in cells])
        return dice_set(rows)
    raise ValueError(f"unknown format {fmt!r}")
