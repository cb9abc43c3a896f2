"""Ordered edge partitions of K_n: the round/column scaffold the dice construction reads.

Rounds are matchings of K_n arranged in a fixed column order.  For odd n
there are n rounds of (n-1)/2 pairs and each vertex sits out exactly its
own round.  For n = 2 (mod 4) there are n-1 rounds of n/2 pairs, with the
pair {i, n} relocated to the middle column of round i; that relocation is
what makes the left/right counts come out symmetric for pairs involving n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import ParityError

Pair = tuple[int, int]


@dataclass(frozen=True)
class OneFactorization:
    """Rounds of vertex pairs; ``rounds[i-1][j-1]`` is the pair in column j of round i."""

    n: int
    rounds: tuple[tuple[Pair, ...], ...]

    @property
    def parity(self) -> str:
        """``"odd"`` or ``"even"``, from n."""
        return "odd" if self.n % 2 else "even"

    @cached_property
    def _columns(self) -> tuple[dict[int, int], ...]:
        # per round: vertex -> 1-based column
        tables = []
        for row in self.rounds:
            cols: dict[int, int] = {}
            for j, (a, b) in enumerate(row, start=1):
                cols[a] = j
                cols[b] = j
            tables.append(cols)
        return tuple(tables)


class LeftCount(NamedTuple):
    less: int
    greater: int
    ties: int


def _mod1(x: int, m: int) -> int:
    """Reduce x into the range 1..m."""
    return (x - 1) % m + 1


def _sorted_pair(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


def odd_rounds(n: int) -> OneFactorization:
    """Round i pairs up {i+j, i-j} mod n for j = 1..(n-1)/2; vertex i sits out."""
    if n < 3 or n % 2 == 0:
        raise ParityError(f"odd construction needs odd n >= 3, got {n}")
    k = (n - 1) // 2
    rounds = []
    for i in range(1, n + 1):
        row = tuple(_sorted_pair(_mod1(i + j, n), _mod1(i - j, n)) for j in range(1, k + 1))
        rounds.append(row)
    return OneFactorization(n, tuple(rounds))


def even_rounds(n: int) -> OneFactorization:
    """Rounds i = 1..n-1 with {i, n} moved into the middle column.

    Columns 1..(n-2)/4 hold {i+j, i-j} mod (n-1), column (n+2)/4 holds
    {i, n}, and columns (n+6)/4..n/2 hold {i+j-1, i-j+1} mod (n-1).
    """
    if n < 2 or n % 4 != 2:
        raise ParityError(f"even construction needs n = 2 (mod 4), got {n}")
    m = n - 1
    lead = (n - 2) // 4
    rounds = []
    for i in range(1, n):
        row = [_sorted_pair(_mod1(i + j, m), _mod1(i - j, m)) for j in range(1, lead + 1)]
        row.append((i, n))
        for j in range((n + 6) // 4, n // 2 + 1):
            row.append(_sorted_pair(_mod1(i + j - 1, m), _mod1(i - j + 1, m)))
        rounds.append(tuple(row))
    return OneFactorization(n, tuple(rounds))


def position_of(f: OneFactorization, round_index: int, vertex: int) -> int | None:
    """Column of ``vertex`` within the given round, or None if it sits the round out."""
    if not 1 <= round_index <= len(f.rounds):
        raise IndexError(f"round {round_index} out of range 1..{len(f.rounds)}")
    if not 1 <= vertex <= f.n:
        raise IndexError(f"vertex {vertex} out of range 1..{f.n}")
    return f._columns[round_index - 1].get(vertex)


def left_count(f: OneFactorization, w: int, x: int) -> LeftCount:
    """Over rounds containing both vertices, how often w's column is left of, right of, or equal to x's."""
    if w == x:
        raise ValueError("left_count needs two distinct vertices")
    less = greater = ties = 0
    for cols in f._columns:
        cw = cols.get(w)
        cx = cols.get(x)
        if cw is None or cx is None:
            continue
        if cw < cx:
            less += 1
        elif cw > cx:
            greater += 1
        else:
            ties += 1
    return LeftCount(less, greater, ties)


@dataclass(frozen=True)
class PartitionReport:
    """Pass/fail evidence for the structural invariants of a factorization."""

    n: int
    parity: str
    checks: tuple[tuple[str, bool], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def verify_partition(f: OneFactorization) -> PartitionReport:
    """Check that the rounds partition E(K_n) into matchings with the expected shape.

    Verifies: (a) each edge of K_n appears exactly once across all rounds,
    (b) each round is a matching, (c) odd case: vertex v is absent exactly
    from round v, (d) even case: every vertex plays every round and each
    vertex other than n lands exactly twice in every non-middle column.
    """
    failures: list[str] = []
    checks: list[tuple[str, bool]] = []

    edge_counts = Counter(pair for row in f.rounds for pair in row)
    expected = set(combinations(range(1, f.n + 1), 2))
    bad_edges = []
    for e in expected:
        if edge_counts.get(e, 0) != 1:
            bad_edges.append(f"edge {e} appears {edge_counts.get(e, 0)} times")
    for e in edge_counts:
        if e not in expected:
            bad_edges.append(f"unexpected pair {e}")
    checks.append(("edges_partitioned", not bad_edges))
    failures.extend(bad_edges)

    bad_rounds = []
    for i, row in enumerate(f.rounds, start=1):
        members = [v for pair in row for v in pair]
        if len(members) != len(set(members)):
            bad_rounds.append(f"round {i} is not a matching")
    checks.append(("rounds_are_matchings", not bad_rounds))
    failures.extend(bad_rounds)

    if f.parity == "odd":
        bad_absences = []
        for i, cols in enumerate(f._columns, start=1):
            absent = set(range(1, f.n + 1)) - set(cols)
            if absent != {i}:
                bad_absences.append(f"round {i} missing vertices {sorted(absent)}, expected [{i}]")
        checks.append(("one_absence_per_round", not bad_absences))
        failures.extend(bad_absences)
    else:
        bad_presence = []
        for i, cols in enumerate(f._columns, start=1):
            absent = set(range(1, f.n + 1)) - set(cols)
            if absent:
                bad_presence.append(f"round {i} missing vertices {sorted(absent)}")
        checks.append(("all_vertices_every_round", not bad_presence))
        failures.extend(bad_presence)

        middle = (f.n + 2) // 4
        width = len(f.rounds[0]) if f.rounds else 0
        bad_columns = []
        for j in range(1, width + 1):
            if j == middle:
                continue
            occurrence = Counter(v for row in f.rounds for v in row[j - 1])
            for v in range(1, f.n):
                if occurrence.get(v, 0) != 2:
                    bad_columns.append(
                        f"vertex {v} appears {occurrence.get(v, 0)} times in column {j}, expected 2"
                    )
        checks.append(("twice_per_column", not bad_columns))
        failures.extend(bad_columns)

    return PartitionReport(f.n, f.parity, tuple(checks), tuple(failures))
