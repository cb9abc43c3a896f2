"""Ordered edge partitions of K_n: the round/column scaffold the dice construction reads.

Rounds are matchings of K_n arranged in a fixed column order, all read
off the circle method on an odd vertex count.  For odd n there are n
rounds of (n-1)/2 pairs and each vertex sits out exactly its own round.
For n = 2 (mod 4) the rounds are the odd rounds of K_(n-1): the vertex i
that sits out round i is paired with n in the middle column, which is
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


def _circle(m: int) -> tuple[tuple[Pair, ...], ...]:
    """Circle method on K_m, odd m >= 1: round i pairs {i+j, i-j} mod m for j = 1..(m-1)/2."""
    rounds = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, (m + 1) // 2):
            a, b = (i + j - 1) % m + 1, (i - j - 1) % m + 1
            row.append((a, b) if a < b else (b, a))
        rounds.append(tuple(row))
    return tuple(rounds)


def odd_rounds(n: int) -> OneFactorization:
    """Round i pairs up {i+j, i-j} mod n for j = 1..(n-1)/2; vertex i sits out."""
    if n < 3 or n % 2 == 0:
        raise ParityError(f"odd construction needs odd n >= 3, got {n}")
    return OneFactorization(n, _circle(n))


def even_rounds(n: int) -> OneFactorization:
    """The odd rounds of K_(n-1), with the vertex i that sits out round i paired with n.

    The pair {i, n} goes into the middle column (n+2)/4 of round i; the
    (n-2)/4 circle-method pairs before it and after it keep their order.
    """
    if n < 2 or n % 4 != 2:
        raise ParityError(f"even construction needs n = 2 (mod 4), got {n}")
    lead = (n - 2) // 4
    rows = enumerate(_circle(n - 1), start=1)
    return OneFactorization(n, tuple(row[:lead] + ((i, n),) + row[lead:] for i, row in rows))


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

    odd = f.parity == "odd"
    vertices = set(range(1, f.n + 1))
    bad_rounds = []
    bad_presence = []
    for i, row in enumerate(f.rounds, start=1):
        members = [v for pair in row for v in pair]
        if len(members) != len(set(members)):
            bad_rounds.append(f"round {i} is not a matching")
        absent = vertices.difference(members)
        if absent != ({i} if odd else set()):
            suffix = f", expected [{i}]" if odd else ""
            bad_presence.append(f"round {i} missing vertices {sorted(absent)}{suffix}")
    checks.append(("rounds_are_matchings", not bad_rounds))
    failures.extend(bad_rounds)
    presence = "one_absence_per_round" if odd else "all_vertices_every_round"
    checks.append((presence, not bad_presence))
    failures.extend(bad_presence)

    if not odd:
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
