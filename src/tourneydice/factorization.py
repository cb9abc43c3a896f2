"""Ordered edge partitions of K_n: the round/column scaffold the dice construction reads.

Rounds are matchings of K_n arranged in a fixed column order, all read
off the circle method on an odd vertex count.  For odd n there are n
rounds of (n-1)/2 pairs and each vertex sits out exactly its own round.
For n = 2 (mod 4) the rounds are the odd rounds of K_(n-1): the vertex i
that sits out round i is paired with n in the middle column, which is
what makes the left/right counts come out symmetric for pairs involving n.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import chain, combinations, islice, zip_longest

from ._value import _Value
from .errors import ParityError, _check_vertex_count, _echo

Pair = tuple[int, int]


class OneFactorization(_Value):
    """Rounds of vertex pairs; ``rounds[i-1][j-1]`` is the pair in column j of round i.

    Rounds given to the constructor are kept as given.  A factorization made
    by :func:`odd_rounds` or :func:`even_rounds` holds only n, and derives
    its rounds from the circle method when they are first read, each pair
    written low vertex first.
    """

    _fields = ("n", "rounds")

    def __init__(self, n: int, rounds: tuple[tuple[Pair, ...], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rounds", rounds)

    @cached_property
    def rounds(self) -> tuple[tuple[Pair, ...], ...]:
        """The circle-method rounds as tuples, built on first read and kept; only derived factorizations get here."""
        return tuple([tuple([(a, b) if a < b else (b, a) for a, b in row]) for row in _rows(self.n)])

    @property
    def parity(self) -> str:
        """``"odd"`` or ``"even"``, from n."""
        return "odd" if self.n % 2 else "even"


def _rows(n: int) -> Iterator[Iterator[Pair]]:
    """Round by round, the round's pairs straight from the circle method, each pair in either orientation.

    The circle method runs on K_m, m = n for odd n and n - 1 for n = 2
    (mod 4): round i pairs i-j with i+j (mod m) in column j, for
    j = 1..(m-1)/2.  For even n, (i, n) follows the first (n-2)/4 pairs.
    Each round is one zip of two slices of a doubled vertex list, so all
    rounds share its ints and nothing is stored: a caller that unpacks
    each pair lets ``zip`` reuse its tuple.
    """
    m = n - 1 + n % 2
    h, lead = (m - 1) // 2, (n - 2) // 4
    v = list(range(1, m + 1)) * 2  # v[x - 1] is x mod m, written in 1..m, for x = 1..2m
    for i in range(1, m + 1):
        row = zip(v[i + m - 2 : i + m - h - 2 : -1], v[i : i + h])
        yield row if n % 2 else chain(islice(row, lead), ((i, n),), row)


def _derived(n: int) -> OneFactorization:
    """The circle-method factorization of K_n, its rounds read off the formula when first asked for."""
    f = object.__new__(OneFactorization)
    object.__setattr__(f, "n", n)
    return f


def odd_rounds(n: int) -> OneFactorization:
    """Round i pairs up {i+j, i-j} mod n for j = 1..(n-1)/2; vertex i sits out."""
    if type(n) is not int or n < 1 or n % 2 == 0:
        raise ParityError(f"odd construction needs a positive odd n, got {_echo(n)}")
    return _derived(n)


def even_rounds(n: int) -> OneFactorization:
    """The odd rounds of K_(n-1), with the vertex i that sits out round i paired with n.

    The pair {i, n} goes into the middle column (n+2)/4 of round i; the
    (n-2)/4 circle-method pairs before it and after it keep their order.
    """
    if type(n) is not int or n < 2 or n % 4 != 2:
        raise ParityError(f"even construction needs n = 2 (mod 4), got {_echo(n)}")
    return _derived(n)


class PartitionReport(namedtuple("PartitionReport", "n parity checks failures")):
    """Pass/fail evidence for the structural invariants of a factorization."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def verify_partition(f: OneFactorization) -> PartitionReport:
    """Check that the rounds partition E(K_n) into matchings with the expected shape.

    Input is judged first: n must be a plain ``int`` of at least 1, the
    rounds a sequence of sequences, and every pair a 2-tuple of plain ints.
    Input that breaks these rules fails one check instead,
    ``rounds_hold_pairs``, whose failure names n or the first entry at
    fault.  Otherwise four checks run, once each:
    (a) each edge of K_n appears exactly once across all rounds, (b) each
    round is a matching, (c) odd case: vertex v is absent exactly from
    round v, (d) even case: every vertex plays every round and each vertex
    other than n lands exactly twice in every non-middle column.
    The failures of (a) come in vertex order, then any pair outside K_n as
    first given.  Beside its failures, the check holds the counts of the
    pairs given and one column's counts at a time, but no set of K_n's edges.

    No check counts the rounds, and for n >= 2 none needs to.  A round that
    passes (b) and (c), or (b) and (d), and holds only pairs in 1..n has
    floor(n/2) pairs, so only n rounds (odd n) or n - 1 rounds (even n) of
    them hold the n(n-1)/2 edges: with any other count, (a) or a per-round
    check fails.
    K_1 has no edge: ``odd_rounds(1)``, one empty round that vertex 1 sits
    out, reports ok, and so does ``OneFactorization(1, ())``.
    """
    bad_n = _check_vertex_count(f.n, raising=False)
    fault = bad_n or _malformed(f.rounds)
    if fault is not None:
        parity = None if bad_n else f.parity  # a bad n has no parity to report
        return PartitionReport(f.n, parity, (("rounds_hold_pairs", False),), (fault,))

    found: dict[str, list[str]] = {}  # each check's name -> its failures, in the order the checks are reported

    edge_counts = Counter(chain.from_iterable(f.rounds))
    bad_edges = found["edges_partitioned"] = []
    for e in combinations(range(1, f.n + 1), 2):
        if edge_counts.get(e, 0) != 1:
            bad_edges.append(f"edge {e} appears {edge_counts.get(e, 0)} times")
    for e in edge_counts:
        if not 0 < e[0] < e[1] <= f.n:  # not an edge of K_n, low vertex first
            bad_edges.append(f"unexpected pair {_echo(e)}")

    odd = f.parity == "odd"
    vertices = set(range(1, f.n + 1))
    bad_rounds = found["rounds_are_matchings"] = []
    bad_presence = found["one_absence_per_round" if odd else "all_vertices_every_round"] = []
    for i, row in enumerate(f.rounds, start=1):
        members = list(chain.from_iterable(row))
        if len(members) != len(set(members)):
            bad_rounds.append(f"round {i} is not a matching")
        absent = vertices.difference(members)
        if absent != ({i} if odd else set()):
            suffix = f", expected [{i}]" if odd else ""
            bad_presence.append(f"round {i} missing vertices {sorted(absent)}{suffix}")

    if not odd:
        middle = (f.n + 2) // 4
        width = len(f.rounds[0]) if f.rounds else 0
        bad_columns = found["twice_per_column"] = []
        for j, column in enumerate(islice(zip_longest(*f.rounds, fillvalue=()), width), start=1):
            if j == middle:
                continue
            occurrence = Counter(chain.from_iterable(column))  # a round too short for column j gives ()
            for v in range(1, f.n):
                if occurrence.get(v, 0) != 2:
                    bad_columns.append(
                        f"vertex {v} appears {occurrence.get(v, 0)} times in column {j}, expected 2"
                    )

    checks = tuple([(name, not failed) for name, failed in found.items()])
    return PartitionReport(f.n, f.parity, checks, tuple([failure for failed in found.values() for failure in failed]))


def _malformed(rounds: object) -> str | None:
    """The first fault that keeps rounds from reading as rounds of pairs, or None."""
    if not isinstance(rounds, Sequence):  # the checks index rounds and rows and walk them twice
        return f"rounds are {_echo(rounds, repr)}, not a sequence of rounds"
    for i, row in enumerate(rounds, start=1):
        if not isinstance(row, Sequence):
            return f"round {i} is {_echo(row, repr)}, not a sequence of pairs"
        for j, pair in enumerate(row, start=1):
            if type(pair) is not tuple or len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not int:
                return f"round {i} column {j} holds {_echo(pair, repr)}, not a pair"
    return None
