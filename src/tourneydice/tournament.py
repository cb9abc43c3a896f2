"""Tournaments: complete orientations of K_n, their generators and file formats."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from .errors import (
    DuplicateEdgeError,
    MissingEdgeError,
    NotPrimeError,
    NTooSmallError,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
    WrongResidueClassError,
)

Edge = tuple[int, int]


@dataclass(frozen=True, repr=False)
class Tournament:
    """A complete directed graph on the vertices 1..n, as n bit rows.

    Bit j-1 of ``rows[i-1]`` is set iff i beats j; ``edges`` is derived from
    the rows.  Get instances from :func:`from_edges`, the generators or
    :func:`parse_tournament`, which all yield complete, immutable tournaments.
    """

    n: int
    rows: tuple[int, ...]

    def beats(self, i: int, j: int) -> bool:
        """True if i beats j; False for any vertex outside 1..n."""
        return 0 < i <= self.n and 0 < j and self.rows[i - 1] >> (j - 1) & 1 == 1

    def out_degree(self, v: int) -> int:
        return self.rows[v - 1].bit_count() if 0 < v <= self.n else 0

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self._row_order())

    def _row_order(self) -> list[Edge]:
        """Every (winner, loser) pair in sorted order; bin(row)[:1:-1] is row's bits, lowest first."""
        rows = enumerate(self.rows, start=1)
        return [(i, j) for i, row in rows for j, bit in enumerate(bin(row)[:1:-1], start=1) if bit == "1"]

    def __repr__(self) -> str:
        """The sorted edge list; parametrized test ids in bench/test_checker.py are cut from this text."""
        return f"Tournament(n={self.n}, edges={self._row_order()})"


def from_edges(n: int, beats: Iterable[Edge]) -> Tournament:
    """Build a Tournament from an explicit edge list, validating completeness.

    Every unordered pair {i, j} must appear exactly once, in exactly one
    direction.  Nothing of size n is allocated before the edges are complete.
    """
    if n < 1:
        raise VertexOutOfRangeError(f"n must be positive, got {n}")
    forward: dict[Edge, bool] = {}  # (low, high) -> low beats high
    for i, j in beats:
        if i == j:
            raise SelfLoopError(f"self-loop at vertex {i}")
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise VertexOutOfRangeError(f"edge ({i},{j}) outside 1..{n}")
        key = (i, j) if i < j else (j, i)
        if key in forward:
            raise DuplicateEdgeError(f"pair {{{key[0]},{key[1]}}} oriented twice")
        forward[key] = i < j
    if len(forward) != n * (n - 1) // 2:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) not in forward:
                    raise MissingEdgeError(f"pair {{{i},{j}}} has no direction")
    return _oriented(n, lambda i, j: forward[i, j])


def _oriented(n: int, keep: Callable[[int, int], object]) -> Tournament:
    """Orient every pair i < j, in lexicographic order: i -> j where keep(i, j) is true, else j -> i."""
    if n < 1:
        raise VertexOutOfRangeError(f"n must be positive, got {n}")
    bit = [1 << v for v in range(n)]
    rows = [0] * n
    for a, b in combinations(range(n), 2):  # 0-based: vertices a + 1 < b + 1
        if keep(a + 1, b + 1):
            rows[a] |= bit[b]
        else:
            rows[b] |= bit[a]
    return Tournament(n, tuple(rows))


def transitive(n: int) -> Tournament:
    """The transitive tournament: i -> j whenever i < j."""
    return _oriented(n, lambda i, j: True)


def almost_transitive(n: int) -> Tournament:
    """Transitive except that vertex n beats vertex 1."""
    if n < 3:
        raise NTooSmallError(f"almost-transitive needs n >= 3, got {n}")
    return _oriented(n, lambda i, j: i != 1 or j != n)


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniform random tournament from a deterministic seeded generator.

    Uses ``random.Random(seed)`` (Mersenne Twister) and consumes one bit
    per pair, taking pairs {i, j} with i < j in lexicographic order; a set
    bit keeps the orientation i -> j, a clear bit flips it.  Same (n, seed)
    always reproduces the same tournament.
    """
    rng = random.Random(seed)
    return _oriented(n, lambda i, j: rng.getrandbits(1))


def paley(p: int) -> Tournament:
    """Paley tournament on a prime p with p = 3 (mod 4): i -> j iff j - i is a nonzero square mod p."""
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p % 4 != 3:
        raise WrongResidueClassError(f"{p} is not 3 mod 4")
    residues = {(x * x) % p for x in range(1, p)}
    return _oriented(p, lambda i, j: (j - i) % p in residues)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def serialize_tournament(t: Tournament, fmt: str = "json") -> bytes:
    """Encode a tournament as JSON or as a 0/1 adjacency matrix."""
    if fmt == "json":
        payload = {"n": t.n, "beats": [list(e) for e in t._row_order()]}
        return json.dumps(payload, separators=(",", ":")).encode("ascii")
    if fmt == "matrix":
        return "\n".join(" ".join(f"{row:0{t.n}b}"[::-1]) for row in t.rows).encode("ascii")
    raise ValueError(f"unknown format {fmt!r}")


def parse_tournament(text: bytes, fmt: str = "json") -> Tournament:
    """Decode a tournament; inverse of :func:`serialize_tournament` on valid input."""
    if fmt == "json":
        return _parse_json(text)
    if fmt == "matrix":
        return _parse_matrix(text)
    raise ValueError(f"unknown format {fmt!r}")


def _parse_json(text: bytes) -> Tournament:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "beats" not in obj:
        raise ParseError('expected an object with "n" and "beats"')
    n = obj["n"]
    beats = obj["beats"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError('"n" must be an integer')
    if not isinstance(beats, list):
        raise ParseError('"beats" must be a list of pairs')
    edges = []
    for entry in beats:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in entry)
        ):
            raise ParseError(f"bad edge entry {entry!r}")
        edges.append((entry[0], entry[1]))
    return from_edges(n, edges)


def _parse_matrix(text: bytes) -> Tournament:
    try:
        lines = [ln for ln in text.decode("utf-8").splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ParseError(f"matrix is not valid text: {exc}") from exc
    n = len(lines)
    if n == 0:
        raise ParseError("empty matrix")
    edges = []
    for r, line in enumerate(lines, start=1):
        cells = line.split()
        if len(cells) != n:
            raise ParseError(f"row {r} has {len(cells)} entries, expected {n}")
        for c, cell in enumerate(cells, start=1):
            if cell not in ("0", "1"):
                raise ParseError(f"entry ({r},{c}) is {cell!r}, expected 0 or 1")
            if cell == "1":
                edges.append((r, c))
    return from_edges(n, edges)
