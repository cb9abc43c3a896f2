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


@dataclass(frozen=True)
class Tournament:
    """A complete directed graph on the vertices 1..n.

    ``edges`` holds one ordered pair (winner, loser) per vertex pair.
    Instances are immutable; build them through :func:`from_edges` or one
    of the generators, which enforce completeness.
    """

    n: int
    edges: frozenset[Edge]

    def beats(self, i: int, j: int) -> bool:
        """True if the edge i -> j is present."""
        return (i, j) in self.edges

    def edge_list(self) -> list[Edge]:
        """All edges, sorted lexicographically."""
        return sorted(self.edges)

    def out_degree(self, v: int) -> int:
        return sum(1 for (a, _) in self.edges if a == v)


def from_edges(n: int, beats: Iterable[Edge]) -> Tournament:
    """Build a Tournament from an explicit edge list, validating completeness.

    Every unordered pair {i, j} must appear exactly once, in exactly one
    direction.
    """
    if n < 1:
        raise VertexOutOfRangeError(f"n must be positive, got {n}")
    edges: set[Edge] = set()
    seen: set[Edge] = set()
    for i, j in beats:
        if i == j:
            raise SelfLoopError(f"self-loop at vertex {i}")
        if not (1 <= i <= n) or not (1 <= j <= n):
            raise VertexOutOfRangeError(f"edge ({i},{j}) outside 1..{n}")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            raise DuplicateEdgeError(f"pair {{{key[0]},{key[1]}}} oriented twice")
        seen.add(key)
        edges.add((i, j))
    if len(seen) != n * (n - 1) // 2:
        for pair in combinations(range(1, n + 1), 2):
            if pair not in seen:
                raise MissingEdgeError(f"pair {{{pair[0]},{pair[1]}}} has no direction")
    return Tournament(n, frozenset(edges))


def _oriented(n: int, keep: Callable[[int, int], object]) -> Tournament:
    """Orient every pair i < j, in lexicographic order: i -> j where keep(i, j) is true, else j -> i."""
    if n < 1:
        raise VertexOutOfRangeError(f"n must be positive, got {n}")
    pairs = combinations(range(1, n + 1), 2)
    return Tournament(n, frozenset((i, j) if keep(i, j) else (j, i) for i, j in pairs))


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
        payload = {"n": t.n, "beats": [list(e) for e in t.edge_list()]}
        return json.dumps(payload, separators=(",", ":")).encode("ascii")
    if fmt == "matrix":
        rows = []
        for r in range(1, t.n + 1):
            rows.append(" ".join("1" if t.beats(r, c) else "0" for c in range(1, t.n + 1)))
        return "\n".join(rows).encode("ascii")
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
