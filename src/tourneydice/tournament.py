"""Tournaments: complete orientations of K_n, their generators and file formats."""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import combinations, compress

from ._value import _Value
from .errors import (
    DuplicateEdgeError,
    InvalidTournamentError,
    MissingEdgeError,
    NotPrimeError,
    NTooSmallError,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
    WrongResidueClassError,
    _check_vertex_count,
    _echo,
)

Edge = tuple[int, int]

_ONE = ord("1")  # a set cell of an n*n cell array; every other cell holds ord("0")
_WINS = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" * 128)  # a byte to the cell of its top bit
_LOSES = bytes.maketrans(bytes(range(256)), b"1" * 128 + b"0" * 128)  # ... and to the opposite cell


class Tournament(_Value):
    """A complete directed graph on the vertices 1..n, as n bit rows.

    Bit j-1 of ``rows[i-1]`` is set iff i beats j; ``edges`` is derived from
    the rows.  Get instances from :func:`from_edges`, the generators or
    :func:`parse_tournament`, which all yield complete, immutable tournaments.
    """

    _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def beats(self, i: int, j: int) -> bool:
        """True if i beats j; False for any vertex outside 1..n."""
        return 0 < i <= self.n and 0 < j and self.rows[i - 1] >> (j - 1) & 1 == 1

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

    ``n`` must be a plain ``int`` (not ``bool`` or ``float``) of at least
    1.  ``beats`` may be any iterable of (winner, loser) entries, each of
    which must unpack into exactly two plain ints in 1..n.  Every unordered
    pair {i, j} must appear exactly once, in exactly one direction.  Faults
    are reported in this order: the first entry that is not such a pair
    (``ParseError``, before any other fault); then, in edge order, per edge
    a self-loop, a vertex outside 1..n, a repeated pair; after the last
    edge, the first pair with no direction.  Nothing of size n is
    allocated for fewer than n(n-1)/2 edges.
    """
    _check_vertex_count(n)
    edges = beats if isinstance(beats, (list, tuple)) else list(beats)
    # n(n-1)/2 edges that orient every pair once repeat none; a shorter or longer list has a fault
    t = _drawn(n, edges) if len(edges) == n * (n - 1) // 2 else None
    if t is None:
        raise _first_fault(n, edges)
    return t


def _drawn(n: int, edges: Sequence[Edge]) -> Tournament | None:
    """The tournament the edges draw on 1..n, or None if they draw none.

    None for an entry that is not a pair of plain ints in 1..n, or when a
    vertex beats itself or a pair is not oriented exactly once.
    """
    cells, row = _blank(n)
    try:
        for i, j in edges:
            if type(i) is not int or type(j) is not int or not (0 < i <= n and 0 < j <= n):
                return None
            cells[row[i] + j] = _ONE
    except (TypeError, ValueError):  # an entry that does not unpack into two values
        return None
    return _checked(n, cells)


def _first_fault(n: int, edges: Sequence[Edge]) -> InvalidTournamentError:
    """The fault :func:`from_edges` reports for edges that are not one tournament on 1..n.

    One walk judges every entry's shape and keeps the first order fault,
    which is reported only once no entry is found malformed.
    """
    seen: set[Edge] = set()
    fault = None
    for entry in edges:
        try:
            i, j = entry
        except (TypeError, ValueError):  # an entry that does not unpack into two values
            i = j = None
        if type(i) is not int or type(j) is not int:
            return ParseError(f"bad edge entry {_echo(entry, repr)}")
        if fault is not None:
            continue
        key = (i, j) if i < j else (j, i)
        if i == j:
            fault = SelfLoopError(f"self-loop at vertex {_echo(i)}")
        elif not (1 <= i <= n) or not (1 <= j <= n):
            fault = VertexOutOfRangeError(f"edge ({_echo(i)},{_echo(j)}) outside 1..{_echo(n)}")
        elif key in seen:
            fault = DuplicateEdgeError(f"pair {{{_echo(key[0])},{_echo(key[1])}}} oriented twice")
        else:
            seen.add(key)
    if fault is not None:
        return fault
    # nested ranges, not combinations(), which would first hold all n vertices
    i, j = next((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in seen)
    return MissingEdgeError(f"pair {{{i},{j}}} has no direction")


def _checked(n: int, cells: bytes | bytearray) -> Tournament | None:
    """The tournament drawn in cells, or None if a vertex beats itself or a pair is not oriented exactly once."""
    if _ONE in cells[:: n + 1]:
        return None
    rows = _bit_rows(n, cells)
    columns = _bit_rows(n, b"".join([cells[c::n] for c in range(n)]))  # bit u-1 of columns[v-1]: u beats v
    everyone = (1 << n) - 1  # row ^ column of v is everyone but v iff v meets each other vertex once
    if any(row ^ column != everyone ^ (1 << v) for v, (row, column) in enumerate(zip(rows, columns))):
        return None
    return Tournament(n, rows)


def _blank(n: int) -> tuple[bytearray, list[int]]:
    """n*n unset cells, and offsets with ``row[i] + j`` the cell of i -> j.

    ``row`` is a list, not a range, so that indexing it makes no new int.
    An n whose n*n cells no index reaches is refused before anything is made.
    """
    _check_vertex_count(n)
    if n * n > sys.maxsize:
        raise VertexOutOfRangeError(f"n is too large for an n*n cell array, got {_echo(n)}")
    return bytearray(b"0") * (n * n), list(range(-n - 1, n * n, n))


def _bit_rows(n: int, cells: bytes | bytearray) -> tuple[int, ...]:
    """The n bit rows of n*n cells in which cell (i-1)*n + j-1 is ``b"1"`` iff i beats j, else ``b"0"``."""
    # a list, then tuple(): tuple() of a generator guesses a size and shrinks the result, and on
    # CPython the shrunk small tuples pile up on per-size free lists, growing the heap call by call
    return tuple([int(cells[r : r + n][::-1], 2) for r in range(0, n * n, n)])


def _oriented(n: int, keep: Callable[[int, int], object]) -> Tournament:
    """Orient every pair i < j, in lexicographic order: i -> j where keep(i, j) is true, else j -> i."""
    cells, row = _blank(n)
    for i, j in combinations(range(1, n + 1), 2):
        cells[row[i] + j if keep(i, j) else row[j] + i] = _ONE
    return Tournament(n, _bit_rows(n, cells))


def _with_top(t: Tournament) -> Tournament:
    """t plus a vertex n+1 that beats every vertex of t; no row of t changes."""
    return Tournament(t.n + 1, t.rows + ((1 << t.n) - 1,))


def transitive(n: int) -> Tournament:
    """The transitive tournament: i -> j whenever i < j."""
    return _oriented(n, lambda i, j: True)


def almost_transitive(n: int) -> Tournament:
    """Transitive except that vertex n beats vertex 1."""
    if isinstance(n, int) and n < 3:  # any other n meets the vertex-count rule in _oriented
        raise NTooSmallError(f"almost-transitive needs n >= 3, got {_echo(n)}")
    return _oriented(n, lambda i, j: i != 1 or j != n)


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniform random tournament from a deterministic seeded generator.

    Uses ``random.Random(seed)`` (Mersenne Twister) and takes pairs {i, j}
    with i < j in lexicographic order, one 32-bit output word per pair: the
    word's top bit, set, keeps the orientation i -> j, and clear flips it.
    That is the bit ``getrandbits(1)`` would return for the pair.  Row i
    draws its n - i words with one ``getrandbits(32 * (n - i))`` call, whose
    result holds them least significant first; this word order is a CPython
    implementation detail, checked on CPython 3.10 to 3.13.  Same (n, seed)
    always reproduces the same tournament.
    """
    import random  # loaded here, not at import: no other call needs it

    cells, row = _blank(n)
    rng = random.Random(seed)
    for i in range(1, n):
        w = n - i
        # the top byte of each 32-bit word, whose bit 7 is the word's top bit
        top_bytes = rng.getrandbits(32 * w).to_bytes(4 * w, "little")[3::4]
        cells[row[i] + i + 1 : row[i] + n + 1] = top_bytes.translate(_WINS)  # i -> j for j = i+1..n
        cells[row[i + 1] + i :: n] = top_bytes.translate(_LOSES)  # j -> i for j = i+1..n, down column i
    return Tournament(n, _bit_rows(n, cells))


def paley(p: int) -> Tournament:
    """Paley tournament on a prime p with p = 3 (mod 4): i -> j iff j - i is a nonzero square mod p."""
    if isinstance(p, int):  # any other p meets the vertex-count rule below
        if not _is_prime(p):
            raise NotPrimeError(f"{_echo(p)} is not prime")
        if p % 4 != 3:
            raise WrongResidueClassError(f"{_echo(p)} is not 3 mod 4")
    _check_vertex_count(p)  # after the checks above, so that paley(0) and paley(True) are not prime
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
    """Encode a tournament as JSON or as a 0/1 adjacency matrix, one row at a time."""
    if fmt == "json":
        names = [str(j) for j in range(1, t.n + 1)]
        beats = ",".join(  # row i: "[i,j],[i,k],..." for each j, k, ... that i beats, in order
            f"[{i}," + f"],[{i},".join(compress(names, map("1".__eq__, bin(row)[:1:-1]))) + "]"
            for i, row in enumerate(t.rows, start=1)
            if row
        )
        return f'{{"n":{t.n},"beats":[{beats}]}}'.encode("ascii")
    if fmt == "matrix":
        return "\n".join(" ".join(f"{row:0{t.n}b}"[::-1]) for row in t.rows).encode("ascii")
    raise ValueError(f"unknown format {_echo(fmt, repr)}")


def parse_tournament(text: bytes, fmt: str = "json") -> Tournament:
    """Decode a tournament; inverse of :func:`serialize_tournament` on valid input."""
    if fmt == "json":
        return _parse_json(text)
    if fmt == "matrix":
        return _parse_matrix(text)
    raise ValueError(f"unknown format {_echo(fmt, repr)}")


def _json_object(data: bytes, keys: set[str], shape: str) -> dict:
    """Decode data as a JSON object that has every key in keys; :class:`ParseError` otherwise.

    The error is ``bad JSON: ...`` for text ``json.loads`` refuses or nests
    too deep, and ``shape`` for any other value.  The cyclic collector is
    paused around ``json.loads`` and left as it was found.
    """
    import gc  # loaded here, not at import, so that a CLI start loads only what argparse and json load

    # the n(n-1)/2 small lists json.loads makes of a tournament would set the cyclic collector off again and
    # again, and none of them can form a cycle: at n = 2000 the whole parse took 2.4-2.7 s with it on, 1.6 s without
    collecting = gc.isenabled()
    gc.disable()
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    if not isinstance(obj, dict) or not obj.keys() >= keys:
        raise ParseError(shape)
    return obj


def _text_lines(data: bytes, what: str) -> list[str]:
    """Decode data as UTF-8 and split it with :meth:`str.splitlines`, dropping lines that hold only whitespace.

    The adjacency matrix and CSV dice read their text here; text that is
    not UTF-8 is ``ParseError("<what> is not valid text: ...")``.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid text: {exc}") from exc
    return [line for line in text.splitlines() if line.strip()]


def _parse_json(text: bytes) -> Tournament:
    obj = _json_object(text, {"n", "beats"}, 'expected an object with "n" and "beats"')
    if type(obj["beats"]) is not list:
        raise ParseError('"beats" must be a list of pairs')
    return from_edges(obj["n"], obj["beats"])


def _parse_matrix(text: bytes) -> Tournament:
    lines = _text_lines(text, "matrix")
    n = len(lines)
    if n == 0:
        raise ParseError("empty matrix")
    rows = []
    for r, line in enumerate(lines, start=1):
        entries = line.split()
        if len(entries) != n:
            raise ParseError(f"row {r} has {len(entries)} entries, expected {n}")
        row = "".join(entries)
        if len(row) != n or row.strip("01"):  # an entry longer than one character, or not 0/1
            c, cell = next((c, cell) for c, cell in enumerate(entries, start=1) if cell not in ("0", "1"))
            raise ParseError(f"entry ({r},{c}) is {_echo(cell, repr)}, expected 0 or 1")
        rows.append(row)
    cells = "".join(rows).encode("ascii")
    # a matrix that draws no tournament: from_edges names the fault of its edges, in row-major order
    return _checked(n, cells) or from_edges(n, [(k // n + 1, k % n + 1) for k, c in enumerate(cells) if c == _ONE])
