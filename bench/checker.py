"""Independent answer checker for the benchmark.

Nothing here imports tourneydice: every expected answer is derived from
the documented formats and properties alone, so a defect in the library
cannot hide itself by agreeing with its own checker.  In particular the
face-win counter is a sorted merge, not the library's ``face_wins`` oracle
nor its bisect counter.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

Rows = list[bytearray]  # rows[i][j] == 1 iff i beats j; 1-based, row 0 unused


def expected_tournament(kind: str, n: int, seed: int) -> Rows:
    """Adjacency rows of a generated tournament, from its documented definition."""
    rows = [bytearray(n + 1) for _ in range(n + 1)]
    if kind == "random":
        rng = random.Random(seed)
    elif kind == "paley":
        squares = {(x * x) % n for x in range(1, n)}
    elif kind not in ("transitive", "almost_transitive"):
        raise ValueError(f"unknown kind {kind!r}")
    for i, j in combinations(range(1, n + 1), 2):
        if kind == "random":
            forward = rng.getrandbits(1)
        elif kind == "paley":
            forward = (j - i) % n in squares
        else:
            forward = kind == "transitive" or (i, j) != (1, n)
        if forward:
            rows[i][j] = 1
        else:
            rows[j][i] = 1
    return rows


def edges(rows: Rows):
    """Edges (winner, loser) of a tournament given by adjacency rows."""
    n = len(rows) - 1
    return ((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if rows[i][j])


def side_count(n: int) -> int:
    """Sides of a constructed set by n mod 4: n if odd, n-1 if 2, n+1 if 0."""
    if n % 2 == 1:
        return n
    return n - 1 if n % 4 == 2 else n + 1


def wins(sorted_a: list[int], sorted_b: list[int]) -> int:
    """Face pairs (x, y), x from a and y from b, with x > y; both inputs sorted ascending."""
    total = p = 0
    m = len(sorted_b)
    for x in sorted_a:
        while p < m and sorted_b[p] < x:
            p += 1
        total += p
    return total


def win_table(faces) -> list[list[int]]:
    """``W[a][b]`` = face wins of die a+1 over die b+1, for every ordered pair."""
    srt = [sorted(die) for die in faces]
    n = len(srt)
    square = len(srt[0]) ** 2 if srt else 0
    table = [[0] * n for _ in range(n)]
    for a, b in combinations(range(n), 2):
        w = wins(srt[a], srt[b])
        table[a][b] = w
        table[b][a] = square - w
    return table


def realizes(table: list[list[int]], k: int, rows: Rows) -> bool:
    """Every edge's winner takes exactly (k^2+1)/2 face wins: realized and balanced."""
    return all(2 * table[w - 1][l - 1] == k * k + 1 for w, l in edges(rows))


def swap(i: int, j: int):
    """The permutation of die numbers that exchanges i and j."""
    return lambda v: j if v == i else i if v == j else v


def tamper_prediction(rows: Rows, i: int, j: int) -> set[tuple[int, int]]:
    """Pairs (a, b), a < b, that fail once dice rows i and j are swapped.

    Die a of the tampered set is die pi(a) of the genuine one, where pi
    swaps i and j, so pair (a, b) fails exactly when the tournament orients
    {pi(a), pi(b)} differently from {a, b}.
    """
    pi = swap(i, j)
    return {
        (a, b)
        for a, b in combinations(range(1, len(rows)), 2)
        if rows[pi(a)][pi(b)] != rows[a][b]
    }


def swapped(rows: Rows, i: int, j: int) -> Rows:
    """The tournament the tampered dice realize: a beats b iff pi(a) beats pi(b)."""
    pi = swap(i, j)
    n = len(rows) - 1
    return [rows[0]] + [bytearray([0] + [rows[pi(a)][pi(b)] for b in range(1, n + 1)])
                        for a in range(1, n + 1)]


def matrix_rows(rows: Rows) -> list[str]:
    """The 0/1 adjacency rows of a tournament, as the matrix format writes them."""
    return [" ".join("01"[x] for x in row[1:]) for row in rows[1:]]


def json_matches(data: bytes, rows: Rows) -> bool:
    """The JSON tournament format holds exactly the edges of ``rows``."""
    n = len(rows) - 1
    try:
        obj = json.loads(data)
        beats = obj["beats"]
        if obj["n"] != n or len(beats) != n * (n - 1) // 2:
            return False
        seen = [bytearray(n + 1) for _ in range(n + 1)]
        for a, b in beats:
            if not (1 <= a <= n and 1 <= b <= n) or not rows[a][b] or seen[a][b]:
                return False
            seen[a][b] = 1
    except (ValueError, KeyError, TypeError):
        return False
    return True


def matrix_matches(data: bytes, rows: Rows) -> bool:
    """The matrix tournament format holds exactly the adjacency rows ``rows``."""
    lines = [line for line in data.decode("ascii", "replace").splitlines() if line.strip()]
    return len(lines) == len(rows) - 1 and all(
        line.split() == ["01"[x] for x in row[1:]] for line, row in zip(lines, rows[1:]))


def decode_dice_json(data: bytes) -> list[list[int]]:
    return json.loads(data)["dice"]


def distinct_labels(faces, n: int, k: int) -> bool:
    """n dice of k sides each, every label a distinct positive integer."""
    labels = [x for die in faces for x in die]
    return (
        len(faces) == n
        and all(len(die) == k for die in faces)
        and len(set(labels)) == n * k
        and all(type(x) is int and x > 0 for x in labels)
    )


def is_rank_map(original, compact) -> bool:
    """``compact`` relabels ``original`` by rank onto 1..n*k, keeping every comparison."""
    flat = [x for die in original for x in die]
    new = [x for die in compact for x in die]
    if [len(d) for d in original] != [len(d) for d in compact]:
        return False
    order = sorted(range(len(flat)), key=flat.__getitem__)
    return [new[p] for p in order] == list(range(1, len(flat) + 1))


def partition_ok(n: int, rounds) -> bool:
    """Rounds are matchings that together hold every edge of K_n exactly once."""
    seen = set()
    for row in rounds:
        members = [v for pair in row for v in pair]
        if len(members) != len(set(members)):
            return False
        for a, b in row:
            key = (min(a, b), max(a, b))
            if key in seen or not 1 <= key[0] < key[1] <= n:
                return False
            seen.add(key)
    return len(seen) == n * (n - 1) // 2
