"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
as they complete.  The constructed-set corpus (n = 1..25, transitive and
almost-transitive plus 20 seeded random tournaments per n) is built once
and shared; its win tables come from the brute-force count in
``tests/exhaustive.py``, and ``face_wins`` must equal them on every pair.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from tourneydice import (
    almost_transitive,
    build_dice,
    compact_labels,
    dice_set,
    dominance,
    even_rounds,
    face_wins,
    from_edges,
    is_balanced,
    matchup,
    odd_rounds,
    random_tournament,
    transitive,
    verify_partition,
)

from exhaustive import exhaustive_wins
from left_counts import left_count

FIG1 = from_edges(3, [(1, 2), (2, 3), (3, 1)])
EQ1_FACES = ([1, 5, 9], [3, 4, 8], [2, 6, 7])
FIG2_ROUNDS = (
    ((2, 7), (3, 6), (4, 5)),
    ((1, 3), (4, 7), (5, 6)),
    ((2, 4), (1, 5), (6, 7)),
    ((3, 5), (2, 6), (1, 7)),
    ((4, 6), (3, 7), (1, 2)),
    ((5, 7), (1, 4), (2, 3)),
    ((1, 6), (2, 5), (3, 4)),
)
FIG3_ROUNDS = (
    ((2, 5), (1, 6), (3, 4)),
    ((1, 3), (2, 6), (4, 5)),
    ((2, 4), (3, 6), (1, 5)),
    ((3, 5), (4, 6), (1, 2)),
    ((1, 4), (5, 6), (2, 3)),
)
FIG8_FACES = (
    (1, 10, 19, 27, 35, 40, 45),
    (3, 8, 17, 26, 34, 42, 47),
    (5, 9, 15, 24, 33, 41, 49),
    (7, 12, 16, 22, 31, 39, 48),
    (6, 14, 18, 23, 29, 38, 46),
    (4, 13, 21, 25, 30, 36, 44),
    (2, 11, 20, 28, 32, 37, 43),
)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")


@pytest.fixture(scope="module")
def corpus():
    """All constructed sets for the sweep criteria, with build time recorded."""
    cases = []
    start = time.perf_counter()
    for n in range(1, 26):
        tournaments = [transitive(n)]
        if n >= 3:
            tournaments.append(almost_transitive(n))
        tournaments.extend(random_tournament(n, seed) for seed in range(20))
        cases.extend((t, build_dice(t)) for t in tournaments)
    return cases, time.perf_counter() - start


@pytest.fixture(scope="module")
def win_tables(corpus):
    """Brute-force face-win counts for every pair of every constructed set."""
    cases, _ = corpus
    tables = []
    for _, d in cases:
        wins = {}
        for i, j in combinations(range(1, d.n + 1), 2):
            wins[(i, j)] = (
                exhaustive_wins(d.faces[i - 1], d.faces[j - 1]),
                exhaustive_wins(d.faces[j - 1], d.faces[i - 1]),
            )
        tables.append(wins)
    return tables


def test_face_wins_equals_the_exhaustive_count(corpus, win_tables):
    # every ordered pair of every constructed set at n <= 25: the bisection count against the reference
    cases, _ = corpus
    failures = [
        f"n={t.n} pair ({i},{j}): {got} != {(wi, wj)}"
        for (t, d), wins in zip(cases, win_tables)
        for (i, j), (wi, wj) in wins.items()
        for got in [(face_wins(d.faces[i - 1], d.faces[j - 1]), face_wins(d.faces[j - 1], d.faces[i - 1]))]
        if got != (wi, wj)
    ]
    assert not failures, failures[:5]


def test_criterion_1_eq1_fixture():
    d = dice_set(EQ1_FACES)
    matchup(d.faces[0], d.faces[1])  # warm up before timing
    start = time.perf_counter()
    probs = (
        matchup(d.faces[0], d.faces[1]).probability,
        matchup(d.faces[1], d.faces[2]).probability,
        matchup(d.faces[2], d.faces[0]).probability,
    )
    extracted = dominance(d)
    elapsed = time.perf_counter() - start
    ok = all(p == Fraction(5, 9) for p in probs) and extracted == FIG1 and elapsed < 1e-3
    _report(1, ok, f"three-cycle fixture, each winner at 5/9, in {elapsed * 1e6:.0f}us")
    assert probs == (Fraction(5, 9),) * 3
    assert extracted == FIG1
    assert elapsed < 1e-3


def test_criterion_2_golden_factorizations():
    ok = odd_rounds(7).rounds == FIG2_ROUNDS and even_rounds(6).rounds == FIG3_ROUNDS
    _report(2, ok, "odd n=7 and even n=6 round tables match row for row")
    assert odd_rounds(7).rounds == FIG2_ROUNDS
    assert even_rounds(6).rounds == FIG3_ROUNDS


def test_criterion_3_golden_dice():
    built = build_dice(almost_transitive(7))
    ok = built.faces == FIG8_FACES
    _report(3, ok, "almost-transitive n=7 build reproduces the published table exactly")
    assert built.faces == FIG8_FACES


def test_criterion_4_construction_sweep(corpus):
    cases, build_elapsed = corpus
    start = time.perf_counter()
    failures = []
    for t, d in cases:
        expected_sides = t.n if t.n % 2 else (t.n - 1 if t.n % 4 == 2 else t.n + 1)
        if d.sides != expected_sides:
            failures.append(f"n={t.n}: sides {d.sides} != {expected_sides}")
        elif dominance(d) != t:
            failures.append(f"n={t.n}: dominance mismatch")
    elapsed = build_elapsed + time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(4, ok, f"dominance round-trip on {len(cases)} sets in {elapsed:.2f}s")
    assert not failures, failures[:5]
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"


def test_criterion_5_exact_balance(corpus, win_tables):
    cases, _ = corpus
    failures = []
    for (t, d), wins in zip(cases, win_tables):
        k = d.sides
        target = Fraction(1, 2) + Fraction(1, 2 * k * k)
        for (i, j), (wi, wj) in wins.items():
            if Fraction(max(wi, wj), k * k) != target:
                failures.append(f"n={t.n} pair ({i},{j}): {max(wi, wj)}/{k * k}")
    ok = not failures
    _report(5, ok, "every winner at exactly 1/2 + 1/(2k^2) across the corpus")
    assert not failures, failures[:5]


def test_criterion_6_guaranteed_wins(corpus, win_tables):
    cases, _ = corpus
    failures = []
    for (t, d), wins in zip(cases, win_tables):
        k = d.sides
        for (i, j), (wi, wj) in wins.items():
            winner_wins, loser_wins = (wi, wj) if t.beats(i, j) else (wj, wi)
            if 2 * loser_wins != k * k - 1 or 2 * winner_wins != k * k + 1:
                failures.append(
                    f"n={t.n} pair ({i},{j}): split {winner_wins}/{loser_wins} of {k * k}"
                )
    ok = not failures
    _report(6, ok, "loser always takes (k^2-1)/2 face wins, by the exhaustive count")
    assert not failures, failures[:5]


def test_criterion_7_partition_sweep():
    failures = []
    for n in range(1, 102, 2):
        if not verify_partition(odd_rounds(n)).ok:
            failures.append(f"odd n={n}")
    for n in range(2, 103, 4):
        report = verify_partition(even_rounds(n))
        if not report.ok or not dict(report.checks)["twice_per_column"]:
            failures.append(f"even n={n}")
    ok = not failures
    _report(7, ok, "verify_partition green for odd n <= 101 and n = 2 (mod 4) <= 102")
    assert not failures, failures


def test_criterion_8_left_count_lemma():
    failures = []
    for n in range(3, 52, 2):
        f = odd_rounds(n)
        expected = (n - 3) // 2
        for w, x in combinations(range(1, n + 1), 2):
            counts = left_count(f, w, x)
            if counts.less != expected or counts.greater != expected:
                failures.append(f"odd n={n} pair ({w},{x}): {counts}")
    even_constants = {}
    for n in range(2, 51, 4):
        f = even_rounds(n)
        values = set()
        for w, x in combinations(range(1, n + 1), 2):
            counts = left_count(f, w, x)
            if counts.less != counts.greater:
                failures.append(f"even n={n} pair ({w},{x}): asymmetric {counts}")
            values.add(counts.less)
        if len(values) != 1:
            failures.append(f"even n={n}: non-constant counts {sorted(values)}")
        else:
            even_constants[n] = values.pop()
    ok = not failures
    observed = all(v == (n - 2) // 2 for n, v in even_constants.items())
    _report(
        8,
        ok,
        f"odd counts equal (n-3)/2; even counts symmetric, constant per n"
        f" (observed value {'(n-2)/2' if observed else even_constants})",
    )
    assert not failures, failures[:5]


def test_criterion_9_relabeling_invariance(corpus, win_tables):
    cases, _ = corpus
    picked = []
    taken_per_n: dict[int, int] = {}
    for idx, (t, _) in enumerate(cases):
        if taken_per_n.get(t.n, 0) < 4:
            taken_per_n[t.n] = taken_per_n.get(t.n, 0) + 1
            picked.append(idx)
    assert len(picked) == 100
    failures = []
    for idx in picked:
        t, d = cases[idx]
        c = compact_labels(d)
        for (i, j), (wi, wj) in win_tables[idx].items():
            after = (
                face_wins(c.faces[i - 1], c.faces[j - 1]),
                face_wins(c.faces[j - 1], c.faces[i - 1]),
            )
            if after != (wi, wj):
                failures.append(f"n={t.n} pair ({i},{j}): {after} != {(wi, wj)}")
    ok = not failures
    _report(9, ok, "compact_labels preserved every matchup on 100 constructed sets")
    assert not failures, failures[:5]


def _every_tournament(n: int):
    """Every labelled tournament on 1..n: one per orientation mask of the pairs in lexicographic order."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [(i, j) if mask >> b & 1 else (j, i) for b, (i, j) in enumerate(pairs)])


def test_criterion_10_every_tournament_up_to_6():
    # the theorem covers every tournament, and the labels depend on vertex numbers, so every labelled one is
    # built, not one per isomorphism class; dominance and is_balanced read one cached oracle sweep of the set
    failures = []
    counts = []
    start = time.perf_counter()
    for n in range(1, 7):
        count = 0
        for t in _every_tournament(n):
            d = build_dice(t)
            if dominance(d) != t or not is_balanced(d):
                failures.append(f"n={n}: {t!r}")
            count += 1
        counts.append(count)
    elapsed = time.perf_counter() - start
    assert counts == [1, 2, 8, 64, 1024, 32768]  # 2^(n(n-1)/2) each, 33,867 in all
    ok = not failures
    _report(10, ok, f"all {sum(counts)} labelled tournaments on n <= 6 realized and balanced ({elapsed:.1f} s)")
    assert not failures, failures[:5]
