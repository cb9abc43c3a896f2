"""Tests of the benchmark's own checker and tracer.

Run with ``PYTHONPATH=src python3 -m pytest -q bench``.
"""

from itertools import combinations, permutations

import pytest

import tourneydice as td

import checker as ck
from tracer import Tracer


def corpus(max_n=25):
    for n in range(1, max_n + 1):
        yield "random", n, td.random_tournament(n, seed=n)
        yield "transitive", n, td.transitive(n)
        if n >= 3:
            yield "almost_transitive", n, td.almost_transitive(n)
        if n in (3, 7, 11, 19, 23):
            yield "paley", n, td.paley(n)


@pytest.mark.parametrize("kind,n,t", list(corpus()), ids=lambda v: str(v)[:20])
def test_counter_matches_face_wins_on_every_pair(kind, n, t):
    faces = td.build_dice(t).faces
    table = ck.win_table(faces)
    for a, b in permutations(range(n), 2):
        assert table[a][b] == td.face_wins(faces[a], faces[b])
    assert ck.realizes(table, ck.side_count(n), ck.expected_tournament(kind, n, n))


@pytest.mark.parametrize("kind,n,t", list(corpus(12)), ids=lambda v: str(v)[:20])
def test_expected_tournament_and_formats(kind, n, t):
    rows = ck.expected_tournament(kind, n, n)
    assert set(ck.edges(rows)) == set(t.edges)
    assert ck.json_matches(td.serialize_tournament(t, "json"), rows)
    assert ck.matrix_matches(td.serialize_tournament(t, "matrix"), rows)
    if n >= 2:
        flipped = td.from_edges(n, [(b, a) if (a, b) == min(t.edges) else (a, b) for a, b in t.edges])
        assert not ck.json_matches(td.serialize_tournament(flipped, "json"), rows)
        assert not ck.matrix_matches(td.serialize_tournament(flipped, "matrix"), rows)


@pytest.mark.parametrize("n", [9, 12, 13, 14])
def test_tamper_prediction_equals_failing_pairs(n):
    t = td.random_tournament(n, seed=3)
    rows = ck.expected_tournament("random", n, 3)
    d = td.build_dice(t)
    for i, j in combinations(range(1, n + 1), 2):
        faces = list(d.faces)
        faces[i - 1], faces[j - 1] = faces[j - 1], faces[i - 1]
        report = td.verify_realization(td.DiceSet(tuple(faces)), t)
        failing = {(e.i, e.j) for e in report.matchups if not e.ok}
        assert failing == ck.tamper_prediction(rows, i, j)
        assert (i, j) in failing
        swapped = ck.swapped(rows, i, j)
        assert td.dominance(td.DiceSet(tuple(faces))) == td.from_edges(n, ck.edges(swapped))


def test_rank_map_and_labels():
    d = td.build_dice(td.random_tournament(8, seed=1))
    compact = td.compact_labels(d)
    assert ck.is_rank_map(d.faces, compact.faces)
    assert ck.distinct_labels(compact.faces, 8, ck.side_count(8))
    broken = [list(die) for die in compact.faces]
    broken[0][0], broken[1][0] = broken[1][0], broken[0][0]
    assert not ck.is_rank_map(d.faces, broken)
    assert not ck.distinct_labels([[1, 2], [2, 3]], 2, 2)


@pytest.mark.parametrize("n", [3, 6, 7, 10, 13, 14])
def test_partition_check(n):
    f = td.odd_rounds(n) if n % 2 else td.even_rounds(n)
    assert ck.partition_ok(n, f.rounds)
    rounds = [list(row) for row in f.rounds]
    rounds[0][0] = rounds[1][0]
    assert not ck.partition_ok(n, rounds)


def test_side_count():
    assert [ck.side_count(n) for n in (1, 2, 3, 4, 5, 6, 8)] == [1, 1, 3, 5, 5, 5, 9]
    for n in range(1, 14):
        assert td.build_dice(td.transitive(n)).sides == ck.side_count(n)


def traced(n):
    tracer = Tracer()
    tracer.set_id = 0
    tracer.install()
    try:
        t = td.random_tournament(n, seed=2)
        d = td.build_dice(t)
        td.dominance(d)
        td.matchup(d.faces[0], d.faces[1])
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_spans_nest_and_counts_repeat():
    originals = (td.build_dice, td.dice.odd_rounds, td.dice.face_wins, td.dice.matchup)
    first, second = traced(8), traced(8)
    assert (td.build_dice, td.dice.odd_rounds, td.dice.face_wins, td.dice.matchup) == originals
    names = [s[1] for s in first.spans]
    by_index = {i: s for i, s in enumerate(first.spans)}
    build_0mod4 = names.index("build_0mod4")
    assert by_index[names.index("odd_rounds")][4] == names.index("build_odd")
    assert by_index[names.index("build_odd")][4] == build_0mod4
    assert by_index[build_0mod4][4] == names.index("build_dice")
    a, b = first.metrics(), second.metrics()
    counts = ("dice.oracle_calls", "dice.face_comparisons", "dice.pairs_checked",
              "factorization.rounds_calls", "dice.validate_calls")
    assert [a[c] for c in counts] == [b[c] for c in counts]
    assert a["dice.pairs_checked"] == 28
    assert a["dice.oracle_calls"] == 2 * 28 + 2
    assert a["dice.checks_s"] >= a["dice.dominance_s"] + a["dice.matchup_s"] - 1e-9
