"""Tests for the round/column edge partitions of K_n."""

import hashlib
import sys
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tourneydice import (
    OneFactorization,
    even_rounds,
    odd_rounds,
    verify_partition,
)
from tourneydice import factorization
from tourneydice.errors import ParityError

from left_counts import left_count

# Figure-style golden tables, row for row and column for column.
ROUNDS_7 = (
    ((2, 7), (3, 6), (4, 5)),
    ((1, 3), (4, 7), (5, 6)),
    ((2, 4), (1, 5), (6, 7)),
    ((3, 5), (2, 6), (1, 7)),
    ((4, 6), (3, 7), (1, 2)),
    ((5, 7), (1, 4), (2, 3)),
    ((1, 6), (2, 5), (3, 4)),
)
ROUNDS_6 = (
    ((2, 5), (1, 6), (3, 4)),
    ((1, 3), (2, 6), (4, 5)),
    ((2, 4), (3, 6), (1, 5)),
    ((3, 5), (4, 6), (1, 2)),
    ((1, 4), (5, 6), (2, 3)),
)


def check_partition_brute_force(f):
    """Independent structural check: partition of E(K_n), matchings, presence."""
    flat = [pair for row in f.rounds for pair in row]
    assert Counter(flat) == Counter(combinations(range(1, f.n + 1), 2))
    for row in f.rounds:
        members = [v for pair in row for v in pair]
        assert len(members) == len(set(members))
    if f.parity == "odd":
        assert len(f.rounds) == f.n
        for i, row in enumerate(f.rounds, start=1):
            present = {v for pair in row for v in pair}
            assert present == set(range(1, f.n + 1)) - {i}
    else:
        assert len(f.rounds) == f.n - 1
        for row in f.rounds:
            present = {v for pair in row for v in pair}
            assert present == set(range(1, f.n + 1))


class TestOddRounds:
    def test_golden_n7(self):
        assert odd_rounds(7).rounds == ROUNDS_7

    def test_n3_forced(self):
        assert odd_rounds(3).rounds == (((2, 3),), ((1, 3),), ((1, 2),))

    def test_n9_structurally_valid(self):
        check_partition_brute_force(odd_rounds(9))

    @pytest.mark.parametrize("n", [2, 4, 10, 3.0])  # 3.0 at the call, not as a TypeError when rounds are read
    def test_even_n_rejected(self, n):
        with pytest.raises(ParityError):
            odd_rounds(n)

    def test_n1_is_one_empty_round(self):
        # K_1 is an ordinary odd case: one round, no pair, and vertex 1 sits it out
        f = odd_rounds(1)
        assert f.rounds == ((),)
        assert verify_partition(f).ok

    @pytest.mark.parametrize("n", [0, -1, True])
    def test_nonpositive_or_bool_n_rejected(self, n):
        with pytest.raises(ParityError, match="odd construction needs a positive odd n"):
            odd_rounds(n)


class TestEvenRounds:
    def test_golden_n6(self):
        assert even_rounds(6).rounds == ROUNDS_6

    def test_n2_single_middle_pair(self):
        assert even_rounds(2).rounds == (((1, 2),),)

    def test_n10_structurally_valid(self):
        check_partition_brute_force(even_rounds(10))

    def test_middle_column_holds_vertex_n(self):
        assert even_rounds(6).rounds[4][1] == (5, 6)
        for n in (2, 6, 10, 14):
            f = even_rounds(n)
            middle = (n + 2) // 4
            for i, row in enumerate(f.rounds, start=1):
                assert row[middle - 1] == (i, n)

    @pytest.mark.parametrize("n", [4, 8, 12, 6.0])  # 6.0 at the call, not as a TypeError when rounds are read
    def test_multiple_of_four_rejected(self, n):
        with pytest.raises(ParityError):
            even_rounds(n)

    def test_odd_n_rejected(self):
        with pytest.raises(ParityError):
            even_rounds(7)


class TestVerifyPartition:
    def test_odd_7_passes(self):
        report = verify_partition(odd_rounds(7))
        assert report.ok and not report.failures

    def test_even_6_passes_including_column_counts(self):
        report = verify_partition(even_rounds(6))
        assert report.ok
        assert dict(report.checks)["twice_per_column"]

    def test_corrupted_pair_fails_partition(self):
        f = odd_rounds(7)
        rounds = [list(row) for row in f.rounds]
        rounds[0][0] = (3, 7)  # was (2, 7): edge {3,7} now doubled, {2,7} missing
        bad = OneFactorization(7, tuple(tuple(r) for r in rounds))
        report = verify_partition(bad)
        assert not report.ok
        assert not dict(report.checks)["edges_partitioned"]

    def test_corrupted_round_fails_matching(self):
        f = odd_rounds(7)
        rounds = [list(row) for row in f.rounds]
        rounds[0][0] = (3, 6)  # duplicates round 1's second pair
        bad = OneFactorization(7, tuple(tuple(r) for r in rounds))
        report = verify_partition(bad)
        assert not dict(report.checks)["rounds_are_matchings"]

    @pytest.mark.parametrize("n", [6, 7])
    def test_no_rounds_fails_partition(self, n):
        report = verify_partition(OneFactorization(n, ()))
        assert not report.ok
        assert report.parity == ("odd" if n % 2 else "even")


class TestValueTypes:
    """What OneFactorization and PartitionReport keep: reprs, equality, hashing, read-only fields."""

    def test_reprs_pinned(self):
        cases = [
            (odd_rounds(3), "OneFactorization(n=3, rounds=(((2, 3),), ((1, 3),), ((1, 2),)))"),
            (
                verify_partition(odd_rounds(3)),
                "PartitionReport(n=3, parity='odd', checks=(('edges_partitioned', True), "
                "('rounds_are_matchings', True), ('one_absence_per_round', True)), failures=())",
            ),
            (
                verify_partition(OneFactorization(3, ())),
                "PartitionReport(n=3, parity='odd', checks=(('edges_partitioned', False), "
                "('rounds_are_matchings', True), ('one_absence_per_round', True)), failures=('edge (1, 2) "
                "appears 0 times', 'edge (1, 3) appears 0 times', 'edge (2, 3) appears 0 times'))",
            ),
        ]
        for value, text in cases:
            assert repr(value) == text

    @pytest.mark.parametrize(
        "make",
        [
            lambda: odd_rounds(7),
            lambda: OneFactorization(n=6, rounds=ROUNDS_6),
            lambda: verify_partition(even_rounds(6)),
        ],
        ids=["OneFactorization", "OneFactorization_by_keyword", "PartitionReport"],
    )
    def test_equal_values_compare_and_hash_alike(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)

    def test_values_of_different_types_differ(self):
        f = odd_rounds(3)
        assert f != (f.n, f.rounds) and f.__eq__((f.n, f.rounds)) is NotImplemented
        assert f != odd_rounds(5) and f != OneFactorization(3, f.rounds[:1])

    def test_fields_are_read_only(self):
        f = odd_rounds(7)
        for field in ("rounds", "n"):
            with pytest.raises(AttributeError):
                setattr(f, field, ())
        assert f.rounds == ROUNDS_7


class TestLeftCount:
    def test_paper_example_3_vs_6(self):
        # 3 is left of 6 in rounds 2 and 4, right of it in rounds 5 and 7
        assert left_count(odd_rounds(7), 3, 6) == (2, 2, 1)

    def test_even_6_example_3_vs_6(self):
        assert left_count(even_rounds(6), 3, 6) == (2, 2, 1)

    def test_n3_single_shared_round(self):
        assert left_count(odd_rounds(3), 1, 2) == (0, 0, 1)

    def test_repr_pinned(self):
        assert repr(left_count(odd_rounds(7), 3, 6)) == "LeftCount(less=2, greater=2, ties=1)"

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            left_count(odd_rounds(7), 4, 4)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
    def test_odd_exact_lemma_count(self, n):
        f = odd_rounds(n)
        for w, x in combinations(range(1, n + 1), 2):
            assert left_count(f, w, x) == ((n - 3) // 2, (n - 3) // 2, 1)

    @pytest.mark.parametrize("n", [2, 6, 10, 14])
    def test_even_symmetric_with_constant(self, n):
        # the common count is (n-2)/2 by enumeration, not the printed n/2-2
        f = even_rounds(n)
        for w, x in combinations(range(1, n + 1), 2):
            assert left_count(f, w, x) == ((n - 2) // 2, (n - 2) // 2, 1)


def test_exact_rounds_pinned():
    rounds = [odd_rounds(n).rounds for n in range(3, 102, 2)]
    rounds += [even_rounds(n).rounds for n in range(2, 103, 4)]
    digest = hashlib.sha256(repr(rounds).encode()).hexdigest()
    assert digest == "2da5f4744afecfb8377b664a0d6917c4d9d66815da83d3d48ddc17a5e4dee631"


def test_odd_rounds_follow_the_circle_formula():
    # round i pairs {i+j, i-j} mod m for j = 1..(m-1)/2, each pair smaller vertex first
    for m in range(3, 402, 2):
        expected = []
        for i in range(1, m + 1):
            ends = [((i + j - 1) % m + 1, (i - j - 1) % m + 1) for j in range(1, (m + 1) // 2)]
            expected.append(tuple([(a, b) if a < b else (b, a) for a, b in ends]))
        assert odd_rounds(m).rounds == tuple(expected), m


def test_partition_failure_texts_pinned():
    def bad(f, r, c, pair):
        rows = [list(row) for row in f.rounds]
        rows[r][c] = pair
        return OneFactorization(f.n, tuple(tuple(row) for row in rows))

    cases = [
        bad(odd_rounds(7), 0, 0, (3, 6)),
        bad(odd_rounds(7), 0, 0, (3, 7)),
        bad(even_rounds(6), 0, 0, (3, 4)),
        bad(even_rounds(10), 2, 1, (1, 2)),
        OneFactorization(6, ()),
        OneFactorization(7, ()),
        OneFactorization(7, odd_rounds(7).rounds[:-1]),
        OneFactorization(6, even_rounds(6).rounds + (((1, 2), (3, 4), (5, 6)),)),
    ]
    reports = [(r.n, r.parity, r.checks, r.failures) for r in map(verify_partition, cases)]
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == "51432b2d150a6577b2c1b829c7f57c667130957e8cdcf359185b18102e9c3b4f"


# an int str() refuses to print: one over sys.get_int_max_str_digits() digits (4300 by default, 0 for no limit)
TOO_LONG = 10**5000
printable_when_unlimited = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001, reason="str() prints a 5001-digit int"
)
ROUNDS_6 = even_rounds(6).rounds
UNORDERED_6 = frozenset(ROUNDS_6)
SET_ROWS_6 = tuple([frozenset(row) for row in ROUNDS_6])
# one round holding every edge of K_5: read once for the edge count, it would leave the per-round checks nothing
ITER_5 = iter([tuple(combinations(range(1, 6), 2))])


@pytest.mark.parametrize(
    "n, rounds, failure",
    [
        (4, ((1, 2),), "round 1 column 1 holds 1, not a pair"),
        (4, (([1, 2],),), "round 1 column 1 holds [1, 2], not a pair"),
        (4, 5, "rounds are 5, not a sequence of rounds"),
        (6, UNORDERED_6, f"rounds are {repr(UNORDERED_6)[:77]}..., not a sequence of rounds"),  # a 141-character repr
        (6, SET_ROWS_6, f"round 1 is {SET_ROWS_6[0]!r}, not a sequence of pairs"),
        ("6", ROUNDS_6, "n must be an integer, got '6'"),
        (5, ITER_5, f"rounds are {ITER_5!r}, not a sequence of rounds"),
        (0, (), "n must be positive, got 0"),
        (-3, (), "n must be positive, got -3"),
        (True, (), "n must be an integer, got True"),
        (2, (((1, 2.0),),), "round 1 column 1 holds (1, 2.0), not a pair"),
        (2, (((True, 2),),), "round 1 column 1 holds (True, 2), not a pair"),
        (3, (("x" * 100_000,),), f"round 1 column 1 holds {repr('x' * 100_000)[:77]}..., not a pair"),
        pytest.param(-TOO_LONG, (), "n must be positive, got <unprintable>", marks=printable_when_unlimited),
    ],
    ids=[
        "ints_for_pairs", "list_pair", "rounds_not_iterable", "rounds_not_indexable", "rows_not_indexable", "n_a_str",
        "rounds_an_iterator", "n_zero", "n_negative", "n_a_bool", "float_vertex", "bool_vertex", "long_entry_cut",
        "unprintable_n",
    ],
)
def test_partition_malformed_rounds_reported(n, rounds, failure):
    # input is quoted as every library message quotes it: cut to 80 characters, "<unprintable>" if str() refuses it
    report = verify_partition(OneFactorization(n, rounds))  # a report naming the entry, not a TypeError
    assert not report.ok
    assert report.checks == (("rounds_hold_pairs", False),)
    assert report.failures == (failure,)
    vertex_count = type(n) is int and n >= 1  # a bad n has no parity to report
    assert (report.n, report.parity) == (n, ("odd" if n % 2 else "even") if vertex_count else None)


ROUND_COUNT_CASES = [(odd_rounds, n) for n in range(3, 16, 2)] + [(even_rounds, n) for n in range(2, 19, 4)]


@pytest.mark.parametrize("make, n", ROUND_COUNT_CASES, ids=[f"n{n}" for _, n in ROUND_COUNT_CASES])
def test_partition_wrong_round_count_fails(make, n):
    """No check counts the rounds: a wrong count fails edges_partitioned, or a per-round check on a short round."""
    rounds = make(n).rounds
    presence = "one_absence_per_round" if n % 2 else "all_vertices_every_round"
    for changed, failing in [
        (rounds[:-1], "edges_partitioned"),  # a round's edges missing
        (rounds + rounds[:1], "edges_partitioned"),  # round 1's edges twice
        (rounds + ((),), presence),  # every edge still once, but the extra round holds no vertex
    ]:
        checks = dict(verify_partition(OneFactorization(n, changed)).checks)
        assert not checks[failing], (n, len(changed))
        assert checks["edges_partitioned"] == (failing != "edges_partitioned")


def test_partition_of_k1_passes():
    # K_1 has no edge, so no check counts its rounds: no round at all passes too
    assert verify_partition(OneFactorization(1, ())).ok


def test_partition_short_later_round_reported():
    f = OneFactorization(6, even_rounds(6).rounds[:-1] + (((1, 2),),))
    report = verify_partition(f)  # round 5 has no column 3: a failure, not an IndexError
    assert ("twice_per_column", False) in report.checks
    assert "vertex 3 appears 1 times in column 3, expected 2" in report.failures


def replaced(f, pair):
    """f's rounds with round 1's first pair replaced by pair."""
    return OneFactorization(f.n, ((pair,) + f.rounds[0][1:],) + f.rounds[1:])


def test_partition_missing_edges_in_vertex_order():
    assert verify_partition(OneFactorization(5, ())).failures == tuple(
        [f"edge {e} appears 0 times" for e in combinations(range(1, 6), 2)]
    )


def test_partition_missing_and_repeated_edges_in_vertex_order():
    report = verify_partition(replaced(odd_rounds(7), (3, 6)))  # was (2, 7)
    assert report.failures == (
        "edge (2, 7) appears 0 times",
        "edge (3, 6) appears 2 times",
        "round 1 is not a matching",
        "round 1 missing vertices [1, 2, 7], expected [1]",
    )


@pytest.mark.parametrize(
    "pair, checks, failures",
    [
        ((5, 2), (False, True, True), ("edge (2, 5) appears 0 times", "unexpected pair (5, 2)")),
        (
            (0, 3),
            (False, False, False),
            (
                "edge (2, 5) appears 0 times",
                "unexpected pair (0, 3)",
                "round 1 is not a matching",
                "round 1 missing vertices [1, 2, 5], expected [1]",
            ),
        ),
        pytest.param(
            (1, TOO_LONG),
            (False, True, False),
            (
                "edge (2, 5) appears 0 times",
                "unexpected pair <unprintable>",
                "round 1 missing vertices [2, 5], expected [1]",
            ),
            marks=printable_when_unlimited,
        ),
    ],
    ids=["high_vertex_first", "vertex_out_of_range", "unprintable_vertex"],
)
def test_partition_unexpected_pair_reported(pair, checks, failures):
    report = verify_partition(replaced(odd_rounds(5), pair))  # was (2, 5)
    assert report.checks == tuple(zip(("edges_partitioned", "rounds_are_matchings", "one_absence_per_round"), checks))
    assert report.failures == failures


def test_partition_peak_memory_n301():
    # tracemalloc peak on CPython 3.11: 3.9 MB for the counts of the pairs given and one column's counts;
    # a set of K_n's 45,150 edges held beside them reads 7.3 MB
    f = odd_rounds(301)
    assert len(f.rounds) == 301  # read before tracing: the rounds are the input, not the check's own memory
    tracemalloc.start()
    try:
        assert verify_partition(f).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@pytest.mark.parametrize("n", list(range(3, 23, 2)))
def test_odd_sweep_verify_partition(n):
    f = odd_rounds(n)
    check_partition_brute_force(f)
    assert verify_partition(f).ok


@pytest.mark.parametrize("n", list(range(2, 23, 4)))
def test_even_sweep_verify_partition(n):
    f = even_rounds(n)
    check_partition_brute_force(f)
    assert verify_partition(f).ok


@given(
    n=st.integers(1, 10).map(lambda k: 2 * k + 1),
    data=st.data(),
)
def test_odd_left_right_symmetry(n, data):
    w = data.draw(st.integers(1, n))
    x = data.draw(st.integers(1, n).filter(lambda v: v != w))
    counts = left_count(odd_rounds(n), w, x)
    assert counts.less == counts.greater
    assert counts.ties == 1


@given(
    n=st.integers(0, 5).map(lambda k: 4 * k + 2),
    data=st.data(),
)
def test_even_left_right_symmetry(n, data):
    w = data.draw(st.integers(1, n))
    x = data.draw(st.integers(1, n).filter(lambda v: v != w))
    counts = left_count(even_rounds(n), w, x)
    assert counts.less == counts.greater
    assert counts.ties == 1


def frozen_circle(m):
    """The circle method as it stood when every round was stored: the reference the lazy rows must match."""
    h = (m - 1) // 2
    v = list(range(m + 1))
    rounds = []
    for i in range(1, m + 1):
        if i <= h:
            c = i - 1
            wrapped = zip(v[2 * i : i + h + 1], v[m : m + i - h - 1 : -1])
        else:
            c = m - i
            wrapped = zip(v[1 : i + h - m + 1], v[2 * i - m - 1 : i - h - 1 : -1])
        pairs = [*zip(v[i - 1 : i - c - 1 : -1], v[i + 1 : i + c + 1]), *wrapped]
        rounds.append(tuple(pairs))
    return tuple(rounds)


def frozen_even_rounds(n):
    """``even_rounds(n).rounds`` as it stood: K_(n-1)'s stored rounds with (i, n) spliced into the middle."""
    lead = (n - 2) // 4
    return tuple([row[:lead] + ((i, n),) + row[lead:] for i, row in enumerate(frozen_circle(n - 1), start=1)])


class TestDerivedRounds:
    """odd_rounds and even_rounds hold only n; the rows come off the circle formula, .rounds on first read."""

    CASES = [(odd_rounds, n, frozen_circle) for n in range(3, 102, 2)] + [
        (even_rounds, n, frozen_even_rounds) for n in range(2, 103, 4)
    ]

    @pytest.mark.parametrize("make, n, frozen", CASES, ids=[f"n{n}" for _, n, _ in CASES])
    def test_rounds_unchanged(self, make, n, frozen):
        assert make(n).rounds == frozen(n)

    @pytest.mark.parametrize("make, n, frozen", CASES, ids=[f"n{n}" for _, n, _ in CASES])
    def test_rows_match_rounds_row_by_row(self, make, n, frozen):
        f = make(n)
        rows = factorization._rows(n)
        assert "rounds" not in f.__dict__  # rows read straight off the formula store nothing
        for i, (row, stored) in enumerate(zip(rows, frozen(n), strict=True), start=1):
            assert tuple([(a, b) if a < b else (b, a) for a, b in row]) == stored, (n, i)
        assert "rounds" not in f.__dict__

    def test_rounds_derived_once_and_kept(self):
        f = odd_rounds(9)
        assert "rounds" not in f.__dict__
        assert f.rounds is f.rounds and f.__dict__["rounds"] is f.rounds
        with pytest.raises(AttributeError):
            del f.rounds

    def test_given_rounds_kept_as_given(self):
        given_rounds = ROUNDS_7[::-1]
        f = OneFactorization(7, given_rounds)
        assert f.rounds is given_rounds
