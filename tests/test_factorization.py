"""Tests for the round/column edge partitions of K_n."""

import hashlib
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tourneydice import (
    OneFactorization,
    even_rounds,
    left_count,
    odd_rounds,
    position_of,
    verify_partition,
)
from tourneydice.errors import ParityError

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

    @pytest.mark.parametrize("n", [2, 4, 10])
    def test_even_n_rejected(self, n):
        with pytest.raises(ParityError):
            odd_rounds(n)

    def test_n1_rejected(self):
        with pytest.raises(ParityError):
            odd_rounds(1)


class TestEvenRounds:
    def test_golden_n6(self):
        assert even_rounds(6).rounds == ROUNDS_6

    def test_n2_single_middle_pair(self):
        assert even_rounds(2).rounds == (((1, 2),),)

    def test_n10_structurally_valid(self):
        check_partition_brute_force(even_rounds(10))

    def test_middle_column_holds_vertex_n(self):
        for n in (2, 6, 10, 14):
            f = even_rounds(n)
            middle = (n + 2) // 4
            for i, row in enumerate(f.rounds, start=1):
                assert row[middle - 1] == (i, n)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_multiple_of_four_rejected(self, n):
        with pytest.raises(ParityError):
            even_rounds(n)

    def test_odd_n_rejected(self):
        with pytest.raises(ParityError):
            even_rounds(7)


class TestPositionOf:
    def test_odd_present(self):
        assert position_of(odd_rounds(7), 2, 3) == 1

    def test_odd_absent_in_own_round(self):
        assert position_of(odd_rounds(7), 3, 3) is None

    def test_even_vertex_n_in_middle(self):
        assert position_of(even_rounds(6), 5, 6) == 2

    def test_round_out_of_range(self):
        with pytest.raises(IndexError):
            position_of(odd_rounds(7), 8, 1)

    def test_vertex_out_of_range(self):
        with pytest.raises(IndexError):
            position_of(odd_rounds(7), 1, 0)


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


class TestLeftCount:
    def test_paper_example_3_vs_6(self):
        # 3 is left of 6 in rounds 2 and 4, right of it in rounds 5 and 7
        assert left_count(odd_rounds(7), 3, 6) == (2, 2, 1)

    def test_even_6_example_3_vs_6(self):
        assert left_count(even_rounds(6), 3, 6) == (2, 2, 1)

    def test_n3_single_shared_round(self):
        assert left_count(odd_rounds(3), 1, 2) == (0, 0, 1)

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
    assert digest == "f530a9036d3d8f96acf013a6c497c414a6932613aed8374d76e6fc76af3068d5"


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
