"""Tests for dice construction, the face-win oracle, and verification."""

import csv
import gc
import hashlib
import io
import math
import random
import re
import sys
import tracemalloc
from enum import IntEnum
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

import tourneydice.dice
from tourneydice import (
    DiceSet,
    OneFactorization,
    almost_transitive,
    build_0mod4,
    build_dice,
    build_even_2mod4,
    build_odd,
    compact_labels,
    dice_set,
    dominance,
    even_rounds,
    face_wins,
    from_edges,
    guaranteed_wins_audit,
    is_balanced,
    matchup,
    odd_rounds,
    parse_dice,
    parse_tournament,
    random_tournament,
    serialize_dice,
    transitive,
    verify_partition,
    verify_realization,
)
from tourneydice.errors import (
    DuplicateLabelError,
    ParityError,
    ParseError,
    SideCountMismatchError,
    TieDetectedError,
)

from exhaustive import exhaustive_wins
from left_counts import left_count

EQ1 = dice_set([[1, 5, 9], [3, 4, 8], [2, 6, 7]])
FIG1 = from_edges(3, [(1, 2), (2, 3), (3, 1)])
FIG8 = (
    (1, 10, 19, 27, 35, 40, 45),
    (3, 8, 17, 26, 34, 42, 47),
    (5, 9, 15, 24, 33, 41, 49),
    (7, 12, 16, 22, 31, 39, 48),
    (6, 14, 18, 23, 29, 38, 46),
    (4, 13, 21, 25, 30, 36, 44),
    (2, 11, 20, 28, 32, 37, 43),
)


class TestFaceWins:
    def test_example_die1_vs_die2(self):
        assert face_wins([1, 5, 9], [3, 4, 8]) == 5

    def test_example_die2_vs_die3(self):
        assert face_wins([3, 4, 8], [2, 6, 7]) == 5

    def test_single_faces(self):
        assert face_wins([2], [1]) == 1
        assert face_wins([1], [2]) == 0

    def test_one_shot_b_is_read_once(self):
        # b is read once, into a sorted copy, so a's first face does not use up an iterator b
        assert face_wins([5, 6], iter([1, 2])) == 4

    @given(labels=st.sets(st.integers(1, 10**6), min_size=2, max_size=40))
    def test_disjoint_dice_split_all_pairs(self, labels):
        ordered = sorted(labels)
        a, b = ordered[0::2], ordered[1::2]
        k = min(len(a), len(b))
        a, b = a[:k], b[:k]
        assert face_wins(a, b) + face_wins(b, a) == k * k

    @settings(derandomize=True)
    @given(
        a=st.lists(st.integers(-50, 50), max_size=30),
        b=st.lists(st.integers(-50, 50), max_size=30),
        one_shot=st.booleans(),
        subclass=st.booleans(),
    )
    def test_equals_the_exhaustive_count(self, a, b, one_shot, subclass):
        # any int lists: empty, repeated and negative faces included, each maybe a one-shot iterator
        # or of an int subclass; the brute-force count in tests/exhaustive.py is the reference
        class Face(int):
            pass

        if subclass:
            a, b = [Face(x) for x in a], [Face(x) for x in b]
        expected = exhaustive_wins(a, b)
        assert face_wins(iter(a) if one_shot else a, iter(b) if one_shot else b) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13])
    def test_makes_every_comparison_once(self, n):
        # the reference is exhaustive: one x > y per ordered face pair, which no sort-based count matches
        calls = []

        class Face(int):
            def __gt__(self, other):
                calls.append(1)
                return int(self) > int(other)

        d = build_dice(random_tournament(n, 3))
        for a, b in combinations([[Face(x) for x in die] for die in d.faces], 2):
            calls.clear()
            exhaustive_wins(a, b)
            assert len(calls) == len(a) * len(b)

    def test_comparisons_grow_as_k_log_k(self):
        # k = 2001, the side count at cli.MAX_N = 2000, faces shuffled by a fixed seed: one sort of b and
        # one bisection of it per face of a take 41,179 comparisons here; the exhaustive count takes k^2
        calls = []

        class Face(int):
            def __lt__(self, other):
                calls.append(1)
                return int(self) < int(other)

            def __gt__(self, other):
                calls.append(1)
                return int(self) > int(other)

        k = 2001
        labels = [Face(x) for x in range(1, 2 * k + 1)]
        random.Random(1).shuffle(labels)
        a, b = labels[:k], labels[k:]
        wins, made = face_wins(a, b), len(calls)
        assert made <= 2 * k * math.ceil(math.log2(k + 1)) + k  # 46,023; the exhaustive count makes 4,004,001
        assert wins == exhaustive_wins(map(int, a), map(int, b))  # plain ints, so not counted

    @pytest.mark.parametrize("shift", [0, 10**6])
    def test_transient_memory_at_the_size_cap(self, shift):
        # k = 2001, the side count at cli.MAX_N = 2000: the count holds one sorted copy of b, k pointers,
        # freed on return; tracemalloc peak on CPython 3.11 is 16.2 kB for interleaved faces and when a
        # beats b outright alike
        k = 2001
        a, b = [x + shift for x in range(1, 2 * k, 2)], list(range(2, 2 * k + 1, 2))
        tracemalloc.start()
        try:
            wins = face_wins(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wins == (k * k if shift else k * (k - 1) // 2)
        assert peak < 64 * k  # O(k), not O(wins)


class TestMatchup:
    def test_eq1_probability(self):
        m = matchup(EQ1.faces[0], EQ1.faces[1])
        assert (m.wins_a, m.wins_b) == (5, 4)
        assert m.probability == Fraction(5, 9)

    def test_single_face(self):
        assert matchup([2], [1]).probability == Fraction(1)

    def test_one_shot_dice(self):
        # the probability comes from the frozen pair's own counts, which need no len() of the dice given
        assert matchup(iter([1, 5, 9]), iter([3, 4, 8])) == (5, 4, Fraction(5, 9))

    def test_side_count_mismatch(self):
        with pytest.raises(SideCountMismatchError):
            matchup([1, 2], [3])

    def test_shared_label(self):
        for a, b in (([1, 2], [2, 3]), ([1, 1], [2, 3])):  # across the dice, and within one die
            with pytest.raises(DuplicateLabelError):
                matchup(a, b)

    def test_zero_sided_dice(self):
        """Zero sides, and the labels dice_set refuses, are ParseErrors as in any dice set."""
        not_positive = "is not a positive integer"
        cases = [
            ((), (), "dice need at least one side"),
            ([0], [1], not_positive),
            ([-1], [2], not_positive),
            ([1.5], [2], not_positive),
            ([True], [2], not_positive),
            ([3], [1.0], not_positive),
            (["3"], [1], not_positive),
        ]
        for a, b, message in cases:
            with pytest.raises(ParseError, match=message):
                matchup(a, b)


class TestDominance:
    def test_eq1_realizes_fig1(self):
        assert dominance(EQ1) == FIG1

    def test_two_single_faced_dice(self):
        assert dominance(dice_set([[1], [2]])) == from_edges(2, [(2, 1)])

    def test_tie_detected(self):
        with pytest.raises(TieDetectedError):
            dominance(dice_set([[1, 4], [2, 3]]))

    def test_fig8_realizes_almost_transitive(self):
        from tourneydice import DiceSet

        assert dominance(DiceSet(FIG8)) == almost_transitive(7)

    def test_peak_memory_on_a_swept_set(self):
        # die v is {2v-1, 2v}, so it beats every lower die and the sweep stays cheap; with the sweep cached,
        # dominance holds its (winner, loser) list and from_edges' cells: tracemalloc peak on CPython 3.11
        # is 3.2 MB at n = 300, and 6.3 MB with a dict of every pair's verdict beside them
        n = 300
        d = dice_set([[2 * v - 1, 2 * v] for v in range(1, n + 1)])
        d._pair_wins
        tracemalloc.start()
        try:
            t = dominance(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == from_edges(n, [(j, i) for i, j in combinations(range(1, n + 1), 2)])
        assert peak < 4_500_000


class TestDiceSetValidation:
    def test_ragged_sides(self):
        with pytest.raises(SideCountMismatchError):
            dice_set([[1, 2], [3]])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            dice_set([[1, 2], [2, 3]])

    def test_nonpositive_label(self):
        with pytest.raises(ParseError):
            dice_set([[0], [1]])

    def test_zero_sided_dice(self):
        with pytest.raises(ParseError):
            dice_set([[], []])

    def test_int_subclass_label_refused(self):
        # labels follow the vertex rule, plain ints only: an IntEnum member is refused as bool is
        class Face(IntEnum):
            FIVE = 5

        with pytest.raises(ParseError) as info:
            dice_set([[Face.FIVE, 2], [3, 4]])
        assert str(info.value) == "face label <Face.FIVE: 5> is not a positive integer"

    @pytest.mark.parametrize("bad", [True, 2.0, 0, -1, "3"])
    def test_bad_label_message(self, bad):
        with pytest.raises(ParseError) as info:
            dice_set([[5, 6], [7, bad]])
        assert str(info.value) == f"face label {bad!r} is not a positive integer"

    @pytest.mark.parametrize("subclass", [False, True])
    @pytest.mark.parametrize("top", [4, 8, 9, 10**12])
    def test_repeat_found_alike_on_both_paths(self, top, subclass):
        # labels no larger than 2N = 8 are flagged in a list, larger ones go through a set; an int subclass
        # is refused by its type first, whether a label repeats or not
        class Label(int):
            pass

        kind = Label if subclass else int
        dice = [[1, kind(top)], [kind(top), 2]]
        error, message = (
            (ParseError, f"face label {top} is not a positive integer")
            if subclass
            else (DuplicateLabelError, "face labels are not pairwise distinct")
        )
        with pytest.raises(error) as info:
            dice_set(dice)
        assert str(info.value) == message
        dice[1][0] = 3
        if subclass:
            with pytest.raises(ParseError, match=f"^face label {top} is not"):
                dice_set(dice)
        else:
            assert dice_set(dice).faces == ((1, top), (3, 2))

    def test_first_bad_label_named(self):
        with pytest.raises(ParseError, match=r"^face label 0 is"):
            dice_set([[4, 0], [True, "3"]])


    def test_faces_are_frozen_into_tuples(self):
        d = DiceSet([[1, 4], [3, 2]])
        assert d.faces == ((1, 4), (3, 2))
        assert type(d.faces) is tuple and all(type(die) is tuple for die in d.faces)
        assert d == DiceSet(((1, 4), (3, 2))) and hash(d) == hash(DiceSet(((1, 4), (3, 2))))


class TestBuildOdd:
    def test_fig8_golden(self):
        assert build_dice(almost_transitive(7)).faces == FIG8

    def test_n3_fig1_reproduces_eq1_labels(self):
        assert build_odd(FIG1).faces == ((1, 5, 9), (3, 4, 8), (2, 6, 7))

    def test_diagonal_rule(self):
        for n in (3, 5, 9, 13):
            d = build_odd(random_tournament(n, 4))
            for i in range(1, n + 1):
                assert d.faces[i - 1][i - 1] == n * (i - 1) + 1

    def test_fig5_template_die1(self):
        # column offset sets for die 1 when n=7, straight from the template
        template = [{1}, {2, 3}, {4, 5}, {6, 7}, {6, 7}, {4, 5}, {2, 3}]
        for seed in range(5):
            d = build_odd(random_tournament(7, seed))
            for i in range(1, 8):
                assert d.faces[0][i - 1] - 7 * (i - 1) in template[i - 1]

    def test_even_n_rejected(self):
        with pytest.raises(ParityError):
            build_odd(transitive(4))


class TestBuildEven2Mod4:
    def test_n2_both_orientations(self):
        assert build_even_2mod4(from_edges(2, [(2, 1)])).faces == ((1,), (2,))
        assert build_even_2mod4(from_edges(2, [(1, 2)])).faces == ((2,), (1,))

    def test_fig7_template(self):
        # die 6 always gets the middle pair: offsets 3/4 in every column
        die1_template = [{3, 4}, {1, 2}, {5, 6}, {5, 6}, {1, 2}]
        for seed in range(5):
            d = build_even_2mod4(random_tournament(6, seed))
            for i in range(1, 6):
                assert d.faces[5][i - 1] - 6 * (i - 1) in {3, 4}
                assert d.faces[0][i - 1] - 6 * (i - 1) in die1_template[i - 1]

    def test_n10_round_trip(self):
        t = random_tournament(10, 11)
        d = build_even_2mod4(t)
        assert d.sides == 9
        assert dominance(d) == t

    def test_wrong_parity_rejected(self):
        with pytest.raises(ParityError):
            build_even_2mod4(transitive(4))
        with pytest.raises(ParityError):
            build_even_2mod4(transitive(5))


class TestBuild0Mod4:
    def test_n4_transitive_round_trip(self):
        t = transitive(4)
        d = build_0mod4(t)
        assert (d.n, d.sides) == (4, 5)
        assert dominance(d) == t
        labels = {x for die in d.faces for x in die}
        assert labels < set(range(1, 26))  # strict subset of 1..(n+1)^2

    def test_n8_side_count(self):
        assert build_0mod4(random_tournament(8, 2)).sides == 9

    def test_wrong_parity_rejected(self):
        with pytest.raises(ParityError):
            build_0mod4(transitive(6))


class TestBuildDice:
    def test_single_vertex(self):
        assert build_dice(transitive(1)).faces == ((1,),)

    @pytest.mark.parametrize(
        "n,k",
        [(1, 1), (2, 1), (3, 3), (4, 5), (5, 5), (6, 5), (7, 7), (8, 9), (10, 9), (12, 13)],
    )
    def test_side_count_law(self, n, k):
        assert build_dice(random_tournament(n, 0)).sides == k

    def test_deterministic(self):
        t = random_tournament(9, 42)
        assert build_dice(t) == build_dice(t)

    def test_round_trip_n12(self):
        t = random_tournament(12, 3)
        d = build_dice(t)
        assert d.sides == 13
        assert dominance(d) == t

    @pytest.mark.parametrize("n", range(1, 14))
    def test_column_blocks_are_increasing(self, n):
        # any face in column i beats any face in an earlier column
        d = build_dice(random_tournament(n, 8))
        for i in range(1, d.sides):
            left = max(die[i - 1] for die in d.faces)
            right = min(die[i] for die in d.faces)
            assert left < right

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 2, 6, 10])
    def test_labels_are_permutation(self, n):
        d = build_dice(random_tournament(n, 8))
        labels = sorted(x for die in d.faces for x in die)
        assert labels == list(range(1, d.n * d.sides + 1))

    def test_exact_labels_pinned(self):
        # exact labels for n = 1..40: all four residues mod 4 and the one-die case
        blob = b"".join(
            serialize_dice(build_dice(random_tournament(n, n))) + b"\n" for n in range(1, 41)
        )
        assert hashlib.sha256(blob).hexdigest() == (
            "f415065c8bfd006e147002dc7f761f8bcda2ffdef8964ef5a499248d9ef341d6"
        )

    @pytest.mark.parametrize(
        "n, digest",
        [
            (296, "0827993420f27fda6a6f63921124155603aabc4cf833d5c91b0d25cd430aa4c1"),
            (297, "6871c2ae429c8a98ea5c22f57389675b40e8a8870af82433e9e5852a6b8c9338"),
            (298, "14cd20e05acfe7299b2063873db0155d74c9c2f23df4adf6843c107b35d87038"),
            (299, "cc7f29f63bab1a2fd55fe61ebfe9ee54cd06b8073207ee7f52681b9e403c2b0f"),
            (300, "ed0f9f8026ca49922dba381c9b6f764d1c8e13ad99b66e3cfa385b4f266c7597"),
            (301, "20c528602296b46a572d2ca28e1dc636488a89f2de06abad9c7671fb8bbc17a2"),
            (302, "bcf5d3163a3c6b30994390ed4fe857aab2604881f54003b5bb6ac057dbbaf880"),
            (303, "eb2c8c24c5f6801e07f575b881e171f8fc8dce5a86309c12a3aaa040dbe42bae"),
            (304, "90025fe1a7b4882f740fda8e5ff3a549861a224a4d86f27bc204f342701a183d"),
            (305, "c49413ba61b589bc6f9263365fdbebcbe6921aadec8f899acf0f24816d157b74"),
        ],
    )
    def test_exact_labels_pinned_near_300(self, n, digest):
        # the build_large benchmark sizes, every residue mod 4
        blob = serialize_dice(build_dice(random_tournament(n, n)))
        assert hashlib.sha256(blob).hexdigest() == digest

    @staticmethod
    def order_list_labels(t, f):
        """Reference labeller: list each round's slots, loser before winner, then label them in slot order."""
        n = f.n
        columns = []
        for i, row in enumerate(f.rounds, start=1):
            order = [i] if n % 2 else []
            for a, b in row:
                order += (b, a) if t.beats(a, b) else (a, b)
            column = [0] * (n + 1)
            for label, v in enumerate(order, start=n * (i - 1) + 1):
                column[v] = label
            columns.append(column)
        return tuple(tuple([column[v] for column in columns]) for v in range(1, n + 1))

    def test_label_columns_matches_order_list_labeller(self):
        from tourneydice.dice import _label_columns
        from tourneydice.factorization import even_rounds, odd_rounds

        factorizations = [odd_rounds(m) for m in range(3, 66, 2)] + [even_rounds(m) for m in range(2, 67, 4)]
        for f in factorizations:  # handed the stored rounds, low vertex first, as verify_partition certifies them
            for t in [transitive(f.n)] + [random_tournament(f.n, seed) for seed in (1, 2, 3)]:
                assert _label_columns(t, f.rounds).faces == self.order_list_labels(t, f), (f.n, t)

    @pytest.mark.parametrize("n, shuffles", [(9, 2), (11, 1), (13, 1)])
    def test_labels_the_rounds_it_is_handed(self, n, shuffles):
        # round 1's columns shuffled until the left/right lemma fails for some pair: the same pairs in a new
        # column order, labelled as handed, realize none of the tournaments the certified rounds realize
        from tourneydice.dice import _label_columns

        f, rng = odd_rounds(n), random.Random(n)
        for tries in range(1, 10):
            row = list(f.rounds[0])
            rng.shuffle(row)
            shuffled = (tuple(row),) + f.rounds[1:]
            g = OneFactorization(n, shuffled)
            if any(c.less != c.greater for c in (left_count(g, w, x) for w, x in combinations(range(1, n + 1), 2))):
                break
        assert tries == shuffles
        assert sorted(shuffled[0]) == sorted(f.rounds[0])
        tournaments = [random_tournament(n, s) for s in range(1, 6)]
        assert not any(verify_realization(_label_columns(t, shuffled), t).realized for t in tournaments)
        assert all(verify_realization(_label_columns(t, f.rounds), t).realized for t in tournaments)

    @pytest.mark.parametrize("n", [7, 8, 10])
    def test_build_reads_rounds_off_the_formula(self, n, monkeypatch):
        # spy on the factorization each builder receives: the build walks its rows and never stores rounds
        received = []

        def spy(real):
            def rounds(m):
                received.append(real(m))
                return received[-1]

            return rounds

        for name in ("odd_rounds", "even_rounds"):
            monkeypatch.setattr(tourneydice.dice, name, spy(getattr(tourneydice.dice, name)))
        t = random_tournament(n, 2)
        d = build_dice(t)
        (f,) = received
        assert f.n == (n + 1 if n % 4 == 0 else n)
        assert "rounds" not in f.__dict__
        if n % 4:  # and labels the columns as the reference labeller does from the stored rounds
            assert d.faces == self.order_list_labels(t, f)

    def test_build_memory_bound_at_n_1001(self):
        # tracemalloc peak on CPython 3.11: 49.3 MB with each round's pairs read off the circle formula,
        # against 81.3 MB when every round was stored as a tuple of pair tuples first
        t = random_tournament(1001, 1)
        tracemalloc.start()
        try:
            d = build_dice(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n == d.sides == 1001
        assert peak <= 60 * 10**6


def flipped(t, c, d):
    """t with the edge between c and d reversed, through from_edges."""
    return from_edges(t.n, [(b, a) if {a, b} == {c, d} else (a, b) for a, b in t.edges])


def assert_flip_swaps_adjacent_labels(t, c, d, before=None):
    """The edge-flip lemma: reversing {c, d} swaps dice c and d's labels x and x+1 in one column, and nothing else.

    The label x+1 goes to the new winner.  ``before`` is ``build_dice(t).faces``,
    if the caller already has it.
    """
    after_t = flipped(t, c, d)
    before = build_dice(t).faces if before is None else before
    after = build_dice(after_t).faces
    changed = [v for v in range(1, t.n + 1) if before[v - 1] != after[v - 1]]  # whole dice first, compared in C
    assert changed == sorted((c, d)), (t.n, c, d, changed)
    columns = {i for v in (c, d) for i, (x, y) in enumerate(zip(before[v - 1], after[v - 1])) if x != y}
    assert len(columns) == 1, (t.n, c, d, columns)
    (i,) = columns
    x = min(before[c - 1][i], before[d - 1][i])
    winner, loser = (c, d) if after_t.beats(c, d) else (d, c)
    assert (after[winner - 1][i], after[loser - 1][i]) == (x + 1, x), (t.n, c, d)
    assert (before[winner - 1][i], before[loser - 1][i]) == (x, x + 1), (t.n, c, d)


class TestEdgeFlipLemma:
    """Reversing one edge {c, d} changes the dice only by swapping c and d's labels x and x+1 in one column.

    Swapping two adjacent labels moves only the comparison between them, so
    the c-d matchup changes by one face win and no other matchup changes.
    Every tournament on n vertices is reached from any other by edge flips,
    so the lemma at every T, plus one oracle-verified build at n, would give
    every build at n.  These tests sample T and edges: that is evidence for
    the lemma, not a proof of it, since they cannot visit every T.
    """

    @pytest.mark.parametrize("residue", [0, 1, 2, 3])
    @given(data=st.data())
    def test_one_edge_of_a_drawn_tournament(self, residue, data):
        n = data.draw(st.sampled_from([n for n in range(2, 61) if n % 4 == residue]), label="n")
        t = random_tournament(n, data.draw(st.integers(0, 2**32), label="seed"))
        c = data.draw(st.integers(1, n), label="c")
        d = data.draw(st.integers(1, n).filter(lambda v: v != c), label="d")
        assert_flip_swaps_adjacent_labels(t, c, d)

    @pytest.mark.parametrize("n", [*range(2, 15), *range(25, 29)])
    def test_every_edge(self, n):
        t = random_tournament(n, n)
        before = build_dice(t).faces
        for c, d in combinations(range(1, n + 1), 2):
            assert_flip_swaps_adjacent_labels(t, c, d, before)

    @pytest.mark.parametrize("n", [300, 301, 302, 303])
    def test_sampled_edges_near_300(self, n):
        t = random_tournament(n, n)
        before = build_dice(t).faces
        pairs = list(combinations(range(1, n + 1), 2))
        for c, d in random.Random(n).sample(pairs, 10):
            assert_flip_swaps_adjacent_labels(t, c, d, before)


class TestAuditsAndBalance:
    def test_audit_n7(self):
        t = almost_transitive(7)
        audit = guaranteed_wins_audit(build_dice(t), t)
        assert audit.ok
        assert (audit.loser_wins, audit.winner_wins) == (24, 25)

    def test_audit_n6(self):
        t = random_tournament(6, 1)
        audit = guaranteed_wins_audit(build_dice(t), t)
        assert audit.ok
        assert (audit.loser_wins, audit.winner_wins) == (12, 13)

    def test_audit_n4_uses_five_sides(self):
        t = transitive(4)
        audit = guaranteed_wins_audit(build_dice(t), t)
        assert audit.ok
        assert audit.sides == 5
        assert (audit.loser_wins, audit.winner_wins) == (12, 13)

    def test_audit_reports_tampering(self):
        t = almost_transitive(7)
        d = build_dice(t)
        faces = [list(die) for die in d.faces]
        faces[0][6], faces[6][6] = 50, 51  # push die 7 above die 1 in the last column
        tampered = dice_set(faces)
        assert not guaranteed_wins_audit(tampered, t).ok

    def test_audit_on_a_swept_set_allocates_nothing_per_pair(self):
        # n = 45, 990 pairs: tracemalloc peak on CPython 3.11 is 208-352 bytes reading the sweep directly,
        # against 111,880 bytes when the audit ran verify_realization and copied out all 990 PairEvidence
        n = 45
        t = random_tournament(n, 1)
        d = build_dice(t)
        d._pair_wins  # the shared sweep, made once and kept on d
        tracemalloc.start()
        try:
            audit = guaranteed_wins_audit(d, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert audit.ok
        assert peak < n * n

    @pytest.mark.parametrize("dice_n,tournament_n", [(3, 5), (5, 3)])
    def test_audit_size_mismatch(self, dice_n, tournament_n):
        audit = guaranteed_wins_audit(build_dice(transitive(dice_n)), transitive(tournament_n))
        assert audit.failures == (f"dice count {dice_n} != tournament size {tournament_n}",)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_audit_is_the_verify_report_s_two_fields(self, data):
        # with distinct labels and equal side counts each pair's counts sum to k^2, so the winner has (k^2+1)/2
        # exactly when the loser has (k^2-1)/2: the audit is ok iff the set realizes t and is balanced, and it
        # names exactly the pairs that verify fails or that miss the balanced split
        n = data.draw(st.integers(2, 9), label="n")
        kind = data.draw(st.sampled_from(["built", "swapped", "other", "tied", "lopsided"]), label="kind")
        t = random_tournament(n, data.draw(st.integers(0, 2**32), label="seed"))
        if kind == "tied":  # k = 2, every pair tied 2-2
            d = dice_set([[v, 2 * n + 1 - v] for v in range(1, n + 1)])
        elif kind == "lopsided":  # k = 2, the higher die wins all four face pairs
            d = dice_set([[2 * v - 1, 2 * v] for v in range(1, n + 1)])
        else:
            d = build_dice(t)
            if kind == "swapped":  # one label swapped between two dice
                faces = [list(die) for die in d.faces]
                a = data.draw(st.integers(0, n - 1), label="die")
                b = (a + data.draw(st.integers(1, n - 1), label="offset")) % n
                i, j = data.draw(st.tuples(st.integers(0, d.sides - 1), st.integers(0, d.sides - 1)), label="faces")
                faces[a][i], faces[b][j] = faces[b][j], faces[a][i]
                d = dice_set(faces)
            elif kind == "other":  # checked against another tournament of the same n
                t = random_tournament(n, data.draw(st.integers(0, 2**32), label="other seed"))
        k = d.sides
        audit, r = guaranteed_wins_audit(d, t), verify_realization(d, t)
        assert audit.ok == (r.realized and r.balance_ok)
        named = {tuple(map(int, re.match(r"pair \((\d+),(\d+)\)", failure).groups())) for failure in audit.failures}
        assert named == {
            (e.i, e.j) for e in r.matchups if not e.ok or 2 * max(e.wins_i, e.wins_j) != k * k + 1
        }

    def test_builds_are_balanced(self):
        for n in (1, 2, 3, 4, 6, 7, 9):
            assert is_balanced(build_dice(random_tournament(n, 5)))

    def test_eq1_balanced(self):
        assert is_balanced(EQ1)  # 5/9 == 1/2 + 1/18

    def test_lopsided_pair_unbalanced(self):
        assert not is_balanced(dice_set([[1, 2], [3, 4]]))


class TestSharedSweep:
    """The whole-set checks share one oracle sweep per DiceSet object."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        oracle = tourneydice.dice.face_wins

        def counting(a, b):
            counted.append((a, b))
            return oracle(a, b)

        monkeypatch.setattr(tourneydice.dice, "face_wins", counting)
        return counted

    @staticmethod
    def checks(t):
        return (
            lambda d: verify_realization(d, t),
            dominance,
            is_balanced,
            lambda d: guaranteed_wins_audit(d, t),
        )

    def test_one_sweep_per_object(self, calls):
        t = random_tournament(8, 3)
        d = build_dice(t)
        for _ in range(2):
            for check in self.checks(t):
                check(d)
        assert len(calls) == 2 * 28
        twin = DiceSet(d.faces)  # equal faces, new object: its own sweep
        for check in self.checks(t):
            check(twin)
        assert len(calls) == 2 * 2 * 28

    def test_invalid_set_raises_from_every_check_every_time(self, calls):
        d = DiceSet(((1, 2), (2, 3)))
        for _ in range(2):
            for check in self.checks(transitive(2)):
                with pytest.raises(DuplicateLabelError):
                    check(d)
        assert calls == []

    def test_identity_unchanged_by_a_check(self):
        d = build_dice(random_tournament(8, 3))
        twin = DiceSet(d.faces)
        before = (hash(d), repr(d))
        for check in self.checks(random_tournament(8, 3)):
            check(d)
        assert (hash(d), repr(d)) == before
        assert d == twin and twin == d and hash(twin) == hash(d)

    def test_results_independent_of_order_and_object(self):
        t = random_tournament(9, 4)
        faces = list(build_dice(t).faces)
        faces[1], faces[6] = faces[6], faces[1]  # tamper: swap dice 2 and 7
        d, other = DiceSet(tuple(faces)), DiceSet(tuple(faces))
        checks = self.checks(t)
        forward = [check(d) for check in checks]
        backward = [check(other) for check in reversed(checks)][::-1]
        fresh = [check(DiceSet(tuple(faces))) for check in checks]
        assert forward == backward == fresh
        assert not forward[0].realized and forward[1] != t and not forward[3].ok


class TestValueTypes:
    """What the value and report types keep: reprs, equality, hashing, read-only fields."""

    @staticmethod
    def tampered():
        d = build_dice(transitive(3))  # ((1, 6, 9), (3, 4, 8), (2, 5, 7)), then dice 1 and 2 swapped
        return DiceSet((d.faces[1], d.faces[0], d.faces[2]))

    def test_reprs_pinned(self):
        t = transitive(3)
        cases = [
            (EQ1, "DiceSet(faces=((1, 5, 9), (3, 4, 8), (2, 6, 7)))"),
            (FIG1, "Tournament(n=3, edges=[(1, 2), (2, 3), (3, 1)])"),
            (matchup([1, 5, 9], [3, 4, 8]), "Matchup(wins_a=5, wins_b=4, probability=Fraction(5, 9))"),
            (
                verify_realization(self.tampered(), t),
                "VerificationReport(realized=False, balance_ok=True, matchups=("
                "PairEvidence(i=1, j=2, expected_winner=1, wins_i=4, wins_j=5, ok=False), "
                "PairEvidence(i=1, j=3, expected_winner=1, wins_i=5, wins_j=4, ok=True), "
                "PairEvidence(i=2, j=3, expected_winner=2, wins_i=5, wins_j=4, ok=True)), "
                "failures=('pair (1,2): expected 1 to win, face wins 4-5',))",
            ),
            (
                guaranteed_wins_audit(self.tampered(), t),
                "WinsAudit(sides=3, loser_wins=4, winner_wins=5, "
                "failures=('pair (1,2): winner 1 has 4 wins, loser has 5, expected 5 and 4',))",
            ),
        ]
        for value, text in cases:
            assert repr(value) == text

    @pytest.mark.parametrize(
        "make",
        [
            lambda: dice_set([[1, 5, 9], [3, 4, 8], [2, 6, 7]]),
            lambda: DiceSet(faces=((1, 5, 9), (3, 4, 8), (2, 6, 7))),
            lambda: from_edges(3, [(1, 2), (2, 3), (3, 1)]),
            lambda: matchup([1, 5, 9], [3, 4, 8]),
            lambda: verify_realization(TestValueTypes.tampered(), transitive(3)),
            lambda: guaranteed_wins_audit(TestValueTypes.tampered(), transitive(3)),
        ],
        ids=["DiceSet", "DiceSet_by_keyword", "Tournament", "Matchup", "VerificationReport", "WinsAudit"],
    )
    def test_equal_values_compare_and_hash_alike(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)

    def test_values_of_different_types_differ(self):
        assert EQ1 != FIG1 and FIG1 != EQ1 and EQ1 != EQ1.faces and FIG1 != (FIG1.n, FIG1.rows)
        assert EQ1.__eq__(FIG1) is NotImplemented and FIG1.__eq__(EQ1) is NotImplemented

    def test_fields_are_read_only(self):
        d, t = dice_set([[1, 5, 9], [3, 4, 8], [2, 6, 7]]), from_edges(3, [(1, 2), (2, 3), (3, 1)])
        for value, field in ((d, "faces"), (t, "rows"), (t, "n")):
            with pytest.raises(AttributeError):
                setattr(value, field, ())
        assert d == EQ1 and t == FIG1


class TestVerifyRealization:
    def test_fig8_report(self):
        from tourneydice import DiceSet

        report = verify_realization(DiceSet(FIG8), almost_transitive(7))
        assert report.realized and report.balance_ok
        assert len(report.matchups) == 21
        assert not report.failures

    def test_mismatch_reports_offending_pair(self):
        report = verify_realization(EQ1, transitive(3))
        assert not report.realized
        assert any("(1,3)" in failure for failure in report.failures)

    def test_size_mismatch(self):
        report = verify_realization(EQ1, transitive(4))
        assert not report.realized

    def test_whole_set_reports_pinned(self):
        # every whole-set check, on sets that are clean, tampered (dice 1 and n swapped), lopsided (die v is
        # {2v-1, 2v}), tied at even k (die v is {v, 2n+1-v}, so every pair splits 2-2) and size-mismatched;
        # and verify_partition on the rounds behind each build, as made and with two of their pairs swapped
        def outcome(check, *args):
            try:
                return repr(check(*args))
            except TieDetectedError as exc:
                return f"TieDetectedError: {exc}"

        reports = []
        for n in range(1, 10):
            t = random_tournament(n, n)
            clean = build_dice(t)
            tampered = DiceSet((clean.faces[-1],) + clean.faces[1:-1] + (clean.faces[0],)) if n > 1 else clean
            lopsided = dice_set([[2 * v - 1, 2 * v] for v in range(1, n + 1)])
            tied = dice_set([[v, 2 * n + 1 - v] for v in range(1, n + 1)])
            mismatched = random_tournament(n + 1, n)
            for d, against in ((clean, t), (tampered, t), (lopsided, t), (tied, t), (clean, mismatched)):
                reports.append(
                    (
                        outcome(verify_realization, d, against),
                        outcome(guaranteed_wins_audit, d, against),
                        outcome(dominance, d),
                        outcome(is_balanced, d),
                    )
                )
            if n > 1:
                f = even_rounds(n) if n % 4 == 2 else odd_rounds(n + 1 if n % 4 == 0 else n)
                rows = [list(row) for row in f.rounds]
                if len(rows) > 1:
                    rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
                swapped = OneFactorization(f.n, tuple([tuple(row) for row in rows]))
                reports.append((outcome(verify_partition, f), outcome(verify_partition, swapped)))
        digest = hashlib.sha256(repr(reports).encode()).hexdigest()
        assert digest == "5dcc76be058dc4f41a705abda476fc31da45dd590fac31a3e1333c6681411b57"


class TestCompactLabels:
    def test_identity_on_permutation_labeling(self):
        assert compact_labels(EQ1) is EQ1  # made by dice_set and labelled 1..N: nothing to rank or check

    def test_two_dice(self):
        assert compact_labels(dice_set([[10], [20]])).faces == ((1,), (2,))

    def test_repeated_label_refused(self):
        # a rank map onto 1..N exists only for distinct labels; (1, 3), (3, 4) would skip 2 and repeat 3
        with pytest.raises(DuplicateLabelError, match="face labels are not pairwise distinct"):
            compact_labels(DiceSet(((1, 2), (2, 3))))

    def test_closes_gaps_and_preserves_matchups(self):
        t = random_tournament(8, 6)
        d = build_dice(t)
        c = compact_labels(d)
        labels = sorted(x for die in c.faces for x in die)
        assert labels == list(range(1, c.n * c.sides + 1))
        assert dominance(c) == t
        for i, j in combinations(range(d.n), 2):
            assert matchup(d.faces[i], d.faces[j]) == matchup(c.faces[i], c.faces[j])

    @given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 6))
    def test_matches_dict_map_on_dice_not_built(self, data, n, k):
        # dice the construction never makes: labels far above n*k, and one-face dice
        labels = data.draw(st.lists(st.integers(1, 10**12), min_size=n * k, max_size=n * k, unique=True))
        dice = [labels[v * k : (v + 1) * k] for v in range(n)]
        rank = {x: r for r, x in enumerate(sorted(labels), start=1)}
        c = compact_labels(dice_set(dice))
        assert c.faces == tuple(tuple([rank[x] for x in die]) for die in dice)
        assert type(c.faces) is tuple and all(type(die) is tuple for die in c.faces)

    @pytest.mark.parametrize("n", [n for n in range(1, 41) if n % 4])
    def test_builds_without_gaps_are_their_own_compaction(self, n):
        d = build_dice(random_tournament(n, n))
        assert compact_labels(d) == d

    def test_int_subclass_labels_refused(self):
        class Label(int):
            pass

        with pytest.raises(ParseError) as info:
            compact_labels(DiceSet(((Label(3), Label(1)), (Label(2), Label(4)))))
        assert str(info.value) == "face label 3 is not a positive integer"

    def test_list_faces_come_back_as_tuples(self):
        c = compact_labels(DiceSet(([1, 4], [3, 2])))
        assert c.faces == ((1, 4), (3, 2))
        assert type(c.faces) is tuple and all(type(die) is tuple for die in c.faces)

    def test_sets_dice_set_refuses_get_its_errors(self):
        # a bare DiceSet is checked by dice_set first, so nothing it refuses is ranked
        refused = [
            (((0, 2), (3, 4)), ParseError, "face label 0 is not a positive integer"),  # largest is the count
            (((1.0, 2.0),), ParseError, "face label 1.0 is not a positive integer"),
            (((1, "a"),), ParseError, "face label 'a' is not a positive integer"),
            (((1, 2), (3,)), SideCountMismatchError, "die 2 has 1 sides, expected 2"),
            ((), ParseError, "a dice set needs at least one die"),
            (((), ()), ParseError, "dice need at least one side"),
        ]
        for faces, error, message in refused:
            with pytest.raises(error) as info:
                compact_labels(DiceSet(faces))
            assert str(info.value) == message

    def test_parsed_set_is_checked_once(self, monkeypatch):
        # parse_dice checks the set through dice_set; compact_labels ranks from that check's cached flags
        rule = DiceSet.__dict__["_label_flags"]
        check, checked = rule.func, []
        monkeypatch.setattr(rule, "func", lambda d: checked.append(d) or check(d))
        d = parse_dice(serialize_dice(build_dice(random_tournament(8, 8))))
        c = compact_labels(d)
        assert len(checked) == 1 and checked[0] is d
        assert sorted(chain.from_iterable(c.faces)) == list(range(1, 8 * 9 + 1))

    @pytest.mark.parametrize(
        "faces, error, message",
        [
            (((1, 2), (2, 3)), DuplicateLabelError, "face labels are not pairwise distinct"),
            (((1, 10**6), (10**6, 3)), DuplicateLabelError, "face labels are not pairwise distinct"),
            (((1, 2), (0, 3)), ParseError, "face label 0 is not a positive integer"),
            (((1, 2), (3,)), SideCountMismatchError, "die 2 has 1 sides, expected 2"),
        ],
    )
    def test_refused_set_raises_again_on_every_read(self, faces, error, message):
        # a cached_property caches nothing on an exception, so the check runs, and raises, on every read
        d = DiceSet(faces)
        for _ in range(2):
            for check in (compact_labels, *TestSharedSweep.checks(transitive(2))):
                with pytest.raises(error) as info:
                    check(d)
                assert str(info.value) == message
        assert "_label_flags" not in vars(d) and "_pair_wins" not in vars(d)

    def test_repeated_label_refused_when_largest_equals_count(self):
        # largest label 4 over four faces, smallest 1, all plain ints: only the repeat of 4 rules out 1..4
        with pytest.raises(DuplicateLabelError, match="face labels are not pairwise distinct"):
            compact_labels(DiceSet(((1, 4), (4, 3))))

    @staticmethod
    def sort_and_rank(dice):
        """Reference: each label's place in the sorted labels, or None if a label repeats."""
        labels = sorted(x for die in dice for x in die)
        if len(set(labels)) != len(labels):
            return None
        rank = {x: r for r, x in enumerate(labels, start=1)}
        return tuple(tuple([rank[x] for x in die]) for die in dice)

    class Label(int):
        pass

    @given(
        data=st.data(),
        n=st.integers(0, 6),
        k=st.integers(0, 6),
        low=st.sampled_from([1, 0, -5]),
        span=st.sampled_from(["N", "2N", "2N+1", "10**12"]),
        repeat=st.booleans(),
        kind=st.sampled_from([int, Label, bool, float]),
    )
    def test_matches_sort_and_rank_on_every_label_kind(self, data, n, k, low, span, repeat, kind):
        # dice the construction never makes, each as a bare DiceSet and, where dice_set takes it, through it:
        # labels from low, low+1, ... over a range as wide as the label count N, twice it, one more, or 10**12
        size = n * k
        width = {"N": size, "2N": 2 * size, "2N+1": 2 * size + 1, "10**12": 10**12}[span]
        values = st.integers(low, low + max(width, 1) - 1)
        labels = data.draw(st.lists(values, min_size=size, max_size=size, unique=True))
        if repeat and size >= 2:
            i, j = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
            labels[j] = labels[i]
        labels = [kind(x) for x in labels]
        dice = [labels[v * k : (v + 1) * k] for v in range(n)]
        bare = DiceSet(tuple([tuple(die) for die in dice]))  # no record: zero-face dice and the empty set too
        try:
            recorded = dice_set(dice)
        except (ParseError, DuplicateLabelError) as exc:
            # refused exactly when some label is not a plain int >= 1, one repeats, or there is none
            assert not size or kind is not int or min(labels) < 1 or self.sort_and_rank(dice) is None
            with pytest.raises(type(exc)) as info:
                compact_labels(bare)
            assert str(info.value) == str(exc)
            return
        expected = self.sort_and_rank(dice)
        assert size and kind is int and min(labels) >= 1 and expected is not None
        for d in (bare, recorded):
            c = compact_labels(d)
            assert c.faces == expected
            assert type(c.faces) is tuple and all(type(die) is tuple for die in c.faces)
            assert all(type(x) is int for die in c.faces for x in die)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (296, "f0e57007002f8d553d443ccdf3b55e61a10244888fd0d997af1e3f910cfab3aa"),
            (297, "6871c2ae429c8a98ea5c22f57389675b40e8a8870af82433e9e5852a6b8c9338"),
            (298, "14cd20e05acfe7299b2063873db0155d74c9c2f23df4adf6843c107b35d87038"),
            (299, "cc7f29f63bab1a2fd55fe61ebfe9ee54cd06b8073207ee7f52681b9e403c2b0f"),
            (300, "f6eb5843580579100adcb859f9b66fac967ad176b326d808281a97df91318ea1"),
            (301, "20c528602296b46a572d2ca28e1dc636488a89f2de06abad9c7671fb8bbc17a2"),
            (302, "bcf5d3163a3c6b30994390ed4fe857aab2604881f54003b5bb6ac057dbbaf880"),
            (303, "eb2c8c24c5f6801e07f575b881e171f8fc8dce5a86309c12a3aaa040dbe42bae"),
            (304, "451f4532d82b04509ef44ae9c1dd5196b41bc750a019cc3c46caa26b2d5de2a0"),
            (305, "c49413ba61b589bc6f9263365fdbebcbe6921aadec8f899acf0f24816d157b74"),
        ],
    )
    def test_compacted_builds_pinned_near_300(self, n, digest):
        # the build_large benchmark sizes, every residue mod 4; digests taken while every n = 0 (mod 4)
        # build was ranked through a sort; compacted as built (no record) and as parsed back (recorded)
        d = build_dice(random_tournament(n, n))
        for source in (d, parse_dice(serialize_dice(d))):
            assert hashlib.sha256(serialize_dice(compact_labels(source))).hexdigest() == digest

    def test_memory_bound_at_n_1000(self):
        # an n = 0 (mod 4) build skips one label per column; tracemalloc peak on CPython 3.11: 49.6 MB, the
        # check's bytearray of flags beside the ranks, against 56.6 MB with a list of flags and 93.7 MB when
        # such a set was sorted and ranked through a dict
        d = build_dice(random_tournament(1000, 1))
        tracemalloc.start()
        try:
            c = compact_labels(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(chain.from_iterable(c.faces)) == c.n * c.sides == sum(map(len, d.faces))
        assert peak <= 70 * 10**6

    def test_memory_bound_at_n_1001(self):
        # the labels of an odd build are already 1..n*k, which needs no rank table; tracemalloc peak on
        # CPython 3.11: 9.5 MB, the check's label list and its bytearray of flags (8.5 MB with a list of
        # flags made once the label list was freed), against 48.6 MB when such a set was ranked through a
        # table of running counts
        d = build_dice(random_tournament(1001, 1))
        tracemalloc.start()
        try:
            c = compact_labels(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c == d
        assert peak <= 12 * 10**6


class TestDiceFormats:
    def test_json_golden(self):
        data = serialize_dice(dice_set([[1], [2]]), "json")
        assert data == b'{"n":2,"sides":1,"dice":[[1],[2]]}'

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_round_trip(self, fmt):
        d = build_dice(almost_transitive(7))
        assert parse_dice(serialize_dice(d, fmt), fmt) == d

    def test_table_mirrors_fig8(self):
        from tourneydice import DiceSet

        table = serialize_dice(DiceSet(FIG8), "table").decode()
        assert "X_1:  1 10 19 27 35 40 45" in table
        assert "X_7:  2 11 20 28 32 37 43" in table

    def test_table_of_no_dice(self):
        assert serialize_dice(DiceSet(()), "table") == serialize_dice(DiceSet(()), "csv") == b""

    def test_parse_bad_json(self):
        with pytest.raises(ParseError):
            parse_dice(b"[1,2,3]", "json")

    def test_parse_dice_not_face_lists(self):
        with pytest.raises(ParseError) as info:
            parse_dice(b'{"dice": [1, 2]}', "json")
        assert str(info.value) == '"dice" must be a list of face lists'

    @pytest.mark.parametrize(
        "call", [lambda: serialize_dice(EQ1, "xml"), lambda: parse_dice(b"", "xml")], ids=["serialize", "parse"]
    )
    def test_unknown_format_refused(self, call):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == "unknown format 'xml'"

    def test_parse_inconsistent_header(self):
        for data in (
            b'{"n":3,"sides":1,"dice":[[1],[2]]}',
            b'{"dice":[[1,2]],"n":true}',  # header counts must be plain ints
            b'{"dice":[[1,2]],"sides":2.0}',
        ):
            with pytest.raises(ParseError):
                parse_dice(data, "json")

    def test_parse_csv(self):
        assert parse_dice(b"1,5,9\n3,4,8\n2,6,7\n", "csv") == EQ1

    def test_parse_csv_bad_cell(self):
        for cell in ("x", "\u0663", " 2 ", "+4"):  # only plain ASCII digits are labels
            with pytest.raises(ParseError):
                parse_dice(f"1,{cell}\n5,6\n".encode(), "csv")

    def test_csv_is_what_the_stdlib_writer_writes(self):
        # csv serves only as the reference here: its excel dialect writes int cells unquoted, "\r\n" after each row
        for d in [DiceSet(())] + [build_dice(random_tournament(n, n)) for n in range(1, 31)]:
            buf = io.StringIO()
            csv.writer(buf).writerows(d.faces)
            assert serialize_dice(d, "csv") == buf.getvalue().encode("ascii"), d.n

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() takes any number of digits")
    @pytest.mark.parametrize(
        "fmt,data",
        [("json", b'{"dice":[[' + b"9" * 5000 + b',1],[2,3]]}'), ("csv", b"9" * 5000 + b",1\n2,3")],
        ids=["json", "csv"],
    )
    def test_over_long_label_refused(self, fmt, data):
        # 5000 digits is over int()'s default limit of 4300: malformed input, refused alike by both formats
        with pytest.raises(ParseError, match="Exceeds the limit"):
            parse_dice(data, fmt)

    @pytest.mark.parametrize(
        "parse,fmt,data,expected",
        [
            (parse_dice, "csv", b'"1","5","9"\n3,4,8\n2,6,7\n',
             (ParseError, """face labels must be plain ASCII digits, got row ['"1"', '"5"', '"9"']""")),
            (parse_dice, "csv", b"1,5,9\n \t\n3,4,8\n2,6,7\n", EQ1),
            (parse_dice, "csv", b"1,5,9\r3,4,8\r2,6,7", EQ1),
            (parse_tournament, "matrix", b"0 1\n \t\n0 0\n", from_edges(2, [(1, 2)])),
            (parse_tournament, "matrix", b"0 1\r0 0", from_edges(2, [(1, 2)])),
            (parse_dice, "csv", b"1,5,\xff\n",
             (ParseError, "CSV is not valid text: 'utf-8' codec can't decode byte 0xff in position 4: "
                          "invalid start byte")),
            (parse_tournament, "matrix", b"0 1\n\xff 0\n",
             (ParseError, "matrix is not valid text: 'utf-8' codec can't decode byte 0xff in position 4: "
                          "invalid start byte")),
        ],
        ids=["csv-quoted", "csv-whitespace-line", "csv-lone-cr", "matrix-whitespace-line", "matrix-lone-cr",
             "csv-not-utf8", "matrix-not-utf8"],
    )
    def test_line_formats_share_one_line_rule(self, parse, fmt, data, expected):
        """CSV dice and the matrix split text alike: str.splitlines, whitespace-only lines dropped, no quoting."""
        if isinstance(expected, tuple):
            with pytest.raises(expected[0]) as info:
                parse(data, fmt)
            assert type(info.value) is expected[0] and str(info.value) == expected[1]
        else:
            assert parse(data, fmt) == expected


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "data",
    [b'{"dice":[[1],[2]]}', b'{"dice":[[1],[2]]', b'{"dice":' + b"[" * 100_000],
    ids=["good", "bad-json", "too-deep"],
)
def test_json_parse_leaves_the_collector_as_it_found_it(enabled, data):
    # parse_dice pauses the collector around json.loads, as parse_tournament does, and must restore it on every exit
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if data.endswith(b"}"):
            assert parse_dice(data, "json") == dice_set([[1], [2]])
        else:
            with pytest.raises(ParseError, match="bad JSON"):
                parse_dice(data, "json")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
