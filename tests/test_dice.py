"""Tests for dice construction, the face-win oracle, and verification."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tourneydice import (
    almost_transitive,
    build_0mod4,
    build_dice,
    build_even_2mod4,
    build_odd,
    compact_labels,
    dice_set,
    dominance,
    face_wins,
    from_edges,
    guaranteed_wins_audit,
    is_balanced,
    matchup,
    parse_dice,
    random_tournament,
    serialize_dice,
    transitive,
    verify_realization,
)
from tourneydice.errors import (
    DuplicateLabelError,
    ParityError,
    ParseError,
    SideCountMismatchError,
    TieDetectedError,
)

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

    @given(labels=st.sets(st.integers(1, 10**6), min_size=2, max_size=40))
    def test_disjoint_dice_split_all_pairs(self, labels):
        ordered = sorted(labels)
        a, b = ordered[0::2], ordered[1::2]
        k = min(len(a), len(b))
        a, b = a[:k], b[:k]
        assert face_wins(a, b) + face_wins(b, a) == k * k


class TestMatchup:
    def test_eq1_probability(self):
        m = matchup(EQ1.faces[0], EQ1.faces[1])
        assert (m.wins_a, m.wins_b) == (5, 4)
        assert m.probability == Fraction(5, 9)

    def test_single_face(self):
        assert matchup([2], [1]).probability == Fraction(1)

    def test_side_count_mismatch(self):
        with pytest.raises(SideCountMismatchError):
            matchup([1, 2], [3])

    def test_shared_label(self):
        with pytest.raises(DuplicateLabelError):
            matchup([1, 2], [2, 3])


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

    @pytest.mark.parametrize("dice_n,tournament_n", [(3, 5), (5, 3)])
    def test_audit_size_mismatch(self, dice_n, tournament_n):
        audit = guaranteed_wins_audit(build_dice(transitive(dice_n)), transitive(tournament_n))
        assert audit.failures == (f"dice count {dice_n} != tournament size {tournament_n}",)

    def test_builds_are_balanced(self):
        for n in (1, 2, 3, 4, 6, 7, 9):
            assert is_balanced(build_dice(random_tournament(n, 5)))

    def test_eq1_balanced(self):
        assert is_balanced(EQ1)  # 5/9 == 1/2 + 1/18

    def test_lopsided_pair_unbalanced(self):
        assert not is_balanced(dice_set([[1, 2], [3, 4]]))


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


class TestCompactLabels:
    def test_identity_on_permutation_labeling(self):
        assert compact_labels(EQ1) == EQ1

    def test_two_dice(self):
        assert compact_labels(dice_set([[10], [20]])).faces == ((1,), (2,))

    def test_closes_gaps_and_preserves_matchups(self):
        t = random_tournament(8, 6)
        d = build_dice(t)
        c = compact_labels(d)
        labels = sorted(x for die in c.faces for x in die)
        assert labels == list(range(1, c.n * c.sides + 1))
        assert dominance(c) == t
        for i, j in combinations(range(d.n), 2):
            assert matchup(d.faces[i], d.faces[j]) == matchup(c.faces[i], c.faces[j])


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

    def test_parse_bad_json(self):
        with pytest.raises(ParseError):
            parse_dice(b"[1,2,3]", "json")

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
