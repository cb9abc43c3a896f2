"""End-to-end tests for the command-line interface."""

import io
import json
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tourneydice import cli
from tourneydice.tournament import parse_tournament, serialize_tournament, transitive


@pytest.fixture
def run(monkeypatch, capsys):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""

    def invoke(argv, stdin: bytes = b""):
        monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(stdin)))
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = int(exc.code or 0)
        out, err = capsys.readouterr()
        return code, out, err

    return invoke


class TestGen:
    def test_json_output(self, run):
        code, out, _ = run(["gen", "--kind", "transitive", "--n", "5"])
        assert code == 0
        assert parse_tournament(out.encode(), "json") == transitive(5)

    def test_matrix_output(self, run):
        code, out, _ = run(["gen", "--kind", "transitive", "--n", "3", "--format", "matrix"])
        assert code == 0
        assert out == "0 1 1\n0 0 1\n0 0 0\n"

    def test_deterministic(self, run):
        first = run(["gen", "--kind", "random", "--n", "9", "--seed", "4"])
        second = run(["gen", "--kind", "random", "--n", "9", "--seed", "4"])
        assert first == second

    def test_paley_wrong_class(self, run):
        code, _, err = run(["gen", "--kind", "paley", "--n", "5"])
        assert code == 2
        assert "3 mod 4" in err

    def test_writes_file(self, run, tmp_path):
        out_path = tmp_path / "t.json"
        code, out, _ = run(["gen", "--kind", "almost-transitive", "--n", "7", "-o", str(out_path)])
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["n"] == 7


class TestFactor:
    def test_table_matches_figure_rows(self, run):
        code, out, _ = run(["factor", "--n", "7", "--format", "table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "Y_1: {2,7} {3,6} {4,5}"
        assert lines[3] == "Y_4: {3,5} {2,6} {1,7}"
        assert len(lines) == 7

    def test_even_table(self, run):
        code, out, _ = run(["factor", "--n", "6", "--format", "table"])
        assert code == 0
        assert out.splitlines()[4] == "Y_5: {1,4} {5,6} {2,3}"

    def test_json_default(self, run):
        code, out, _ = run(["factor", "--n", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 3,
            "parity": "odd",
            "rounds": [[[2, 3]], [[1, 3]], [[1, 2]]],
        }

    def test_unconstructible_n(self, run):
        code, _, err = run(["factor", "--n", "4"])
        assert code == 2
        assert "2 (mod 4)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "2001"],
        ["gen", "--kind", "paley", "--n", "10007"],
        ["factor", "--n", "2001"],
    ],
    ids=["gen", "gen_paley", "factor"],
)
def test_n_over_cap_rejected_before_allocating(run, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a generator ran for an n over the cap")

    for name in ("random_tournament", "paley", "odd_rounds", "even_rounds"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: n = {argv[-1]} is over the limit of {cli.MAX_N}\n"


class TestBuild:
    def test_stdin_to_json(self, run):
        stdin = serialize_tournament(transitive(5), "json")
        code, out, _ = run(["build"], stdin=stdin)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 5 and payload["sides"] == 5

    def test_matrix_input(self, run):
        stdin = serialize_tournament(transitive(4), "matrix")
        code, out, _ = run(["build"], stdin=stdin)
        assert code == 0
        assert json.loads(out)["sides"] == 5

    def test_table_output_golden(self, run):
        from tourneydice.tournament import almost_transitive

        stdin = serialize_tournament(almost_transitive(7), "json")
        code, out, _ = run(["build", "--format", "table"], stdin=stdin)
        assert code == 0
        assert "X_1:  1 10 19 27 35 40 45" in out

    def test_compact_flag(self, run):
        stdin = serialize_tournament(transitive(4), "json")
        code, out, _ = run(["build", "--compact"], stdin=stdin)
        assert code == 0
        labels = sorted(x for die in json.loads(out)["dice"] for x in die)
        assert labels == list(range(1, 21))

    def test_missing_edge_diagnostic(self, run):
        code, _, err = run(["build"], stdin=b'{"n":3,"beats":[[1,2],[2,3]]}')
        assert code == 2
        assert "no direction" in err


class TestVerifyMatchupStats:
    def test_verify_round_trip(self, run, tmp_path):
        t_path = tmp_path / "t.json"
        d_path = tmp_path / "d.json"
        run(["gen", "--kind", "random", "--n", "8", "--seed", "1", "-o", str(t_path)])
        run(["build", "-i", str(t_path), "-o", str(d_path)])
        code, out, _ = run(["verify", "--dice", str(d_path), "--tournament", str(t_path)])
        assert code == 0
        assert "realized: yes" in out
        assert "balanced: yes" in out

    def test_verify_failure_names_pair(self, run, tmp_path):
        t_path = tmp_path / "t.json"
        t_path.write_bytes(serialize_tournament(transitive(3), "json"))
        stdin = b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'
        code, out, _ = run(["verify", "--tournament", str(t_path)], stdin=stdin)
        assert code == 1
        assert "realized: no" in out
        assert "FAIL pair (1,3)" in out
        assert "4-5" in out  # both matchup counts for the offending pair

    def test_verify_refuses_two_stdin_inputs(self, run):
        stdin = b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'
        code, out, err = run(["verify", "--tournament", "-"], stdin=stdin)
        assert (code, out) == (2, "")
        assert err == "error: --dice and --tournament cannot both read stdin\n"

    def test_matchup_eq1(self, run):
        stdin = b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'
        code, out, _ = run(["matchup", "--pair", "1", "2"], stdin=stdin)
        assert code == 0
        assert "5 face wins to 4" in out
        assert "5/9" in out

    def test_matchup_bad_pair(self, run):
        stdin = b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'
        code, _, err = run(["matchup", "--pair", "1", "9"], stdin=stdin)
        assert code == 2
        assert "distinct dice" in err

    def test_stats(self, run):
        stdin = b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'
        code, out, _ = run(["stats"], stdin=stdin)
        assert code == 0
        assert "dice: 3" in out
        assert "sides: 3" in out
        assert "balanced: yes" in out
        assert "0 1 0\n0 0 1\n1 0 0" in out

    def test_stats_csv_input(self, run):
        code, out, _ = run(["stats"], stdin=b"1,5,9\n3,4,8\n2,6,7\n")
        assert code == 0
        assert "dice: 3" in out

    @pytest.mark.parametrize(
        "argv,data",
        [
            (["stats", "--dice"], b'{"dice":[[],[]]}'),
            (["matchup", "--pair", "1", "2", "--dice"], b'{"dice":[[],[]]}'),
            (["stats", "--dice"], b'{"dice":' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
            (["stats", "--dice"], b"[" * 200_000),
            (["build", "-i"], b"[" * 200_000),
            (["verify", "--tournament"], b'{"n":' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
        ],
        ids=["zero_sided_stats", "zero_sided_matchup", "nested_dice_json", "nested_dice_csv",
             "nested_matrix", "nested_tournament_json"],
    )
    def test_malformed_input_rejected(self, run, tmp_path, argv, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        stdin = b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'  # valid dice for verify
        code, out, err = run([*argv, str(path)], stdin=stdin)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert len(err) <= len("error: \n") + cli.MAX_ERROR_CHARS


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=300))
def test_arbitrary_bytes_exit_cleanly(run, tmp_path, data):
    """Any input ends in exit 0, 1 or 2 with at most one bounded stderr line."""
    path = tmp_path / "input"
    path.write_bytes(data)
    for argv in (["build"], ["stats"], ["matchup", "--pair", "1", "2"],
                 ["verify", "--tournament", str(path)]):
        code, _, err = run(argv, stdin=data)
        assert code in (0, 1, 2), argv
        assert err.count("\n") <= 1 and len(err) <= len("error: \n") + cli.MAX_ERROR_CHARS, argv


def test_pipes_compose_for_all_kinds(run, tmp_path):
    """gen | build | verify succeeds for every kind and every n in 2..25."""
    jobs = []
    for n in range(2, 26):
        jobs.append(["gen", "--kind", "transitive", "--n", str(n)])
        if n >= 3:
            jobs.append(["gen", "--kind", "almost-transitive", "--n", str(n)])
        jobs.append(["gen", "--kind", "random", "--n", str(n), "--seed", "13"])
        if n in (3, 7, 11, 19, 23):
            jobs.append(["gen", "--kind", "paley", "--n", str(n)])
    t_path = tmp_path / "t.json"
    for gen_argv in jobs:
        code, tournament_out, _ = run(gen_argv)
        assert code == 0, gen_argv
        code, dice_out, _ = run(["build"], stdin=tournament_out.encode())
        assert code == 0, gen_argv
        t_path.write_text(tournament_out)
        code, out, _ = run(["verify", "--tournament", str(t_path)], stdin=dice_out.encode())
        assert code == 0, (gen_argv, out)
