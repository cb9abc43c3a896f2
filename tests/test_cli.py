"""End-to-end tests for the command-line interface."""

import io
import json
import os
import re
import resource
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tourneydice import cli, errors
from tourneydice.dice import build_dice, parse_dice, serialize_dice
from tourneydice.tournament import parse_tournament, random_tournament, serialize_tournament, transitive


def test_start_loads_no_module_a_command_does_not_need():
    """A fresh ``import tourneydice.cli`` loads, besides the package, only what argparse and json load.

    Run in a new interpreter, so that modules loaded by this test process do
    not count and modules arriving through another import do.
    """
    code = (
        "import sys; import argparse, json; before = set(sys.modules); import tourneydice.cli; "
        "print(' '.join(sorted(sys.modules))); print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        check=True,
        timeout=60,
    )
    loaded, added = (line.split() for line in proc.stdout.decode().splitlines())
    slow = {"dataclasses", "inspect", "typing", "pathlib", "fractions", "decimal", "csv", "random"}
    assert sorted(slow.intersection(loaded)) == []
    # __future__ comes with ``from __future__ import annotations``; collections.abc is a re-export
    assert {m for m in added if m.partition(".")[0] != "tourneydice"} <= {"__future__", "collections.abc"}


COMMANDS = {  # a command line per command, and the stdin it reads; ``t.json`` is written by the test
    "gen": (["gen", "--n", "5"], b""),
    "factor": (["factor", "--n", "5"], b""),
    "build": (["build"], b'{"n":3,"beats":[[1,2],[2,3],[3,1]]}'),
    "verify": (["verify", "--tournament", "t.json"], b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'),
    "matchup": (["matchup", "--pair", "1", "2"], b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'),
    "stats": (["stats"], b"1,5,9\n3,4,8\n2,6,7\n"),
}
UNUSED = {"gen": {"tourneydice.dice", "tourneydice.factorization"},
          "factor": {"tourneydice.dice", "tourneydice.tournament"}}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    """A command compiles no package module it does not run, and builds its parser without ``shutil``.

    Run in a fresh ``python -S`` writing no bytecode, as each CLI command
    starts: ``gen`` loads no ``dice`` or ``factorization`` module, ``factor``
    no ``dice`` or ``tournament`` module, and no command run without ``-h``
    imports ``shutil``, which brings ``bz2``, ``lzma`` and ``fnmatch``.
    """
    argv, stdin = COMMANDS[command]
    (tmp_path / "t.json").write_bytes(b'{"n":3,"beats":[[1,2],[2,3],[3,1]]}')
    code = (
        "import sys; import tourneydice.cli; status = tourneydice.cli.main(sys.argv[1:]); sys.stdout.flush(); "
        "print(status, *sorted(sys.modules), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        input=stdin,
        capture_output=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )
    status, *loaded = proc.stderr.decode().split()
    assert status == "0" and proc.stdout
    assert sorted(UNUSED.get(command, set()).intersection(loaded)) == []
    assert "shutil" not in loaded
    assert {"tourneydice.dice", "tourneydice.factorization", "tourneydice.tournament"}.intersection(loaded)


@pytest.mark.parametrize("columns", [None, "50", "120", "0", "-3", "wide"])
def test_help_width_follows_the_terminal_size_rule(monkeypatch, columns):
    """Help is wrapped at the width ``shutil.get_terminal_size`` gives, though the CLI never imports shutil."""
    import shutil

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert cli._terminal_columns() == shutil.get_terminal_size().columns


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

    def test_n1_json(self, run):
        assert run(["factor", "--n", "1"]) == (0, '{"n":1,"parity":"odd","rounds":[[]]}\n', "")

    def test_n1_table(self, run):
        assert run(["factor", "--n", "1", "--format", "table"]) == (0, "Y_1:\n", "")

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

    for name in ("tournament.random_tournament", "tournament.paley",
                 "factorization.odd_rounds", "factorization.even_rounds"):
        monkeypatch.setattr(f"tourneydice.{name}", refuse)
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: n = {argv[-1]} is over the limit of {cli.MAX_N}\n"


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["gen", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["gen", "--kind", "bad", "--n", "5"], "argument --kind: invalid choice: 'bad'"),
        (["verify"], "the following arguments are required: --tournament"),
        (["matchup", "--pair", "1"], "argument --pair: expected 2 arguments"),
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["gen", "--n", "3", "extra"], "unrecognized arguments: extra"),
    ],
    ids=["not_an_int", "bad_choice", "missing_option", "short_pair", "no_command", "bad_command", "extra"],
)
def test_bad_arguments_end_in_one_error_line(run, argv, reason):
    """A bad argument list exits 2 with one ``error:`` line and no usage block, as bad input does."""
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["gen", "-h"], ["factor", "--help"], ["stats", "-h"]])
def test_help_still_exits_0(run, argv):
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: tourneydice {argv[0] if len(argv) > 1 else '[-h]'}")


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

    def test_json_n_not_an_int_diagnostic(self, run):
        code, out, err = run(["build"], stdin=b'{"n":"3","beats":[]}')
        assert (code, out, err) == (2, "", "error: n must be an integer, got '3'\n")

    @pytest.mark.parametrize("argv", [["build", "-i"], ["verify", "--tournament"]])
    def test_declared_n_costs_nothing_beyond_listed_edges(self, tmp_path, argv):
        """A tiny file declaring n = 10^9 is refused under a 1 GB address-space limit."""
        path = tmp_path / "t.json"
        path.write_bytes(b'{"n":1000000000,"beats":[[1,2]]}')
        limit = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "tourneydice.cli", *argv, str(path)],
            input=b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}',
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: pair {1,3} has no direction\n"


@pytest.mark.parametrize(
    "argv,name,reason",
    [
        (["build", "-i"], "missing.json", "[Errno 2] No such file or directory"),
        (["build", "-i"], "directory", "[Errno 21] Is a directory"),
        (["gen", "--n", "3", "-o"], "missing/t.json", "[Errno 2] No such file or directory"),
    ],
    ids=["missing_input", "directory_input", "output_in_missing_directory"],
)
def test_file_errors_diagnosed(run, tmp_path, argv, name, reason):
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / name)
    code, out, err = run([*argv, path])
    assert (code, out, err) == (2, "", f"error: {reason}: {path!r}\n")


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
            (["stats", "--dice"], "2,4,9\n1,6,8\n\u0663,5,7".encode()),
            (["stats", "--dice"], b" 2 ,+4,9\n1,6,8\n3,5,7"),
            (["stats", "--dice"], b'"2","4","9"\n1,6,8\n3,5,7'),
        ],
        ids=["zero_sided_stats", "zero_sided_matchup", "nested_dice_json", "nested_dice_csv",
             "nested_matrix", "nested_tournament_json", "csv_arabic_digit", "csv_space_plus", "csv_quoted"],
    )
    def test_malformed_input_rejected(self, run, tmp_path, argv, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        stdin = b'{"n":3,"sides":3,"dice":[[1,5,9],[3,4,8],[2,6,7]]}'  # valid dice for verify
        code, out, err = run([*argv, str(path)], stdin=stdin)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert len(err) <= len("error: \n") + cli.MAX_ERROR_CHARS


@pytest.mark.parametrize("n", [4, 5, 6, 7])  # one n per residue mod 4
def test_csv_dice_round_trip(run, tmp_path, n):
    """gen | build --format csv | stats and verify read the CLI's own CSV back, with its "\\r\\n\\n" ending."""
    _, tournament, _ = run(["gen", "--kind", "random", "--n", str(n), "--seed", "3"])
    (tmp_path / "t.json").write_text(tournament)
    code, dice_csv, _ = run(["build", "--format", "csv"], stdin=tournament.encode())
    assert code == 0 and dice_csv.endswith("\r\n\n")
    _, dice_json, _ = run(["build"], stdin=tournament.encode())
    code, out, err = run(["stats"], stdin=dice_csv.encode())
    assert (code, out, err) == run(["stats"], stdin=dice_json.encode()) and code == 0
    assert run(["verify", "--tournament", str(tmp_path / "t.json")], stdin=dice_csv.encode())[0] == 0


WIRE_FILES = [  # valid inputs at n = 3-6: tournament JSON and matrix, dice JSON and CSV
    data
    for t in [random_tournament(n, n) for n in range(3, 7)]
    for data in (serialize_tournament(t, "json"), serialize_tournament(t, "matrix"),
                 serialize_dice(build_dice(t), "json"), serialize_dice(build_dice(t), "csv"))
]


# what an edit may insert: an overflowing float, JSON words, a 30-digit int, NUL, a byte that is not UTF-8,
# a line separator str.splitlines breaks at, Arabic digits that str.isdigit accepts, and signs
INSERTS = [b"1e400", b"true", b"NaN", b"9" * 30, b"\x00", b"\xff", "\u2028".encode(), "\u0663\u0664".encode(),
           b"+", b"-"]


@st.composite
def edited_wire_files(draw):
    """A valid wire file after one to three deletes or inserts, each of one byte or of one token."""
    data = draw(st.sampled_from(WIRE_FILES))
    # a token is a run of digits or any other single byte
    pieces = re.findall(rb"[0-9]+|.", data, re.S) if draw(st.booleans()) else [bytes([b]) for b in data]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(pieces)))
        if at < len(pieces) and draw(st.booleans()):
            del pieces[at]
        else:
            pieces.insert(at, draw(st.sampled_from(INSERTS)))
    return b"".join(pieces)


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=300) | edited_wire_files())
def test_arbitrary_bytes_exit_cleanly(run, tmp_path, data):
    """Any input ends in exit 0, 1 or 2, with no output on 2 and at most one bounded stderr line.

    The parsers behind the CLI raise only the package's own errors on it.
    """
    path = tmp_path / "input"
    path.write_bytes(data)
    for argv in (["build"], ["stats"], ["matchup", "--pair", "1", "2"],
                 ["verify", "--tournament", str(path)]):
        code, out, err = run(argv, stdin=data)
        assert code in (0, 1, 2), argv
        assert err.count("\n") <= 1 and len(err) <= len("error: \n") + cli.MAX_ERROR_CHARS, argv
        if code == 2:
            assert out == "" and err.startswith("error: "), argv
    for parse, fmt in ((parse_tournament, "json"), (parse_tournament, "matrix"), (parse_dice, "json"),
                       (parse_dice, "csv")):
        try:
            parse(data, fmt)
        except Exception as exc:
            assert type(exc).__module__ == errors.__name__, (parse.__name__, fmt, exc)


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
