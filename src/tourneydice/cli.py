"""Command-line front end: generate, factor, build, verify, matchup, stats.

``-`` means stdin/stdout for every input/output path.  Exit codes: 0 on
success, 1 when verification fails, 2 on input or format errors, a bad
argument list included.

Each command is a fresh process, so each imports the library modules it
runs inside its own function, and the parser is built with the one
subcommand the command line names: ``gen`` loads ``tournament.py`` alone
and ``factor`` loads ``factorization.py`` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

MAX_ERROR_CHARS = 200  # diagnostic length cap: a malformed input cell can be arbitrarily long
MAX_N = 2000  # gen/factor refuse larger n before allocating: K_n has n(n-1)/2 pairs


def _terminal_columns() -> int:
    """The width ``shutil.get_terminal_size()`` gives: ``COLUMNS``, else stdout's terminal, else 80.

    argparse's help formatter asks shutil, and importing shutil (with bz2,
    lzma and fnmatch) costs about 3 ms of every start, help or not.
    """
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):  # stdout None, closed, detached or not a terminal
            columns = 0
    return columns or 80


class _HelpFormatter(argparse.HelpFormatter):
    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=_terminal_columns() - 2)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end in :func:`main`'s one-line handler, as every bad input does.

    Subparsers are made of the same class, so their errors end there too.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(formatter_class=_HelpFormatter, **kwargs)

    def error(self, message: str):
        raise ValueError(message)


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as file:
        return file.read()


def _write(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.write(b"\n")
    else:
        with open(path, "wb") as file:
            file.write(data)
            file.write(b"\n")


def _sniff(data: bytes) -> str:
    return "json" if data.lstrip().startswith(b"{") else ""


def _load_tournament(path: str):
    from .tournament import parse_tournament

    data = _read(path)
    return parse_tournament(data, _sniff(data) or "matrix")


def _load_dice(path: str):
    from .dice import parse_dice

    data = _read(path)
    return parse_dice(data, _sniff(data) or "csv")


def _cmd_gen(args: argparse.Namespace) -> int:
    from .tournament import almost_transitive, paley, random_tournament, serialize_tournament, transitive

    if args.kind == "transitive":
        t = transitive(args.n)
    elif args.kind == "almost-transitive":
        t = almost_transitive(args.n)
    elif args.kind == "random":
        t = random_tournament(args.n, args.seed)
    else:
        t = paley(args.n)
    _write(args.output, serialize_tournament(t, args.format))
    return 0


def _format_rounds_table(f) -> str:
    lines = [f"Y_{i}:" + "".join([f" {{{a},{b}}}" for a, b in row]) for i, row in enumerate(f.rounds, start=1)]
    return "\n".join(lines)


def _cmd_factor(args: argparse.Namespace) -> int:
    from .factorization import even_rounds, odd_rounds

    f = odd_rounds(args.n) if args.n % 2 == 1 else even_rounds(args.n)
    if args.format == "json":
        payload = {"n": f.n, "parity": f.parity, "rounds": f.rounds}  # json writes tuples as arrays
        _write(args.output, json.dumps(payload, separators=(",", ":")).encode("ascii"))
    else:
        _write(args.output, _format_rounds_table(f).encode("ascii"))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from .dice import build_dice, compact_labels, serialize_dice

    d = build_dice(_load_tournament(args.input))
    if args.compact:
        d = compact_labels(d)
    _write(args.output, serialize_dice(d, args.format))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .dice import verify_realization

    if args.dice == args.tournament == "-":
        raise ValueError("--dice and --tournament cannot both read stdin")
    d = _load_dice(args.dice)
    t = _load_tournament(args.tournament)
    report = verify_realization(d, t)
    print(f"realized: {'yes' if report.realized else 'no'}")
    print(f"balanced: {'yes' if report.balance_ok else 'no'}")
    print(f"pairs checked: {len(report.matchups)}")
    if not report.realized:
        for failure in report.failures:
            print(f"FAIL {failure}")
    return 0 if report.realized else 1


def _cmd_matchup(args: argparse.Namespace) -> int:
    from .dice import matchup

    d = _load_dice(args.dice)
    i, j = args.pair
    if not (1 <= i <= d.n and 1 <= j <= d.n) or i == j:
        raise ValueError(f"pair must name two distinct dice in 1..{d.n}")
    m = matchup(d.faces[i - 1], d.faces[j - 1])
    print(f"die {i} vs die {j}: {m.wins_a} face wins to {m.wins_b}")
    print(f"probability die {i} beats die {j}: {m.probability}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .dice import dominance, is_balanced
    from .tournament import serialize_tournament

    d = _load_dice(args.dice)
    t = dominance(d)
    print(f"dice: {d.n}")
    print(f"sides: {d.sides}")
    print(f"balanced: {'yes' if is_balanced(d) else 'no'}")
    print("dominance matrix:")
    print(serialize_tournament(t, "matrix").decode("ascii"))
    return 0


def _gen_options(gen: argparse.ArgumentParser) -> None:
    gen.add_argument(
        "--kind",
        choices=["transitive", "almost-transitive", "random", "paley"],
        default="random",
    )
    gen.add_argument("--n", type=int, required=True, help=f"vertex count <= {MAX_N}, prime for paley")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=["json", "matrix"], default="json")
    gen.add_argument("--output", "-o", default="-")


def _factor_options(factor: argparse.ArgumentParser) -> None:
    factor.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"positive odd n or n = 2 (mod 4), at most {MAX_N}; n = 0 (mod 4) exits 2 (build accepts it)",
    )
    factor.add_argument("--format", choices=["json", "table"], default="json")
    factor.add_argument("--output", "-o", default="-")


def _build_options(build: argparse.ArgumentParser) -> None:
    build.add_argument("--input", "-i", default="-", help="tournament file (JSON or matrix)")
    build.add_argument("--format", choices=["json", "csv", "table"], default="json")
    build.add_argument("--compact", action="store_true", help="relabel faces to ranks 1..n*k")
    build.add_argument("--output", "-o", default="-")


def _verify_options(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("--dice", default="-", help="dice file (JSON or CSV)")
    verify.add_argument("--tournament", required=True, help="tournament file (JSON or matrix)")


def _matchup_options(match: argparse.ArgumentParser) -> None:
    match.add_argument("--dice", default="-")
    match.add_argument("--pair", type=int, nargs=2, required=True, metavar=("I", "J"))


def _stats_options(stats: argparse.ArgumentParser) -> None:
    stats.add_argument("--dice", default="-")


# command -> (help line, function adding its options, function running it), in the order -h lists them
_COMMANDS = {
    "gen": ("generate a tournament", _gen_options, _cmd_gen),
    "factor": ("print the round/column edge partition of K_n", _factor_options, _cmd_factor),
    "build": ("construct dice realizing a tournament", _build_options, _cmd_build),
    "verify": ("check that dice realize a tournament", _verify_options, _cmd_verify),
    "matchup": ("exact win counts for one ordered die pair", _matchup_options, _cmd_matchup),
    "stats": ("side counts, balance, and dominance matrix", _stats_options, _cmd_stats),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: with the one subcommand its first word names, or all six if it names none."""
    parser = _Parser(
        prog="tourneydice",
        description="Construct and verify sets of non-transitive dice realizing tournaments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [word for word in argv[:1] if word in _COMMANDS] or _COMMANDS:
        help_line, add_options, run = _COMMANDS[name]
        command = sub.add_parser(name, help=help_line)
        add_options(command)
        command.set_defaults(func=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
        if getattr(args, "n", 0) > MAX_N:  # gen and factor take --n; refused here, before they allocate
            raise ValueError(f"n = {args.n} is over the limit of {MAX_N}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        from .errors import _echo

        message = _echo(" ".join(str(exc).split()), limit=MAX_ERROR_CHARS)  # one line, even if the error echoes input
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
