"""Command-line front end: generate, factor, build, verify, matchup, stats.

``-`` means stdin/stdout for every input/output path.  Exit codes: 0 on
success, 1 when verification fails, 2 on input or format errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dice import (
    DiceSet,
    build_dice,
    compact_labels,
    dominance,
    is_balanced,
    matchup,
    parse_dice,
    serialize_dice,
    verify_realization,
)
from .factorization import OneFactorization, even_rounds, odd_rounds
from .tournament import (
    Tournament,
    almost_transitive,
    paley,
    parse_tournament,
    random_tournament,
    serialize_tournament,
    transitive,
)

MAX_ERROR_CHARS = 200  # diagnostic length cap: a malformed input cell can be arbitrarily long
MAX_N = 2000  # gen/factor refuse larger n before allocating: K_n has n(n-1)/2 pairs


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


def _load_tournament(path: str) -> Tournament:
    data = _read(path)
    return parse_tournament(data, _sniff(data) or "matrix")


def _load_dice(path: str) -> DiceSet:
    data = _read(path)
    return parse_dice(data, _sniff(data) or "csv")


def _cmd_gen(args: argparse.Namespace) -> int:
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


def _format_rounds_table(f: OneFactorization) -> str:
    lines = []
    for i, row in enumerate(f.rounds, start=1):
        pairs = " ".join(f"{{{a},{b}}}" for a, b in row)
        lines.append(f"Y_{i}: {pairs}")
    return "\n".join(lines)


def _cmd_factor(args: argparse.Namespace) -> int:
    f = odd_rounds(args.n) if args.n % 2 == 1 else even_rounds(args.n)
    if args.format == "json":
        payload = {"n": f.n, "parity": f.parity, "rounds": f.rounds}  # json writes tuples as arrays
        _write(args.output, json.dumps(payload, separators=(",", ":")).encode("ascii"))
    else:
        _write(args.output, _format_rounds_table(f).encode("ascii"))
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    t = _load_tournament(args.input)
    d = build_dice(t)
    if args.compact:
        d = compact_labels(d)
    _write(args.output, serialize_dice(d, args.format))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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
    d = _load_dice(args.dice)
    i, j = args.pair
    if not (1 <= i <= d.n and 1 <= j <= d.n) or i == j:
        raise ValueError(f"pair must name two distinct dice in 1..{d.n}")
    m = matchup(d.faces[i - 1], d.faces[j - 1])
    print(f"die {i} vs die {j}: {m.wins_a} face wins to {m.wins_b}")
    print(f"probability die {i} beats die {j}: {m.probability}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    d = _load_dice(args.dice)
    t = dominance(d)
    print(f"dice: {d.n}")
    print(f"sides: {d.sides}")
    print(f"balanced: {'yes' if is_balanced(d) else 'no'}")
    print("dominance matrix:")
    print(serialize_tournament(t, "matrix").decode("ascii"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourneydice",
        description="Construct and verify sets of non-transitive dice realizing tournaments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a tournament")
    gen.add_argument(
        "--kind",
        choices=["transitive", "almost-transitive", "random", "paley"],
        default="random",
    )
    gen.add_argument("--n", type=int, required=True, help=f"vertex count <= {MAX_N}, prime for paley")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=["json", "matrix"], default="json")
    gen.add_argument("--output", "-o", default="-")
    gen.set_defaults(func=_cmd_gen)

    factor = sub.add_parser("factor", help="print the round/column edge partition of K_n")
    factor.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"odd n >= 3 or n = 2 (mod 4), at most {MAX_N}; n = 1 and n = 0 (mod 4) exit 2 "
        "(build accepts them)",
    )
    factor.add_argument("--format", choices=["json", "table"], default="json")
    factor.add_argument("--output", "-o", default="-")
    factor.set_defaults(func=_cmd_factor)

    build = sub.add_parser("build", help="construct dice realizing a tournament")
    build.add_argument("--input", "-i", default="-", help="tournament file (JSON or matrix)")
    build.add_argument("--format", choices=["json", "csv", "table"], default="json")
    build.add_argument("--compact", action="store_true", help="relabel faces to ranks 1..n*k")
    build.add_argument("--output", "-o", default="-")
    build.set_defaults(func=_cmd_build)

    verify = sub.add_parser("verify", help="check that dice realize a tournament")
    verify.add_argument("--dice", default="-", help="dice file (JSON or CSV)")
    verify.add_argument("--tournament", required=True, help="tournament file (JSON or matrix)")
    verify.set_defaults(func=_cmd_verify)

    match = sub.add_parser("matchup", help="exact win counts for one ordered die pair")
    match.add_argument("--dice", default="-")
    match.add_argument("--pair", type=int, nargs=2, required=True, metavar=("I", "J"))
    match.set_defaults(func=_cmd_matchup)

    stats = sub.add_parser("stats", help="side counts, balance, and dominance matrix")
    stats.add_argument("--dice", default="-")
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "n", 0) > MAX_N:  # gen and factor take --n; refused here, before they allocate
            raise ValueError(f"n = {args.n} is over the limit of {MAX_N}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).split())  # one line, even if the error echoes input
        if len(message) > MAX_ERROR_CHARS:
            message = message[: MAX_ERROR_CHARS - 3] + "..."
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
