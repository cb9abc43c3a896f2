"""One benchmark workload, run in a fresh child process by ``run.py``.

Prints ``ready`` once set-up (interpreter start, ``import tourneydice``,
workload specs) is done, then runs whole cycles of sets for at least
``--seconds`` and prints one JSON line with the per-set times and the
check outcomes.
With ``--trace 1`` it instead runs a fixed number of sets twice each, once
traced and once not, so counts repeat exactly for a seed and the pair of
passes gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tourneydice as td

import checker as ck
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


class Workload(NamedTuple):
    shapes: tuple  # one cycle of (kind, n, variant); a run repeats the cycle
    traced_sets: int  # sets in a traced run, each run once traced and once not
    matrix: bool = False  # tournament matrix format round trip
    compact: bool = False  # compact_labels on the built dice
    partition: bool = False  # verify_partition of the rounds behind the build
    full_checks: bool = False  # the four whole-set checks; otherwise sampled matchups
    cli: bool = False


def _small_batch_shapes():
    shapes = []
    for n in range(1, 26):
        shapes += [("random", n, False), ("random", n, n >= 2), ("transitive", n, False)]
        if n >= 3:
            shapes.append(("almost_transitive", n, False))
        if n in (3, 7, 11, 19, 23):
            shapes.append(("paley", n, False))
    return tuple(shapes)


# variant: tampered (library workloads) or (tournament format, --compact) for cli_pipe
WORKLOADS = {
    "verify_mid": Workload(
        shapes=(("random", 44, False), ("random", 45, True), ("transitive", 46, False),
                ("paley", 47, False), ("almost_transitive", 44, True), ("random", 46, True),
                ("random", 47, False), ("almost_transitive", 45, False)),
        traced_sets=16, full_checks=True),
    "build_large": Workload(
        shapes=(("random", 300, False), ("random", 301, False), ("random", 302, False)),
        traced_sets=12, matrix=True, compact=True),
    "small_batch": Workload(
        shapes=_small_batch_shapes(), traced_sets=2 * len(_small_batch_shapes()),
        partition=True, full_checks=True),
    "cli_pipe": Workload(
        shapes=(("random", 13, ("matrix", False)), ("paley", 11, ("json", False)),
                ("transitive", 12, ("json", True)), ("almost_transitive", 14, ("json", False))),
        traced_sets=8, cli=True),
}

SAMPLED_PAIRS = 8  # build_large: pairs the checker counts per set
LIBRARY_MATCHUPS = 2  # build_large: of those, pairs also run through td.matchup
MATCHUPS = 3  # full-check workloads: ordered pairs through td.matchup


class Spec(NamedTuple):
    index: int
    kind: str
    n: int
    variant: object
    seed: int  # tournament seed for kind "random"
    tamper: tuple | None  # dice rows (i, j) swapped before the checks
    pairs: tuple  # ordered die pairs for matchups / sampled counts


def spec_at(name: str, seed: int, index: int) -> Spec:
    """Set ``index`` of a workload; a pure function of (workload, seed, index)."""
    w = WORKLOADS[name]
    kind, n, variant = w.shapes[index % len(w.shapes)]
    rng = random.Random(f"{name}:{seed}:{index}")
    tseed = rng.randrange(2**31)
    tampered = variant is True or w.cli  # a cli set verifies both a genuine and a tampered file
    tamper = tuple(sorted(rng.sample(range(1, n + 1), 2))) if tampered else None
    count = MATCHUPS if w.full_checks else SAMPLED_PAIRS
    pairs = tuple(tuple(rng.sample(range(1, n + 1), 2)) for _ in range(count)) if n >= 2 else ()
    return Spec(index, kind, n, variant, tseed, tamper, pairs)


class Ops:
    """Operations whose outcome the checker compares against its own answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, spec: Spec, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAILED set {spec.index} {spec.kind} n={spec.n}: {name}", file=sys.stderr)

    def crash(self, spec: Spec) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED set {spec.index} {spec.kind} n={spec.n}: uncaught exception", file=sys.stderr)
        traceback.print_exc(limit=3)


def _generate(kind: str, n: int, seed: int):
    if kind == "random":
        return td.random_tournament(n, seed)
    return getattr(td, kind)(n)


def _rounds(n: int):
    if n % 2 == 1:
        return td.odd_rounds(n)
    return td.even_rounds(n) if n % 4 == 2 else td.odd_rounds(n + 1)


# ---------------------------------------------------------------- library sets

def library_set(w: Workload, spec: Spec) -> tuple[float, dict]:
    """The timed pipeline for one set; returns (seconds, artifacts for the checker)."""
    a = {}
    start = perf_counter()
    a["t"] = t = _generate(spec.kind, spec.n, spec.seed)
    a["tj"] = tj = td.serialize_tournament(t, "json")
    a["t_json"] = t1 = td.parse_tournament(tj, "json")
    if w.matrix:
        a["tm"] = tm = td.serialize_tournament(t, "matrix")
        a["t_matrix"] = td.parse_tournament(tm, "matrix")
    a["built"] = d = td.build_dice(t1)
    a["dj"] = dj = td.serialize_dice(d)
    a["d"] = d = td.parse_dice(dj)
    if w.compact:
        a["compact"] = td.compact_labels(d)
    if w.partition and spec.n >= 2:
        a["f"] = f = _rounds(spec.n)
        a["partition"] = td.verify_partition(f)
    if w.full_checks:
        if spec.tamper:
            i, j = spec.tamper
            faces = list(d.faces)
            faces[i - 1], faces[j - 1] = faces[j - 1], faces[i - 1]
            d = td.DiceSet(tuple(faces))
        a["verify"] = td.verify_realization(d, t1)
        a["dominance"] = td.dominance(d)
        a["balanced"] = td.is_balanced(d)
        a["audit"] = td.guaranteed_wins_audit(d, t1)
        a["matchups"] = [td.matchup(d.faces[x - 1], d.faces[y - 1]) for x, y in spec.pairs]
    else:
        pairs = spec.pairs[:LIBRARY_MATCHUPS]
        a["matchups"] = [td.matchup(d.faces[x - 1], d.faces[y - 1]) for x, y in pairs]
    return perf_counter() - start, a


def check_library(w: Workload, spec: Spec, a: dict, ops: Ops) -> None:
    n, k = spec.n, ck.side_count(spec.n)
    rows = ck.expected_tournament(spec.kind, n, spec.seed)
    ops.check(spec, "generate+serialize json", ck.json_matches(a["tj"], rows))
    ops.check(spec, "parse json round trip", a["t_json"] == a["t"])
    if w.matrix:
        ops.check(spec, "serialize matrix", ck.matrix_matches(a["tm"], rows))
        ops.check(spec, "parse matrix round trip", a["t_matrix"] == a["t"])
    faces = a["built"].faces
    ops.check(spec, "dice json round trip",
              a["d"] == a["built"] and ck.decode_dice_json(a["dj"]) == [list(f) for f in faces])
    if w.compact:
        ops.check(spec, "compact_labels rank map", ck.is_rank_map(faces, a["compact"].faces))
    if "partition" in a:
        f = a["f"]
        ops.check(spec, "verify_partition", a["partition"].ok and ck.partition_ok(f.n, f.rounds))
    square = k * k
    if not w.full_checks:
        srt = [sorted(die) for die in faces]
        sampled = all(
            2 * ck.wins(srt[x - 1], srt[y - 1]) == square + 1 if rows[x][y]
            else 2 * ck.wins(srt[y - 1], srt[x - 1]) == square + 1
            for x, y in spec.pairs)
        ops.check(spec, "build (side count, labels, sampled pairs)",
                  ck.distinct_labels(faces, n, k) and sampled)
        for (x, y), m in zip(spec.pairs, a["matchups"]):
            w_xy = ck.wins(srt[x - 1], srt[y - 1])
            ops.check(spec, f"matchup {x} {y}", (m.wins_a, m.wins_b, m.probability)
                      == (w_xy, square - w_xy, Fraction(w_xy, square)))
        return
    table = ck.win_table(faces)
    ops.check(spec, "build realizes the tournament",
              ck.distinct_labels(faces, n, k) and ck.realizes(table, k, rows))
    pi = ck.swap(*spec.tamper) if spec.tamper else ck.swap(0, 0)
    failing = ck.tamper_prediction(rows, *spec.tamper) if spec.tamper else set()
    shown = ck.swapped(rows, *spec.tamper) if spec.tamper else rows

    def won(x, y):  # face wins of tampered-set die x over die y
        return table[pi(x) - 1][pi(y) - 1]

    vr = a["verify"]
    ops.check(spec, "verify_realization verdict and failing pairs",
              vr.realized == (not failing) and vr.balance_ok
              and {(e.i, e.j) for e in vr.matchups if not e.ok} == failing
              and len(vr.matchups) == n * (n - 1) // 2
              and all((e.wins_i, e.wins_j) == (won(e.i, e.j), won(e.j, e.i)) for e in vr.matchups))
    dom = a["dominance"]
    ops.check(spec, "dominance", dom.n == n and all(
        dom.beats(x, y) == bool(shown[x][y]) for x in range(1, n + 1) for y in range(1, n + 1)))
    ops.check(spec, "is_balanced", a["balanced"] is True)
    aud = a["audit"]
    ops.check(spec, "guaranteed_wins_audit",
              len(aud.failures) == len(failing) and aud.sides == k
              and (aud.loser_wins, aud.winner_wins) == ((square - 1) // 2, (square + 1) // 2))
    for (x, y), m in zip(spec.pairs, a["matchups"]):
        ops.check(spec, f"matchup {x} {y}", (m.wins_a, m.wins_b, m.probability)
                  == (won(x, y), won(y, x), Fraction(won(x, y), square)))


# -------------------------------------------------------------------- cli sets

CLI_STEPS = ("gen", "build", "verify", "stats", "matchup", "factor")
DICE_CSV = [["2", "4", "9"], ["1", "6", "8"], ["3", "5", "7"]]  # valid, no tied pair
NESTED = 100_000
# Malformed inputs from the robustness backlog, and the CLI command each is fed to.
# The wanted outcome is exit 2 with one bounded stderr line and no traceback.
PROBES = {
    "empty_dice_stats": ("empty.json", b'{"dice":[[],[]]}', ["stats", "--dice"]),
    "empty_dice_matchup": ("empty.json", b'{"dice":[[],[]]}', ["matchup", "--pair", "1", "2", "--dice"]),
    "nested_json_brace": ("brace.json", b'{"dice":' + b"[" * NESTED + b"]" * NESTED + b"}",
                          ["stats", "--dice"]),
    "nested_json_bare": ("bare.json", b"[" * NESTED + b"]" * NESTED, ["stats", "--dice"]),
    "csv_arabic_digit": ("arabic.csv", "\n".join(
        ",".join("٣" if c == "3" else c for c in row) for row in DICE_CSV).encode(),
        ["stats", "--dice"]),
    "csv_space_plus": ("spaced.csv", "\n".join(
        ",".join({"2": " 2 ", "4": "+4"}.get(c, c) for c in row) for row in DICE_CSV).encode(),
        ["stats", "--dice"]),
}
MAX_STDERR = 1000


def _cli(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-S", "-m", "tourneydice.cli", *args], cwd=ROOT,
                          capture_output=True, timeout=120)
    return perf_counter() - start, proc


def cli_set(spec: Spec, work: Path) -> tuple[float, dict]:
    """Run the CLI pipeline for one set, one process at a time, passing files."""
    fmt, compact = spec.variant
    tfile, dfile, xfile = work / f"t.{fmt}", work / "d.json", work / "x.json"
    n_factor = spec.n if spec.n % 4 != 0 else spec.n + 1
    x, y = spec.pairs[0]
    runs = {}
    for path in (tfile, dfile, xfile):
        path.unlink(missing_ok=True)

    def step(name, *args):
        seconds, proc = _cli(list(args))
        runs.setdefault(name, []).append((seconds, proc))

    step("gen", "gen", "--kind", spec.kind.replace("_", "-"), "--n", str(spec.n),
         "--seed", str(spec.seed), "--format", fmt, "-o", str(tfile))
    step("build", "build", "-i", str(tfile), "-o", str(dfile), *(["--compact"] if compact else []))
    step("verify", "verify", "--dice", str(dfile), "--tournament", str(tfile))
    if dfile.exists():  # the tampered copy is the benchmark's own, untimed work
        obj = json.loads(dfile.read_bytes())
        i, j = spec.tamper
        obj["dice"][i - 1], obj["dice"][j - 1] = obj["dice"][j - 1], obj["dice"][i - 1]
        xfile.write_text(json.dumps(obj, separators=(",", ":")), encoding="ascii")
    step("verify", "verify", "--dice", str(xfile), "--tournament", str(tfile))
    step("stats", "stats", "--dice", str(dfile))
    step("matchup", "matchup", "--dice", str(dfile), "--pair", str(x), str(y))
    step("factor", "factor", "--n", str(n_factor))
    seconds = sum(s for procs in runs.values() for s, _ in procs)
    return seconds, {"runs": runs, "tournament": tfile.read_bytes() if tfile.exists() else b"",
                     "dice": dfile.read_bytes() if dfile.exists() else b""}


def check_cli(spec: Spec, a: dict, ops: Ops) -> None:
    n, k = spec.n, ck.side_count(spec.n)
    square = k * k
    fmt, compact = spec.variant
    rows = ck.expected_tournament(spec.kind, n, spec.seed)
    runs = a["runs"]

    def proc_ok(name, index=0, code=0):
        p = runs[name][index][1]
        return p.returncode == code and not p.stderr

    matches = ck.matrix_matches if fmt == "matrix" else ck.json_matches
    ops.check(spec, "cli gen", proc_ok("gen") and matches(a["tournament"], rows))
    faces = ck.decode_dice_json(a["dice"]) if proc_ok("build") else []
    table = ck.win_table(faces) if ck.distinct_labels(faces, n, k) else None
    ops.check(spec, "cli build", table is not None and ck.realizes(table, k, rows) and (
        not compact or sorted(x for die in faces for x in die) == list(range(1, n * k + 1))))
    table = table or [[0] * n for _ in range(n)]
    header = f"realized: {{}}\nbalanced: yes\npairs checked: {n * (n - 1) // 2}\n"
    ops.check(spec, "cli verify", proc_ok("verify") and
              runs["verify"][0][1].stdout.decode() == header.format("yes"))
    failing = ck.tamper_prediction(rows, *spec.tamper)
    out = runs["verify"][1][1].stdout.decode()
    shown = {(int(i), int(j)) for i, j in re.findall(r"^FAIL pair \((\d+),(\d+)\)", out, re.M)}
    ops.check(spec, "cli verify tampered (exit 1, predicted pairs)",
              proc_ok("verify", 1, code=1) and out.startswith(header.format("no"))
              and shown == failing and out.count("\n") == 3 + len(failing))
    matrix = "\n".join(ck.matrix_rows(rows))
    ops.check(spec, "cli stats", proc_ok("stats") and runs["stats"][0][1].stdout.decode()
              == f"dice: {n}\nsides: {k}\nbalanced: yes\ndominance matrix:\n{matrix}\n")
    x, y = spec.pairs[0]
    wins = table[x - 1][y - 1]
    ops.check(spec, "cli matchup", proc_ok("matchup") and runs["matchup"][0][1].stdout.decode()
              == f"die {x} vs die {y}: {wins} face wins to {square - wins}\n"
                 f"probability die {x} beats die {y}: {Fraction(wins, square)}\n")
    n_factor = n if n % 4 != 0 else n + 1
    factor = json.loads(runs["factor"][0][1].stdout) if proc_ok("factor") else {}
    ops.check(spec, "cli factor", factor.get("n") == n_factor
              and factor.get("parity") == ("odd" if n_factor % 2 else "even")
              and ck.partition_ok(n_factor, factor.get("rounds", [])))


def run_probes(work: Path) -> dict:
    """Feed each malformed input to the CLI and record whether it ends as wanted."""
    outcomes = {}
    for name, (filename, data, command) in PROBES.items():
        path = work / filename
        path.write_bytes(data)
        try:
            _, proc = _cli([*command, str(path)])
        except subprocess.TimeoutExpired:
            outcomes[name] = {"exit": None, "stderr_lines": 0, "traceback": False, "ok": False}
            continue
        err = proc.stderr
        outcomes[name] = {
            "exit": proc.returncode,
            "stderr_lines": err.count(b"\n"),
            "traceback": b"Traceback" in err,
            "ok": proc.returncode == 2 and err.count(b"\n") == 1 and len(err) <= MAX_STDERR
                  and b"Traceback" not in err,
        }
    return outcomes


# ------------------------------------------------------------------------ runs

def run_set(w: Workload, spec: Spec, work: Path | None):
    return cli_set(spec, work) if w.cli else library_set(w, spec)


def check_set(w: Workload, spec: Spec, a: dict, ops: Ops) -> None:
    if w.cli:
        check_cli(spec, a, ops)
    else:
        check_library(w, spec, a, ops)


def calibrate_loop() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = perf_counter()
    low, high = range(0, 300, 2), range(1, 300, 2)
    sum(1 for x in low for y in high if x > y)
    len({(i, i * 7 % 101) for i in range(10_000)})
    return perf_counter() - start


def calibrate_process() -> float:
    """Seconds a fresh interpreter takes to import the standard modules the CLI uses."""
    start = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "import argparse, csv, dataclasses, fractions, json"],
                   check=True, timeout=60)
    return perf_counter() - start


class Calibration(NamedTuple):
    """A fixed piece of work that measures the host's speed as the sets run.

    On a shared host the same code can run a quarter slower for tens of
    seconds.  Each set time is scaled by ``reference_s`` over this work's
    time measured next to the set, so such a period does not read as a
    slower program.  Library sets are scaled by a loop; CLI sets, whose
    time is mostly interpreter start and imports, by a process start.
    """

    measure: object
    reference_s: float  # time of ``measure`` on the reference host: 2-vCPU VM, Python 3.11.7
    every_s: float  # set time between samples; calibration stays near a tenth of a run or less


LOOP = Calibration(calibrate_loop, 0.0035, 0.1)
PROCESS = Calibration(calibrate_process, 0.065, 1.0)


def timed_run(name: str, seed: int, seconds: float, work: Path | None) -> dict:
    """Run whole cycles of sets for at least ``seconds``, each set with its host-speed scale.

    Whole cycles keep the mix of set shapes, and so the latency median,
    the same in every run.  Calibration samples are taken in groups between
    sets, about one per ``every_s`` of set time; a set is scaled by the
    groups just before and just after it.
    """
    w = WORKLOADS[name]
    cal = PROCESS if w.cli else LOOP
    ops, latencies, group_before = Ops(), [], []
    groups = [[cal.measure()]]
    since_calibration = 0.0
    start = perf_counter()
    index = 0
    while index % len(w.shapes) or index == 0 or perf_counter() - start < seconds:
        spec = spec_at(name, seed, index)
        index += 1
        try:
            elapsed, artifacts = run_set(w, spec, work)
            check_set(w, spec, artifacts, ops)
        except Exception:
            ops.crash(spec)
            continue
        finally:
            artifacts = None  # free this set before the next one runs
        latencies.append(elapsed)
        group_before.append(len(groups) - 1)
        since_calibration += elapsed
        if since_calibration >= cal.every_s:
            groups.append([cal.measure() for _ in range(int(since_calibration / cal.every_s))])
            since_calibration %= cal.every_s
    groups.append([cal.measure()])
    who = resource.RUSAGE_CHILDREN if w.cli else resource.RUSAGE_SELF
    return {"latencies": latencies,
            "scales": [cal.reference_s / statistics.mean(groups[g] + groups[g + 1])
                       for g in group_before],
            "attempted": ops.attempted, "failed": ops.failed,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss}


def traced_run(name: str, seed: int, work: Path | None) -> dict:
    w = WORKLOADS[name]
    ops, tracer = Ops(), Tracer()
    totals = {False: 0.0, True: 0.0}
    cli_walls = {step: [] for step in CLI_STEPS}
    for index in range(w.traced_sets):
        spec = spec_at(name, seed, index)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            try:
                if traced and not w.cli:
                    tracer.set_id = index
                    tracer.install()
                try:
                    elapsed, artifacts = run_set(w, spec, work)
                finally:
                    tracer.uninstall()
                check_set(w, spec, artifacts, ops)
            except Exception:
                ops.crash(spec)
                continue
            totals[traced] += elapsed
            if traced and w.cli:
                for step, procs in artifacts["runs"].items():
                    cli_walls[step] += [s for s, _ in procs]
    metrics = tracer.metrics()
    for step, walls in cli_walls.items():
        metrics[f"cli.{step}_ms"] = statistics.median(walls) * 1000 if walls else 0.0
    metrics["trace.overhead_pct"] = (totals[True] / totals[False] - 1) * 100 if totals[False] else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    return {"attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    spec_at(args.workload, args.seed, 0)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    work = None
    if WORKLOADS[args.workload].cli:
        work = OUT_DIR / f"work-{args.workload}-{args.seed}"
        work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, work)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, work)
        if work is not None:
            result["probes"] = run_probes(work)
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
