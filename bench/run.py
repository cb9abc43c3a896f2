"""tourneydice benchmark: one workload per run, in fresh single-threaded child processes.

    python3 bench/run.py --workload verify_mid --seed 1 --seconds 25 --trace 0

Prints every metric by name and unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("verify_mid", "build_large", "small_batch", "cli_pipe")
SETUP_SAMPLES = 10  # set-up-only children
STARTUP_SAMPLES = 5
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
DEADLINE = 150  # seconds a worker may take before it is killed
DICE_CHECKS = {"dice.verify_s", "dice.dominance_s", "dice.balance_s", "dice.audit_s",
               "dice.matchup_s"}
UNITS = {"dice.pairs_per_s": "1/s", "dice.oracle_calls_per_pair": "calls/pair",
         "tournament.bytes": "bytes", "dice.bytes": "bytes"}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def start_worker(args, *extra) -> tuple[subprocess.Popen, float]:
    """Spawn a worker and return it with its set-up time: spawn to its ``ready`` line."""
    command = [sys.executable, "-S", str(WORKER), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line[:200]!r}")
    return proc, ready


def finish_worker(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=DEADLINE)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker ran past its deadline")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(args, count: int) -> list[float]:
    """Set-up times of children that stop once ready."""
    samples = []
    for _ in range(count):
        proc, ready = start_worker(args, "--setup-only")
        proc.communicate(timeout=DEADLINE)
        samples.append(ready)
    return samples


def cli_startup_ms() -> float:
    """Bare interpreter plus ``import tourneydice.cli``, no work; median of several."""
    samples = []
    for _ in range(STARTUP_SAMPLES + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "import tourneydice.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=60)
        samples.append((perf_counter() - start) * 1000)
    return statistics.median(samples[1:])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """Set times are scaled to the reference host's speed, measured around each set.

    A set's scale is the reference calibration time over the calibration
    measured just before and after it, so a host that runs slower for a
    while does not read as a slower program.
    """
    raw, scales = result["latencies"], result["scales"]
    lat = [t * s for t, s in zip(raw, scales)]
    tail_s, pct = tail(lat)
    metrics = {
        "sets_per_s": (len(lat) / sum(lat), "1/s"),
        "set_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "set_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    few = " -- too few sets for a tail, max shown" if len(lat) <= TAIL_BEYOND else ""
    notes = {
        "sets_per_s": f"{len(lat)} sets",
        "set_tail_ms": f"p{pct:.1f}, {min(TAIL_BEYOND, len(lat) - 1)} of {len(lat)} sets beyond{few}",
        "setup_s": f"median of {len(setups)} children",
        "set_p50_ms": f"unscaled {statistics.median(raw) * 1000:.4f} ms",
    }
    lines = [f"{name:<14} {value:>12.4f} {unit:<4} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"host speed     {statistics.mean(scales):>12.4f} x reference, mean over sets"
                 " (set times above are scaled by it)")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, lines


def per_layer(result: dict, startup_ms: float, probes: dict) -> tuple[dict, list[str]]:
    raw = dict(result["metrics"])
    raw["cli.startup_ms"] = startup_ms
    raw["cli.unexpected_exits"] = sum(1 for p in probes.values() if not p["ok"])
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(raw.items())}
    lines = [f"{name:<34} {m['value']:>16.6g} {m['unit']}" for name, m in metrics.items()]
    shares = layer_shares(raw)
    lines += [f"share of traced self time  {layer:<22} {100 * share:6.2f} %"
              for layer, share in shares.items()]
    return metrics, lines


def layer_shares(raw: dict) -> dict:
    """Each layer's share of the traced library self time (the ``*_s`` metrics)."""
    self_times = {n: v for n, v in raw.items()
                  if n.endswith("_s") and n not in ("dice.checks_s", "dice.pairs_per_s")}
    total = sum(self_times.values())
    if not total:
        return {}
    shares = dict.fromkeys(("tournament", "factorization", "dice build and formats",
                            "dice checks"), 0.0)
    for name, value in self_times.items():
        layer = name.split(".")[0]
        if layer == "dice":
            layer = "dice checks" if name in DICE_CHECKS else "dice build and formats"
        shares[layer] += value / total
    return shares


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tourneydice" / "__init__.py").is_file():
        print(f"error: no tourneydice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        # Half the set-up samples before the workload and half after it, so
        # their median spans the run; the first child fills bytecode caches.
        setups = [] if args.trace else setup_seconds(args, SETUP_SAMPLES // 2 + 1)[1:]
        startup = cli_startup_ms() if args.trace else 0.0
        proc, _ = start_worker(args)
        result = finish_worker(proc)
        if not args.trace:
            if not result["latencies"]:
                raise RuntimeError("no set completed")
            setups += setup_seconds(args, SETUP_SAMPLES - len(setups))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    probes = result.get("probes", {})
    if args.trace:
        metrics, lines = per_layer(result, startup, probes)
    else:
        metrics, lines = end_to_end(result, setups)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("\n".join(lines))
    print(f"ops_failed     {result['failed']} of {result['attempted']} ops")
    for name, p in probes.items():
        state = "as wanted" if p["ok"] else "KNOWN DEFECT"
        print(f"probe {name:<20} exit {p['exit']}  stderr lines {p['stderr_lines']}"
              f"  traceback {'yes' if p['traceback'] else 'no'}  {state}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
