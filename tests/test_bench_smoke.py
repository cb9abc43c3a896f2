"""One cycle of every benchmark workload runs clean.

Runs ``bench/worker.py --seconds 0`` in a fresh process per workload, as
``bench/run.py`` does, so a change that breaks a workload's sets, its
checks or the CLI probes fails here.  Each cycle takes a few seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["verify_mid", "build_large", "small_batch", "cli_pipe"])
def test_one_cycle_runs_clean(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, proc.stderr
    probes = result.get("probes", {})
    assert (workload == "cli_pipe") == bool(probes)
    assert all(outcome["ok"] for outcome in probes.values()), probes
