"""The benchmark script still runs against the current package.

perfbench/run.py wraps the solver entry points by name and re-checks each best
solution with check_constraints, so a change to those call forms would break
the benchmark without failing any other test. The physics digests are pinned
by tests/test_golden.py, not here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_self_test_passes():
    assert run_bench("--self-test")[-1] == "self-test: ok"


def test_oracle_workload_passes_its_gate():
    last = json.loads(run_bench("--workload", "oracle-k2m4", "--seed", "0",
                                "--seconds", "0", "--trace", "0")[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["metrics"]["feasible_frac"]["value"] == 1.0
