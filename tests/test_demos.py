"""Every script under demos/ runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demo_scripts_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # experiment_files.py writes under tempfile.mkdtemp(); keep that inside tmp_path.
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("risuav_demo_*")), "demo left its temp directory behind"
