"""The README's experiment scripts run to completion on small settings."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_qbf_differential_runs():
    run_script("qbf_differential.py", "--count", "3", "--max-vars", "3", "--max-clauses", "3")


def test_semantics_survey_runs_flat():
    out = run_script("semantics_survey.py", "--samples", "20")
    assert re.search(r"flatness violations:\s+0\b", out), out
