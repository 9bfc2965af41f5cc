"""The experiment scripts run end to end at their defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,header",
    [
        ("extinction_survey.py", "alpha extinct survive span"),
        ("sigma_shrinkage.py", "shift = (1+1*sqrt2)/1 (internal coordinate -0.414213562)"),
        ("weyl_convergence.py", "radius |err| k=+0.5000 |err| k=+0.3536 |err| k=+0.8536"),
    ],
)
def test_script_runs(script, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == header.split()
    assert len(lines) > 2
