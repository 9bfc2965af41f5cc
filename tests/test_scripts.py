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
def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "script,header",
    [
        ("extinction_survey.py", "alpha extinct survive span"),
        ("sigma_shrinkage.py", "shift = (1+1*sqrt2)/1 (internal coordinate -0.414213562)"),
        ("weyl_convergence.py", "radius |err| k=+0.5000 |err| k=+0.3536 |err| k=+0.8536"),
    ],
)
def test_script_runs(script, header):
    lines = _run(script).splitlines()
    assert lines[0].split() == header.split()
    assert len(lines) > 2


SURVEY = """\
           alpha   extinct   survive  span
       0+0*sqrt2        10       353  full_dual_module
       1+0*sqrt2       346        17  half_integers
       2+0*sqrt2        10       353  full_dual_module
     1/2+0*sqrt2         4       359  full_dual_module
     1/3+0*sqrt2         6       357  full_dual_module
       1+1*sqrt2        16       347  full_dual_module
     1+1/2*sqrt2         8       355  full_dual_module
       3-2*sqrt2         0       363  full_dual_module
"""


def test_extinction_survey_output():
    # exact and deterministic, so the whole table is pinned, alpha text included
    assert _run("extinction_survey.py") == SURVEY
