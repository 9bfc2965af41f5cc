"""The names the benchmark harness under perfbench/ looks up in the package
still exist: the probes import them, and the traced run wraps them by name.
``python -m pytest perfbench`` checks the harness in full but takes about a
minute; these checks take well under a second."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_probe_imports_resolve():
    tree = ast.parse((ROOT / "perfbench" / "probes.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quasilattice")]
    assert imports
    missing = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
               if not hasattr(import_module(node.module), alias.name)]
    assert not missing


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / script), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_traced_run_installs_its_wrappers(tmp_path):
    spans = tmp_path / "spans.json"
    done = _run("traced.py", str(spans),
                "diffract", "--radius", "20", "--alpha", "0.5", "--kmax", "1", "--floor", "1e-3",
                "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    doc = json.loads(spans.read_text())
    assert doc["exit_code"] == 0 and doc["spans"]
    # the deform_patch counter reads DiracComb.points
    deform = [s for s in doc["spans"] if s[0] == "deform.deform_patch"]
    assert deform and deform[0][4]["points"] > 0
    # the _write counter encodes its text argument: the bytes of every file written
    written = [s[4]["bytes"] for s in doc["spans"] if s[0] == "cli._write"]
    files = list((tmp_path / "out").iterdir())
    assert len(written) == len(files) > 0
    assert sum(written) == sum(p.stat().st_size for p in files)


def test_setup_probe_runs(tmp_path):
    # it reaches the CLI as ``from quasilattice import cli``, through the package root
    done = _run("setup_probe.py", "generate", "--radius", "10", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_invoke_runs_and_records_peak_rss(tmp_path):
    rss = tmp_path / "rss_kb"
    done = _run("invoke.py", str(rss), "windows", "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert int(rss.read_text()) > 0
