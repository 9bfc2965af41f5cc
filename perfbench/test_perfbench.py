"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Not part of the package's suite (pyproject's testpaths is tests/).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _cli(args: list[str], traced_spans: Path | None = None) -> None:
    prefix = ["-m", "quasilattice"] if traced_spans is None else [
        str(ROOT / "perfbench" / "traced.py"), str(traced_spans)]
    subprocess.run([sys.executable, *prefix, *args], cwd=ROOT, env=ENV, check=True,
                   capture_output=True)


def _small(name: str, **changes) -> workloads.Inputs:
    inputs = workloads.build(name, seed=3)
    args = list(inputs.args)
    args[args.index("--radius") + 1] = str(changes["radius"])
    return dataclasses.replace(inputs, args=tuple(args), **changes)


SMALL = {
    "generate": dict(radius=1000, max_error_tol=1e-2),
    "diffract-affine": dict(radius=200, max_error_tol=0.05),
    "diffract-pwl": dict(radius=200, max_error_tol=0.05),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_invocation_writes_same_bytes(tmp_path, name):
    inputs = _small(name, **SMALL[name])
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    _cli(inputs.cli_args(plain))
    _cli(inputs.cli_args(traced), traced_spans=tmp_path / "spans.json")
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for n in names:
        assert (plain / n).read_bytes() == (traced / n).read_bytes(), n
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert spans[0][0] == "cli.main" and len(spans) > 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_accept_correct_and_reject_altered_output(tmp_path, name):
    inputs = _small(name, **SMALL[name])
    _cli(inputs.cli_args(tmp_path))
    ref = checks.reference(inputs)
    assert checks.check(inputs, ref, tmp_path).ok
    csv = tmp_path / ("patch.csv" if name == "generate" else "spectrum_analytic.csv")
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:2] + lines[3:]))  # drop one point or peak
    assert not checks.check(inputs, ref, tmp_path).ok


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diffract-pwl",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout.strip()
