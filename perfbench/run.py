"""Benchmark of the quasilattice command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is ./src, run in
place with PYTHONPATH=src and no install.  Outputs go to .perfbench_work/.
Metric names and units come from BENCHMARK.json; perfbench/README.md maps
workloads to layers to metrics.

--trace 0  runs the workload's CLI invocation in fresh processes, one at a
           time, each after a start-up probe (at least seven), until the
           invocations have taken S seconds, and reports the end-to-end
           metrics (medians).
--trace 1  runs one untraced and one traced invocation (perfbench/traced.py)
           and the layer probes (perfbench/probes.py), and reports the
           per-layer metrics.

Every invocation's outputs are checked against a reference computed without
the program (perfbench/checks.py); a non-zero exit or a failed check counts
as a failed operation.  Readable lines come first on stdout; the last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0  # every process still running after this is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "QUASILATTICE_THREADS")


@dataclass
class Proc:
    wall: float  # process start to exit, seconds
    cpu: float  # user + system seconds
    code: int
    stdout: Path
    rss_mb: float = 0.0  # peak resident set, MiB (CLI invocations only)


class Runner:
    """Starts one process at a time against ./src and waits for it."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), *([path] if path else [])]))
        self.count = 0

    def run(self, args: list[str]) -> Proc:
        self.count += 1
        out, err = (self.work / f"proc{self.count}.{s}" for s in ("stdout", "stderr"))
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=fout, stderr=ferr)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)  # rusage of this child
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_utime + usage.ru_stime, proc.returncode, out)

    def invoke(self, cli_args: list[str]) -> Proc:
        """One CLI invocation, as `python -m quasilattice`, with its peak RSS."""
        rss = self.work / "rss_kb"
        rss.unlink(missing_ok=True)
        proc = self.run([str(HERE / "invoke.py"), str(rss), *cli_args])
        if rss.exists():
            proc.rss_mb = int(rss.read_text()) / 1024.0
        return proc


def environment() -> dict:
    """Recorded, never set: versions, cores, thread variables, commit, load."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
        "loadavg": os.getloadavg(),
    }


def _checked(inputs, ref, proc: Proc, out_dir: Path) -> checks.Outcome:
    if proc.code != 0:
        return checks.Outcome([f"exit code {proc.code}"])
    return checks.check(inputs, ref, out_dir)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def end_to_end(runner: Runner, inputs, ref, seconds: float):
    # start-up probes alternate with invocations, so that their median spans
    # the whole run rather than one burst of machine noise
    def probe() -> Proc:
        return runner.run([str(HERE / "setup_probe.py"),
                           *inputs.cli_args(_fresh(runner.work / "setup"))])

    setup, procs, outcomes = [], [], []
    while sum(p.wall for p in procs) < seconds:
        setup.append(probe())
        out = _fresh(runner.work / "out")
        procs.append(runner.invoke(inputs.cli_args(out)))
        outcomes.append(_checked(inputs, ref, procs[-1], out))
        print(f"invocation {len(procs)}: wall {procs[-1].wall:.4f} s, cpu {procs[-1].cpu:.4f} s, "
              f"peak rss {procs[-1].rss_mb:.1f} MiB, "
              f"check {'ok' if outcomes[-1].ok else outcomes[-1].problems}")
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe())
    errors = [o.max_abs_error for o in outcomes if o.ok]
    outcomes += [checks.Outcome([] if p.code == 0 else [f"setup probe exit code {p.code}"])
                 for p in setup]
    failed = sum(not o.ok for o in outcomes)
    metrics = {
        "wall_s": statistics.median(p.wall for p in procs),
        "cpu_s": statistics.median(p.cpu for p in procs),
        "setup_s": statistics.median(p.wall for p in setup),
        "peak_rss_mb": statistics.median(p.rss_mb for p in procs),
        # 1.0 (the scale of any amplitude) when no invocation passed its check
        "max_abs_error": statistics.median(errors) if errors else 1.0,
        "pass_rate": 1.0 - failed / len(outcomes),
    }
    print(f"samples: wall_s, cpu_s and peak_rss_mb over {len(procs)} invocations, "
          f"setup_s over {len(setup)} start-up probes")
    return metrics, len(outcomes), failed


def _same_outputs(a: Path, b: Path) -> list[str]:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return ["traced and untraced runs wrote different files"]
    return [f"traced {n} differs from untraced" for n in names
            if (a / n).read_bytes() != (b / n).read_bytes()]


def traced(runner: Runner, inputs, ref):
    plain_dir, traced_dir = _fresh(runner.work / "untraced"), _fresh(runner.work / "traced")
    plain = runner.invoke(inputs.cli_args(plain_dir))
    spans_path = runner.work / "spans.json"
    tr = runner.run([str(HERE / "traced.py"), str(spans_path), *inputs.cli_args(traced_dir)])
    outcomes = [_checked(inputs, ref, plain, plain_dir), _checked(inputs, ref, tr, traced_dir)]
    if all(o.ok for o in outcomes):
        outcomes[1].problems.extend(_same_outputs(plain_dir, traced_dir))
    probes = runner.run([str(HERE / "probes.py")])
    outcomes.append(checks.Outcome([] if probes.code == 0 else [f"probes exit code {probes.code}"]))
    for o in outcomes:
        if not o.ok:
            print(f"check failed: {o.problems}")
    failed = sum(not o.ok for o in outcomes)
    if failed:
        return {}, len(outcomes), failed
    doc = json.loads(spans_path.read_text())
    metrics = layers.layer_metrics(doc["spans"], doc["import_s"])
    metrics.update(json.loads(probes.stdout.read_text()))
    metrics["trace.overhead"] = tr.wall / plain.wall - 1.0
    metrics["trace.coverage"] = (doc["import_s"] + layers.main_span_s(doc["spans"])) / tr.wall
    print(f"samples: one untraced invocation ({plain.wall:.4f} s), one traced "
          f"({tr.wall:.4f} s, {len(doc['spans'])} spans), one probe run")
    return metrics, len(outcomes), failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "quasilattice" / "cli.py").is_file():
        print(f"error: no program under test at {ROOT / 'src' / 'quasilattice'}; "
              "run from the root of a quasilattice checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    inputs = workloads.build(args.workload, args.seed)
    print("workload:", args.workload, "seed", args.seed, "args", " ".join(inputs.args),
          json.dumps(inputs.config()) if inputs.pwl else "")
    ref = checks.reference(inputs)
    runner = Runner(_fresh(WORK / args.workload), deadline)
    if args.trace:
        values, attempted, failed = traced(runner, inputs, ref)
    else:
        values, attempted, failed = end_to_end(runner, inputs, ref, args.seconds)

    metrics = {}
    for m in wanted:
        # a failed traced run has no spans; its metrics read 0
        value = values.get(m["name"], 0.0) if failed else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:48s} {value!r:>24} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
