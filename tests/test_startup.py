"""What a run loads and starts before its command: the package root imports
its public names lazily, and a CLI run keeps OpenBLAS to one thread."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import quasilattice

ROOT = Path(__file__).resolve().parents[1]

# the names the package root imported eagerly before it went lazy
EXPORTED = {
    "quadfield": ("AlgebraicNumber", "CoefficientOverflowError", "SILVER_MEAN",
                  "SILVER_MEAN_CONJ", "SQRT2", "enumerate_dual", "exact_compare",
                  "parse_exact", "star"),
    "substitution": ("LabeledPatch", "SubstitutionRule", "fixed_point_patch", "pf_data",
                     "silver_mean_rule", "substitute"),
    "cutproject": ("IfsMap", "IfsSystem", "Window", "hutchinson_step", "hausdorff_distance",
                   "project_patch", "sigma_estimate", "silver_ifs", "silver_subwindows",
                   "silver_window", "silver_windows", "solve_windows"),
    "deform": ("AffineDeformation", "CombPoint", "DeformationMap", "DiracComb", "FixedKernel",
               "LocalKernel", "PiecewiseLinearDeformation", "deform_measure", "deform_patch",
               "delone_check", "density", "detect_periods", "interval_ratio",
               "local_configuration"),
    "diffraction": ("ComparisonTable", "ExtinctionReport", "Spectrum", "amplitude_closed",
                    "amplitude_quadrature", "autocorrelation_finite",
                    "compare_empirical_analytic", "dual_quarters", "empirical_spectrum",
                    "extinction_report", "leading_dual_columns", "spectrum_scan", "weyl_sum",
                    "weyl_sums"),
}

# the variables OpenBLAS reads its thread count from; the pytest process may
# hold OPENBLAS_NUM_THREADS=1 (importing quasilattice.cli sets it), and an
# inherited value would hide a CLI that no longer sets it
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _child(args: list[str], **extra_env: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update(extra_env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_import_loads_no_numpy():
    done = _child(["-c", "import sys, quasilattice; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'"
                         " or m.startswith('quasilattice.')))"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_from_import_reaches_the_submodules():
    # in a fresh process, where neither submodule is loaded yet
    done = _child(["-c", "from quasilattice import Window, cli, diffraction\n"
                         "print(cli.__name__, diffraction.__name__, Window.__module__)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["quasilattice.cli", "quasilattice.diffraction",
                                   "quasilattice.cutproject"]


def test_library_import_keeps_numpy_thread_defaults():
    done = _child(["-c", "import os\n"
                         "from quasilattice import Window, diffraction\n"
                         "import quasilattice.deform\n"
                         "print(os.environ.get('OPENBLAS_NUM_THREADS'))"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["None"]


def test_public_names_are_the_submodules_objects():
    assert sorted(quasilattice.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    for module, names in EXPORTED.items():
        sub = import_module(f"quasilattice.{module}")
        for name in names:
            assert getattr(quasilattice, name) is getattr(sub, name), name


def test_dir_lists_the_public_names():
    assert set(quasilattice.__all__) <= set(dir(quasilattice))
    assert "__version__" in dir(quasilattice)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quasilattice.no_such_name


# One CLI invocation as ``python -m quasilattice`` runs it ("module") or as the
# console script does, through quasilattice.cli.main ("script"); the thread
# count is read from /proc/self/status as the process exits.
_WRAPPER = """\
import runpy, sys
threads_file, entry = sys.argv.pop(1), sys.argv.pop(1)
try:
    if entry == "module":
        runpy.run_module("quasilattice", run_name="__main__", alter_sys=True)
    else:
        from quasilattice.cli import main
        sys.exit(main())
finally:
    with open("/proc/self/status") as status:
        threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
    with open(threads_file, "w") as out:
        out.write(threads)
"""


@pytest.mark.skipif(
    not Path("/proc/self/status").exists() or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc and at least 2 cores, where OpenBLAS would start a worker",
)
@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("setting,threads", [(None, "1"), ("2", "2")])
def test_cli_run_is_single_threaded_unless_told_otherwise(tmp_path, entry, setting, threads):
    count = tmp_path / "threads"
    extra = {} if setting is None else {"OPENBLAS_NUM_THREADS": setting}
    done = _child(["-c", _WRAPPER, str(count), entry, "windows", "--out", str(tmp_path / "out")],
                  **extra)
    assert done.returncode == 0, done.stderr
    assert count.read_text() == threads
