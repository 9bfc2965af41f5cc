"""Run ``python -m quasilattice ARG...`` and record the process's own peak RSS.

    python3 perfbench/invoke.py RSS_FILE ARG...

The peak resident set (VmHWM, kB) is read from /proc/self/status as the
program exits and written to RSS_FILE.  The parent's wait4 rusage will not
do: on Linux a child's ru_maxrss also counts the peak of the process that
spawned it, which is the benchmark with its reference data.
"""

import runpy
import sys
from pathlib import Path

rss_file = Path(sys.argv[1])
del sys.argv[1]
try:
    runpy.run_module("quasilattice", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        rss_file.write_text(next(line.split()[1] for line in status
                                 if line.startswith("VmHWM:")))
