"""One set-up in a fresh interpreter: print the seconds it takes to import
quadfield and build a workload's inputs from a seed.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` reports the median of several such processes as ``setup_s``.
Only the import of quadfield and the workload's ``setup`` are timed; the
benchmark's own modules are imported between the two, untimed.
"""

import sys
from time import perf_counter_ns

t0 = perf_counter_ns()
import quadfield  # noqa: E402
t1 = perf_counter_ns()
import workloads  # noqa: E402
from pathlib import Path  # noqa: E402

t2 = perf_counter_ns()
workloads.WORKLOADS[sys.argv[1]].setup(quadfield, int(sys.argv[2]))
t3 = perf_counter_ns()

src = Path(__file__).resolve().parent.parent / "src"
if not Path(quadfield.__file__).resolve().is_relative_to(src):
    sys.exit(f"quadfield imported from {quadfield.__file__}, not from {src}")
print((t1 - t0 + t3 - t2) / 1e9)
