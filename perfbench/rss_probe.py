"""Run quadfield's command line as ``python -m quadfield`` does and write the
process's own peak resident set, in kB, as the last line of standard error.

    PYTHONPATH=src python3 perfbench/rss_probe.py eval --kind=circular ...

The peak is ``VmHWM`` of ``/proc/self/status``, which belongs to the image
this process runs.  A child's ``ru_maxrss``, as the parent sees it, also
counts the image of the parent it was forked from.
"""

import runpy
import sys


def _peak_kb():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


try:
    runpy.run_module("quadfield", run_name="__main__", alter_sys=True)
finally:
    sys.stdout.flush()
    print(_peak_kb(), file=sys.stderr)
