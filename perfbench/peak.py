"""Peak resident memory of the program alone; used by ``run.py --trace 0``.

    PYTHONPATH=src python3 perfbench/peak.py gamma 0 40
    PYTHONPATH=src python3 perfbench/peak.py cli gamma dim -n 2 -- "x1 = x2"

The first form runs the first N queries of a workload's seeded pool with
no output checks.  The second runs one command as ``python -m valdim.cli``
would, with its output discarded.  Both print, as the last line, the peak
resident memory of this process in KiB.

The timed loop of ``run.py`` checks every answer in its own process, so
its high-water mark is the checker's as much as the program's.  The
figure is ``VmHWM`` from ``/proc/self/status``, which covers this
process's memory since it started.  ``ru_maxrss`` is used only where that
file is missing: on Linux, a child's ``ru_maxrss`` starts from its
parent's high-water mark at fork.
"""

import contextlib
import io
import resource
import runpy
import sys


def direct(name, fn, *args):
    return fn(*args)


def peak_kib() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    if sys.argv[1] == "cli":
        sys.argv = ["valdim.cli", *sys.argv[2:]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            runpy.run_module("valdim.cli", run_name="__main__", alter_sys=True)
    else:
        from workloads import WORKLOADS

        w = WORKLOADS[sys.argv[1]]
        for i in range(int(sys.argv[3])):
            w.run(w.instance(int(sys.argv[2]), i), direct)
    print(peak_kib())
    return 0


if __name__ == "__main__":
    sys.exit(main())
