"""Run one ``valdim.cli`` command with spans recorded; used by ``run.py --trace 1``.

    PYTHONPATH=src python3 perfbench/cli_trace.py gamma dim "x1 = x2" -n 2

Behaves like ``python -m valdim.cli`` on stdout and in its exit code, and
appends one JSON line to stderr: the wall-clock time this script started,
the time spent importing ``valdim.cli``, and the span statistics.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    t0 = perf_counter()
    import valdim.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = valdim.cli.main(sys.argv[1:])
    tracer.uninstall()
    sys.stdout.flush()
    print(json.dumps({"started": STARTED, "import_s": import_s, "stats": tracer.stats}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
