"""Benchmark runner for valdim.

    python3 perfbench/run.py --workload gamma --seed 0 --seconds 15 --trace 0

Runs one seeded workload as a closed loop with one client: the next query
is sent only after the last one has returned.  Each query is timed from
outside around the public ``valdim`` calls; the oracle and the output
checks run between queries and are never counted as engine time.  The
loop stops when the engine time reaches ``--seconds`` and at least 100
queries are done (or the workload's pool of distinct queries is used up).

Between queries the runner also times a fixed reference kernel
(``calib.py``).  The end-to-end times are scaled, window by window of
engine time, by how much slower or faster the kernel ran than on the
reference host, so that the speed of a shared host, which drifts from
minute to minute, cancels out.  The stamp line keeps the measured values
and the scale.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
query twice, back to back: untraced and checked, and again with spans
installed around the public functions, alternating which of the two goes
first.  It stops when the untraced engine time reaches half of
``--seconds``, and prints the per-layer metrics; ``trace.overhead_s`` is
the traced engine time minus the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a stamp
with the Python version, platform, CPU count, commit, seed and sample
counts.  The program is imported from ``src/`` of the checkout
(``PYTHONPATH=src``); the exit code is nonzero when ``src/valdim`` is
missing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from time import perf_counter

import calib
import gen
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
# Every run times at least this many queries, so that at least 10 of them
# lie beyond the reported 90th percentile.
MIN_QUERIES = 100
# Distinct queries per seed: several times what the current code completes
# in a 15 s run, so the cap only bounds checking time if the engine gets
# much faster.
POOL = {"gamma": 1200, "elim": 24000, "mixed": 1000, "cli": 400}
# Engine time between two samples of the reference kernel.
CALIBRATE_EVERY_S = 0.1
# Engine time of one window: the queries of a window are scaled by the
# kernel samples taken during it, and queries_per_s is the median
# throughput of the windows.  A cli command runs in a child process, and
# the kernel, run in this process between commands, follows the speed of
# process start-up only over a whole run; so cli has one window.
WINDOW_S = {"gamma": 1.0, "elim": 1.0, "mixed": 1.0, "cli": math.inf}
# Queries run by the unchecked process that measures peak memory.
PEAK_QUERIES = 16

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "semilinear.parser", "semilinear.atoms", "semilinear.elimination",
    "semilinear.cells", "semilinear.topology", "semilinear.intervals",
    "mixedcell.parser", "mixedcell.pieces", "mixedcell.formula",
    "mixedcell.engine", "trop", "lowerset", "cli",
)

PER_LAYER = {
    "semilinear.parser.parse_formula.self_s": "s",
    "semilinear.atoms.normalize_dnf.self_s": "s",
    "semilinear.atoms.normalize_dnf.disjuncts_out": "count",
    "semilinear.elimination.project.self_s": "s",
    "semilinear.elimination.project.atoms_out": "count",
    "semilinear.elimination.is_empty.calls": "count",
    "semilinear.elimination.is_empty.self_s": "s",
    "semilinear.elimination.sample_point.self_s": "s",
    "semilinear.cells.cell_decompose.calls": "count",
    "semilinear.cells.cell_decompose.self_s": "s",
    "semilinear.cells.cell_decompose.cells_out": "count",
    "semilinear.cells.dimension.self_s": "s",
    "semilinear.topology.closure.self_s": "s",
    "mixedcell.parser.parse_mixed_formula.self_s": "s",
    "mixedcell.pieces.monomial_decompose.self_s": "s",
    "mixedcell.pieces.monomial_decompose.pieces_out": "count",
    "mixedcell.formula.holds.self_s": "s",
    "mixedcell.puiseux.FactoredPoly.valuation_at.calls": "count",
    "mixedcell.engine.piece_formulas.self_s": "s",
    "mixedcell.engine.mixed_dimension.self_s": "s",
    "mixedcell.engine.project_to_gamma.self_s": "s",
    "mixedcell.engine.mixed_cell_decompose.self_s": "s",
    "mixedcell.engine.mixed_cell_decompose.cells_out": "count",
    "trop.trop_hypersurface.self_s": "s",
    "trop.trop_hypersurface.faces_out": "count",
    "trop.trop_hypersurface.faces_per_pair": "ratio",
    "trop.trop_image_monomial.self_s": "s",
    "lowerset.self_s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.interpreter_s": "s",
    "trace.engine_s": "s",
    "trace.overhead_s": "s",
    "check.oracle_s": "s",
    "error_rate": "ratio",
    **{f"{layer}.share": "%" for layer in LAYERS},
    "unattributed.share": "%",
}


class Watchdog(Exception):
    pass


def _alarm(signum, frame):
    raise Watchdog("run exceeded its time limit")


def watchdog_s(seconds: float) -> int:
    """Time after which a run gives up and reports itself incorrect.

    The slowest workload to check (elim) takes about 2.2 times ``--seconds``
    of wall time.  Child processes get no timeout of their own: waiting with
    a timeout polls in steps of up to 50 ms, which would show up in the
    latencies.
    """
    return int(60 + 4.5 * seconds)


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return p.stdout.strip() or "unknown"


def measure_setup(modules: str, env: dict, kernel: list[float]) -> list[float]:
    """Wall time of fresh interpreters that import the workload's modules;
    a kernel sample is taken before each."""
    times = []
    for _ in range(SETUP_REPEATS):
        kernel.append(calib.sample())
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {modules}"], env=env, check=True)
        times.append(perf_counter() - t0)
    return times


def load_frozen(w, seed: int) -> list:
    """Expected dimensions for the default seed, frozen by freeze.py."""
    if seed != 0:
        return []
    with open(os.path.join(HERE, "expected_seed0.json")) as fh:
        table = json.load(fh).get(w.name)
    if table is None:
        return []
    first = [w.instance(0, i)["text"] for i in range(20)]
    if gen.digest(first) != table["digest"]:
        raise SystemExit("expected_seed0.json was frozen from other inputs; rerun freeze.py")
    return table["values"]


class Loop:
    """A closed-loop pass over the pool, checking every answer."""

    def __init__(self, w, seed: int, frozen: list):
        self.w, self.seed, self.frozen = w, seed, frozen
        self.latencies: list[float] = []
        self.texts: list[str] = []
        # kernel samples, and how many queries were done when each was taken
        self.kernel: list[float] = []
        self.kernel_at: list[int] = []
        self.engine = 0.0
        self.failed = 0
        self.check_s = 0.0
        self.timed_out = False
        self._next_sample = 0.0

    def run(self, seconds: float, count: int | None = None):
        """Run queries until ``seconds`` of engine time and ``MIN_QUERIES``
        queries, or exactly ``count`` queries when it is given."""
        limit = POOL[self.w.name] if count is None else count
        i = 0
        while i < limit and not self.timed_out and (
                count is not None or self.engine < seconds or i < MIN_QUERIES):
            self.one(i, self.w.instance(self.seed, i))
            i += 1

    def one(self, i: int, inst: dict) -> bool:
        """Time and check query ``i``; returns whether it failed."""
        errors = []
        t0 = perf_counter()
        try:
            answer = self.w.run(inst, direct)
        except Exception as exc:  # a failing query is counted, the run goes on
            answer = None
            errors.append(f"raised {exc!r}")
            if isinstance(exc, Watchdog):
                self.timed_out = True
        dt = perf_counter() - t0
        self.engine += dt
        self.latencies.append(dt)
        self.texts.append(inst["text"])
        if not errors:
            c0 = perf_counter()
            try:
                ref = self.w.reference(inst, self.frozen[i] if i < len(self.frozen) else None)
                errors = self.w.check(inst, answer, ref)
            except Exception as exc:
                errors.append(f"check raised {exc!r}")
                traceback.print_exc(file=sys.stderr)
                if isinstance(exc, Watchdog):
                    self.timed_out = True
            self.check_s += perf_counter() - c0
        if errors:
            self.fail(i, inst, errors[0])
        if self.engine >= self._next_sample:
            self.kernel.append(calib.sample())
            self.kernel_at.append(len(self.latencies))
            self._next_sample = self.engine + CALIBRATE_EVERY_S
        return bool(errors)

    def fail(self, i: int, inst: dict, error: str):
        self.failed += 1
        if self.failed <= 5:
            print(f"{self.w.name} query {i} failed: {error}\n  {inst['text']}", file=sys.stderr)


def direct(name, fn, *args):
    return fn(*args)


class Traced:
    """Runs queries again with spans recorded, and sums their engine time."""

    def __init__(self, w, env: dict):
        self.w, self.env = w, env
        self.engine = 0.0
        self.tracer = None if w.name == "cli" else Tracer()
        self.stats = defaultdict(float) if self.tracer is None else self.tracer.stats

    def run(self, inst: dict) -> str | None:
        """Run one query traced; returns an error, or None."""
        if self.tracer is None:
            return self._cli(inst)
        self.tracer.install()
        t0 = perf_counter()
        try:
            self.w.run(inst, self.tracer.span)
            return None
        except Watchdog:
            raise
        except Exception as exc:
            return f"traced run raised {exc!r}"
        finally:
            self.engine += perf_counter() - t0
            self.tracer.uninstall()

    def _cli(self, inst: dict) -> str | None:
        """One command through the span-recording runner cli_trace.py."""
        runner = [sys.executable, os.path.join(HERE, "cli_trace.py")]
        spawn = time.time()
        t0 = perf_counter()
        p = subprocess.run(runner + inst["argv"], capture_output=True, text=True, env=self.env)
        self.engine += perf_counter() - t0
        if p.returncode != 0:
            return f"traced command exited with {p.returncode}"
        report = json.loads(p.stderr.strip().splitlines()[-1])
        for k, v in report["stats"].items():
            self.stats[k] += v
        self.stats["cli.import_s"] += report["import_s"]
        self.stats["cli.interpreter_s"] += report["started"] - spawn
        return None


def traced_pass(loop: Loop, traced: Traced, seconds: float):
    """Each query untraced and traced, back to back, until ``seconds`` of
    untraced engine time.  The order alternates, so that caches warmed by
    the first run favour neither side, and slow drift of the host's speed
    hits both alike."""
    i = 0
    while i < POOL[loop.w.name] and loop.engine < seconds and not loop.timed_out:
        inst = loop.w.instance(loop.seed, i)
        try:
            if i % 2:
                error = traced.run(inst)
                failed = loop.one(i, inst)
            else:
                failed = loop.one(i, inst)
                error = traced.run(inst)
        except Watchdog:
            loop.timed_out = True
            break
        if error and not failed:
            loop.fail(i, inst, error)
        i += 1


def scale(kernel: list[float]) -> float:
    """Factor that turns times on this host into times on the reference host."""
    return calib.NOMINAL_S / statistics.median(kernel)


def windows(loop: Loop) -> list[tuple[int, int, float]]:
    """Consecutive windows ``(first, end, scale)`` of about ``WINDOW_S`` engine
    time.  ``scale`` comes from the kernel samples taken during the window,
    so that a second in which the host runs slow is scaled back too."""
    lat, at, length = loop.latencies, loop.kernel_at, WINDOW_S[loop.w.name]
    bounds, start, busy = [], 0, 0.0
    for q, dt in enumerate(lat):
        busy += dt
        if busy >= length:
            bounds.append((start, q + 1))
            start, busy = q + 1, 0.0
    if start < len(lat):
        if bounds and busy < length / 2:
            bounds[-1] = (bounds[-1][0], len(lat))
        else:
            bounds.append((start, len(lat)))
    out = []
    for first, end in bounds:
        # samples taken after the window's first query, up to the first
        # sample after its last one
        lo = bisect.bisect_right(at, first)
        hi = min(bisect.bisect_left(at, end) + 1, len(at))
        out.append((first, end, scale(loop.kernel[min(lo, hi - 1):hi])))
    return out


def peak_rss_mb(w, seed: int, env: dict) -> float:
    """Peak resident memory of the program, apart from the benchmark's checks.

    A fresh interpreter (``peak.py``) runs the first queries of the pool
    without checking them; for ``cli``, each command of the first cycle of
    the pool runs in its own interpreter and the largest counts.
    """
    probe = [sys.executable, os.path.join(HERE, "peak.py")]
    if w.name == "cli":
        runs = [probe + ["cli", *w.instance(seed, i)["argv"]] for i in range(len(gen.CLI_KINDS))]
    else:
        runs = [probe + [w.name, str(seed), str(PEAK_QUERIES)]]
    kib = [int(subprocess.run(argv, capture_output=True, text=True, env=env,
                              check=True).stdout.split()[-1]) for argv in runs]
    return max(kib) / 1024


def end_to_end(loop: Loop, setup: list[float], setup_kernel: list[float],
               peak: float) -> tuple[dict, dict]:
    """The metrics scaled to the reference host, and the values as measured."""
    def summary(parts, setup_s):
        lat = [dt for part in parts for dt in part]
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        return {
            "setup_s": setup_s,
            "queries_per_s": statistics.median(len(part) / sum(part) for part in parts),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * deciles[8],
            "peak_rss_mb": peak,
        }

    wins = windows(loop)
    lat = loop.latencies
    measured = summary([lat[a:b] for a, b, _ in wins], statistics.median(setup))
    values = summary([[dt * k for dt in lat[a:b]] for a, b, k in wins],
                     statistics.median(setup) * scale(setup_kernel))
    return {key: {"value": v, "unit": END_TO_END[key]} for key, v in values.items()}, measured


def per_layer(stats: dict, engine: float, overhead: float, loop: Loop) -> dict:
    """The per-layer metrics, as measured (not scaled to the reference host)."""
    def total(prefix: str) -> float:
        return sum(v for k, v in stats.items() if k.startswith(prefix) and k.endswith(".self_s"))

    values = {k: stats.get(k, 0.0) for k in PER_LAYER}
    values["lowerset.self_s"] = total("lowerset.")
    pairs = stats.get("trop.trop_hypersurface.pairs", 0.0)
    values["trop.trop_hypersurface.faces_per_pair"] = (
        stats.get("trop.trop_hypersurface.faces_out", 0.0) / pairs if pairs else 0.0)
    values["trace.engine_s"] = engine
    values["trace.overhead_s"] = overhead
    values["check.oracle_s"] = loop.check_s
    values["error_rate"] = loop.failed / len(loop.latencies)
    attributed = 0.0
    for layer in LAYERS:
        busy = total(layer + ".")
        if layer == "cli":
            busy += stats.get("cli.import_s", 0.0) + stats.get("cli.interpreter_s", 0.0)
        values[f"{layer}.share"] = 100 * busy / engine
        attributed += busy
    values["unattributed.share"] = 100 * (engine - attributed) / engine
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["gamma", "elim", "mixed", "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "valdim")):
        print(f"error: no program source at {SRC}/valdim", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import ENV, WORKLOADS

    w = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(watchdog_s(args.seconds))
    wall0 = perf_counter()
    frozen = load_frozen(w, args.seed)
    loop = Loop(w, args.seed, frozen)
    setup_kernel: list[float] = []
    setup = [] if args.trace else measure_setup(w.modules, ENV, setup_kernel)
    __import__(w.modules)

    measured = {}
    if args.trace:
        traced = Traced(w, ENV)
        traced_pass(loop, traced, args.seconds / 2)
        metrics = per_layer(traced.stats, traced.engine, traced.engine - loop.engine, loop)
    else:
        loop.run(args.seconds)
        peak = peak_rss_mb(w, args.seed, ENV)
        metrics, measured = end_to_end(loop, setup, setup_kernel, peak)
    signal.alarm(0)
    attempted = len(loop.latencies)

    stamp = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "commit": commit(),
        "queries": attempted, "setup_samples": len(setup),
        "memberships": attempted * gen.MEMBERSHIPS_PER_FORMULA if w.name == "mixed" else 0,
        "inputs_digest": gen.digest(loop.texts),
        "first100_digest": gen.digest(loop.texts[:100]),
        "frozen_references": min(attempted, len(frozen)),
        "engine_s": loop.engine, "check_s": loop.check_s, "wall_s": perf_counter() - wall0,
        "kernel_samples": len(loop.kernel), "kernel_median_s": statistics.median(loop.kernel),
        "host_scale": scale(loop.kernel), "measured": measured,
    }
    print(json.dumps({"stamp": stamp}))
    correct = loop.failed == 0 and not loop.timed_out
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
