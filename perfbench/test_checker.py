"""Self-test of the output checks: right answers pass, wrong ones are errors.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each corruption below changes one answer of every query in a way that a
correct checker must notice, and the loop must then report an error rate
of 1.  The unchanged program must give an error rate of 0.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run as bench  # noqa: E402
from valdim import mixedcell as mc  # noqa: E402
from valdim import semilinear as sl  # noqa: E402
from valdim.lowerset import lower_closure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

QUERIES = 6
SEED = 3


class Corrupted:
    """A workload whose answers pass through ``corrupt`` before checking."""

    def __init__(self, w, corrupt):
        self.w, self.corrupt = w, corrupt
        self.name, self.instance = w.name, w.instance
        self.reference, self.check = w.reference, w.check

    def run(self, inst, call):
        return self.corrupt(inst, self.w.run(inst, call))


def error_rate(w) -> float:
    loop = bench.Loop(w, SEED, frozen=[])
    loop.run(0, QUERIES)
    return loop.failed / len(loop.latencies)


def _gamma_formula(inst):
    return sl.parse_formula(inst["text"], inst["n"])


def _mixed_formula(inst):
    return mc.parse_mixed_formula(inst["text"], inst["n"])


def toggle_origin(f: sl.Formula) -> sl.Formula:
    """The set of ``f`` with membership of the origin, a grid point, flipped."""
    n = f.arity
    origin = sl.And.of(*[sl.atom([int(j == i) for j in range(n)], "=", 0) for i in range(n)])
    if f.holds((Fraction(0),) * n):
        return sl.And.of(f, sl.Not.of(origin))
    return sl.Or.of(f, origin)


CORRUPTIONS = {
    "gamma dimension off by one": (
        "gamma", lambda i, a: (0 if a[0] == float("-inf") else a[0] + 1, *a[1:])),
    "gamma cells of the complement": (
        "gamma", lambda i, a: (a[0], sl.cell_decompose(sl.Not.of(_gamma_formula(i))), *a[2:])),
    "gamma projection off at the origin": (
        "gamma", lambda i, a: (*a[:2], toggle_origin(a[2]), a[3])),
    "gamma closure off at the origin": ("gamma", lambda i, a: (*a[:3], toggle_origin(a[3]))),
    "elim emptiness flipped": (
        "elim", lambda i, a: (a[0], [(not a[1][0][0], a[1][0][1]), *a[1][1:]])),
    "elim projection off at the origin": ("elim", lambda i, a: (toggle_origin(a[0]), a[1])),
    "mixed dimension replaced": ("mixed", lambda i, a: (lower_closure([(3, 3)]), *a[1:])),
    "mixed projection off at the origin": (
        "mixed", lambda i, a: (a[0], toggle_origin(a[1]), *a[2:])),
    "mixed cells of the complement": (
        "mixed", lambda i, a: (*a[:2], mc.mixed_cell_decompose(mc.MNot.of(_mixed_formula(i))),
                               a[3])),
    "mixed one membership flipped": (
        "mixed", lambda i, a: (*a[:3], [not a[3][0], *a[3][1:]])),
    "cli exit code": ("cli", lambda i, a: (3, a[1])),
    "cli empty output": ("cli", lambda i, a: (0, "")),
}


@pytest.mark.parametrize("workload", ["gamma", "elim", "mixed", "cli"])
def test_program_answers_pass(workload):
    assert error_rate(WORKLOADS[workload]) == 0


@pytest.mark.parametrize("label", sorted(CORRUPTIONS))
def test_corrupted_answers_count_as_errors(label):
    workload, corrupt = CORRUPTIONS[label]
    assert error_rate(Corrupted(WORKLOADS[workload], corrupt)) == 1
