"""A fixed reference kernel that measures the speed of the host.

On a shared virtual machine the same CPU-bound work runs up to 30% faster
or slower from one minute to the next.  ``sample()`` times one run of a
fixed kernel: the benchmark's own exact Fourier-Motzkin
(``oracle.feasible``) on the nine systems of six fixed ``elim`` queries.  That is the same kind of
work as the program's (small-integer arithmetic, tuples, dicts,
generators) in code that no change to ``valdim`` can touch.  ``run.py``
takes samples between queries and scales its timings by
``NOMINAL_S / median(samples)``, so that they read as on a host where the
kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
from time import perf_counter

import gen
import oracle

# Kernel time on the reference host (2-vCPU virtual machine, Intel Xeon
# 2.1 GHz, Python 3.11.7), rounded, so that scaled timings stay close to
# the measured ones there.
NOMINAL_S = 0.002
# The systems come from the elim generator with a seed of their own.
SEED = -1


def _systems() -> list:
    out = []
    for i in range(6):
        for conj in gen.elim_instance(SEED, i)["conjs"]:
            out.append([row for a in conj for row in oracle.atom_rows(*a[1:])[0]])
    return out


SYSTEMS = _systems()


def sample() -> float:
    """Seconds for one run of the kernel, with the garbage collector held off."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for rows in SYSTEMS:
            oracle.feasible(rows)
        return perf_counter() - t0
    finally:
        if was_on:
            gc.enable()
