"""Freeze the expected dimensions for the default seed.

    python3 perfbench/freeze.py

Computes each answer by two routes that must agree: the benchmark's own
oracle (implicit equalities, closest-center description of the valued
line) and a route of the library (``dimension_via_projection`` for the
group sort, ``mixed_dimension`` for mixed formulas).  Stops on the first
disagreement; otherwise writes ``expected_seed0.json``, which records a
digest of the first instances so a changed generator is caught.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gen  # noqa: E402
import oracle as orc  # noqa: E402
from valdim import mixedcell as mc  # noqa: E402
from valdim import semilinear as sl  # noqa: E402

COUNT = {"gamma": 600, "mixed": 600, "cli": 400}
DIGEST_OF_FIRST = 20
INSTANCE = {"gamma": gen.gamma_instance, "mixed": gen.mixed_instance, "cli": gen.cli_instance}


def gamma_dim(inst) -> int:
    mine = orc.dimension(orc.dnf(inst["tree"]), inst["n"])
    theirs = sl.dimension_via_projection(sl.parse_formula(inst["text"], inst["n"]))
    return agree(inst, mine, -1 if theirs == float("-inf") else int(theirs))


def mixed_maxima(inst, text) -> list:
    mine = orc.mixed_dimension(inst["tree"], inst["polys"], inst["n"])
    theirs = json.loads(mc.mixed_dimension(mc.parse_mixed_formula(text, inst["n"])).to_json())
    return agree(inst, mine, theirs["maxima"])


def agree(inst, mine, theirs):
    if mine != theirs:
        sys.exit(f"routes disagree ({mine} against {theirs}) on {inst['text']}")
    return mine


def frozen_value(workload: str, inst):
    if workload == "gamma":
        return gamma_dim(inst)
    if workload == "mixed":
        return mixed_maxima(inst, inst["text"])
    if inst["kind"] in ("gamma dim", "gamma cells"):
        return gamma_dim(dict(inst, text=inst["argv"][-1]))
    if inst["kind"] in ("mixed dim", "mixed cells"):
        return mixed_maxima(inst, inst["argv"][-1])
    return None


def main() -> int:
    out = {}
    for workload, count in COUNT.items():
        insts = (INSTANCE[workload](0, i) for i in range(count))
        values = []
        texts = []
        for inst in insts:
            values.append(frozen_value(workload, inst))
            texts.append(inst["text"])
        out[workload] = {"digest": gen.digest(texts[:DIGEST_OF_FIRST]), "values": values}
        print(f"{workload}: {count} answers agree", file=sys.stderr)
    with open(os.path.join(HERE, "expected_seed0.json"), "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
