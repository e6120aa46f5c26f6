"""Regenerate ``refs.json``: the pinned simulated statistics.

Pins one full ``SMStats`` digest per (workload, benchmark) cell -- per
fuzz seed of the pool for the fuzz workload -- and the deterministic
counters every traced run must repeat exactly.  Rerun it only when a
change is meant to alter the simulated statistics, and say so in that
change::

    python3 perfbench/pin.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import Run  # noqa: E402
from workloads import FUZZ_SEED_POOL, REFS_PATH, WORKLOADS  # noqa: E402


def traced_counters(result):
    return {"sim_cycles": result["stats"]["cycles"],
            "sim.winstrs": result["stats"]["instrs_issued"],
            "compile.static_instrs":
                result["layers"]["compile.static_instrs"],
            "golden.steps": result["layers"]["golden.steps"]}


def main():
    root = os.getcwd()
    refs = {"cells": {}, "counters": {}}
    for workload, (kind, _arg) in WORKLOADS.items():
        print("pinning %s" % workload, flush=True)
        if kind == "suite":
            with Run(root, workload, 0, 0, 1) as run:
                result = run.child(trace=1)
            refs["cells"][workload] = result["cells"]
            refs["counters"][workload] = traced_counters(result)
        elif kind == "fuzz":
            refs["cells"][workload] = {}
            refs["counters"][workload] = {}
            for seed in range(FUZZ_SEED_POOL):
                with Run(root, workload, seed, 0, 1) as run:
                    result = run.child(trace=1)
                refs["cells"][workload].update(result["cells"])
                refs["counters"][workload][str(seed)] = \
                    traced_counters(result)
        else:
            with Run(root, workload, 0, 0, 0) as run:
                result = run.child()
            refs["cells"][workload] = result["cells"]
            refs["counters"][workload] = {
                "sim_cycles": result["stats"]["cycles"],
                "sim.winstrs": result["stats"]["instrs_issued"]}
    with open(REFS_PATH, "w") as stream:
        json.dump(refs, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
