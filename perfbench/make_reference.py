"""Record the correctness reference of every input set.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``: per input set, the per-point mean
and standard deviation of ``gain_db`` and ``pm_deg`` of the serial
``mc-front`` sweep, and the front hypervolume of each ``yield-search``
search.  Re-record only in a change that alters the benchmark, never in
one that claims a gain.
"""

from __future__ import annotations

import json
import sys

from run import import_program, pin_environment


def main() -> int:
    pin_environment()
    import_program()
    import numpy as np
    from bench_workloads import (INPUT_SETS, MC_POINTS, MC_SAMPLES,
                                 OTA_SPECS, REFERENCE_PATH, YS_SEARCHES,
                                 mc_inputs, mc_point_stats, ys_config)
    from repro.designs.problems import OTAProblem
    from repro.mc.engine import MCConfig, monte_carlo_points
    from repro.optimize import ota_evaluator_factory, run_yield_search
    from repro.process import C35
    from repro.workload.designs import ota_points_evaluator

    reference = {"mc": {}, "yield_search": {}}
    for set_id in range(INPUT_SETS):
        natural, mc_seed = mc_inputs(set_id)
        out = monte_carlo_points(
            ota_points_evaluator(natural), MC_POINTS, C35,
            MCConfig(n_samples=MC_SAMPLES, seed=mc_seed, backend="serial"))
        stats = mc_point_stats(out)
        if not np.all(np.isfinite(list(stats.values()))):
            sys.exit(f"error: input set {set_id} has non-finite lanes")
        reference["mc"][str(set_id)] = stats
        reference["yield_search"][str(set_id)] = [
            run_yield_search(OTAProblem(pdk=C35), ota_evaluator_factory(),
                             OTA_SPECS, C35,
                             ys_config(set_id, search)).hypervolume()
            for search in range(YS_SEARCHES)]
        print(f"input set {set_id} recorded", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
