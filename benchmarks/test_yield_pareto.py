"""E-X3: in-loop yield optimisation -- the multi-fidelity ladder vs
full-MC-everywhere.

Runs the stage-7 yield-aware OTA search twice per seed: once with the
:class:`repro.optimize.EstimatorLadder` escalating only boundary
candidates (corners -> surrogate -> importance-sampled MC), and once
with every candidate forced to the full-MC rung (``min_fidelity=2`` --
what a metamodel-free in-loop yield optimiser would pay).  Three gates:

* **simulator-call saving**: the ladder must spend >=5x fewer full-MC
  simulator calls than the full-MC-everywhere reference, on every seed;
* **matched front quality**: the mean 3-objective hypervolume (gain x
  phase margin x yield, common fixed reference) across seeds must be
  statistically indistinguishable between the two variants -- their
  ``mean +/- 2 * sem`` intervals must overlap;
* **bit-reproducibility**: re-running the ladder search on a different
  execution backend must reproduce the archive and annotations exactly.

Per-fidelity candidate/call counts land in
``benchmarks/results/yield_pareto.txt`` next to the other speedup
records so the perf trajectory stays comparable across PRs.
"""

import dataclasses
import time

import numpy as np

from repro.designs.problems import OTAProblem
from repro.measure import Spec, SpecSet
from repro.moo import hypervolume
from repro.optimize import (FIDELITY_NAMES, LadderConfig, YieldSearchConfig,
                            ota_evaluator_factory, run_yield_search)
from repro.process import C35

from conftest import FULL_SCALE

SEEDS = (2008, 2009, 2010, 2011) if FULL_SCALE else (2008, 2009, 2010)
GENERATIONS = 10 if FULL_SCALE else 6
POPULATION = 24 if FULL_SCALE else 16

#: The in-loop requirement: placed just above the middle of the
#: benchmark-scale front so candidates genuinely straddle the yield
#: boundary (the regime the ladder exists for).
SPECS = SpecSet([Spec("gain_db", "ge", 48.0, "dB"),
                 Spec("pm_deg", "ge", 80.0, "deg")])
TARGET = 0.90

#: Fixed hypervolume reference (oriented frame: gain, pm, yield) --
#: shared by every run so volumes are comparable.
HV_REFERENCE = np.array([35.0, 65.0, -0.02])

LADDER = LadderConfig(surrogate_train=24, surrogate_population=1500,
                      is_pilot=20, is_samples=60)


def _search(min_fidelity: int, seed: int, backend: str | None = None):
    ladder = dataclasses.replace(LADDER, min_fidelity=min_fidelity,
                                 seed=seed, backend=backend)
    config = YieldSearchConfig(mode="yield", yield_target=TARGET,
                               generations=GENERATIONS,
                               population=POPULATION, seed=seed,
                               ladder=ladder)
    start = time.perf_counter()
    result = run_yield_search(OTAProblem(), ota_evaluator_factory(),
                              SPECS, C35, config)
    elapsed = time.perf_counter() - start
    front_hv = hypervolume(result.problem.oriented(
        result.front_objectives()), HV_REFERENCE)
    return result, front_hv, elapsed


def test_yield_pareto_ladder_vs_full_mc(emit):
    rows = []
    timings = []
    hv_ladder, hv_full = [], []
    ratios = []
    ladder_totals = np.zeros(3, dtype=int)
    reference_run = None
    for seed in SEEDS:
        ladder_run, ladder_hv, ladder_time = _search(0, seed)
        full_run, full_hv, full_time = _search(2, seed)
        if seed == SEEDS[0]:
            reference_run = ladder_run
        hv_ladder.append(ladder_hv)
        hv_full.append(full_hv)
        ladder_totals += np.asarray(ladder_run.counts.sims)
        # Gate 1: >=5x fewer full-MC simulator calls, every seed.  A
        # seed whose boundary candidates all resolve below fidelity 2
        # spends zero full-MC calls -- an infinite ratio, reported as
        # the reference cost itself.
        full_mc_ladder = ladder_run.counts.full_mc_sims
        full_mc_reference = full_run.counts.full_mc_sims
        ratio = full_mc_reference / max(1, full_mc_ladder)
        ratios.append(ratio)
        assert ratio >= 5.0, \
            f"seed {seed}: only {ratio:.1f}x fewer full-MC calls"
        rows.append(
            f"seed {seed}: ladder {ladder_run.counts.total_sims:>6d} sims "
            f"(full-MC rung {full_mc_ladder:>5d}) | "
            f"full-MC-everywhere {full_run.counts.total_sims:>6d} sims | "
            f"full-MC ratio {ratio:7.1f}x | "
            f"hv {ladder_hv:7.1f} vs {full_hv:7.1f}")
        timings.append(f"seed {seed}: ladder {ladder_time:5.1f} s | "
                       f"full-MC-everywhere {full_time:5.1f} s")

    # Gate 2: statistically indistinguishable front quality (CI overlap
    # of the across-seed mean hypervolumes).
    hv_ladder = np.asarray(hv_ladder)
    hv_full = np.asarray(hv_full)
    sem_ladder = hv_ladder.std(ddof=1) / np.sqrt(hv_ladder.size)
    sem_full = hv_full.std(ddof=1) / np.sqrt(hv_full.size)
    lo_ladder = hv_ladder.mean() - 2.0 * sem_ladder
    hi_ladder = hv_ladder.mean() + 2.0 * sem_ladder
    lo_full = hv_full.mean() - 2.0 * sem_full
    hi_full = hv_full.mean() + 2.0 * sem_full
    assert lo_ladder <= hi_full and lo_full <= hi_ladder, \
        f"front hypervolumes disagree: ladder [{lo_ladder:.1f}, " \
        f"{hi_ladder:.1f}] vs full-MC [{lo_full:.1f}, {hi_full:.1f}]"

    # Gate 3: bit-reproducible across execution backends.
    thread_run, _, _ = _search(0, SEEDS[0], backend="thread:2")
    np.testing.assert_array_equal(
        thread_run.result.all_objectives,
        reference_run.result.all_objectives)
    np.testing.assert_array_equal(
        thread_run.result.annotations["yield"],
        reference_run.result.annotations["yield"])
    np.testing.assert_array_equal(
        thread_run.result.annotations["fidelity"],
        reference_run.result.annotations["fidelity"])

    fidelity_lines = [
        f"  {level}: {name:<25} {ladder_totals[level]:>7d} sim calls"
        for level, name in enumerate(FIDELITY_NAMES)]
    lines = [
        f"in-loop yield search, OTA: {GENERATIONS} generations x "
        f"{POPULATION} individuals per seed, seeds {list(SEEDS)}",
        f"spec: {SPECS.describe()}; target yield {TARGET:.0%}",
        "",
        *rows,
        "",
        f"minimum full-MC call saving   : {min(ratios):6.1f}x (gate: >=5x)",
        f"front hypervolume (mean+/-sem): ladder "
        f"{hv_ladder.mean():.1f}+/-{sem_ladder:.1f}, full-MC "
        f"{hv_full.mean():.1f}+/-{sem_full:.1f} (CI overlap: yes)",
        "backend bit-reproducibility   : serial == thread:2 (exact)",
        "",
        "ladder simulator calls by fidelity (all seeds summed):",
        *fidelity_lines,
    ]
    emit("yield_pareto", "\n".join(lines), timings)
