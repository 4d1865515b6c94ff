"""E-T5: the paper's Table 5 -- run summary and the cost comparison.

The paper summarises its model-building run (100 generations, 10,000
evaluation samples, 1022 Pareto points, 4 CPU-hours on a 1.2 GHz
UltraSparc 3) and contrasts it with a previously reported 7-hour
conventional optimisation of the same circuit [HOLMES].

We regenerate the summary from the flow ledger and reproduce the
*structure* of the cost claim with the in-repo conventional baseline
(per-candidate transistor Monte Carlo): simulator-call counts per
yield-targeted design obtained, amortised over model reuse.
"""

import numpy as np

from repro.baselines import DirectMCConfig, run_direct_mc_optimization
from repro.measure import Spec, SpecSet


def _simulations_table(ledger) -> str:
    """The ledger's stage/simulation-count columns (no wall seconds)."""
    rows = [f"{'stage':<32} {'simulations':>12}"]
    rows += [f"{name:<32} {sims:>12d}" for name, sims, _ in ledger.as_rows()]
    return "\n".join(rows)


def test_table5_summary(flow_result, emit, benchmark):
    ledger = flow_result.ledger
    config = flow_result.config

    specs = SpecSet([
        Spec("gain_db", "ge",
             float(np.median(flow_result.pareto_objectives[:, 0])), "dB"),
        Spec("pm_deg", "ge",
             float(np.min(flow_result.pareto_objectives[:, 1])), "deg"),
    ])
    baseline = run_direct_mc_optimization(
        specs, DirectMCConfig(population=10, generations=4,
                              mc_samples_per_candidate=25, seed=2008))

    proposed_sims = ledger.total_simulations
    baseline_sims = baseline.transistor_simulations

    # One yield-targeted design from the finished model costs zero
    # transistor simulations; benchmark that query.
    design = benchmark(flow_result.model.design_for_specs, specs)
    assert design.parameters

    lines = [
        f"{'Parameters:':<34} Values:",
        f"{'No. Generations':<34} {config.generations}",
        f"{'Evaluation Samples':<34} {config.generations * config.population}",
        f"{'Pareto Points':<34} {flow_result.total_pareto_found} found, "
        f"{flow_result.pareto_count} modelled",
        f"{'MC samples per Pareto point':<34} {config.mc_samples}",
        "",
        "cost ledger (proposed flow, one-time model build):",
        _simulations_table(ledger),
        "",
        "conventional baseline (yield via per-candidate transistor MC):",
        _simulations_table(baseline.ledger),
        "",
        f"proposed: {proposed_sims} transistor sims once, then 0 per design",
        f"conventional: {baseline_sims} transistor sims per design episode",
        f"break-even after {proposed_sims / max(baseline_sims, 1):.1f} "
        "design uses (paper: 4h vs 7h already on the first use at full "
        "scale)",
        "",
        "paper Table 5: 100 generations, 10,000 samples, 1022 Pareto "
        "points, 4 CPU-hours (vs 7 hours conventional [5])",
    ]
    emit("table5_summary", "\n".join(lines), [
        "", "proposed flow, with wall seconds:", ledger.table(),
        "", "conventional baseline, with wall seconds:",
        baseline.ledger.table()])

    # Structural claims.
    assert proposed_sims > 0 and baseline_sims > 0
    # The conventional flow pays per design; the proposed flow's
    # per-design marginal cost is zero transistor simulations.
    marginal_proposed = 0
    assert baseline_sims > marginal_proposed
