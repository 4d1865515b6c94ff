"""Ablation: yield versus guard-band width (the k-sigma choice).

DESIGN.md fixes the paper's variation percentage as a 3-sigma relative
spread because its guard-banded designs verify at "100 %" yield.  This
ablation sweeps the guard-band width k in {0, 1, 3} sigma on one spec and
measures the resulting Monte-Carlo yield: k=0 (designing at the nominal
spec) loses ~half the dice, k=1 most of a tail, k=3 essentially none --
the quantitative justification for the 3-sigma reading of the paper.

Benchmarks the yield estimation of a 200-die population.
"""

import numpy as np

from repro.designs import OTAParameters, evaluate_ota
from repro.mc import MCConfig, monte_carlo
from repro.measure import Spec, SpecSet
from repro.process import C35
from repro.yieldmodel import estimate_yield
from repro.yieldmodel.variation import DEFAULT_K_SIGMA


def test_yield_vs_guard_band(flow_result, emit, benchmark):
    model = flow_result.model
    variation = flow_result.variation["gain_db_delta_pct"]
    objectives = flow_result.pareto_objectives
    k_model = DEFAULT_K_SIGMA

    # Work at a mid-front point: its nominal gain is the k=0 spec.
    index = int(0.5 * (objectives.shape[0] - 1))
    params = OTAParameters.from_array(flow_result.pareto_parameters[index])
    nominal_gain = float(objectives[index, 0])
    sigma_pct = float(variation[index]) / k_model  # 1-sigma in percent

    def evaluator(sample):
        tiled = OTAParameters.from_array(
            np.broadcast_to(params.to_array(), (sample.size, 8)))
        return evaluate_ota(tiled, variations=sample)

    population = monte_carlo(evaluator, C35, MCConfig(n_samples=200, seed=5))

    rows = []
    yields = {}
    for k in (0.0, 1.0, 3.0):
        # Guard-banding by k sigma means the *spec* this design can
        # guarantee sits k sigma below its nominal performance.
        spec_value = nominal_gain * (1.0 - k * sigma_pct / 100.0)
        specs = SpecSet([Spec("gain_db", "ge", spec_value, "dB")])
        estimate = estimate_yield(population, specs)
        yields[k] = estimate.fraction
        rows.append((k, spec_value, estimate.percent))

    estimate_specs = SpecSet([Spec("gain_db", "ge", nominal_gain, "dB")])
    benchmark(estimate_yield, population, estimate_specs)

    lines = [f"design nominal gain: {nominal_gain:.3f} dB, "
             f"1-sigma = {sigma_pct:.3f}%",
             f"{'k (sigma)':>9} {'spec (dB)':>10} {'yield (%)':>10}"]
    for k, spec_value, pct in rows:
        lines.append(f"{k:>9.0f} {spec_value:>10.3f} {pct:>10.1f}")
    emit("ablation_guardband", "\n".join(lines))

    # k=0: the spec sits at the nominal -> ~50% yield.
    assert 0.15 <= yields[0.0] <= 0.85
    # Yield grows monotonically with the guard band.
    assert yields[0.0] < yields[1.0] <= yields[3.0]
    # k=3 delivers the paper's "100%" within MC resolution.
    assert yields[3.0] >= 0.98
