"""E-X2: surrogate-accelerated yield estimation vs direct Monte Carlo.

Estimates the same OTA design's yield twice -- a direct ``monte_carlo``
sweep of the full population, and the surrogate pipeline (seed batch +
adaptive refinement + control batch) classifying an equally large
population -- then verifies the two estimates agree within their
confidence intervals and records the speedup at that matched
sampling error.

Two speedup numbers are reported:

* **simulator-call ratio** (deterministic): population size over the
  surrogate's total circuit-level evaluations -- the number that scales
  to expensive simulators;
* **wall-clock ratio** (host-dependent): end-to-end time of the two
  estimates on this machine.

The wall-clock gate only hardens at full scale (``REPRO_FULL=1``), like
the backend-speedup benchmark; the simulator-call gate always applies.
"""

import time

from repro.designs import OTAParameters, evaluate_ota
from repro.mc import MCConfig, monte_carlo
from repro.measure import Spec, SpecSet
from repro.process import C35
from repro.surrogate import SurrogateConfig, SurrogateYieldEstimator
from repro.yieldmodel import estimate_yield

from conftest import FULL_SCALE

N_MC = 20000 if FULL_SCALE else 6000
N_TRAIN = 128 if FULL_SCALE else 96
REFINE_BUDGET = 192 if FULL_SCALE else 96
CONTROL = 200 if FULL_SCALE else 80

#: The verified design (the library default mid-range OTA) and a
#: high-yield specification ~2 sigma below its nominal performance --
#: the regime the paper's guard-banded designs live in.
SPECS = SpecSet([Spec("gain_db", "ge", 40.85, "dB"),
                 Spec("pm_deg", "ge", 86.75, "deg")])


def _evaluator():
    params = OTAParameters()

    def evaluate(die_sample):
        performance = evaluate_ota(params.tile(die_sample.size),
                                   variations=die_sample)
        return {"gain_db": performance["gain_db"],
                "pm_deg": performance["pm_deg"]}

    return evaluate


def test_surrogate_speedup(emit):
    evaluator = _evaluator()

    start = time.perf_counter()
    direct_perf = monte_carlo(evaluator, C35,
                              MCConfig(n_samples=N_MC, seed=2008,
                                       chunk_lanes=2000))
    direct = estimate_yield(direct_perf, SPECS)
    direct_time = time.perf_counter() - start

    estimator = SurrogateYieldEstimator(
        evaluator, SPECS, C35,
        SurrogateConfig(n_train=N_TRAIN, n_mc=N_MC, control_samples=CONTROL,
                        refine_budget=REFINE_BUDGET, seed=2008))
    start = time.perf_counter()
    estimate = estimator.estimate()
    surrogate_time = time.perf_counter() - start

    sim_speedup = N_MC / estimate.simulator_evals
    wall_speedup = direct_time / max(surrogate_time, 1e-9)
    direct_half = (direct.interval[1] - direct.interval[0]) / 2
    surrogate_half = (estimate.interval[1] - estimate.interval[0]) / 2

    lines = [
        f"design: library-default OTA; spec: {SPECS.describe()}",
        f"population: {N_MC} samples (both estimators)",
        "",
        f"direct MC      : {direct.percent:6.2f}% "
        f"(CI +/-{100 * direct_half:.2f}%)  "
        f"{N_MC} simulator evals",
        f"surrogate      : {estimate.percent:6.2f}% "
        f"(CI +/-{100 * surrogate_half:.2f}%)  "
        f"{estimate.simulator_evals} simulator evals",
        f"  (train {estimate.n_train} + refine {estimate.n_refined} + "
        f"control {CONTROL}; {estimate.ambiguous_lanes} lanes left "
        f"ambiguous)",
        f"  CV error: " + ", ".join(
            f"{name}={err:.3g}" for name, err in estimate.cv_errors.items()),
        "",
        f"simulator-call speedup : {sim_speedup:6.1f}x",
        f"estimates agree (CI overlap): {estimate.consistent_with(direct)}",
        f"control batch agrees        : {estimate.consistent_with_control}",
    ]
    emit("surrogate_speedup", "\n".join(lines), [
        f"direct MC wall       : {direct_time:6.2f} s",
        f"surrogate wall       : {surrogate_time:6.2f} s",
        f"wall-clock speedup     : {wall_speedup:6.1f}x",
    ])

    # Agreement at matched sampling error is the correctness contract.
    assert estimate.consistent_with(direct), (
        f"surrogate {estimate.percent:.2f}% {estimate.interval} vs direct "
        f"{direct.percent:.2f}% {direct.interval}")
    assert estimate.consistent_with_control
    # Matched error: the surrogate interval may widen only modestly
    # (classification term) over the direct interval it replaces.
    assert surrogate_half <= 2.5 * direct_half

    # The deterministic speedup gate: >= 10x fewer circuit evaluations.
    assert sim_speedup >= 10.0, (
        f"expected >=10x simulator-call reduction, got {sim_speedup:.1f}x")
    # Wall clock includes numpy prediction overhead; gate it hard only at
    # full scale where the population dwarfs fixed costs.
    if FULL_SCALE:
        assert wall_speedup >= 10.0, (
            f"expected >=10x wall-clock speedup, got {wall_speedup:.1f}x")
