"""E-X2: streaming Monte Carlo -- adaptive stopping vs fixed-count MC.

The paper verifies its guard-banded designs with **fixed 500-sample**
Monte-Carlo runs ("confirmed a yield of 100 %").  The streaming engine
reaches the same conclusion at the same stated precision with a fraction
of the simulated lanes, because it stops as soon as the Wilson interval
on the yield is narrower than the requested width instead of burning the
whole budget.  This benchmark gates that claim:

* the adaptive run must use **>= 2x fewer simulated lanes** than the
  paper-style fixed 500-sample verification while meeting the requested
  CI width;
* the fixed-count yield must fall inside the adaptive run's interval and
  the streaming variation numbers must agree with the batch ones (both
  runs draw from the same guard-banded design);
* the streaming path must never materialise the full population --
  every evaluator call is bounded by ``chunk_lanes``, and each
  accumulator retains only its fixed-size moments vector.

The measured saving is recorded in ``benchmarks/results/streaming_mc.txt``.
"""

import numpy as np

from repro.designs import OTAParameters, evaluate_ota
from repro.mc import AdaptiveStop, MCConfig, monte_carlo
from repro.mc.statistics import relative_spread_pct
from repro.measure.specs import Spec, SpecSet
from repro.process import C35
from repro.yieldmodel import estimate_yield, estimate_yield_streaming

from conftest import FULL_SCALE

#: The paper's verification budget (section 4.3 / section 5).
FIXED_SAMPLES = 500
#: Requested precision: full Wilson-CI width on the yield fraction.
REQUESTED_CI = 0.08
CHUNK_LANES = 50
PILOT_SAMPLES = 64
SEED = 2008


def _mid_front_reference(flow_result) -> np.ndarray:
    return flow_result.pareto_parameters[flow_result.pareto_count // 2]


def _make_evaluator(reference, lane_log=None):
    def evaluator(die_sample):
        if lane_log is not None:
            lane_log.append(die_sample.size)
        tiled = OTAParameters.from_array(
            np.repeat(reference[None, :], die_sample.size, axis=0))
        performance = evaluate_ota(tiled, variations=die_sample)
        return {"gain_db": performance["gain_db"],
                "pm_deg": performance["pm_deg"]}
    return evaluator


def test_streaming_adaptive_vs_fixed(flow_result, emit):
    reference = _mid_front_reference(flow_result)
    evaluator = _make_evaluator(reference)

    # Guard-band the specs at 3 sigma of a small pilot run (the paper's
    # model-building step supplies the guard bands; the pilot stands in
    # for it so this benchmark is self-contained): the verification
    # below should then confirm a ~100 % yield, like the paper's.
    pilot = monte_carlo(evaluator, C35,
                        MCConfig(n_samples=PILOT_SAMPLES, seed=SEED + 1))
    specs = SpecSet([
        Spec(name, "ge",
             float(np.mean(pilot[name]) - 3.0 * np.std(pilot[name], ddof=1)))
        for name in ("gain_db", "pm_deg")
    ])

    # Paper-style fixed-count verification: 500 samples, no early exit.
    fixed_config = MCConfig(n_samples=FIXED_SAMPLES, seed=SEED,
                            chunk_lanes=CHUNK_LANES)
    fixed_population = monte_carlo(evaluator, C35, fixed_config)
    fixed_estimate = estimate_yield(fixed_population, specs)
    fixed_lo, fixed_hi = fixed_estimate.interval
    fixed_width = fixed_hi - fixed_lo

    # Streaming adaptive verification at the requested precision.  The
    # instrumented evaluator proves the memory contract: no call ever
    # sees more than chunk_lanes lanes.
    lanes_seen: list[int] = []
    adaptive_estimate, streaming = estimate_yield_streaming(
        _make_evaluator(reference, lanes_seen), C35, specs,
        MCConfig(n_samples=FIXED_SAMPLES * 8, seed=SEED,
                 chunk_lanes=CHUNK_LANES),
        adaptive=AdaptiveStop(metric="yield", ci_width=REQUESTED_CI,
                              min_samples=PILOT_SAMPLES))
    adaptive_lanes = streaming.samples_done
    adaptive_lo, adaptive_hi = adaptive_estimate.interval
    adaptive_width = adaptive_hi - adaptive_lo
    saving = FIXED_SAMPLES / adaptive_lanes

    # --- Gates -------------------------------------------------------
    # 1. Adaptive stopping met the requested precision with >= 2x fewer
    #    simulated lanes than the paper's fixed-count verification.
    assert streaming.stopped_early
    assert adaptive_width <= REQUESTED_CI
    assert saving >= 2.0, (
        f"adaptive run used {adaptive_lanes} lanes vs fixed "
        f"{FIXED_SAMPLES}: saving {saving:.2f}x < 2x")
    # 2. Both verifications agree: the fixed-count yield lies inside the
    #    adaptive interval (they sample the same guard-banded design).
    assert adaptive_lo <= fixed_estimate.fraction <= adaptive_hi
    # 3. The streaming variation numbers agree with the batch reduction.
    for name in ("gain_db", "pm_deg"):
        batch_spread = float(relative_spread_pct(fixed_population[name]))
        streaming_spread = streaming.variation_percent(name)
        # Different (smaller) draw of the same population: statistical
        # agreement, not bit equality.
        np.testing.assert_allclose(streaming_spread, batch_spread, rtol=0.5)
    # 4. Memory contract: the streaming path never concatenated the
    #    population -- every chunk is bounded by chunk_lanes and each
    #    accumulator retains only the fixed-size moments vector
    #    [n, mean, m2, min, max].
    assert max(lanes_seen) <= CHUNK_LANES
    for accumulator in streaming.accumulators.values():
        state = accumulator.state()
        assert list(state) == ["moments"]
        assert state["moments"].shape == (5,)

    lines = [
        f"scale: {'full' if FULL_SCALE else 'reduced'} flow front, "
        f"mid-front reference design, specs guard-banded at 3 sigma",
        f"requested precision  : Wilson CI width <= {REQUESTED_CI:g}",
        f"fixed-count run      : {FIXED_SAMPLES} lanes, "
        f"yield {100 * fixed_estimate.fraction:.2f}% "
        f"(CI [{100 * fixed_lo:.2f}%, {100 * fixed_hi:.2f}%], "
        f"width {fixed_width:.4f})",
        f"adaptive streaming   : {adaptive_lanes} lanes, "
        f"yield {100 * adaptive_estimate.fraction:.2f}% "
        f"(CI [{100 * adaptive_lo:.2f}%, {100 * adaptive_hi:.2f}%], "
        f"width {adaptive_width:.4f})",
        f"lane saving          : {saving:.2f}x fewer simulated lanes "
        f"at the requested precision (gate: >= 2x)",
        f"max lanes per chunk  : {max(lanes_seen)} "
        f"(chunk_lanes={CHUNK_LANES}; population never concatenated)",
        "variation (3-sigma relative spread):",
    ]
    for name in ("gain_db", "pm_deg"):
        lines.append(
            f"  {name:<8}: streaming {streaming.variation_percent(name):.3f}% "
            f"vs batch {float(relative_spread_pct(fixed_population[name])):.3f}%")
    emit("streaming_mc", "\n".join(lines))
