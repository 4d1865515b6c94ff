"""Importance-sampled yield estimation (mean-shift + likelihood ratio).

Plain Monte-Carlo yield estimation needs ``O(1 / (1 - Y))`` samples to see
even one failing die of a high-yield design -- the paper's 500-sample
verification of a "100 %" design bounds the yield only down to 99.26 %.
Mean-shift importance sampling (cf. Bayrakci et al., *Fast Monte Carlo
Estimation of Timing Yield: ISLE*; Jonsson & Lelong, *Rare event
simulation for electronic circuit design*) attacks exactly this: draw die
realisations from a proposal distribution shifted **toward the failure
region**, then undo the bias with per-sample likelihood ratios.  Failures
become common under the proposal, so the failure-probability estimate
converges with far fewer simulator calls.

The stochastic space here is the PDK's **global (inter-die) parameter
vector** -- ``(dVto_n, dKp_n, dVto_p, dKp_p, dCap)``, independent normals
under :meth:`repro.process.pdk.ProcessKit.sample`.  The proposal keeps the
unit covariance and shifts the mean:

1. **Pilot run** (plain MC, small): locate the failure region.  The shift
   is the centroid of the failing pilot samples in sigma units; if the
   pilot saw no failures (the expected case for a guard-banded design),
   the centroid of the *most marginal* pilot tail -- the samples with the
   smallest aggregate spec margin -- is used instead.
2. **Main run**: sample globals from ``N(shift, I)`` (sigma units), keep
   local mismatch at its nominal distribution (its likelihood ratio is
   then exactly 1), and weight each sample by
   ``w = N(x; 0, I) / N(x; shift, I)``.

The estimator ``1 - mean(w * fail)`` is unbiased for the true yield; its
standard error and effective sample size (ESS) come from the weighted
population, and :meth:`ImportanceSamplingEstimate.consistent_with` cross-
checks the result against a plain-MC :class:`YieldEstimate` by confidence-
interval overlap (the yield-verification benchmark runs both).

Caveat: :meth:`ProcessKit.sample` clips the relative current-factor and
capacitance deviates at -4 sigma to keep them positive; the proposal
applies the same clip, so the likelihood ratio is exact everywhere except
that (probability ~3e-5) tail, a bias far below the estimator's noise
floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..errors import YieldModelError
from ..mc.sampler import stream
from ..measure.specs import SpecSet
from ..process.pdk import GLOBAL_DIMS, ProcessKit, ProcessSample
from .estimator import YieldEstimate, normal_interval

__all__ = ["ImportanceSamplingConfig", "ImportanceSamplingEstimate",
           "estimate_yield_importance", "estimate_yield_importance_stacked"]

#: Elementwise clamp on the mean shift, in sigma units.  Guards against a
#: wild pilot centroid degrading the proposal (a too-far shift explodes
#: the weight variance).
MAX_SHIFT_SIGMA = 3.0
#: When the pilot run sees no failures, the shift is built from this
#: fraction of the pilot population with the smallest aggregate margin.
PILOT_QUANTILE = 0.10


@dataclass(frozen=True)
class ImportanceSamplingConfig:
    """Settings of the importance-sampled yield estimator.

    Attributes
    ----------
    n_samples:
        Main-run die realisations (drawn from the shifted proposal).
    pilot_samples:
        Plain-MC pilot realisations used to construct the mean shift.
    seed:
        Root seed; pilot and main runs use independent derived streams
        (``"is-pilot"`` / ``"is-main"``).
    include_mismatch:
        Carry local (Pelgrom) mismatch in both runs.  Mismatch stays at
        its nominal distribution, so it contributes no likelihood ratio.

    The mean shift is clamped to :data:`MAX_SHIFT_SIGMA`, built from the
    :data:`PILOT_QUANTILE` most marginal pilot dies when the pilot sees
    no failure, and the interval is at 95 %.
    """

    n_samples: int = 500
    pilot_samples: int = 100
    seed: int = 2008
    include_mismatch: bool = True

    def __post_init__(self) -> None:
        if self.pilot_samples < 2 or self.n_samples < 2:
            raise YieldModelError(
                "pilot_samples and n_samples must be >= 2")


@dataclass
class ImportanceSamplingEstimate:
    """An importance-sampled yield measurement with its diagnostics.

    Attributes
    ----------
    yield_estimate:
        Unbiased estimate ``1 - mean(w * fail)`` of the true yield.
    std_error:
        Standard error of the estimate (sample variance of ``w * fail``).
    n_samples, pilot_samples:
        Main-run / pilot-run sizes (total simulator cost is their sum).
    shift_sigma:
        The proposal mean shift, sigma units, :data:`GLOBAL_DIMS` order.
    effective_samples:
        Kish effective sample size ``(sum w)^2 / sum w^2`` of the main
        run -- a proposal-quality diagnostic (close to ``n_samples`` is
        healthy; tiny means the shift overshot).
    pilot_failures:
        Failing dies observed in the pilot (0 is normal for guard-banded
        designs; the marginal-tail fallback then builds the shift).
    weighted_failure:
        The raw weighted failure probability ``mean(w * fail)``.
    """

    yield_estimate: float
    std_error: float
    n_samples: int
    pilot_samples: int
    shift_sigma: np.ndarray
    effective_samples: float
    pilot_failures: int
    weighted_failure: float
    confidence: float = field(default=0.95, init=False)

    @property
    def interval(self) -> tuple[float, float]:
        """Normal-approximation confidence interval on the true yield."""
        return normal_interval(self.yield_estimate, self.std_error,
                               self.confidence)

    @property
    def percent(self) -> float:
        """The importance-sampled yield estimate in percent."""
        return 100.0 * self.yield_estimate

    def consistent_with(self, direct: YieldEstimate) -> bool:
        """Do this estimate and a plain-MC estimate agree?

        True when the two confidence intervals overlap -- the cross-check
        the yield-verification benchmark applies between the
        importance-sampled and directly-counted yields.
        """
        lo_is, hi_is = self.interval
        lo_mc, hi_mc = direct.interval
        return lo_is <= hi_mc and lo_mc <= hi_is

    def describe(self) -> str:
        """Multi-line report: estimate, CI, ESS, and proposal shift."""
        lo, hi = self.interval
        shift = ", ".join(f"{name}={value:+.2f}s"
                          for name, value in zip(GLOBAL_DIMS, self.shift_sigma,
                                                 strict=True))
        return (f"IS yield {self.percent:.2f}% "
                f"({self.confidence:.0%} CI: [{100 * lo:.2f}%, "
                f"{100 * hi:.2f}%])\n"
                f"  main run {self.n_samples} samples "
                f"(ESS {self.effective_samples:.0f}), "
                f"pilot {self.pilot_samples} samples "
                f"({self.pilot_failures} failures)\n"
                f"  proposal shift: {shift}")


def _draw_shifted(rng: np.random.Generator, size: int,
                  shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Proposal draw ``(x, weights)``: sigma coordinates from
    ``N(shift, I)`` and their exact likelihood ratios
    ``N(x; 0, I) / N(x; shift, I)``.

    ``x`` are the raw standard-normal-frame draws (sigma units, before
    the PDK's -4-sigma positivity clip), which the pilot stage feeds to
    the mean-shift construction without a lossy round-trip through the
    clipped natural-unit values.  The rare-event walk
    (:mod:`repro.yieldmodel.rare`) draws its levels and final run here
    too.
    """
    x = shift[None, :] + rng.normal(size=(size, len(GLOBAL_DIMS)))
    # log[N(x;0,I)/N(x;mu,I)] = sum_j mu_j * (mu_j - 2 x_j) / 2
    log_weights = 0.5 * np.sum(shift * (shift - 2.0 * x), axis=1)
    return x, np.exp(log_weights)


def _draw_sample(pdk: ProcessKit, size: int, rng: np.random.Generator,
                 shift: np.ndarray, include_mismatch: bool
                 ) -> tuple[ProcessSample, np.ndarray, np.ndarray]:
    """:func:`_draw_shifted` realised as dies: ``(sample, weights, x)``,
    with any local mismatch drawn from the same ``rng``."""
    x, weights = _draw_shifted(rng, size, shift)
    sample = pdk.sample_from_sigma(x, rng=rng,
                                   include_mismatch=include_mismatch)
    return sample, weights, x


def _aggregate_margin(performance: dict[str, np.ndarray],
                      specs: SpecSet) -> np.ndarray:
    """Per-sample worst normalised margin (negative = failing)."""
    worst: np.ndarray | None = None
    for spec in specs:
        scale = max(abs(spec.limit), 1e-9)
        margin = spec.margin(np.asarray(performance[spec.name])) / scale
        worst = margin if worst is None else np.minimum(worst, margin)
    return np.atleast_1d(worst)


def _mean_shift(x_pilot: np.ndarray, fail_mask: np.ndarray,
                margins: np.ndarray) -> np.ndarray:
    """Mean-shift construction from the pilot population (sigma units)."""
    if np.any(fail_mask):
        centroid = x_pilot[fail_mask].mean(axis=0)
    else:
        # No observed failures: aim at the most marginal tail instead.
        count = max(1, int(round(PILOT_QUANTILE * margins.size)))
        tail = np.argsort(margins)[:count]
        centroid = x_pilot[tail].mean(axis=0)
    return np.clip(centroid, -MAX_SHIFT_SIGMA, MAX_SHIFT_SIGMA)


def estimate_yield_importance(evaluator, specs: SpecSet,
                              pdk: ProcessKit,
                              config: ImportanceSamplingConfig | None = None
                              ) -> ImportanceSamplingEstimate:
    """Estimate a design's yield by mean-shift importance sampling.

    Parameters
    ----------
    evaluator:
        Same contract as :func:`repro.mc.engine.monte_carlo`: callable
        ``(ProcessSample) -> dict[name, (S,) array]``.
    specs:
        The specification set defining pass/fail.

    Returns
    -------
    An :class:`ImportanceSamplingEstimate`; total simulator cost is
    ``pilot_samples + n_samples`` evaluator lanes.
    """
    config = config or ImportanceSamplingConfig()
    return estimate_yield_importance_stacked(
        lambda samples: evaluator(samples[0]), specs, pdk, [config])[0]


def estimate_yield_importance_stacked(evaluate, specs: SpecSet,
                                      pdk: ProcessKit, configs
                                      ) -> list[ImportanceSamplingEstimate]:
    """Importance-sample several designs with one evaluation per stage.

    Every design (one ``configs`` entry each) draws its pilot and main
    runs from its own ``config.seed`` streams, exactly as
    :func:`estimate_yield_importance` would; only the simulator calls
    are shared: all pilots are evaluated in one call, then all main
    runs in another.  Provided ``evaluate`` treats the segments
    independently, every estimate is bitwise equal to the one-design
    call.

    Parameters
    ----------
    evaluate:
        Callable ``(list[ProcessSample]) -> dict[name, (S,) array]``
        taking one sample per design, in ``configs`` order, and
        returning the performances of all their lanes concatenated in
        that order (``S`` is the sum of the sample sizes).
    specs:
        The specification set defining pass/fail.
    configs:
        One :class:`ImportanceSamplingConfig` per design.
    """
    configs = list(configs)
    telemetry.counter_add("estimator.simulations", sum(
        config.pilot_samples + config.n_samples for config in configs))

    # Pilot: plain (unshifted) draws to locate each failure direction.
    zero = np.zeros(len(GLOBAL_DIMS))
    with telemetry.span("yield.importance.pilot", samples=sum(
            config.pilot_samples for config in configs)):
        pilots = [_draw_sample(pdk, config.pilot_samples,
                               stream(config.seed, "is-pilot"), zero,
                               config.include_mismatch)
                  for config in configs]
        pilot_perfs = _split(evaluate([sample for sample, _, _ in pilots]),
                             [config.pilot_samples for config in configs])
        pilot_fails, shifts = [], []
        for config, (_, _, x_pilot), perf in zip(configs, pilots, pilot_perfs,
                                                 strict=True):
            pilot_fails.append(~specs.pass_mask(perf))
            shifts.append(_mean_shift(x_pilot, pilot_fails[-1],
                                      _aggregate_margin(perf, specs)))

    # Main run: shifted proposals + likelihood-ratio reweighting.
    with telemetry.span("yield.importance.main", samples=sum(
            config.n_samples for config in configs)):
        mains = [_draw_sample(pdk, config.n_samples,
                              stream(config.seed, "is-main"), shift,
                              config.include_mismatch)
                 for config, shift in zip(configs, shifts, strict=True)]
        main_perfs = _split(evaluate([sample for sample, _, _ in mains]),
                            [config.n_samples for config in configs])

    return [_reduce(config, shift, weights, ~specs.pass_mask(perf),
                    pilot_fail)
            for config, shift, (_, weights, _), perf, pilot_fail
            in zip(configs, shifts, mains, main_perfs, pilot_fails,
                   strict=True)]


def _split(performance: dict[str, np.ndarray], sizes: list[int]
           ) -> list[dict[str, np.ndarray]]:
    """Per-design slices of a stacked performance dict."""
    flat = {name: np.asarray(values, dtype=float).reshape(-1)
            for name, values in performance.items()}
    bounds = np.cumsum([0, *sizes])
    return [{name: values[start:stop] for name, values in flat.items()}
            for start, stop in zip(bounds[:-1], bounds[1:], strict=True)]


def _reduce(config: ImportanceSamplingConfig, shift: np.ndarray,
            weights: np.ndarray, fail: np.ndarray,
            pilot_fail: np.ndarray) -> ImportanceSamplingEstimate:
    """The weighted estimate of one design's main run."""
    failure_probability, std_error, ess = _weighted_failure(weights, fail)
    return ImportanceSamplingEstimate(
        yield_estimate=1.0 - failure_probability,
        std_error=std_error,
        n_samples=config.n_samples,
        pilot_samples=config.pilot_samples,
        shift_sigma=shift,
        effective_samples=ess,
        pilot_failures=int(np.count_nonzero(pilot_fail)),
        weighted_failure=failure_probability,
    )


def _weighted_failure(weights: np.ndarray, fail: np.ndarray
                      ) -> tuple[float, float, float]:
    """``(p, std_error, ess)`` of a weighted proposal run.

    ``p = mean(w * fail)`` is the unbiased failure-probability estimate,
    ``std_error`` the sample deviation of ``w * fail`` over ``sqrt(n)``,
    and ``ess`` the Kish effective sample size ``(sum w)^2 / sum w^2``.
    Shared by the importance sampler's main run and the rare-event
    estimator's final run.
    """
    contributions = weights * fail
    std_error = float(np.std(contributions, ddof=1)
                      / np.sqrt(contributions.size))
    weight_sum = float(np.sum(weights))
    weight_sq = float(np.sum(weights * weights))
    ess = (weight_sum * weight_sum / weight_sq) if weight_sq > 0 else 0.0
    return float(np.mean(contributions)), std_error, ess
