"""Rare-event (high-sigma) failure-probability estimation.

The estimators this library shipped so far resolve yields in the
90-99 % band: direct Monte Carlo needs ``O(1 / p_fail)`` samples to see
a single failure, and even the mean-shift importance sampler
(:mod:`repro.yieldmodel.importance`) relies on a *plain-MC pilot* to
locate the failure region -- hopeless when the failure probability is
10^-6..10^-9, where real sign-off operates (5-6 sigma).  This module
implements the standard rare-event machinery (cf. Jonsson & Lelong,
*Rare event simulation for electronic circuit design*): **multilevel
splitting with adaptive intermediate thresholds over the spec margin**,
driving an **adaptively-shifted importance sampler**.

Algorithm
---------
Work in the sigma-unit global-parameter space of the PDK
(:data:`repro.process.pdk.GLOBAL_DIMS`; every draw goes through
:meth:`~repro.process.pdk.ProcessKit.sample_from_sigma`, sharing one
definition of the sigma -> natural-unit map with every other
estimator).  Let ``g(x)`` be the aggregate normalised spec margin of a
die (negative = failing); the failure region is ``{g < 0}``.

1. **Splitting levels.**  Level ``k`` draws ``n_per_level`` dies from
   the mean-shifted proposal ``N(mu_k, I)`` (``mu_0 = 0``) and sets the
   next intermediate threshold ``L_k`` to the ``level_quantile``-th
   quantile of the level's margins (clamped at 0 from below): the
   *elite* fraction of the level that is closest to -- or inside --
   the failure region.  The next proposal mean ``mu_{k+1}`` is the
   elite centroid (elementwise-clamped at ``max_shift_sigma``).  Levels
   stop as soon as the threshold reaches 0 (the proposal now produces
   failures at ~``level_quantile`` rate) or ``max_levels`` is hit.
2. **Final estimate.**  One unbiased importance-sampled run of
   ``n_final`` dies from the last proposal ``N(mu*, I)``:
   ``p_fail = mean(w * fail)`` with the exact per-die likelihood ratio
   ``w = N(x; 0, I) / N(x; mu*, I)``.  The levels only *locate* the
   proposal -- they never contribute samples to the estimate, so the
   estimator stays unbiased however adaptive the walk was (the level
   streams and the final stream are independent).

Every level is evaluated **lane-stacked** through the
:mod:`repro.exec` backends: the level's sigma coordinates are drawn
centrally from a dedicated stream (``(seed, "rare-level-k")``), then
split by :func:`repro.mc.engine.evaluate_sigma_batch` into
``chunk_lanes``-bounded chunks whose evaluation -- and, when enabled,
whose per-chunk local-mismatch stream (child ``i`` of ``(seed,
"rare-level-k-mismatch")``) -- is independent of where it runs.
Results are therefore **bit-identical across serial/thread/process
backends and worker counts**, like every other estimator in the
library.

The returned :class:`RareEventResult` carries the failure probability
with a confidence interval, the equivalent sigma level
``-Phi^-1(p_fail)``, the per-level acceptance ledger, and the total
simulation count -- plus :meth:`~RareEventResult.direct_mc_equivalent`,
the direct-MC sample count a matching confidence-interval half-width
would have cost, which is what the high-sigma benchmark gates on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import telemetry
from ..errors import YieldModelError
from ..mc.engine import evaluate_sigma_batch
from ..mc.sampler import stream
from ..measure.specs import SpecSet
from ..process.pdk import GLOBAL_DIMS, ProcessKit
from .estimator import _erfinv, normal_interval, z_value
from .importance import _aggregate_margin, _draw_shifted, _weighted_failure

__all__ = ["RareEventConfig", "RareLevel", "RareEventResult",
           "estimate_yield_rare", "equivalent_sigma",
           "direct_mc_samples_for_halfwidth"]


def equivalent_sigma(p_fail: float) -> float:
    """The sigma level whose one-sided tail probability is ``p_fail``.

    ``equivalent_sigma(Phi(-beta)) == beta``: the standard "how many
    sigma is this failure rate" conversion of high-sigma sign-off.
    Clamped to the double-precision resolvable range; ``p_fail = 0``
    maps to ``+inf`` and ``p_fail >= 0.5`` to values ``<= 0``.
    """
    if not 0.0 <= p_fail <= 1.0:
        raise YieldModelError(
            f"p_fail must lie in [0, 1], got {p_fail}")
    if p_fail == 0.0:
        return math.inf
    # Phi^-1(1 - p) via erfinv; clamp the argument inside erfinv's open
    # domain (p below ~1e-17 is not resolvable in double precision).
    argument = min(1.0 - 2.0 * p_fail, 1.0 - 1e-16)
    return math.sqrt(2.0) * _erfinv(max(argument, -1.0 + 1e-16))


def direct_mc_samples_for_halfwidth(p_fail: float, half_width: float,
                                    confidence: float = 0.95) -> int:
    """Direct-MC sample count for a target CI half-width on ``p_fail``.

    The normal-approximation binomial interval has half-width
    ``z * sqrt(p (1 - p) / n)``; inverting for ``n`` gives the cost a
    plain Monte-Carlo estimate of the same precision would pay -- the
    yardstick the high-sigma benchmark measures estimator savings
    against.
    """
    if not 0.0 < p_fail < 1.0:
        raise YieldModelError(
            f"p_fail must lie in (0, 1), got {p_fail}")
    if half_width <= 0.0:
        raise YieldModelError(
            f"half_width must be positive, got {half_width}")
    z = z_value(confidence)
    return int(math.ceil(z * z * p_fail * (1.0 - p_fail)
                         / (half_width * half_width)))


@dataclass(frozen=True)
class RareEventConfig:
    """Settings of the rare-event estimator.

    Attributes
    ----------
    n_per_level:
        Dies simulated per splitting level (the threshold/shift
        adaptation budget).
    max_levels:
        Cap on splitting levels.  Reaching it before the failure region
        is flagged in the result (``levels_converged = False``) -- the
        estimate is still unbiased but its proposal may be poor.
    level_quantile:
        Elite fraction per level: each intermediate threshold is this
        quantile of the level's margins.  Smaller walks faster but
        adapts the shift on fewer elite samples.
    n_final:
        Dies of the final unbiased importance-sampled run.
    seed:
        Root seed; every level and the final run use independent
        derived streams (``"rare-level-k"`` / ``"rare-final"``).
    max_shift_sigma:
        Elementwise clamp on every proposal mean, in sigma units.
    include_mismatch:
        Carry local (Pelgrom) mismatch in every evaluation.  Mismatch
        stays at its nominal distribution, so it contributes no
        likelihood ratio (exactly as in the importance sampler).
    confidence:
        Level of the reported intervals.
    chunk_lanes:
        Lane bound per stacked evaluation chunk (fixes the chunk
        geometry and, with mismatch enabled, the per-chunk mismatch
        streams -- part of the result's identity, like
        :attr:`repro.mc.engine.MCConfig.chunk_lanes`).
    backend, workers:
        Execution backend of the chunk sweeps (never affects numeric
        results; see :mod:`repro.exec`).
    """

    n_per_level: int = 2000
    max_levels: int = 12
    level_quantile: float = 0.25
    n_final: int = 4000
    seed: int = 2008
    max_shift_sigma: float = 6.0
    include_mismatch: bool = True
    confidence: float = 0.95
    chunk_lanes: int = 4000
    backend: object = None
    workers: int = 0

    def __post_init__(self) -> None:
        if self.n_per_level < 2 or self.n_final < 2:
            raise YieldModelError(
                "n_per_level and n_final must be >= 2")
        if self.max_levels < 1:
            raise YieldModelError("max_levels must be >= 1")
        if not 0.0 < self.level_quantile < 1.0:
            raise YieldModelError(
                "level_quantile must lie in (0, 1)")
        if self.max_shift_sigma <= 0.0:
            raise YieldModelError("max_shift_sigma must be positive")
        if self.chunk_lanes < 1:
            raise YieldModelError("chunk_lanes must be >= 1")


@dataclass(frozen=True)
class RareLevel:
    """One splitting level of the adaptive walk (the simulation ledger).

    Attributes
    ----------
    index:
        Level number (0 = the unshifted pilot level).
    n_samples:
        Dies simulated at this level.
    threshold:
        Intermediate spec-margin threshold set by this level (clamped
        at 0; the failure region is margin < 0).
    acceptance:
        Fraction of the level's dies at or below the threshold (the
        elite fraction; ~``level_quantile`` by construction, exactly 0
        thresholds excepted).
    failure_fraction:
        Raw fraction of the level's dies already failing -- how close
        the proposal is to the failure region.
    shift_sigma:
        Proposal mean this level was drawn from (sigma units,
        :data:`~repro.process.pdk.GLOBAL_DIMS` order).
    """

    index: int
    n_samples: int
    threshold: float
    acceptance: float
    failure_fraction: float
    shift_sigma: np.ndarray


@dataclass
class RareEventResult:
    """A rare-event failure-probability measurement with diagnostics.

    Attributes
    ----------
    p_fail:
        Unbiased importance-sampled failure-probability estimate.  A
        weighted mean is not bounded, so a noisy one can leave
        ``[0, 1]``; the derived quantities use :attr:`probability`.
    std_error:
        Standard error of ``p_fail`` (weighted-population variance of
        the final run).
    levels:
        Per-level ledger of the adaptive walk
        (:class:`RareLevel`; ``levels[k].n_samples`` sums with
        ``n_final`` to :attr:`total_simulations`).
    shift_sigma:
        Final proposal mean (sigma units, GLOBAL_DIMS order).
    n_final:
        Final-run sample count.
    effective_samples:
        Kish effective sample size of the final weighted run.
    levels_converged:
        Whether the threshold walk reached the failure region before
        ``max_levels``.
    confidence:
        Confidence level of the reported intervals.
    """

    p_fail: float
    std_error: float
    levels: list[RareLevel] = field(default_factory=list)
    shift_sigma: np.ndarray = field(
        default_factory=lambda: np.zeros(len(GLOBAL_DIMS)))
    n_final: int = 0
    effective_samples: float = 0.0
    levels_converged: bool = True
    confidence: float = 0.95

    @property
    def probability(self) -> float:
        """``p_fail`` clamped to ``[0, 1]``."""
        return min(max(self.p_fail, 0.0), 1.0)

    @property
    def yield_estimate(self) -> float:
        """The complementary yield ``1 - probability``."""
        return 1.0 - self.probability

    @property
    def n_levels(self) -> int:
        """Number of splitting levels the adaptive walk used."""
        return len(self.levels)

    @property
    def total_simulations(self) -> int:
        """Total simulator cost: every level plus the final run."""
        return sum(level.n_samples for level in self.levels) + self.n_final

    @property
    def sigma_level(self) -> float:
        """Equivalent sigma of the failure probability
        (``-Phi^-1(probability)``)."""
        return equivalent_sigma(self.probability)

    @property
    def interval(self) -> tuple[float, float]:
        """Confidence interval on the true failure probability, around
        :attr:`probability`."""
        return normal_interval(self.probability, self.std_error,
                               self.confidence)

    @property
    def acceptance_rates(self) -> list[float]:
        """Per-level elite acceptance rates, walk order."""
        return [level.acceptance for level in self.levels]

    def direct_mc_equivalent(self) -> int:
        """Direct-MC sample count for this result's CI half-width.

        What a plain Monte-Carlo estimate of the same precision would
        have cost; the savings factor is this divided by
        :attr:`total_simulations`.  At a probability of 0 or 1 the
        binomial variance vanishes, so the cost is 0.
        """
        p = self.probability
        if p in (0.0, 1.0):
            return 0
        lo, hi = self.interval
        return direct_mc_samples_for_halfwidth(
            p, max((hi - lo) / 2.0, 1e-300), self.confidence)

    def describe(self) -> str:
        """Multi-line report: p_fail, sigma level, CI, level ledger."""
        lo, hi = self.interval
        shift = ", ".join(f"{name}={value:+.2f}s"
                          for name, value in zip(GLOBAL_DIMS, self.shift_sigma,
                                                 strict=True))
        lines = [
            f"rare-event p_fail {self.p_fail:.3e} "
            f"(= {self.sigma_level:.2f} sigma; "
            f"{self.confidence:.0%} CI: [{lo:.3e}, {hi:.3e}])",
            f"  final run {self.n_final} samples "
            f"(ESS {self.effective_samples:.0f}), "
            f"{self.n_levels} splitting levels, "
            f"{self.total_simulations} simulations total",
            f"  final proposal shift: {shift}",
        ]
        if not self.levels_converged:
            lines.append("  WARNING: level walk hit max_levels before "
                         "reaching the failure region")
        for level in self.levels:
            lines.append(
                f"  level {level.index}: threshold {level.threshold:.4g}, "
                f"acceptance {level.acceptance:.2%}, "
                f"failing {level.failure_fraction:.2%}, "
                f"{level.n_samples} samples")
        return "\n".join(lines)


def estimate_yield_rare(evaluator, specs: SpecSet, pdk: ProcessKit,
                        config: RareEventConfig | None = None, *,
                        progress=None) -> RareEventResult:
    """Estimate a design's rare-event failure probability (see module
    docstring).

    Parameters
    ----------
    evaluator:
        Same contract as :func:`repro.mc.engine.monte_carlo`: callable
        ``(ProcessSample) -> dict[name, (S,) array]``.
    specs:
        The specification set defining pass/fail (and, through the
        aggregate normalised margin, the splitting levels).
    progress:
        Optional callback ``(stage, lanes_done, lanes_total)`` fired
        per completed evaluation chunk.

    Returns
    -------
    A :class:`RareEventResult`; total simulator cost is
    ``n_levels * n_per_level + n_final`` evaluator lanes.
    """
    config = config or RareEventConfig()

    def margins_and_fails(stage: str, x: np.ndarray):
        # Chunk i draws its mismatch from child i of (seed,
        # "<stage>-mismatch"), so results are bit-identical across
        # backends and worker counts.
        performance = evaluate_sigma_batch(
            evaluator, pdk, x, seed=config.seed, stage=f"{stage}-mismatch",
            include_mismatch=config.include_mismatch,
            backend=config.backend, workers=config.workers,
            chunk_lanes=config.chunk_lanes,
            progress=None if progress is None else partial(progress, stage))
        return (_aggregate_margin(performance, specs),
                ~specs.pass_mask(performance))

    # Phase 1: multilevel splitting walk toward the failure region.
    shift = np.zeros(len(GLOBAL_DIMS))
    levels: list[RareLevel] = []
    converged = False
    for index in range(config.max_levels):
        stage = f"rare-level-{index}"
        x, _ = _draw_shifted(stream(config.seed, stage),
                             config.n_per_level, shift)
        with telemetry.span("rare.level", index=index,
                            samples=config.n_per_level):
            telemetry.counter_add("estimator.simulations",
                                  config.n_per_level)
            margins, fail = margins_and_fails(stage, x)
        # An unmeasurable lane has margin -inf, and a quantile
        # interpolated from a -inf margin can be NaN: treat it as having
        # reached the failure region, or the walk would never stop.
        with np.errstate(invalid="ignore"):
            quantile = float(np.quantile(margins, config.level_quantile))
        threshold = 0.0 if math.isnan(quantile) else max(quantile, 0.0)
        elite = margins <= threshold
        if not np.any(elite):
            # Degenerate margins (all identical, above the quantile):
            # fall back to the worst single die so the walk can move.
            elite = margins <= np.min(margins)
        levels.append(RareLevel(
            index=index,
            n_samples=config.n_per_level,
            threshold=threshold,
            acceptance=float(np.count_nonzero(elite) / margins.size),
            failure_fraction=float(np.count_nonzero(fail) / fail.size),
            shift_sigma=shift.copy(),
        ))
        centroid = x[elite].mean(axis=0)
        shift = np.clip(centroid, -config.max_shift_sigma,
                        config.max_shift_sigma)
        if threshold <= 0.0:
            # The proposal reaches the failure region at ~level_quantile
            # rate: the walk is done, the *next* shift aims inside it.
            converged = True
            break

    # Phase 2: one unbiased importance-sampled run from the final
    # proposal.  The final stream is independent of every level stream,
    # so the shift is fixed by independent randomness and the weighted
    # estimator below is exactly unbiased.
    x, weights = _draw_shifted(stream(config.seed, "rare-final"),
                               config.n_final, shift)
    with telemetry.span("rare.final", samples=config.n_final,
                        levels=len(levels)):
        telemetry.counter_add("estimator.simulations", config.n_final)
        _, fail = margins_and_fails("rare-final", x)
    p_fail, std_error, ess = _weighted_failure(weights, fail)

    return RareEventResult(
        p_fail=p_fail,
        std_error=std_error,
        levels=levels,
        shift_sigma=shift,
        n_final=config.n_final,
        effective_samples=ess,
        levels_converged=converged,
        confidence=config.confidence,
    )
