"""Surrogate-accelerated yield estimation.

The fourth yield path of the library (after direct Monte Carlo,
importance sampling, and corner bounding): train cheap response surfaces
of each performance over the global process parameters, then classify a
*large* Monte-Carlo population through the surrogates instead of the
circuit simulator.  Surrogate-guided sampling is the standard route to
cheap high-sigma yield (Jonsson & Lelong, 2021); the estimator here
keeps itself honest three ways:

1. **Calibrated classification.**  A lane is not hard-classified from
   its predicted margin; each spec contributes a pass *probability*
   ``Phi(margin / cv_error)`` using the surrogate's leave-one-out CV
   error as the residual scale.  Lanes far from every limit collapse to
   0/1; lanes near a limit carry their genuine uncertainty (including
   the local-mismatch spread the features cannot see, which lives in
   the CV error) into the estimate and its interval.
2. **Adaptive refinement.**  The most ambiguous lanes -- predicted spec
   margin inside the CV error band -- are evaluated with the real
   simulator (up to a budget), their exact pass/fail replaces the
   probabilistic guess, and the new samples are folded back into the
   training set for a refit.  The simulator budget concentrates exactly
   where the surrogate is least trustworthy.
3. **Refusal + control.**  If, after refinement, any performance's CV
   error is still comparable to that performance's own training spread
   (ratio above :attr:`SurrogateConfig.cv_threshold`), the estimator
   raises :class:`~repro.errors.SurrogateError` instead of reporting.
   Otherwise it runs a small direct-MC **control batch** through
   :func:`repro.mc.engine.monte_carlo` and records whether the two
   confidence intervals overlap.

Total simulator cost is ``n_train + refined lanes + control_samples``
against ``n_mc`` for the direct estimate of the same sampling error --
the ``benchmarks/test_surrogate_speedup.py`` measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SurrogateError
from ..mc.engine import MCConfig, monte_carlo
from ..mc.sampler import latin_hypercube_normal, normal_cdf, stream
from ..measure.specs import SpecSet
from ..process.pdk import GLOBAL_DIMS, ProcessKit
from ..yieldmodel.estimator import (YieldEstimate, estimate_yield,
                                    normal_interval)
from .train import SurrogateBundle, _surrogate_batch, train_surrogates

__all__ = ["SurrogateConfig", "SurrogateYieldEstimate",
           "SurrogateYieldEstimator", "calibrated_yield"]

#: Adaptive-refinement retrain rounds sharing ``refine_budget``.
REFINE_ROUNDS = 2
#: Half-width of the ambiguity band in CV-error units: a lane is
#: refinement-eligible when some spec's predicted margin satisfies
#: ``|margin| <= BAND_SIGMA * cv_error``.
BAND_SIGMA = 2.0
#: Refusal limit on ``cv_error / std(training responses)`` per
#: performance.  At 1.0 the surrogate predicts no better than the
#: population mean; the limit refuses a little before that.
CV_THRESHOLD = 0.95


def calibrated_yield(predicted: dict[str, np.ndarray], specs: SpecSet,
                     scales: dict[str, float], *,
                     resolved=None) -> tuple[float, float]:
    """Yield and standard error of a surrogate-classified population.

    Each lane passes with probability ``prod_s Phi(margin_s / scale_s)``
    (independent residuals per spec, ``scales`` the per-spec residual
    scale); ``resolved = (lanes, passed)`` overrides those lanes with
    simulated 0/1 outcomes.  The error adds the binomial sampling
    variance of the mean to the lanes' own classification variance.
    """
    probability = np.ones(next(iter(predicted.values())).size)
    for spec in specs:
        z = spec.margin(predicted[spec.name]) / scales[spec.name]
        probability = probability * normal_cdf(z)
    if resolved is not None:
        lanes, passed = resolved
        probability[lanes] = passed
    n = probability.size
    point = float(np.mean(probability))
    sampling_var = point * (1.0 - point) / n
    classification_var = float(
        np.sum(probability * (1.0 - probability))) / n ** 2
    return point, float(np.sqrt(sampling_var + classification_var))


@dataclass(frozen=True)
class SurrogateConfig:
    """Settings of the surrogate yield estimator.

    Attributes
    ----------
    n_train:
        Latin-hypercube seed-batch size (simulator calls) of the initial
        fit.
    n_mc:
        Monte-Carlo population classified through the surrogate.  This
        sets the *sampling* error exactly as ``n_samples`` does for
        direct MC -- but each lane costs a polynomial evaluation, not an
        MNA solve.
    control_samples:
        Direct-MC control batch cross-checked against the surrogate
        estimate (0 disables the control run).
    seed:
        Root seed; training, refinement, population, and control stages
        use independent derived streams.
    refine_budget:
        Adaptive refinement: up to ``refine_budget`` total ambiguous
        lanes are simulator-evaluated across :data:`REFINE_ROUNDS`
        retrain rounds.
    backend:
        Execution-backend routing for every simulator batch (training,
        refinement, control), exactly as in
        :class:`repro.mc.engine.MCConfig`.

    The surrogate family is quadratic, refinement-eligible lanes lie
    within :data:`BAND_SIGMA` CV errors of a limit, a surrogate whose CV
    error exceeds :data:`CV_THRESHOLD` of its training spread refuses to
    report, intervals are at 95 %, and every simulator batch carries
    local mismatch (honest CV errors; see the module docstring).
    """

    n_train: int = 96
    n_mc: int = 4000
    control_samples: int = 100
    seed: int = 2008
    refine_budget: int = 128
    backend: object = None


@dataclass
class SurrogateYieldEstimate:
    """A surrogate-accelerated yield measurement with its diagnostics.

    Attributes
    ----------
    yield_estimate:
        Point estimate: exact pass fraction over the simulator-resolved
        lanes plus calibrated pass probabilities over the rest.
    std_error:
        Standard error combining the binomial sampling term with the
        surrogate classification-uncertainty term.
    n_mc:
        Population size classified through the surrogate.
    n_train, n_refined:
        Simulator calls spent on the seed batch and on ambiguous-lane
        refinement.
    cv_errors, cv_ratios:
        Per-performance LOO CV RMSE and its ratio to the training
        response spread (the refusal metric).
    control:
        Direct-MC control estimate (``None`` when disabled).
    consistent_with_control:
        Do the surrogate and control confidence intervals overlap?
    simulator_evals:
        Total circuit-level evaluations spent
        (``n_train + n_refined + control``).
    """

    yield_estimate: float
    std_error: float
    n_mc: int
    n_train: int
    n_refined: int
    cv_errors: dict[str, float]
    cv_ratios: dict[str, float]
    control: YieldEstimate | None = None
    consistent_with_control: bool = True
    confidence: float = 0.95
    simulator_evals: int = 0
    ambiguous_lanes: int = field(default=0)

    @property
    def interval(self) -> tuple[float, float]:
        """Normal-approximation confidence interval on the true yield."""
        return normal_interval(self.yield_estimate, self.std_error,
                               self.confidence)

    @property
    def percent(self) -> float:
        """The yield estimate in percent."""
        return 100.0 * self.yield_estimate

    def consistent_with(self, direct: YieldEstimate) -> bool:
        """Interval-overlap agreement with a direct-MC estimate."""
        lo, hi = self.interval
        lo_mc, hi_mc = direct.interval
        return lo <= hi_mc and lo_mc <= hi

    def describe(self) -> str:
        """Multi-line human-readable report of the estimate."""
        lo, hi = self.interval
        cv = ", ".join(f"{name}={err:.3g} ({self.cv_ratios[name]:.0%} of "
                       f"spread)" for name, err in self.cv_errors.items())
        lines = [
            f"surrogate yield {self.percent:.2f}% "
            f"({self.confidence:.0%} CI: [{100 * lo:.2f}%, {100 * hi:.2f}%])",
            f"  population {self.n_mc} lanes, {self.ambiguous_lanes} "
            f"ambiguous, {self.n_refined} simulator-refined",
            f"  simulator evaluations: {self.simulator_evals} "
            f"(train {self.n_train} + refine {self.n_refined} + control "
            f"{self.simulator_evals - self.n_train - self.n_refined})",
            f"  CV error: {cv}",
        ]
        if self.control is not None:
            agree = "overlap" if self.consistent_with_control else "DISJOINT"
            c_lo, c_hi = self.control.interval
            lines.append(
                f"  control MC: {self.control.percent:.2f}% "
                f"[{100 * c_lo:.2f}%, {100 * c_hi:.2f}%] ({agree})")
        return "\n".join(lines)


class SurrogateYieldEstimator:
    """Drives the train -> refine -> classify -> cross-check pipeline.

    Parameters
    ----------
    evaluator:
        Circuit-level evaluator, :func:`repro.mc.engine.monte_carlo`
        contract: ``(ProcessSample) -> dict[name, (S,) array]``.
    specs:
        The pass/fail specification set.
    pdk:
        The process kit whose global parameters span the surrogate's
        feature space.
    config:
        A :class:`SurrogateConfig` (defaults used when ``None``).

    After :meth:`estimate` (or :meth:`train`), the fitted
    :attr:`bundle` is available for reuse -- e.g. as a drop-in MC-engine
    evaluator or for persistence via
    :func:`repro.surrogate.save_surrogates`.
    """

    def __init__(self, evaluator, specs: SpecSet, pdk: ProcessKit,
                 config: SurrogateConfig | None = None) -> None:
        self.evaluator = evaluator
        self.specs = specs
        self.pdk = pdk
        self.config = config or SurrogateConfig()
        self.bundle: SurrogateBundle | None = None

    # -- training ------------------------------------------------------------
    def train(self) -> SurrogateBundle:
        """Fit the initial seed-batch surrogates (no refinement yet)."""
        config = self.config
        self.bundle = train_surrogates(
            self.evaluator, self.pdk, n_train=config.n_train,
            seed=config.seed, backend=config.backend)
        return self.bundle

    def _spec_scales(self, bundle: SurrogateBundle) -> dict[str, float]:
        """Residual scale per spec'd performance: the CV error, floored
        away from zero so probabilities stay defined."""
        scales = {}
        for spec in self.specs:
            if spec.name not in bundle.models:
                raise SurrogateError(
                    f"surrogate bundle lacks performance {spec.name!r} "
                    f"(has {sorted(bundle.models)})")
            scales[spec.name] = max(bundle.models[spec.name].cv_error, 1e-12)
        return scales

    def _ambiguity(self, predicted: dict[str, np.ndarray],
                   bundle: SurrogateBundle) -> np.ndarray:
        """Per-lane ambiguity: the smallest ``|margin| / cv_error`` over
        the specs.  Small = close to a limit relative to what the model
        can resolve."""
        scales = self._spec_scales(bundle)
        worst: np.ndarray | None = None
        for spec in self.specs:
            z = np.abs(spec.margin(predicted[spec.name])) / scales[spec.name]
            worst = z if worst is None else np.minimum(worst, z)
        return worst

    # -- the pipeline --------------------------------------------------------
    def estimate(self) -> SurrogateYieldEstimate:
        """Run the full pipeline and return the cross-checked estimate.

        Raises
        ------
        SurrogateError
            When, after refinement, a spec'd performance's CV error
            exceeds ``cv_threshold`` times its training spread -- the
            refusal contract: no number is better than a wrong number.
        """
        config = self.config
        bundle = self.bundle or self.train()

        # The classified population: stratified standard-normal lanes.
        xs = latin_hypercube_normal(stream(config.seed, "surrogate-mc"),
                                    config.n_mc, len(GLOBAL_DIMS))

        # Adaptive refinement on the most ambiguous population lanes.
        resolved_index: list[int] = []
        resolved_pass: list[np.ndarray] = []
        rounds = REFINE_ROUNDS
        per_round = config.refine_budget // rounds
        taken = np.zeros(config.n_mc, dtype=bool)
        for round_no in range(rounds):
            if per_round <= 0:
                break
            predicted = bundle.predict(xs)
            ambiguity = self._ambiguity(predicted, bundle)
            ambiguity[taken] = np.inf
            eligible = np.flatnonzero(ambiguity <= BAND_SIGMA)
            if eligible.size == 0:
                break
            picks = eligible[np.argsort(ambiguity[eligible],
                                        kind="stable")][:per_round]
            taken[picks] = True
            truth = _surrogate_batch(
                self.evaluator, self.pdk, xs[picks], seed=config.seed,
                stage=f"surrogate-refine{round_no}",
                backend=config.backend)
            resolved_index.extend(int(i) for i in picks)
            resolved_pass.append(self.specs.pass_mask(truth))
            bundle = bundle.augmented(xs[picks], truth)
        self.bundle = bundle
        n_refined = int(np.count_nonzero(taken))

        # Refusal gate: a surrogate that cannot beat the raw spread of
        # its own training responses must not report a yield.
        cv_ratios = {}
        for spec in self.specs:
            spread = float(np.std(bundle.y_train[spec.name]))
            ratio = bundle.models[spec.name].cv_error / max(spread, 1e-300)
            cv_ratios[spec.name] = ratio
            if ratio > CV_THRESHOLD:
                raise SurrogateError(
                    f"refusing to report: surrogate CV error for "
                    f"{spec.name!r} is {ratio:.0%} of the training spread "
                    f"(threshold {CV_THRESHOLD:.0%}); increase "
                    f"n_train/refine_budget or choose another model kind")

        # Final classification of the population.
        predicted = bundle.predict(xs)
        point, std_error = calibrated_yield(
            predicted, self.specs, self._spec_scales(bundle),
            resolved=((np.asarray(resolved_index),
                       np.concatenate(resolved_pass).astype(float))
                      if resolved_index else None))
        ambiguity = self._ambiguity(predicted, bundle)
        ambiguous = int(np.count_nonzero(
            (ambiguity <= BAND_SIGMA) & ~taken))

        # Direct-MC control batch (the cross-check).
        control = None
        consistent = True
        if config.control_samples > 0:
            control_perf = monte_carlo(
                self.evaluator, self.pdk,
                MCConfig(n_samples=config.control_samples, seed=config.seed,
                         backend=config.backend))
            control = estimate_yield(control_perf, self.specs)

        estimate = SurrogateYieldEstimate(
            yield_estimate=point,
            std_error=std_error,
            n_mc=config.n_mc,
            n_train=config.n_train,
            n_refined=n_refined,
            cv_errors={s.name: bundle.models[s.name].cv_error
                       for s in self.specs},
            cv_ratios=cv_ratios,
            control=control,
            confidence=0.95,
            simulator_evals=(config.n_train + n_refined
                             + max(0, config.control_samples)),
            ambiguous_lanes=ambiguous,
        )
        if control is not None:
            consistent = estimate.consistent_with(control)
        estimate.consistent_with_control = consistent
        return estimate

