"""Surrogate metamodels: regression stand-ins for circuit evaluation.

The paper replaces transistor-level simulation with behavioural models
over *design* parameters; this package applies the same move to the
*process* axis: train polynomial / RBF response surfaces of each
performance measure over the sigma-unit global-parameter space
(:data:`repro.process.GLOBAL_DIMS`), then run yield campaigns through
the surfaces at polynomial-evaluation cost.

Layers:

* :mod:`~repro.surrogate.regression` -- the model families
  (:class:`PolynomialSurrogate`, :class:`RBFSurrogate`) with
  closed-form leave-one-out cross-validation errors;
* :mod:`~repro.surrogate.train` -- Latin-hypercube seed batches routed
  through the :mod:`repro.exec` backends, the :class:`SurrogateBundle`
  (a drop-in :func:`repro.mc.engine.monte_carlo` evaluator), and
  ``.npz`` persistence;
* :mod:`~repro.surrogate.estimator` -- the
  :class:`SurrogateYieldEstimator`: calibrated classification, adaptive
  refinement of ambiguous lanes, a CV-error refusal gate, and a
  direct-MC control cross-check.

See ``docs/estimators.md`` for how this path compares to direct MC,
importance sampling, and corner bounding.
"""

from .estimator import (SurrogateConfig, SurrogateYieldEstimate,
                        SurrogateYieldEstimator)
from .regression import (SURROGATE_KINDS, PolynomialSurrogate, RBFSurrogate,
                         fit_surrogate)
from .train import (SurrogateBundle, load_surrogates, save_surrogates,
                    surrogate_arrays, surrogates_from_arrays, train_surrogates)

__all__ = [
    "PolynomialSurrogate", "RBFSurrogate", "SURROGATE_KINDS", "fit_surrogate",
    "SurrogateBundle", "train_surrogates", "save_surrogates", "load_surrogates",
    "surrogate_arrays", "surrogates_from_arrays",
    "SurrogateConfig", "SurrogateYieldEstimate", "SurrogateYieldEstimator",
]
