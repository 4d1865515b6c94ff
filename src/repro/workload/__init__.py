"""Workloads: the service's fingerprintable, cacheable units of work.

The model-build and filter flows (:mod:`repro.flow`) call the engine
entry points (:func:`repro.mc.engine.monte_carlo_points`,
:func:`repro.corners.corner_sweep_points`,
:func:`repro.yieldmodel.estimator.estimate_yield_streaming`, ...)
directly.  A service job needs more than the call: a name, an identity
and a serialisable result, so the result cache can key it and the job
queue can run it.  This package wraps each engine a service request
can reach in a :class:`Workload` object with a canonical contract:

* ``config()`` -- the complete canonical configuration of the unit
  (everything that shapes its numbers; never the execution backend or
  worker count, which the :mod:`repro.exec` determinism contract keeps
  out of results);
* ``fingerprint()`` -- the unit's exact identity
  (:func:`repro.cache.canonical_fingerprint` over kind + config +
  evaluator identity + library version), keying the content-addressed
  result cache (:mod:`repro.cache`) and checkpoint compatibility;
* ``run()`` -- execute through the existing engine entry points,
  producing a :class:`WorkloadResult` whose ``arrays``/``meta`` payload
  round-trips through the cache bit-identically;
* ``run_cached()`` -- cache-first execution: serve a hit, or run and
  store.

The service layer (:mod:`repro.service`) builds these from JSON
requests (:mod:`.designs`) and queues them.
"""

from .base import Workload, WorkloadResult, guarded_progress
from .designs import (design_digest, lint_workload_from_source,
                      ota_corner_workload, ota_estimate_workload,
                      ota_rare_workload, ota_surrogate_workload)
from .units import (CornerSweepWorkload, LintWorkload, RareEventWorkload,
                    StreamingYieldWorkload, SurrogateTrainWorkload)

__all__ = [
    "Workload", "WorkloadResult", "guarded_progress",
    "LintWorkload", "CornerSweepWorkload", "StreamingYieldWorkload",
    "RareEventWorkload", "SurrogateTrainWorkload",
    "design_digest", "ota_estimate_workload", "ota_rare_workload", "ota_corner_workload",
    "ota_surrogate_workload", "lint_workload_from_source",
]
