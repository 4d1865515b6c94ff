"""Exception taxonomy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking genuine programming
errors (``TypeError`` and friends propagate unchanged).

The hierarchy mirrors the subsystems described in ``DESIGN.md``:

* :class:`NetlistError` -- malformed circuit descriptions.
* :class:`ParseError` -- errors in the SPICE-like netlist parser, carrying
  the offending line number.
* :class:`LintError` -- misuse of the topology-lint subsystem; its
  subclass :class:`LintGateError` is the pre-flight gate verdict raised
  when a flow rejects a topologically broken circuit, carrying the full
  :class:`~repro.lint.LintReport`.
* :class:`AnalysisError` -- simulation failures; the important subclass is
  :class:`ConvergenceError` raised when the Newton-Raphson DC solver fails
  even after the homotopy fallbacks.
* :class:`WorkloadError` -- misuse of the workload/service layer; its
  subclass :class:`JobCancelled` is the cooperative-cancellation signal
  a running job raises when its cancel flag is observed.
* :class:`TableModelError` -- ``$table_model`` emulation errors, notably
  :class:`ExtrapolationError` for the ``"E"`` (error-on-extrapolation)
  control string used throughout the paper.
* :class:`OptimizationError` -- misconfigured optimisation problems.
* :class:`SpecificationError` -- malformed performance specifications.
* :class:`YieldModelError` -- failures constructing or querying the combined
  performance/variation model (the paper's core contribution).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class NetlistError(ReproError):
    """A circuit description is structurally invalid.

    Examples: duplicate element names, elements referencing undeclared
    subcircuits, a ground-less circuit handed to the simulator.
    """


class ParseError(NetlistError):
    """A SPICE-like netlist file could not be parsed.

    Parameters
    ----------
    message:
        Human readable description of the problem.
    line_no:
        1-based line number in the source text, when known.
    line:
        The offending source line, when known.
    """

    def __init__(self, message: str, line_no: int | None = None,
                 line: str | None = None) -> None:
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if line is not None:
            message = f"{message}\n    {line.strip()!r}"
        super().__init__(message)


class LintError(NetlistError):
    """The topology-lint subsystem was misused (unknown rule id,
    unknown lint mode, duplicate rule registration)."""


class LintGateError(LintError):
    """A pre-flight lint gate rejected the circuit.

    Raised by :func:`repro.lint.preflight_lint` in ``strict`` mode when
    error-severity findings exist, *before* any simulation budget is
    spent -- the readable replacement for the singular-matrix crash the
    broken circuit would otherwise cause.  Carries the full
    :class:`~repro.lint.LintReport` as :attr:`report`.
    """

    def __init__(self, report, stage: str = "pre-flight lint") -> None:
        self.report = report
        self.stage = stage
        super().__init__(
            f"{stage}: circuit rejected with "
            f"{report.count('error')} error(s)\n{report.render_text()}")


class AnalysisError(ReproError):
    """A circuit analysis (DC / AC / noise) failed."""


class ConvergenceError(AnalysisError):
    """The Newton-Raphson solver failed to converge.

    Raised only after every fallback strategy (gmin stepping followed by
    source stepping) has been exhausted.  Carries the per-batch convergence
    mask so vectorised callers can salvage the converged lanes.
    """

    def __init__(self, message: str, converged_mask=None) -> None:
        self.converged_mask = converged_mask
        super().__init__(message)


class SingularMatrixError(AnalysisError):
    """The MNA matrix is singular (floating node, loop of sources...).

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    lane_indices:
        Flat indices of the singular systems within the batched stack,
        when the solver identified them (``None`` otherwise).  One bad
        Monte-Carlo die or GA individual used to kill its whole chunk
        opaquely; the indices let callers name -- and repair or drop --
        exactly the offending lanes.
    """

    def __init__(self, message: str, lane_indices=None) -> None:
        self.lane_indices = (None if lane_indices is None
                             else tuple(int(i) for i in lane_indices))
        super().__init__(message)


class WorkloadError(ReproError):
    """A workload (:mod:`repro.workload`) or the service layer serving
    it (:mod:`repro.service`) is misconfigured or misused.

    Examples: a service request naming an unknown workload kind, a
    queue operation on a job id that was never submitted, caching
    requested for a workload whose identity cannot be fingerprinted.
    """


class JobCancelled(WorkloadError):
    """A running workload observed its cancellation flag and stopped.

    Raised *inside* the worker executing the job, at the first progress
    boundary after :meth:`repro.service.JobQueue.cancel` (or the
    daemon's cancel marker) was seen.  Checkpoints written before the
    boundary survive, so a cancelled job resumes rather than restarts.
    """

    def __init__(self, job_id: str | None = None) -> None:
        self.job_id = job_id
        super().__init__("job cancelled" if job_id is None
                         else f"job cancelled (job {job_id})")


class TableModelError(ReproError):
    """A ``$table_model`` table is malformed or cannot answer a query."""


class ExtrapolationError(TableModelError):
    """A query fell outside the sampled data under the ``"E"`` control.

    The paper deliberately selects the error-on-extrapolation behaviour "in
    order to avoid approximation of the data beyond the sampled data
    points" (section 3.5); this exception is that behaviour.
    """


class OptimizationError(ReproError):
    """An optimisation problem or optimiser is misconfigured."""


class SpecificationError(ReproError):
    """A performance specification is malformed or unsatisfiable."""


class YieldModelError(ReproError):
    """The combined performance/variation model failed to build or query."""


class SurrogateError(YieldModelError):
    """A surrogate metamodel is unfit for the requested estimate.

    Raised by :class:`repro.surrogate.SurrogateYieldEstimator` when the
    cross-validation error of a trained response surface exceeds the
    configured threshold: the estimator *refuses to report* a yield
    number rather than silently returning one built on a model that
    cannot predict the performances it classifies.
    """
