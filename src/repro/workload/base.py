"""The :class:`Workload` contract and its serialisable result."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .. import telemetry
from ..cache import canonical_fingerprint, fingerprint_key
from ..errors import JobCancelled

__all__ = ["Workload", "WorkloadResult", "guarded_progress"]


def guarded_progress(progress, cancel):
    """Wrap a progress callback with a cooperative cancellation check.

    The returned callable raises :class:`~repro.errors.JobCancelled` as
    soon as ``cancel()`` is true, then forwards to ``progress`` (when
    given).  Engines call progress *after* writing their checkpoint, so
    a job cancelled here is resumable from its last completed round.
    ``None`` is returned when there is nothing to wrap.
    """
    if cancel is None:
        return progress

    def guarded(*args):
        if cancel():
            raise JobCancelled()
        if progress is not None:
            progress(*args)

    return guarded


@dataclass
class WorkloadResult:
    """Outcome of one workload run.

    Attributes
    ----------
    kind, fingerprint:
        The workload's kind and exact identity (what the cache is keyed
        by).
    meta:
        JSON-serialisable summary (counts, describe text, spec names);
        stored in the cache's ``.json`` sidecar and listed by the
        service layer.
    arrays:
        The numeric payload, name -> array; this is what the cache
        stores, and reconstructing ``value`` from it must be
        bit-identical to a fresh run.
    value:
        The rich in-memory object a caller consumes (a
        :class:`~repro.yieldmodel.estimator.YieldEstimate`, a
        :class:`~repro.surrogate.SurrogateBundle`, a samples dict...).
        Never serialised directly -- always rebuilt from ``arrays`` +
        ``meta`` on a cache hit.
    cache_hit:
        ``True`` when this result was served from the cache.
    """

    kind: str
    fingerprint: str
    meta: dict = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    value: object = None
    cache_hit: bool = False

    @property
    def key(self) -> str:
        """Content-address of the result (the cache entry name)."""
        return fingerprint_key(self.fingerprint)


class Workload(ABC):
    """One fingerprintable, runnable, cacheable unit of work.

    Subclasses set :attr:`kind`, implement :meth:`config` and
    :meth:`_execute`, and (when cacheable) :meth:`_value_from_arrays`
    so cache hits rebuild the same rich ``value`` a fresh run returns.
    """

    #: The workload kind -- first field of the fingerprint, so two
    #: different computations over identical configs never collide.
    kind: ClassVar[str] = ""

    #: Whether results round-trip through the result cache.  Workloads
    #: whose value cannot be rebuilt from arrays (e.g. a yield search
    #: carrying a whole GA history) run uncached.
    cacheable: ClassVar[bool] = True

    #: Identity of the evaluator/design under computation (a digest of
    #: the design parameters -- the evaluator callable itself is opaque
    #: to the fingerprint).  Set by the subclass constructor.
    evaluator_id: str = ""

    _fingerprint: str | None = None

    @abstractmethod
    def config(self) -> dict:
        """The canonical configuration (see :func:`repro.cache.canonicalize`).

        Must cover everything that shapes the numeric result and nothing
        that does not -- in particular never the execution backend or
        worker count.
        """

    def fingerprint(self) -> str:
        """The workload's exact identity (canonical JSON text).

        Computed on the first call and kept on the instance, so a job's
        single-flight key, cache lookup, result and telemetry share one
        canonicalisation.  A workload's configuration is fixed once it
        is constructed.
        """
        if self._fingerprint is None:
            self._fingerprint = canonical_fingerprint(
                self.kind, self.config(), evaluator=self.evaluator_id)
        return self._fingerprint

    def key(self) -> str:
        """Content-address of the workload (SHA-256 of the fingerprint)."""
        return fingerprint_key(self.fingerprint())

    # -- execution --------------------------------------------------------
    def run(self, *, checkpoint=None, progress=None,
            cancel=None) -> WorkloadResult:
        """Execute the workload through the existing engine entry points.

        Parameters
        ----------
        checkpoint:
            Optional checkpoint path for workloads that support
            resumable execution (ignored by the others).
        progress:
            Optional progress callback (signature is the wrapped engine
            entry point's).
        cancel:
            Optional ``callable() -> bool``; checked at every progress
            boundary, raising :class:`~repro.errors.JobCancelled` when
            true.  Checkpoints written before the boundary survive, so
            cancelled jobs resume rather than restart.
        """
        attrs = {"kind": self.kind}
        if telemetry.enabled():
            # key() hashes the canonical fingerprint -- only pay for it
            # when a sink is actually recording.
            attrs["key"] = self.key()
        with telemetry.span(f"workload.{self.kind or 'anonymous'}", **attrs):
            return self._execute(checkpoint=checkpoint,
                                 progress=guarded_progress(progress, cancel))

    @abstractmethod
    def _execute(self, *, checkpoint, progress) -> WorkloadResult:
        """Subclass hook: run with an already-guarded progress callback."""

    def run_cached(self, cache, *, checkpoint=None, progress=None,
                   cancel=None) -> WorkloadResult:
        """Cache-first execution: serve a hit, or run and store.

        ``cache`` is a :class:`repro.cache.ResultCache`.  Uncacheable
        workloads simply run.
        """
        if not self.cacheable:
            return self.run(checkpoint=checkpoint, progress=progress,
                            cancel=cancel)
        fingerprint = self.fingerprint()
        hit = cache.get(fingerprint)
        if hit is not None:
            telemetry.emit("workload_cache", kind=self.kind, hit=True,
                           key=fingerprint_key(fingerprint))
            return WorkloadResult(
                kind=self.kind, fingerprint=fingerprint, meta=hit.meta,
                arrays=hit.arrays,
                value=self._value_from_arrays(hit.arrays, hit.meta),
                cache_hit=True)
        telemetry.emit("workload_cache", kind=self.kind, hit=False,
                       key=fingerprint_key(fingerprint))
        result = self.run(checkpoint=checkpoint, progress=progress,
                          cancel=cancel)
        cache.put(fingerprint, result.arrays, meta=result.meta)
        return result

    def _value_from_arrays(self, arrays: dict, meta: dict):
        """Rebuild the rich ``value`` from a cached payload.

        Must be bit-identical to the value a fresh run produces.  The
        default returns the arrays dict itself (right for workloads
        whose value *is* a name -> array mapping).
        """
        return dict(arrays)

    def _result(self, *, meta=None, arrays=None, value=None) -> WorkloadResult:
        """Convenience constructor stamping kind + fingerprint."""
        return WorkloadResult(kind=self.kind, fingerprint=self.fingerprint(),
                              meta=dict(meta or {}), arrays=dict(arrays or {}),
                              value=value)
