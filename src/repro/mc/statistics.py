"""Monte-Carlo population statistics.

Summary reductions used by the variation model and the experiment
reports: robust descriptive statistics and sigma-based spread
measures.

All reductions validate their populations the same way (at least two
samples, no NaN) so a failed simulation lane can never fake a spread or
capability number -- see :func:`_validate_population`.  The streaming
counterparts of these reductions live in :mod:`repro.mc.streaming`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PopulationSummary", "summarize", "relative_spread_pct"]


@dataclass(frozen=True)
class PopulationSummary:
    """Descriptive statistics of one performance population."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    def describe(self) -> str:
        return (f"n={self.n} mean={self.mean:.6g} std={self.std:.3g} "
                f"range=[{self.minimum:.6g}, {self.maximum:.6g}]")


def _validate_population(samples) -> np.ndarray:
    """Flatten and validate a sample population (shared by every
    reduction here): at least two samples (``ddof=1`` is undefined below
    that) and no NaN (a failed lane must be repaired upstream, never
    silently averaged into a statistic)."""
    samples = np.asarray(samples, dtype=float).reshape(-1)
    if samples.size < 2:
        raise ValueError("need at least two samples")
    if np.any(np.isnan(samples)):
        raise ValueError("samples contain NaN; repair failed lanes first")
    return samples


def summarize(samples) -> PopulationSummary:
    """Descriptive statistics of a 1-D sample array."""
    samples = _validate_population(samples)
    return PopulationSummary(
        n=samples.size,
        mean=float(np.mean(samples)),
        std=float(np.std(samples, ddof=1)),
        minimum=float(np.min(samples)),
        maximum=float(np.max(samples)),
    )


#: Below this magnitude a population mean is treated as zero: the
#: relative spread (k-sigma std over |mean|) is undefined there.  Shared
#: by the batch and streaming spread reductions so the two paths can
#: never disagree on the degenerate-mean rule.
_DEGENERATE_MEAN = 1e-300


def _mean_is_degenerate(mean) -> bool:
    """True when any population mean is too close to zero for a
    relative-spread statistic to be defined."""
    return bool(np.any(np.abs(mean) < _DEGENERATE_MEAN))


def relative_spread_pct(samples):
    """``3 * std / |mean| * 100`` along the last axis (vectorised).

    The same definition as
    :func:`repro.yieldmodel.variation.variation_percent`, provided here for
    ad-hoc analysis of raw MC arrays.

    Raises
    ------
    ValueError
        If the reduced axis holds fewer than two samples (``ddof=1``
        would silently return NaN), if any sample is NaN, or if any
        population mean is zero (the relative spread would silently
        return ``+/-inf``) -- mirroring :func:`summarize`'s validation.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 0 or samples.shape[-1] < 2:
        raise ValueError("need at least two samples along the reduced axis")
    if np.any(np.isnan(samples)):
        raise ValueError("samples contain NaN; repair failed lanes first")
    mean = np.mean(samples, axis=-1)
    std = np.std(samples, axis=-1, ddof=1)
    if _mean_is_degenerate(mean):
        raise ValueError("population mean is zero; the relative spread "
                         "is undefined")
    return 3.0 * std / np.abs(mean) * 100.0
