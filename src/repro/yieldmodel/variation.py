"""Variation model construction (the paper's section 3.4 output).

After Monte Carlo runs on every Pareto point, each performance function
has a population of samples per point.  The paper reduces those to a
single *variation percentage* per point per performance (Table 2's
"dGain (%)" and "dPM (%)") which later drives the guard-banding.

Definition used here (documented in DESIGN.md): the **k-sigma relative
spread**,

``delta_pct = k_sigma * std(samples) / |mean(samples)| * 100``

with ``k_sigma = 3`` by default.  Three sigma is the natural choice
because the paper's guard-banded designs then verify at "100 % yield"
with 500-sample Monte Carlo (one-sided 3-sigma pass probability is
99.87 %, i.e. < 1 expected failure in 500).
"""

from __future__ import annotations

import numpy as np

from ..errors import YieldModelError

__all__ = ["variation_percent", "variation_columns", "smooth_along_front",
           "DEFAULT_K_SIGMA"]

#: Default guard-band width in standard deviations.
DEFAULT_K_SIGMA = 3.0

#: Suffix of a performance's variation column (``gain_db_delta_pct``).
VARIATION_SUFFIX = "_delta_pct"


def variation_percent(samples: np.ndarray, *,
                      k_sigma: float = DEFAULT_K_SIGMA) -> np.ndarray:
    """k-sigma relative variation of Monte-Carlo samples, in percent.

    Parameters
    ----------
    samples:
        Performance samples; the Monte-Carlo axis is the last.
        Typical shape: ``(K, S)`` for K Pareto points x S samples.
    k_sigma:
        Guard-band width in standard deviations.

    Returns
    -------
    Variation percentages with the MC axis reduced away.

    Raises
    ------
    YieldModelError
        If any point's samples contain NaN (a failed simulation must be
        handled upstream, not silently averaged) or have a zero mean.
    """
    samples = np.asarray(samples, dtype=float)
    if np.any(np.isnan(samples)):
        raise YieldModelError(
            "variation_percent received NaN samples; drop or repair failed "
            "Monte-Carlo lanes before building the variation model")
    mean = np.mean(samples, axis=-1)
    std = np.std(samples, axis=-1, ddof=1)
    if np.any(np.abs(mean) < 1e-300):
        raise YieldModelError("performance mean is zero; relative variation "
                              "is undefined")
    return k_sigma * std / np.abs(mean) * 100.0


def smooth_along_front(values: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average along a front-ordered column.

    The per-point variation estimate from ``S`` Monte-Carlo samples has a
    relative standard error of roughly ``1/sqrt(2S)`` (~5 % at the paper's
    200 samples) that is *independent* between adjacent front points,
    while the underlying physical variation changes smoothly with the
    design point.  Averaging over a window of neighbouring points removes
    the estimator noise that otherwise makes the cubic-spline
    ``$table_model`` ring; the window shrinks near the front's ends.

    ``window <= 1`` returns the input unchanged.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if window <= 1 or n <= 2:
        return values.copy()
    half = min(window // 2, (n - 1) // 2)
    smoothed = np.empty(n)
    for i in range(n):
        reach = min(half, i, n - 1 - i)
        smoothed[i] = values[i - reach:i + reach + 1].mean()
    return smoothed


def variation_columns(mc_samples: dict[str, np.ndarray], *,
                      k_sigma: float = DEFAULT_K_SIGMA,
                      smooth_window: int = 0) -> dict[str, np.ndarray]:
    """Build the variation-model columns for a Pareto table.

    Parameters
    ----------
    mc_samples:
        Mapping performance name -> ``(K, S)`` Monte-Carlo samples,
        ordered along the front.
    smooth_window:
        Moving-average window applied along the front
        (:func:`smooth_along_front`); 0 disables smoothing.

    Returns
    -------
    Mapping ``"<name>_delta_pct"`` -> ``(K,)`` variation percentages, ready
    to attach to a :class:`~repro.tablemodel.pareto_table.ParetoTableModel`.
    """
    columns = {}
    for name, data in mc_samples.items():
        column = variation_percent(data, k_sigma=k_sigma)
        column = smooth_along_front(column, smooth_window)
        columns[f"{name}{VARIATION_SUFFIX}"] = column
    return columns
