"""Corner-vs-Monte-Carlo consistency check.

Deterministic worst-case corners and sampled statistical variation are
two views of the same process spread; designers routinely assume the
corner extremes *bound* the +/-3-sigma Monte-Carlo spread.  That
assumption is exactly what the C35 kit promises (corner shifts sit on
the 3-sigma points of the global model) -- but it does not automatically
survive the nonlinear parameter->performance map: a performance can peak
*inside* the corner box, or mismatch (which corners do not model) can
widen the sampled spread past the corner extremes.

:func:`compare_corners_to_mc` quantifies this per performance and per
design point: does the corner-swept interval ``[min, max]`` contain the
Monte-Carlo ``mean +/- k*sigma`` interval?
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import YieldModelError

__all__ = ["CornerMCCheck", "compare_corners_to_mc"]


@dataclass(frozen=True)
class CornerMCCheck:
    """Corner-vs-MC comparison of one performance over ``K`` designs.

    Attributes
    ----------
    bounded:
        Per-design flag, shape ``(K,)``: the interval of extremes over
        the PVT grid contains the Monte-Carlo ``mean -/+ k_sigma * std``.
    k_sigma:
        Spread width the MC interval was built with.
    """

    name: str
    bounded: np.ndarray
    k_sigma: float

    @property
    def bounded_fraction(self) -> float:
        """Fraction of design points whose corner box bounds the spread."""
        return float(np.count_nonzero(self.bounded)) / self.bounded.size

    def describe(self) -> str:
        """One-line bounded-fraction summary for reports."""
        return (f"{self.name}: corners bound the {self.k_sigma:g}-sigma MC "
                f"spread on {np.count_nonzero(self.bounded)}/"
                f"{self.bounded.size} designs "
                f"({100.0 * self.bounded_fraction:.1f}%)")


def compare_corners_to_mc(corner_samples: dict[str, np.ndarray],
                          mc_samples: dict[str, np.ndarray], *,
                          k_sigma: float = 3.0
                          ) -> dict[str, CornerMCCheck]:
    """Check whether corner extremes bound the Monte-Carlo spread.

    Parameters
    ----------
    corner_samples:
        Mapping performance name -> corner-swept values, shape ``(K, B)``
        (``B`` grid lanes per design) or ``(B,)`` for a single design.
    mc_samples:
        Mapping performance name -> Monte-Carlo populations, shape
        ``(K, S)`` or ``(S,)``; only names present in *both* mappings are
        compared.
    k_sigma:
        Width of the MC interval ``mean +/- k_sigma * std``.

    Returns
    -------
    Mapping performance name -> :class:`CornerMCCheck`.
    """
    shared = [name for name in corner_samples if name in mc_samples]
    if not shared:
        raise YieldModelError(
            "corner and Monte-Carlo results share no performance names")
    checks: dict[str, CornerMCCheck] = {}
    for name in shared:
        corners = np.atleast_2d(np.asarray(corner_samples[name], dtype=float))
        mc = np.atleast_2d(np.asarray(mc_samples[name], dtype=float))
        if corners.shape[0] != mc.shape[0]:
            raise YieldModelError(
                f"{name!r}: corner sweep covers {corners.shape[0]} designs "
                f"but Monte Carlo covers {mc.shape[0]}")
        corner_lo = corners.min(axis=1)
        corner_hi = corners.max(axis=1)
        mean = mc.mean(axis=1)
        std = mc.std(axis=1, ddof=1)
        mc_lo = mean - k_sigma * std
        mc_hi = mean + k_sigma * std
        checks[name] = CornerMCCheck(
            name=name,
            bounded=(corner_lo <= mc_lo) & (corner_hi >= mc_hi),
            k_sigma=float(k_sigma))
    return checks
