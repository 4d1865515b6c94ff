"""Random-stream management and sampling plans for Monte Carlo.

Every stochastic stage of the flow draws from an explicit, hierarchically
derived random stream so that

* the whole pipeline is bit-reproducible from one root seed, and
* stages are *independently* reproducible: re-running only the Monte-Carlo
  stage produces identical samples regardless of how many random numbers
  the optimiser consumed.

Streams are derived with :class:`numpy.random.SeedSequence` spawning keyed
by stage name.  A Latin-hypercube normal sampler is provided as a
variance-reduction option for global-parameter sampling.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "child_streams", "latin_hypercube_normal", "erf",
           "normal_cdf"]


def _key_to_int(key: str) -> int:
    """Map a stage-name string to a stable 32-bit integer."""
    # FNV-1a; stable across Python runs (unlike the builtin hash()).
    value = 2166136261
    for byte in key.encode():
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value


def stream(seed: int, key: str = "") -> np.random.Generator:
    """A named random stream derived from ``seed``.

    >>> a = stream(1, "mc")
    >>> b = stream(1, "mc")
    >>> float(a.random()) == float(b.random())
    True
    >>> c = stream(1, "optimizer")
    >>> float(stream(1, "mc").random()) != float(c.random())
    True
    """
    if key:
        sequence = np.random.SeedSequence([seed, _key_to_int(key)])
    else:
        sequence = np.random.SeedSequence(seed)
    return np.random.default_rng(sequence)


def child_streams(seed: int, key: str, count: int) -> list[np.random.Generator]:
    """``count`` mutually independent streams for parallel/chunked stages.

    Chunked Monte Carlo uses one child per chunk, which makes results
    independent of *where* chunks execute: any backend, worker count, or
    completion order reassembles the identical population, because no
    chunk consumes another chunk's randomness.

    The children are **prefix-stable** -- child ``i`` is the same stream
    whether 3 or 300 children are spawned -- but the chunk *geometry*
    (``MCConfig.chunk_lanes``) decides which lanes each child feeds, so
    changing the chunk size yields a different (equally valid) sample
    population.  Bit-reproducibility therefore holds for a fixed
    configuration including ``chunk_lanes``, and across execution
    backends; not across chunk-size changes.

    >>> a = child_streams(7, "pts", 3)
    >>> b = child_streams(7, "pts", 5)
    >>> all(x.random() == y.random() for x, y in zip(a, b))
    True
    """
    sequence = np.random.SeedSequence([seed, _key_to_int(key)])
    return [np.random.default_rng(s) for s in sequence.spawn(count)]


def latin_hypercube_normal(rng: np.random.Generator, n: int,
                           dims: int) -> np.ndarray:
    """Latin-hypercube-stratified standard normal samples, shape ``(n, dims)``.

    Each dimension's n samples occupy distinct probability strata, which
    cuts the variance of mean/sigma estimates relative to plain sampling
    -- useful when estimating variation percentages from the paper's
    modest 200 samples per Pareto point.
    """
    if n < 1 or dims < 1:
        raise ValueError("n and dims must be positive")
    # Stratified uniforms: one sample per stratum, shuffled per dimension.
    strata = (np.arange(n)[:, None] + rng.random((n, dims))) / n
    for j in range(dims):
        rng.shuffle(strata[:, j])
    # Map to normal via the probit function (vectorised rational approx +
    # one Newton polish against the exact normal CDF).
    return _probit(strata)


def _probit(p: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF (Acklam's approximation + Newton)."""
    p = np.clip(p, 1e-12, 1 - 1e-12)
    # Acklam coefficients.
    a = [-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00]

    p_low = 0.02425
    x = np.empty_like(p)

    lower = p < p_low
    upper = p > 1 - p_low
    middle = ~(lower | upper)

    if np.any(lower):
        q = np.sqrt(-2.0 * np.log(p[lower]))
        x[lower] = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                     * q + c[5])
                    / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if np.any(upper):
        q = np.sqrt(-2.0 * np.log(1.0 - p[upper]))
        x[upper] = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                      * q + c[5])
                     / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if np.any(middle):
        q = p[middle] - 0.5
        r = q * q
        x[middle] = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
                      * r + a[5]) * q
                     / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                         + b[4]) * r + 1.0))

    # One Newton step against the exact CDF for ~1e-12 accuracy.  The
    # fully vectorised erf matters: this polish sits on the hot path of
    # every stratified draw, and a `np.vectorize(math.erf)` round-trip
    # through Python objects costs ~100x the rational evaluation.
    cdf = normal_cdf(x)
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return x - (cdf - p) / np.maximum(pdf, 1e-300)


# Cody's rational-Chebyshev erf/erfc coefficients (W. J. Cody, "Rational
# Chebyshev approximation for the error function", Math. Comp. 23, 1969)
# -- the classic scipy-free double-precision implementation.
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00,
          6.61191906371416295e01, 2.98635138197400131e02,
          8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02,
          5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e00, 1.87295284992346047e00,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)

_SQRT_INV_PI = 5.6418958354775628695e-1  # 1/sqrt(pi)


def erf(x) -> np.ndarray:
    """Vectorised double-precision error function (Cody's algorithm).

    Matches :func:`math.erf` to ~1e-16 elementwise while staying inside
    NumPy (no Python-level loop) -- the building block of the sampler's
    probit polish and anything else needing normal CDFs on arrays.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    # NaN lanes fall into none of the branch masks and must propagate.
    result = np.full_like(ax, np.nan)

    # |x| <= 0.46875: erf via the central rational approximation.
    centre = ax <= 0.46875
    if np.any(centre):
        z = ax[centre] ** 2
        num = _ERF_A[4] * z
        den = z
        for a_i, b_i in zip(_ERF_A[:3], _ERF_B[:3], strict=True):
            num = (num + a_i) * z
            den = (den + b_i) * z
        result[centre] = ax[centre] * (num + _ERF_A[3]) / (den + _ERF_B[3])

    # 0.46875 < |x| <= 4: erfc via the mid-range approximation.
    mid = (ax > 0.46875) & (ax <= 4.0)
    if np.any(mid):
        y = ax[mid]
        num = _ERF_C[8] * y
        den = y
        for c_i, d_i in zip(_ERF_C[:7], _ERF_D[:7], strict=True):
            num = (num + c_i) * y
            den = (den + d_i) * y
        erfc = np.exp(-y * y) * (num + _ERF_C[7]) / (den + _ERF_D[7])
        result[mid] = 1.0 - erfc

    # |x| > 4: erfc via the asymptotic expansion.
    tail = ax > 4.0
    if np.any(tail):
        y = ax[tail]
        z = 1.0 / (y * y)
        num = _ERF_P[5] * z
        den = z
        for p_i, q_i in zip(_ERF_P[:4], _ERF_Q[:4], strict=True):
            num = (num + p_i) * z
            den = (den + q_i) * z
        poly = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
        erfc = np.exp(-y * y) * (_SQRT_INV_PI - poly) / y
        result[tail] = 1.0 - erfc

    return np.copysign(result, x)


def normal_cdf(z) -> np.ndarray:
    """Standard normal CDF ``Phi(z)``, elementwise, via :func:`erf`."""
    return 0.5 * (1.0 + erf(np.asarray(z, dtype=float) / np.sqrt(2.0)))
