"""Sampler probit benchmark: vectorised erf polish vs np.vectorize.

The stratified (Latin-hypercube) sampler maps uniforms to normals
through ``_probit``, whose Newton polish evaluates the normal CDF on
every draw.  The polish used to run ``np.vectorize(math.erf)`` -- a
Python-level loop on the hot path; it now uses the vectorised Cody
``erf``.  This benchmark records the before/after cost of the polish on
a representative draw size.
"""

import math
import time

import numpy as np

from repro.mc.sampler import _probit, erf, latin_hypercube_normal, stream

_N = 200_000


def _best_of(fn, repeats=5):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_vectorised_erf_beats_np_vectorize(emit):
    x = _probit(np.linspace(1e-6, 1 - 1e-6, _N))
    arg = x / np.sqrt(2.0)
    legacy = np.vectorize(math.erf)

    t_legacy = _best_of(lambda: legacy(arg))
    t_vector = _best_of(lambda: erf(arg))
    t_probit = _best_of(lambda: _probit(np.linspace(1e-6, 1 - 1e-6, _N)))
    t_lhs = _best_of(
        lambda: latin_hypercube_normal(stream(2008, "bench"), _N // 4, 4))

    np.testing.assert_allclose(erf(arg), legacy(arg), rtol=0, atol=5e-16)

    speedup = t_legacy / t_vector
    emit("sampler_probit", "\n".join([
        f"erf on {_N:,} lanes (best of 5)",
        "(erf matches math.erf to 5e-16)",
    ]), [
        f"  np.vectorize(math.erf) [before]: {t_legacy * 1e3:8.2f} ms",
        f"  vectorised Cody erf    [after]:  {t_vector * 1e3:8.2f} ms",
        f"  erf speedup:                     {speedup:8.1f}x",
        f"full _probit ({_N:,} draws):       {t_probit * 1e3:8.2f} ms",
        f"latin_hypercube_normal {_N // 4:,}x4:  {t_lhs * 1e3:8.2f} ms",
    ])
    # The Python-loop polish was the dominant cost; the vectorised erf
    # must beat it by a wide margin.
    assert speedup > 3.0
