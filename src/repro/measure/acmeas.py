"""AC measurement extraction (batched).

Turns AC sweep data into the scalar performance numbers the paper's flow
optimises: low-frequency open-loop gain [dB], phase margin [deg],
unity-gain frequency and -3 dB bandwidth, plus the filter-mask
measures (passband ripple, stopband attenuation) used by the section-5
application example.

All functions accept stacked arrays ``(B, F)`` (magnitude in dB, phase in
unwrapped degrees) over a shared frequency grid ``(F,)`` and return shape
``(B,)`` results, with ``nan`` marking lanes where the feature does not
exist in the sweep (e.g. gain never crosses 0 dB).  Crossings are located
by linear interpolation in ``log10(f)``, matching how designers read Bode
plots.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dc_gain_db", "unity_gain_frequency", "phase_margin", "f3db",
    "value_at_frequency", "passband_ripple_db",
    "stopband_attenuation_db", "crossing_frequency",
]


def dc_gain_db(mag_db: np.ndarray) -> np.ndarray:
    """Low-frequency gain: the magnitude at the first sweep point [dB]."""
    mag_db = np.atleast_2d(mag_db)
    return mag_db[:, 0]


def crossing_frequency(freqs: np.ndarray, values: np.ndarray,
                       target) -> np.ndarray:
    """First frequency where ``values`` falls through ``target``.

    Parameters
    ----------
    values:
        Shape ``(B, F)``; monotone behaviour is not required -- the first
        crossing in sweep order is returned.
    target:
        Scalar or shape ``(B,)`` per-lane target.

    Returns
    -------
    Crossing frequencies, shape ``(B,)``; ``nan`` where no crossing occurs.
    """
    freqs = np.asarray(freqs, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    target_arr = np.broadcast_to(np.asarray(target, dtype=float).reshape(-1, 1),
                                 (values.shape[0], 1))
    above = values > target_arr
    # A crossing at index k means above[k-1] & ~above[k].
    crossed = above[:, :-1] & ~above[:, 1:]
    has_crossing = crossed.any(axis=1)
    first = np.argmax(crossed, axis=1)  # index k-1 of the bracketing pair

    result = np.full(values.shape[0], np.nan)
    lanes = np.nonzero(has_crossing)[0]
    if lanes.size == 0:
        return result
    k = first[lanes]
    v0 = values[lanes, k]
    v1 = values[lanes, k + 1]
    t = target_arr[lanes, 0]
    frac = np.where(v1 != v0, (t - v0) / (v1 - v0), 0.0)
    log_f = np.log10(freqs)
    result[lanes] = 10.0 ** (log_f[k] + frac * (log_f[k + 1] - log_f[k]))
    return result


def value_at_frequency(freqs: np.ndarray, values: np.ndarray,
                       frequency) -> np.ndarray:
    """Interpolate ``values`` (``(B, F)``) at ``frequency`` (scalar or
    ``(B,)``), linear in ``log10(f)``; ``nan`` outside the sweep."""
    freqs = np.asarray(freqs, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    frequency = np.broadcast_to(np.asarray(frequency, dtype=float),
                                (values.shape[0],))
    log_f = np.log10(freqs)
    result = np.full(values.shape[0], np.nan)
    valid = ((frequency >= freqs[0]) & (frequency <= freqs[-1])
             & np.isfinite(frequency))
    lanes = np.nonzero(valid)[0]
    if lanes.size == 0:
        return result
    log_q = np.log10(frequency[lanes])
    k = np.clip(np.searchsorted(log_f, log_q) - 1, 0, freqs.size - 2)
    frac = (log_q - log_f[k]) / (log_f[k + 1] - log_f[k])
    result[lanes] = (values[lanes, k]
                     + frac * (values[lanes, k + 1] - values[lanes, k]))
    return result


def unity_gain_frequency(freqs: np.ndarray, mag_db: np.ndarray) -> np.ndarray:
    """Frequency where the gain falls through 0 dB [Hz]."""
    return crossing_frequency(freqs, mag_db, 0.0)


def phase_margin(freqs: np.ndarray, mag_db: np.ndarray,
                 phase_deg: np.ndarray) -> np.ndarray:
    """Phase margin: ``180 - (phase lag accumulated at unity gain)`` [deg].

    The phase lag is measured relative to the low-frequency phase so the
    result is independent of whether the amplifier is wired inverting or
    non-inverting in the testbench.
    """
    mag_db = np.atleast_2d(mag_db)
    phase_deg = np.atleast_2d(phase_deg)
    f_unity = unity_gain_frequency(freqs, mag_db)
    phase_at_unity = value_at_frequency(freqs, phase_deg, f_unity)
    lag = phase_deg[:, 0] - phase_at_unity
    return 180.0 - lag


def f3db(freqs: np.ndarray, mag_db: np.ndarray) -> np.ndarray:
    """-3 dB bandwidth relative to the low-frequency gain [Hz]."""
    mag_db = np.atleast_2d(mag_db)
    return crossing_frequency(freqs, mag_db, mag_db[:, 0] - 3.0)


def passband_ripple_db(freqs: np.ndarray, mag_db: np.ndarray,
                       f_pass: float) -> np.ndarray:
    """Largest deviation from the DC gain inside the passband [dB].

    Reported as a positive number (0 = perfectly flat).
    """
    freqs = np.asarray(freqs, dtype=float)
    mag_db = np.atleast_2d(mag_db)
    in_band = freqs <= f_pass
    deviation = np.abs(mag_db[:, in_band] - mag_db[:, :1])
    return deviation.max(axis=1)


def stopband_attenuation_db(freqs: np.ndarray, mag_db: np.ndarray,
                            f_stop: float) -> np.ndarray:
    """Minimum attenuation below the DC gain beyond ``f_stop`` [dB].

    Positive numbers mean the stopband is below the passband level.
    ``nan`` when the sweep does not reach ``f_stop``.
    """
    freqs = np.asarray(freqs, dtype=float)
    mag_db = np.atleast_2d(mag_db)
    in_stop = freqs >= f_stop
    if not np.any(in_stop):
        return np.full(mag_db.shape[0], np.nan)
    worst = mag_db[:, in_stop].max(axis=1)
    return mag_db[:, 0] - worst
