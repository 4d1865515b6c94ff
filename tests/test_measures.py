"""AC measurement extraction tests on synthetic Bode data."""

import numpy as np
import pytest

from repro.analysis import log_frequencies
from repro.measure import (crossing_frequency, dc_gain_db, f3db,
                           passband_ripple_db, phase_margin,
                           stopband_attenuation_db, unity_gain_frequency,
                           value_at_frequency)


def two_pole_system(gain_db_0=50.0, f1=1e4, f2=5e7,
                    freqs=None):
    """Synthetic two-pole amplifier response with known margins."""
    if freqs is None:
        freqs = log_frequencies(10, 1e9, 30)
    a0 = 10 ** (gain_db_0 / 20)
    h = a0 / ((1 + 1j * freqs / f1) * (1 + 1j * freqs / f2))
    mag_db = 20 * np.log10(np.abs(h))[None, :]
    phase = np.degrees(np.unwrap(np.angle(h)))[None, :]
    return freqs, mag_db, phase


class TestDCGain:
    def test_first_point(self):
        freqs, mag, _ = two_pole_system(gain_db_0=42.0)
        assert dc_gain_db(mag)[0] == pytest.approx(42.0, abs=0.01)


class TestCrossing:
    def test_simple_falling_crossing(self):
        freqs = np.array([1.0, 10.0, 100.0, 1000.0])
        values = np.array([[3.0, 1.0, -1.0, -3.0]])
        crossing = crossing_frequency(freqs, values, 0.0)
        # Crossing between f=10 (value 1) and f=100 (value -1):
        # frac = 0.5 in log-f -> 10**1.5.
        assert crossing[0] == pytest.approx(10 ** 1.5, rel=1e-9)

    def test_rising_crossing(self):
        # Only a falling crossing counts: a trace rising through the
        # target has none.
        freqs = np.array([1.0, 10.0, 100.0])
        values = np.array([[-1.0, 0.5, 2.0]])
        assert np.isnan(crossing_frequency(freqs, values, 0.0)[0])
        crossing = crossing_frequency(freqs, -values, 0.0)
        assert 1.0 < crossing[0] < 10.0

    def test_no_crossing_gives_nan(self):
        freqs = np.array([1.0, 10.0, 100.0])
        values = np.array([[1.0, 2.0, 3.0]])
        assert np.isnan(crossing_frequency(freqs, values, 0.0)[0])

    def test_per_lane_targets(self):
        freqs = np.array([1.0, 10.0, 100.0])
        values = np.tile(np.array([10.0, 0.0, -10.0]), (2, 1))
        crossings = crossing_frequency(freqs, values, np.array([5.0, -5.0]))
        assert crossings[0] < 10.0 < crossings[1]


class TestValueAtFrequency:
    def test_interpolates_log(self):
        freqs = np.array([10.0, 100.0, 1000.0])
        values = np.array([[0.0, 1.0, 2.0]])  # linear in log f
        assert value_at_frequency(freqs, values, 316.22776)[0] == \
            pytest.approx(1.5, abs=1e-6)

    def test_out_of_range_nan(self):
        freqs = np.array([10.0, 100.0])
        values = np.array([[0.0, 1.0]])
        assert np.isnan(value_at_frequency(freqs, values, 1.0)[0])
        assert np.isnan(value_at_frequency(freqs, values, np.nan)[0])


class TestUnityGainAndMargins:
    def test_ugf_single_pole_estimate(self):
        # For a 50 dB amp with f1 = 10 kHz, GBW = 316 * 10k = 3.16 MHz;
        # second pole at 50 MHz barely moves it.
        freqs, mag, phase = two_pole_system()
        ugf = unity_gain_frequency(freqs, mag)[0]
        assert ugf == pytest.approx(3.16e6, rel=0.05)

    def test_phase_margin_analytic(self):
        freqs, mag, phase = two_pole_system(f2=5e6)
        ugf = unity_gain_frequency(freqs, mag)[0]
        expected = 180 - np.degrees(
            np.arctan(ugf / 1e4) + np.arctan(ugf / 5e6))
        assert phase_margin(freqs, mag, phase)[0] == pytest.approx(
            expected, abs=0.6)

    def test_phase_margin_offset_invariance(self):
        # An inverting testbench adds 180 degrees everywhere; PM must not
        # change because it is measured relative to the DC phase.
        freqs, mag, phase = two_pole_system(f2=5e6)
        pm_a = phase_margin(freqs, mag, phase)[0]
        pm_b = phase_margin(freqs, mag, phase + 180.0)[0]
        assert pm_a == pytest.approx(pm_b, abs=1e-9)


class TestF3DB:
    def test_single_pole_f3db(self):
        freqs, mag, _ = two_pole_system(f1=1e4, f2=1e9)
        assert f3db(freqs, mag)[0] == pytest.approx(1e4, rel=0.03)


class TestFilterMaskMeasures:
    @staticmethod
    def butterworth2(f0, freqs):
        s = 1j * freqs / f0
        h = 1.0 / (s * s + np.sqrt(2) * s + 1)
        return 20 * np.log10(np.abs(h))[None, :]

    def test_ripple_flat_filter(self):
        freqs = log_frequencies(1e3, 1e8, 20)
        mag = self.butterworth2(5e6, freqs)
        # Well below the corner the band is flat.
        assert passband_ripple_db(freqs, mag, 1e5)[0] < 0.01

    def test_ripple_catches_corner_droop(self):
        freqs = log_frequencies(1e3, 1e8, 20)
        mag = self.butterworth2(1e6, freqs)
        # -3 dB right at the passband edge counts as 3 dB "ripple".
        assert passband_ripple_db(freqs, mag, 1e6)[0] == pytest.approx(
            3.0, abs=0.2)

    def test_stopband_attenuation_40db_per_decade(self):
        freqs = log_frequencies(1e3, 1e9, 20)
        mag = self.butterworth2(1e6, freqs)
        atten = stopband_attenuation_db(freqs, mag, 1e7)[0]
        assert atten == pytest.approx(40.0, abs=1.0)

    def test_stopband_beyond_sweep_nan(self):
        freqs = log_frequencies(1e3, 1e6, 10)
        mag = self.butterworth2(1e6, freqs)
        assert np.isnan(stopband_attenuation_db(freqs, mag, 1e8)[0])

    def test_peaking_counts_as_ripple(self):
        freqs = log_frequencies(1e3, 1e8, 20)
        s = 1j * freqs / 1e6
        h = 1.0 / (s * s + 0.4 * s + 1)  # Q = 2.5: strong peaking
        mag = 20 * np.log10(np.abs(h))[None, :]
        ripple = passband_ripple_db(freqs, mag, 1e6)[0]
        assert ripple > 6.0
