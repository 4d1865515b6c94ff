"""Tests for engineering-unit parsing, formatting and dB maths."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.units import db20, format_si, from_db20, parse_si


class TestParseSI:
    def test_plain_numbers(self):
        assert parse_si("42") == 42.0
        assert parse_si("-3.5") == -3.5
        assert parse_si("1e-6") == 1e-6
        assert parse_si("+.5") == 0.5

    def test_numeric_passthrough(self):
        assert parse_si(42) == 42.0
        assert parse_si(3.14) == 3.14

    @pytest.mark.parametrize("text,expected", [
        ("10u", 1e-5),
        ("0.35u", 0.35e-6),
        ("5meg", 5e6),
        ("5MEG", 5e6),
        ("2.2k", 2200.0),
        ("100p", 100e-12),
        ("3n", 3e-9),
        ("1.5f", 1.5e-15),
        ("2g", 2e9),
        ("1t", 1e12),
        ("7a", 7e-18),
        ("4x", 4e6),
    ])
    def test_suffixes(self, text, expected):
        assert parse_si(text) == pytest.approx(expected, rel=1e-12)

    def test_milli_vs_mega_trap(self):
        # The classic SPICE trap: 'm' is milli, 'meg' is mega.
        assert parse_si("1m") == 1e-3
        assert parse_si("1meg") == 1e6

    @pytest.mark.parametrize("text,expected", [
        ("10uF", 1e-5),
        ("0.35um", 0.35e-6),
        ("100pF", 100e-12),
        ("50k", 50e3),
        ("3.3V", 3.3),
    ])
    def test_trailing_units_ignored(self, text, expected):
        assert parse_si(text) == pytest.approx(expected, rel=1e-12)

    def test_case_insensitive(self):
        assert parse_si("10U") == parse_si("10u")
        assert parse_si("2K") == parse_si("2k")

    @pytest.mark.parametrize("bad", ["", "abc", "1..2", "--3", "u10"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_si(bad)

    @given(st.floats(min_value=-1e12, max_value=1e12,
                     allow_nan=False, allow_infinity=False))
    def test_scientific_roundtrip(self, value):
        assert parse_si(f"{value!r}") == pytest.approx(value, rel=1e-15)


class TestFormatSI:
    def test_basic(self):
        assert format_si(1e-5, "F") == "10uF"
        assert format_si(2200.0) == "2.2k"
        assert format_si(5e6, "Hz") == "5MHz"

    def test_zero_and_nonfinite(self):
        assert format_si(0.0, "V") == "0V"
        assert "inf" in format_si(math.inf)

    @given(st.floats(min_value=1e-17, max_value=1e13))
    def test_roundtrip_through_parse(self, value):
        text = format_si(value, digits=12)
        # format_si uses upper-case M for mega which parse_si reads as
        # milli; normalise through lower-case with the meg spelling.
        text = text.replace("M", "meg")
        assert parse_si(text) == pytest.approx(value, rel=1e-9)

    def test_negative_values(self):
        assert format_si(-2200.0) == "-2.2k"


class TestDecibels:
    def test_db20_known_values(self):
        assert db20(10.0) == pytest.approx(20.0)
        assert db20(1.0) == pytest.approx(0.0)
        assert db20(math.sqrt(0.5)) == pytest.approx(-3.0103, abs=1e-3)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_db20_roundtrip(self, ratio):
        assert from_db20(db20(ratio)) == pytest.approx(ratio, rel=1e-12)

    def test_paper_gain_conversion(self):
        # The Verilog-A listing: gain_in_v = pow(10, gain_prop/20).
        assert from_db20(50.26) == pytest.approx(10 ** (50.26 / 20))
