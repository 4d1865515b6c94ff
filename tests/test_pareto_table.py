"""Pareto-front table model tests."""

import numpy as np
import pytest

from repro.errors import ExtrapolationError, TableModelError
from repro.tablemodel import ParetoTableModel, read_table


def synthetic_front(k=25):
    """A monotone (gain up, pm down) front with attached columns."""
    gain = np.linspace(45.0, 55.0, k)
    pm = 95.0 - 0.02 * (gain - 40.0) ** 2.5
    length = 0.5e-6 + (gain - 45.0) * 0.3e-6
    delta = 1.2 - 0.05 * (gain - 45.0)
    return ParetoTableModel(
        np.stack([gain, pm], axis=1), ("gain_db", "pm_deg"),
        columns={"l4": length, "gain_db_delta_pct": delta})


class TestConstruction:
    def test_valid_front(self):
        table = synthetic_front()
        assert table.size == 25
        assert table.objective_names == ("gain_db", "pm_deg")

    def test_sorting_by_first_objective(self):
        gain = np.array([50.0, 48.0, 52.0])
        pm = np.array([80.0, 82.0, 78.0])
        table = ParetoTableModel(np.stack([gain, pm], 1),
                                 ("gain_db", "pm_deg"))
        assert np.all(np.diff(table.objectives[:, 0]) > 0)

    def test_dominated_points_rejected(self):
        gain = np.array([48.0, 50.0, 52.0])
        pm = np.array([80.0, 85.0, 78.0])  # middle point dominates first
        with pytest.raises(TableModelError, match="Pareto front"):
            ParetoTableModel(np.stack([gain, pm], 1), ("g", "p"))

    def test_column_length_mismatch(self):
        with pytest.raises(TableModelError, match="entries"):
            ParetoTableModel(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"),
                             columns={"c": np.array([1.0])})

    def test_needs_two_points(self):
        with pytest.raises(TableModelError):
            ParetoTableModel(np.array([[1.0, 2.0]]), ("a", "b"))

    def test_wrong_shape(self):
        with pytest.raises(TableModelError):
            ParetoTableModel(np.array([1.0, 2.0]), ("a", "b"))

    def test_minimisation_directions_validate(self):
        # f1 down as f0 up is a trade-off (for a min-min front as much as
        # a max-max one): it validates; f1 rising with f0 does not.
        f0 = np.array([1.0, 2.0, 3.0])
        f1 = np.array([3.0, 2.0, 1.0])
        ParetoTableModel(np.stack([f0, f1], 1), ("a", "b"))
        with pytest.raises(TableModelError, match="Pareto front"):
            ParetoTableModel(np.stack([f0, f1[::-1]], 1), ("a", "b"))


class TestLookup:
    def test_lookup_by_either_objective(self):
        table = synthetic_front()
        by_gain = float(table.lookup("gain_db", 50.0, "l4"))
        pm_at_50 = float(table.trade_off("gain_db", 50.0))
        by_pm = float(table.lookup("pm_deg", pm_at_50, "l4"))
        assert by_gain == pytest.approx(by_pm, rel=1e-6)

    def test_lookup_exact_point(self):
        table = synthetic_front()
        gain0 = table.objectives[3, 0]
        assert float(table.lookup("gain_db", gain0, "l4")) == pytest.approx(
            table.columns["l4"][3])

    def test_lookup_objective_column(self):
        table = synthetic_front()
        assert float(table.lookup("gain_db", 50.0, "pm_deg")) == \
            pytest.approx(float(table.trade_off("gain_db", 50.0)))

    def test_lookup_by_index(self):
        table = synthetic_front()
        assert float(table.lookup(0, 50.0, "l4")) == pytest.approx(
            float(table.lookup("gain_db", 50.0, "l4")))

    def test_unknown_column(self):
        with pytest.raises(TableModelError, match="unknown column"):
            synthetic_front().lookup("gain_db", 50.0, "nope")

    def test_unknown_objective(self):
        with pytest.raises(TableModelError, match="unknown objective"):
            synthetic_front().lookup("watts", 50.0, "l4")

    def test_extrapolation_raises_by_default(self):
        with pytest.raises(ExtrapolationError):
            synthetic_front().lookup("gain_db", 99.0, "l4")

    def test_clamp_option(self):
        table = synthetic_front()
        clamped = float(table.lookup("gain_db", 99.0, "l4",
                                     extrapolation="C"))
        assert clamped == pytest.approx(table.columns["l4"][-1])

    def test_degree_option(self):
        # The lookup is the paper's cubic ("3E"); on this smooth front it
        # stays within 1e-3 of a piecewise-linear read of the same knots.
        table = synthetic_front()
        order = np.argsort(table.objectives[:, 0])
        linear = float(np.interp(50.3, table.objectives[order, 0],
                                 table.columns["l4"][order]))
        cubic = float(table.lookup("gain_db", 50.3, "l4"))
        assert linear == pytest.approx(cubic, rel=1e-3)

    def test_key_range(self):
        table = synthetic_front()
        assert table.key_range("gain_db") == (45.0, 55.0)


class TestLookup2:
    def test_consistent_on_front(self):
        table = synthetic_front()
        pm = float(table.trade_off("gain_db", 51.2))
        two_input = float(table.lookup2(51.2, pm, "l4"))
        one_input = float(table.lookup("gain_db", 51.2, "l4"))
        assert two_input == pytest.approx(one_input, rel=1e-6)

    def test_blends_off_front_queries(self):
        table = synthetic_front()
        pm_true = float(table.trade_off("gain_db", 50.0))
        answer = float(table.lookup2(50.0, pm_true + 0.5, "l4"))
        low = float(table.lookup("gain_db", 50.0, "l4"))
        high = float(table.lookup("pm_deg", pm_true + 0.5, "l4"))
        assert min(low, high) <= answer <= max(low, high)


class TestPersistence:
    def test_write_tbl_1d(self, tmp_path):
        table = synthetic_front()
        path = tmp_path / "gain_delta.tbl"
        table.write_tbl(path, "gain_db_delta_pct", key_objective=0,
                        header="variation")
        coords, values = read_table(path)
        assert coords.shape[1] == 1
        np.testing.assert_allclose(values, table.columns["gain_db_delta_pct"])

    def test_write_tbl2(self, tmp_path):
        table = synthetic_front()
        path = tmp_path / "lp4.tbl"
        table.write_tbl2(path, "l4")
        coords, values = read_table(path)
        assert coords.shape[1] == 2
        np.testing.assert_allclose(values, table.columns["l4"])
