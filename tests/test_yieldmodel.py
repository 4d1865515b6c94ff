"""Yield model tests: variation reduction, guard-banding, targeting.

The headline test rebuilds the paper's own Table 2 as a
:class:`ParetoTableModel` and checks that our algorithm reproduces the
paper's Table 3 numbers (50 dB -> 50.26 dB, 74 deg -> 75.27 deg) exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpecificationError, YieldModelError
from repro.measure import Spec, SpecSet
from repro.tablemodel import ParetoTableModel
from repro.yieldmodel import (CombinedYieldModel, estimate_yield,
                              smooth_along_front, variation_columns,
                              variation_percent, wilson_interval)
from statcheck import smoothed_noise_ratio_bound

# The paper's Table 2 (design, gain, dGain%, PM, dPM%).
PAPER_TABLE2 = np.array([
    [21, 49.78, 0.52, 76.3, 1.50],
    [22, 49.90, 0.52, 76.1, 1.51],
    [24, 49.98, 0.51, 76.0, 1.51],
    [25, 50.17, 0.51, 75.8, 1.52],
    [26, 50.35, 0.50, 75.5, 1.56],
    [27, 50.45, 0.49, 75.3, 1.57],
    [34, 51.06, 0.44, 74.1, 1.69],
    [35, 51.14, 0.51, 74.0, 1.71],
    [37, 51.24, 0.42, 73.8, 1.69],
    [38, 51.62, 0.42, 73.2, 1.68],
])


def paper_model() -> CombinedYieldModel:
    """A combined model built from the paper's own Table 2 data."""
    gain = PAPER_TABLE2[:, 1]
    pm = PAPER_TABLE2[:, 3]
    columns = {
        "gain_db_delta_pct": PAPER_TABLE2[:, 2],
        "pm_deg_delta_pct": PAPER_TABLE2[:, 4],
        # A synthetic designable-parameter column (the paper does not
        # print its lpN values): linear in the front position.
        "l4": np.linspace(2e-6, 4e-6, 10),
    }
    table = ParetoTableModel(np.stack([gain, pm], 1),
                             ("gain_db", "pm_deg"), columns=columns)
    return CombinedYieldModel(table, ("l4",))


class TestVariationPercent:
    def test_known_value(self):
        samples = np.array([[9.0, 10.0, 11.0]])
        expected = 3.0 * np.std(samples[0], ddof=1) / 10.0 * 100.0
        assert variation_percent(samples)[0] == pytest.approx(expected)

    def test_k_sigma_scaling(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(50.0, 0.1, size=(1, 5000))
        one_sigma = variation_percent(samples, k_sigma=1.0)[0]
        three_sigma = variation_percent(samples, k_sigma=3.0)[0]
        assert three_sigma == pytest.approx(3 * one_sigma)

    def test_nan_rejected(self):
        with pytest.raises(YieldModelError, match="NaN"):
            variation_percent(np.array([[1.0, np.nan]]))

    def test_zero_mean_rejected(self):
        with pytest.raises(YieldModelError, match="zero"):
            variation_percent(np.array([[-1.0, 1.0]]))

    def test_columns_builder(self):
        rng = np.random.default_rng(1)
        samples = {"gain_db": rng.normal(50, 0.1, (4, 100)),
                   "pm_deg": rng.normal(75, 0.4, (4, 100))}
        cols = variation_columns(samples)
        assert set(cols) == {"gain_db_delta_pct", "pm_deg_delta_pct"}
        assert cols["gain_db_delta_pct"].shape == (4,)


class TestSmoothing:
    def test_constant_preserved(self):
        data = np.full(10, 3.3)
        np.testing.assert_allclose(smooth_along_front(data, 5), data)

    def test_window_one_is_identity(self):
        data = np.arange(6, dtype=float)
        np.testing.assert_array_equal(smooth_along_front(data, 1), data)

    def test_reduces_noise_variance(self):
        # The expected ratio for iid noise follows from the per-point
        # averaging widths; the bound adds the 99.9% fluctuation margin.
        rng = np.random.default_rng(2)
        data = 5.0 + rng.normal(0, 1.0, 200)
        smoothed = smooth_along_front(data, 9)
        bound = smoothed_noise_ratio_bound(len(data), 9)
        assert np.std(smoothed) < bound * np.std(data)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.1, 10.0), min_size=3, max_size=40),
           st.integers(min_value=2, max_value=9))
    def test_output_within_data_range(self, values, window):
        data = np.asarray(values)
        smoothed = smooth_along_front(data, window)
        assert np.all(smoothed >= data.min() - 1e-12)
        assert np.all(smoothed <= data.max() + 1e-12)

    def test_linear_trend_preserved_in_interior(self):
        data = np.linspace(0, 10, 21)
        smoothed = smooth_along_front(data, 5)
        np.testing.assert_allclose(smoothed[3:-3], data[3:-3], atol=1e-9)


class TestPaperTable3:
    """Reproduce the paper's Table 3 from its Table 2 data."""

    def test_gain_guard_band(self):
        model = paper_model()
        target = model.guard_band(Spec("gain_db", "ge", 50.0, "dB"))
        # Paper: variation at 50 dB = 0.51 %, new performance 50.26 dB.
        assert target.variation_pct == pytest.approx(0.51, abs=0.02)
        assert target.new_value == pytest.approx(50.26, abs=0.02)

    def test_pm_guard_band(self):
        model = paper_model()
        target = model.guard_band(Spec("pm_deg", "ge", 74.0, "deg"))
        # Paper: variation 1.71 %, new performance 75.27 deg.
        assert target.variation_pct == pytest.approx(1.71, abs=0.05)
        assert target.new_value == pytest.approx(75.27, abs=0.05)

    def test_design_for_specs_selects_guard_banded_gain(self):
        model = paper_model()
        specs = SpecSet([Spec("gain_db", "ge", 50.0, "dB"),
                         Spec("pm_deg", "ge", 74.0, "deg")])
        design = model.design_for_specs(specs)
        assert design.front_position == pytest.approx(50.26, abs=0.02)
        # Nominal PM at that point comfortably exceeds the PM target.
        assert design.nominal_performance["pm_deg"] > 75.2
        assert "l4" in design.parameters


class TestGuardBandArithmetic:
    def test_ge_positive_limit(self):
        model = paper_model()
        target = model.guard_band(Spec("gain_db", "ge", 51.0))
        variation = model.variation_at("gain_db", 51.0)
        assert target.new_value == pytest.approx(
            51.0 * (1 + variation / 100.0))

    def test_le_spec_shifts_down(self):
        # For a <= spec the guard band must make the limit *smaller*.
        model = paper_model()
        target = model.guard_band(Spec("pm_deg", "le", 75.0))
        assert target.new_value < 75.0

    def test_spec_outside_front_clamps_variation(self):
        model = paper_model()
        target = model.guard_band(Spec("gain_db", "ge", 45.0))
        assert target.variation_pct == pytest.approx(
            model.variation_at("gain_db", 49.78), abs=0.02)

    def test_unknown_spec_name(self):
        with pytest.raises(SpecificationError):
            paper_model().guard_band(Spec("noise", "ge", 1.0))


class TestDesignForSpecs:
    def test_infeasible_gain(self):
        model = paper_model()
        specs = SpecSet([Spec("gain_db", "ge", 51.6, "dB"),
                         Spec("pm_deg", "ge", 74.0, "deg")])
        # Guard-banded gain > front max -> no feasible point.
        with pytest.raises(YieldModelError, match="no point|exceeds"):
            model.design_for_specs(specs)

    def test_conflicting_specs(self):
        model = paper_model()
        specs = SpecSet([Spec("gain_db", "ge", 51.0, "dB"),
                         Spec("pm_deg", "ge", 76.0, "deg")])
        with pytest.raises(YieldModelError):
            model.design_for_specs(specs)

    def test_loose_pm_spec_ignored(self):
        model = paper_model()
        specs = SpecSet([Spec("gain_db", "ge", 50.0, "dB"),
                         Spec("pm_deg", "ge", 60.0, "deg")])
        design = model.design_for_specs(specs)
        assert design.front_position == pytest.approx(50.26, abs=0.02)

    def test_missing_variation_column_rejected(self):
        table = ParetoTableModel(
            np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"),
            columns={"p": np.array([1.0, 2.0])})
        with pytest.raises(YieldModelError, match="variation column"):
            CombinedYieldModel(table, ("p",))

    def test_missing_parameter_column_rejected(self):
        table = ParetoTableModel(
            np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"),
            columns={"a_delta_pct": np.ones(2), "b_delta_pct": np.ones(2)})
        with pytest.raises(YieldModelError, match="parameter column"):
            CombinedYieldModel(table, ("p",))


class TestAliasesAndRo:
    def test_objective_aliases(self):
        model = paper_model()
        assert model.objective_aliases == ("gain", "pm")

    def test_default_ro_without_column(self):
        assert paper_model().nominal_ro() == 1e6


class TestWilson:
    def test_perfect_yield_interval(self):
        lo, hi = wilson_interval(500, 500)
        assert hi == 1.0
        assert 0.99 < lo < 1.0

    def test_zero_yield(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi < 0.05

    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert hi - lo < 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_erfinv_against_known_z(self):
        # z for 95% two-sided is 1.959964.
        from repro.yieldmodel.estimator import _erfinv
        z = np.sqrt(2.0) * _erfinv(0.95)
        assert z == pytest.approx(1.959964, abs=1e-5)


class TestEstimateYield:
    def test_full_population(self):
        specs = SpecSet([Spec("gain_db", "ge", 50.0)])
        estimate = estimate_yield({"gain_db": np.full(200, 51.0)}, specs)
        assert estimate.fraction == 1.0
        assert estimate.percent == 100.0
        assert "yield 200/200" in estimate.describe()

    def test_partial_and_per_spec(self):
        specs = SpecSet([Spec("a", "ge", 0.0), Spec("b", "ge", 0.0)])
        perf = {"a": np.array([1.0, -1.0, 1.0, 1.0]),
                "b": np.array([1.0, 1.0, -1.0, 1.0])}
        estimate = estimate_yield(perf, specs)
        assert estimate.passed == 2
        assert estimate.per_spec_pass == {"a": 3, "b": 3}

    def test_interval_exposed(self):
        specs = SpecSet([Spec("a", "ge", 0.0)])
        estimate = estimate_yield({"a": np.ones(500)}, specs)
        lo, hi = estimate.interval
        assert lo > 0.99


class TestPublicSurfaceDocstrings:
    """Every ``__all__`` export of the yieldmodel packages (and the
    public members of exported classes) must carry a first-line summary:
    the api.md generator renders a blank for anything that lacks one."""

    MODULES = (
        "repro.yieldmodel",
        "repro.yieldmodel.cornercheck",
        "repro.yieldmodel.estimator",
        "repro.yieldmodel.importance",
        "repro.yieldmodel.targeting",
        "repro.yieldmodel.variation",
    )

    def _exports(self):
        import importlib
        for module_name in self.MODULES:
            module = importlib.import_module(module_name)
            for export in module.__all__:
                yield module_name, export, getattr(module, export)

    def test_every_export_has_a_summary_line(self):
        import inspect
        missing = []
        for module_name, export, obj in self._exports():
            if not (inspect.isclass(obj) or callable(obj)):
                continue  # data constants are rendered by repr
            doc = inspect.getdoc(obj)
            if not doc or not doc.strip().splitlines()[0].strip():
                missing.append(f"{module_name}.{export}")
        assert not missing, f"exports without docstrings: {missing}"

    def test_every_public_class_member_has_a_summary_line(self):
        import inspect
        missing = []
        for module_name, export, obj in self._exports():
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if not (callable(member) or isinstance(member, property)):
                    continue
                if not inspect.getdoc(member):
                    missing.append(f"{module_name}.{export}.{attr}")
        assert not missing, f"class members without docstrings: {missing}"
