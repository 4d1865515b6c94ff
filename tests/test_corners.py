"""PVT corner-sweep subsystem tests.

Covers the consistency promises of :mod:`repro.process.c35` (corners sit
on the 3-sigma points of the global variation model, ``tm`` is the
nominal card), the grid/sweep machinery, temperature and supply hooks,
and bit-identity of stacked sweeps across execution backends.
"""

import numpy as np
import pytest

from repro.corners import (CornerGrid, CornerVerification, PVTPoint,
                           corner_sweep, corner_sweep_points,
                           corner_sweep_sequential, default_vdds,
                           format_corner_table)
from repro.designs.ota import (OTAParameters, evaluate_ota,
                              ota_points_evaluator)
from repro.errors import ReproError
from repro.measure.specs import Spec, SpecSet
from repro.process import C35
from repro.yieldmodel import compare_corners_to_mc

OTA_SPECS = SpecSet([Spec("gain_db", "ge", 50.0, "dB"),
                     Spec("pm_deg", "ge", 60.0, "deg")])


def ota_evaluator(params=None):
    """A (ProcessSample) -> performance evaluator for a fixed OTA."""
    params = params or OTAParameters()

    def evaluate(sample):
        tiled = OTAParameters.from_array(
            np.broadcast_to(params.to_array(), (sample.size, 8)))
        return evaluate_ota(tiled, variations=sample)

    return evaluate


class TestCornerConsistency:
    """The c35 docstring's promise: corners = 3-sigma global points."""

    def test_tm_reproduces_nominal_model_card(self):
        tm = C35.corner_def("tm")
        for model in (C35.nmos, C35.pmos):
            dvto = tm.dvto_n if model.polarity == "n" else tm.dvto_p
            kp = tm.kp_scale_n if model.polarity == "n" else tm.kp_scale_p
            # A zero shift and a unit scale leave the model card as is.
            assert (dvto, kp) == (0.0, 1.0)

    def test_tm_sweep_equals_nominal_evaluation(self):
        grid = CornerGrid(corners=("tm",), vdds=(C35.supply,))
        result = corner_sweep(ota_evaluator(), C35, grid)
        nominal = evaluate_ota(OTAParameters())
        for name, values in result.performance.items():
            assert values == pytest.approx(np.asarray(nominal[name]))

    @pytest.mark.parametrize("corner,sign", [("wp", -1.0), ("ws", +1.0)])
    def test_wp_ws_sit_on_three_sigma_points(self, corner, sign):
        c = C35.corner_def(corner)
        gv = C35.global_variation
        assert c.dvto_n == pytest.approx(sign * 3.0 * gv.sigma_vto_n)
        assert c.dvto_p == pytest.approx(sign * 3.0 * gv.sigma_vto_p)
        assert c.kp_scale_n == pytest.approx(1.0 - sign * 3.0 * gv.sigma_kp_n)
        assert c.kp_scale_p == pytest.approx(1.0 - sign * 3.0 * gv.sigma_kp_p)

    def test_cross_corners_mix_polarities(self):
        wo, wz = C35.corner_def("wo"), C35.corner_def("wz")
        assert wo.dvto_n < 0 < wo.dvto_p
        assert wz.dvto_p < 0 < wz.dvto_n


class TestGrid:
    def test_size_and_lane_order(self):
        grid = CornerGrid(corners=("tm", "ws"), vdds=(3.0, 3.6),
                          temps_c=(27.0, 125.0))
        assert grid.size == 8
        points = grid.points()
        # Corner-major product order.
        assert points[0] == PVTPoint("tm", 3.0, 27.0)
        assert points[1] == PVTPoint("tm", 3.0, 125.0)
        assert points[2] == PVTPoint("tm", 3.6, 27.0)
        assert points[4] == PVTPoint("ws", 3.0, 27.0)
        assert grid.labels()[0] == "tm/3V/27C"

    def test_full_grid_defaults(self):
        grid = CornerGrid.full(C35)
        assert grid.corners == tuple(C35.corners)
        assert grid.vdds == default_vdds(C35)
        assert grid.size == 5 * 3 * 3

    def test_from_spec_parsing(self):
        grid = CornerGrid.from_spec(C35, "tm,ws", "3.3", "27")
        assert grid.corners == ("tm", "ws")
        assert grid.vdds == (3.3,)
        assert grid.temps_c == (27.0,)

    def test_from_spec_rejects_unknown_corner(self):
        with pytest.raises(ReproError, match="unknown corner"):
            CornerGrid.from_spec(C35, "tm,ff")

    def test_from_spec_rejects_bad_floats(self):
        with pytest.raises(ReproError, match="bad PVT grid spec"):
            CornerGrid.from_spec(C35, "tm", "3.3;3.0")

    def test_empty_axes_rejected(self):
        with pytest.raises(ReproError):
            CornerGrid(corners=(), vdds=(3.3,))
        with pytest.raises(ReproError):
            CornerGrid(corners=("tm",), vdds=())

    def test_realize_matches_corner_samples(self):
        grid = CornerGrid(corners=("wp", "ws"), vdds=(3.0,), temps_c=(85.0,))
        stacked = grid.realize(C35)
        assert stacked.size == 2
        for lane, point in enumerate(grid.points()):
            single = C35.corner_sample(point.corner, vdd=point.vdd,
                                       temp_c=point.temp_c)
            assert stacked.dvto_n[lane] == single.dvto_n[0]
            assert stacked.kp_scale_p[lane] == single.kp_scale_p[0]
            assert stacked.vdd[lane] == pytest.approx(point.vdd)
            assert stacked.temp_k[lane] == pytest.approx(point.temp_c + 273.15)


class TestTemperatureAndSupplyHooks:
    def test_temperature_shift_signs(self):
        # Hotter silicon: lower |VT| (negative NMOS-frame dvto) and less
        # mobility (kp scale below one).
        dvto, kp = C35.nmos.temperature_shift(273.15 + 125.0)
        assert dvto < 0
        assert kp < 1
        dvto_cold, kp_cold = C35.nmos.temperature_shift(273.15 - 40.0)
        assert dvto_cold > 0
        assert kp_cold > 1

    def test_nominal_temperature_is_identity(self):
        dvto, kp = C35.pmos.temperature_shift(C35.pmos.tnom)
        assert dvto == 0.0
        assert kp == 1.0

    def test_device_variation_folds_temperature(self):
        hot = C35.corner_sample("tm", temp_c=125.0)
        dvto, beta = hot.device_variation(C35.nmos, 10e-6, 1e-6)
        expected_dvto, expected_kp = C35.nmos.temperature_shift(
            125.0 + 273.15)
        assert dvto[0] == pytest.approx(expected_dvto)
        assert beta[0] == pytest.approx(expected_kp)

    def test_vdd_lane_reaches_supply_source(self):
        from repro.designs.ota import build_ota
        sample = C35.corner_sample("tm", vdd=3.0)
        circuit = build_ota(OTAParameters(), variations=sample)
        assert np.asarray(circuit.element("VDD").dc).reshape(-1)[0] == 3.0

    def test_temperature_slows_the_ota(self):
        evaluate = ota_evaluator()
        cold = evaluate(C35.corner_sample("tm", temp_c=-40.0))
        hot = evaluate(C35.corner_sample("tm", temp_c=125.0))
        assert hot["ugf_hz"][0] < cold["ugf_hz"][0]


class TestSweep:
    GRID = CornerGrid(corners=("tm", "wp", "ws"), vdds=(3.0, 3.6),
                      temps_c=(27.0,))

    def test_stacked_equals_sequential_bitwise(self):
        evaluate = ota_evaluator()
        stacked = corner_sweep(evaluate, C35, self.GRID)
        sequential = corner_sweep_sequential(evaluate, C35, self.GRID)
        for name in stacked.performance:
            np.testing.assert_array_equal(stacked.performance[name],
                                          sequential.performance[name])

    def test_bit_identical_across_backends_and_chunking(self):
        # The chunked many-points sweep reproduces the one-stack sweep on
        # every backend and chunk plan.
        params = OTAParameters()
        reference = corner_sweep(ota_evaluator(params), C35, self.GRID)
        points = ota_points_evaluator(params.to_array()[None, :])
        for backend, chunk in (("serial", 2), ("thread:2", 1),
                               ("thread:3", 4), ("process:2", 2),
                               ("serial", 0)):
            other = corner_sweep_points(points, 1, C35, self.GRID,
                                        backend=backend, chunk_lanes=chunk)
            for name in other:
                np.testing.assert_array_equal(reference.performance[name],
                                              other[name][0])

    def test_sweep_result_margins_and_worst_case(self):
        result = corner_sweep(ota_evaluator(), C35, self.GRID)
        margins = result.margins(OTA_SPECS)
        assert margins["gain_db"].shape == (self.GRID.size,)
        lo, lo_label, hi, hi_label = result.worst_case("gain_db")
        assert lo <= hi
        assert lo_label in self.GRID.labels()
        table = format_corner_table(result.grid, result.performance,
                                    OTA_SPECS)
        assert "margin(gain_db)" in table
        assert "worst pm_deg" in table

    def test_points_sweep_shapes_and_consistency(self):
        designs = np.stack([OTAParameters().to_array(),
                            OTAParameters(w1=50e-6).to_array()])

        def evaluator(indices, repeats, sample):
            tiled = OTAParameters.from_array(
                np.repeat(designs[indices], repeats, axis=0))
            performance = evaluate_ota(tiled, variations=sample)
            return {"gain_db": performance["gain_db"]}

        swept = corner_sweep_points(evaluator, 2, C35, self.GRID)
        assert swept["gain_db"].shape == (2, self.GRID.size)
        # Each row must equal that design's own single-design sweep.
        for k, params in enumerate((OTAParameters(),
                                    OTAParameters(w1=50e-6))):
            single = corner_sweep(ota_evaluator(params), C35, self.GRID)
            np.testing.assert_array_equal(swept["gain_db"][k],
                                          single.performance["gain_db"])

    def test_points_sweep_chunked_matches_unchunked(self):
        designs = np.stack([OTAParameters(w2=w).to_array()
                            for w in (20e-6, 30e-6, 40e-6)])

        def evaluator(indices, repeats, sample):
            tiled = OTAParameters.from_array(
                np.repeat(designs[indices], repeats, axis=0))
            return {"pm_deg": evaluate_ota(tiled,
                                           variations=sample)["pm_deg"]}

        whole = corner_sweep_points(evaluator, 3, C35, self.GRID)
        chunked = corner_sweep_points(evaluator, 3, C35, self.GRID,
                                      chunk_lanes=self.GRID.size,
                                      backend="thread:2")
        np.testing.assert_array_equal(whole["pm_deg"], chunked["pm_deg"])

    def test_lane_count_mismatch_detected(self):
        def bad_evaluator(sample):
            return {"gain_db": np.zeros(sample.size + 1)}

        with pytest.raises(ReproError, match="lanes"):
            corner_sweep(bad_evaluator, C35, self.GRID)

    def test_negative_chunk_lanes_rejected_by_both_entry_points(self):
        calls = []

        def evaluator(indices, repeats, sample):
            calls.append(indices.size)
            return {"metric": np.zeros(indices.size * repeats)}

        with pytest.raises(ReproError, match="chunk_lanes"):
            corner_sweep_points(evaluator, 4, C35, self.GRID,
                                chunk_lanes=-5)
        assert calls == []
        # Zero still means one stack.
        corner_sweep_points(evaluator, 4, C35, self.GRID, chunk_lanes=0)
        assert calls == [4]


class TestReporting:
    def test_format_corner_table_without_specs(self):
        grid = CornerGrid(corners=("tm",), vdds=(3.3,), temps_c=(27.0,))
        text = format_corner_table(grid, {"gain_db": np.array([41.0])})
        assert "tm/3.3V/27C" in text
        assert "41" in text

    def test_corner_verification_summary(self):
        grid = CornerGrid(corners=("tm", "ws"), vdds=(3.3,),
                          temps_c=(27.0,))
        samples = {"gain_db": np.array([[55.0, 49.0], [52.0, 51.0]]),
                   "pm_deg": np.array([[70.0, 72.0], [61.0, 63.0]])}
        check = CornerVerification(grid=grid, samples=samples,
                                   specs=OTA_SPECS)
        counts = check.pass_counts()
        assert counts.tolist() == [2, 1]
        best = check.best_worst_margins()
        assert best["gain_db"].tolist() == [5.0, 1.0]
        summary = check.summary_table()
        assert "2/2" in summary and "1/2" in summary
        assert "weakest PVT point: ws/3.3V/27C" in summary
        design = check.design_table(0)
        assert "margin(gain_db)" in design

    def test_compare_corners_to_mc(self):
        rng = np.random.default_rng(0)
        mc = rng.normal(0.0, 1.0, size=(2, 4000))
        corners_wide = np.array([[-5.0, 5.0], [-5.0, 5.0]])
        corners_narrow = np.array([[-1.0, 1.0], [-5.0, 5.0]])
        wide = compare_corners_to_mc({"x": corners_wide}, {"x": mc})["x"]
        assert wide.bounded.tolist() == [True, True]
        assert wide.bounded_fraction == 1.0
        narrow = compare_corners_to_mc({"x": corners_narrow}, {"x": mc})["x"]
        assert narrow.bounded.tolist() == [False, True]
        assert "1/2" in narrow.describe()

    def test_compare_requires_shared_names(self):
        from repro.errors import YieldModelError
        with pytest.raises(YieldModelError, match="share no performance"):
            compare_corners_to_mc({"a": np.zeros((1, 2))},
                                  {"b": np.zeros((1, 3))})

    def test_compare_requires_matching_design_counts(self):
        from repro.errors import YieldModelError
        with pytest.raises(YieldModelError, match="designs"):
            compare_corners_to_mc({"a": np.zeros((2, 3))},
                                  {"a": np.zeros((3, 4))})


class TestFlowIntegration:
    def test_reduced_flow_runs_corner_stage(self, reduced_flow):
        check = reduced_flow.corner_check
        assert check is not None
        assert check.grid.size == 45
        k = reduced_flow.pareto_count
        for values in check.samples.values():
            assert values.shape == (k, 45)
        assert "corner verification" in reduced_flow.ledger.stages
        assert set(check.mc_check) == {"gain_db", "pm_deg"}

    def test_flow_corner_stage_can_be_disabled(self):
        from repro.flow import reduced_config, run_model_build_flow
        import dataclasses
        config = dataclasses.replace(reduced_config(), generations=6,
                                     population=12, mc_samples=10,
                                     max_pareto_points=6, corners="none")
        result = run_model_build_flow(config)
        assert result.corner_check is None
        assert "corner verification" not in result.ledger.stages

    def test_artifacts_include_corner_margins(self, reduced_flow, tmp_path):
        import json
        from repro.flow import save_flow_artifacts
        written = save_flow_artifacts(reduced_flow, tmp_path)
        assert written["corner_margins"].exists()
        text = written["corner_margins"].read_text()
        assert "designs passing" in text
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        assert summary["corners"]["grid"]["corners"] == list(C35.corners)
        assert "mc_bounded_fraction" in summary["corners"]
        with np.load(tmp_path / "flow_result.npz") as arrays:
            assert "corner_gain_db" in arrays.files
