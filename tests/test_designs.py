"""OTA and filter design tests: parameter spaces, physics sanity,
behavioural-vs-transistor agreement."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.designs.ota as ota_module
from repro.analysis import ac_analysis, dc_operating_point
from repro.designs import (DEFAULT_FILTER_SPEC, OTA_DESIGN_SPACE, FilterCaps,
                           FilterSpec, OTAParameters, build_filter_behavioral,
                           build_filter_transistor, build_ota, evaluate_filter,
                           evaluate_ota)
from repro.designs.problems import (BehavioralFilterProblem, OTAProblem,
                                    filter_margins)
from repro.designs.ota import default_frequency_grid
from repro.errors import ConvergenceError, ReproError
from repro.measure.acmeas import (dc_gain_db, f3db, phase_margin,
                                  unity_gain_frequency)
from repro.process import C35, ProcessSample


class TestDesignSpace:
    def test_table1_bounds(self):
        bounds = OTA_DESIGN_SPACE.bounds()
        assert bounds["w1"] == (10e-6, 60e-6)
        assert bounds["l1"] == (0.35e-6, 4e-6)
        assert len(bounds) == 8

    def test_table1_rows_include_weights(self):
        rows = OTA_DESIGN_SPACE.table1_rows()
        assert len(rows) == 10  # 8 parameters + 2 weights
        assert any("Gain weight" in r[0] for r in rows)
        assert any("(M5,M4)" in r[0] for r in rows)


class TestOTAParameters:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    def test_normalised_roundtrip(self, unit):
        unit = np.asarray(unit)
        params = OTAParameters.from_normalized(unit)
        np.testing.assert_allclose(params.to_normalized(), unit, atol=1e-12)

    def test_from_array_shape_check(self):
        with pytest.raises(ReproError):
            OTAParameters.from_array(np.ones(7))

    def test_out_of_range_normalised_rejected(self):
        with pytest.raises(ReproError):
            OTAParameters.from_normalized(np.full(8, 1.5))

    def test_tile(self):
        params = OTAParameters.from_array(
            np.array([[1e-6] * 8, [2e-6] * 8]))
        tiled = params.tile(3)
        arr = tiled.to_array()
        assert arr.shape == (6, 8)
        np.testing.assert_allclose(arr[:3, 0], 1e-6)
        np.testing.assert_allclose(arr[3:, 0], 2e-6)

    def test_batch_detection(self):
        assert OTAParameters().batch() == 1
        assert OTAParameters(w1=np.ones(4) * 1e-5).batch() == 4


class TestOTACircuit:
    def test_device_count_and_names(self):
        circuit = build_ota(OTAParameters())
        mosfets = [e.name for e in circuit if e.name.startswith("M")]
        assert sorted(mosfets) == [f"M{i}" for i in [1, 10, 2, 3, 4, 5,
                                                     6, 7, 8, 9]]

    def test_all_devices_saturated_at_nominal(self):
        circuit = build_ota(OTAParameters())
        op = dc_operating_point(circuit)
        for name in ("M1", "M2", "M3", "M4", "M5", "M6", "M7", "M9"):
            info = op.device(name)
            assert bool(info["saturated"][0]), f"{name} not saturated"

    def test_branch_currents_balance(self):
        circuit = build_ota(OTAParameters())
        op = dc_operating_point(circuit)
        i_m6 = op.device("M6")["ids"][0]
        i_m9 = op.device("M9")["ids"][0]
        # PMOS sources what NMOS sinks at the (servo-held) output.
        assert abs(i_m6 + i_m9) < 0.05 * abs(i_m9)

    def test_tail_current_mirrors_ibias(self):
        circuit = build_ota(OTAParameters(), ibias=20e-6)
        op = dc_operating_point(circuit)
        i_tail = op.device("M8")["ids"][0]
        assert i_tail == pytest.approx(20e-6, rel=0.15)  # CLM skews it a bit

    def test_output_biased_midrail(self):
        op = dc_operating_point(build_ota(OTAParameters()))
        assert 0.5 < op.v("out")[0] < 2.8


class TestOTAEvaluation:
    def test_nominal_performance_plausible(self):
        perf = evaluate_ota(OTAParameters())
        assert 35.0 < perf["gain_db"][0] < 60.0
        assert 50.0 < perf["pm_deg"][0] < 95.0
        assert perf["ugf_hz"][0] > 1e6

    def test_gain_monotone_in_output_length(self):
        lengths = np.array([0.5e-6, 1e-6, 2e-6, 4e-6])
        params = OTAParameters(l1=lengths, l2=lengths, l4=lengths)
        perf = evaluate_ota(params)
        assert np.all(np.diff(perf["gain_db"]) > 0)
        assert np.all(np.diff(perf["pm_deg"]) < 0)  # the paper's trade-off

    def test_larger_cl_improves_pm(self):
        params = OTAParameters(l1=3e-6, l2=3e-6, l4=3e-6)
        pm_small = evaluate_ota(params, cl=5e-12)["pm_deg"][0]
        pm_large = evaluate_ota(params, cl=20e-12)["pm_deg"][0]
        assert pm_large > pm_small

    def test_batch_equals_scalars(self):
        rng = np.random.default_rng(0)
        unit = rng.random((3, 8))
        batched = evaluate_ota(OTAParameters.from_normalized(unit))
        for lane in range(3):
            single = evaluate_ota(OTAParameters.from_normalized(unit[lane]))
            for key in ("gain_db", "pm_deg"):
                assert batched[key][lane] == pytest.approx(
                    single[key][0], rel=1e-9)

    def test_variations_change_performance(self):
        rng = np.random.default_rng(1)
        sample = C35.sample(8, rng)
        params = OTAParameters.from_array(
            np.broadcast_to(OTAParameters().to_array(), (8, 8)))
        perf = evaluate_ota(params, variations=sample)
        assert np.std(perf["gain_db"]) > 0.01


OTA_MEASURES = ("gain_db", "pm_deg", "ugf_hz", "f3db_hz")


def _corner_designs():
    """The 256 corners of the design box (0.02/0.98 in all 8 parameters)."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    return OTAParameters.from_normalized(np.where(bits, 0.98, 0.02))


def _corner_dies(size):
    """Fresh (equal) die samples for ``size`` lanes: Pelgrom mismatch,
    global variation, off-nominal supplies and temperatures.  Mismatch
    is drawn while the circuit is built, so each solve needs its own."""
    glob = C35.sample(size, np.random.default_rng(3), include_mismatch=False)
    return ProcessSample(
        size, dvto_n=glob.dvto_n, kp_scale_n=glob.kp_scale_n,
        dvto_p=glob.dvto_p, kp_scale_p=glob.kp_scale_p,
        cap_scale=glob.cap_scale, mismatch=C35.mismatch,
        rng=np.random.default_rng(4),
        vdd=np.resize([3.0, 3.3, 3.6], size),
        temp_k=np.resize([233.15, 300.15, 398.15, 300.15], size))


def _cold_ota(params, variations=None):
    """``evaluate_ota`` with every lane solved from ``x = 0``: the oracle
    of the reference start."""
    freqs = default_frequency_grid()
    circuit = build_ota(params, variations=variations)
    result = ac_analysis(circuit, freqs, op=dc_operating_point(circuit))
    mag, phase = result.magnitude_db("out"), result.phase_deg("out")
    return {"gain_db": dc_gain_db(mag),
            "pm_deg": phase_margin(freqs, mag, phase),
            "ugf_hz": unity_gain_frequency(freqs, mag),
            "f3db_hz": f3db(freqs, mag)}


@pytest.fixture
def reference_memo():
    """An empty reference-point memo, emptied again afterwards."""
    ota_module._reference_point.cache_clear()
    yield ota_module._reference_point
    ota_module._reference_point.cache_clear()


@pytest.fixture
def dc_starts(monkeypatch, reference_memo):
    """The ``x0`` of every DC solve ``evaluate_ota`` makes."""
    starts = []

    def recording(circuit, **kwargs):
        starts.append(kwargs.get("x0"))
        return dc_operating_point(circuit, **kwargs)

    monkeypatch.setattr(ota_module, "dc_operating_point", recording)
    return starts


class TestReferenceStart:
    """Every DC solve starts from the kit's reference operating point."""

    @pytest.mark.parametrize("varied", [False, True], ids=["nominal", "dies"])
    def test_matches_cold_start_at_box_corners(self, varied):
        params = _corner_designs()
        warm = evaluate_ota(params, variations=_corner_dies(256)
                            if varied else None)
        cold = _cold_ota(params, _corner_dies(256) if varied else None)
        for key in OTA_MEASURES:
            assert np.array_equal(np.isnan(warm[key]), np.isnan(cold[key]))
            np.testing.assert_allclose(warm[key], cold[key], rtol=1e-7,
                                       err_msg=key)

    def test_every_call_gets_the_same_row(self, dc_starts):
        evaluate_ota(OTAParameters())
        evaluate_ota(_corner_designs(), variations=_corner_dies(256))
        evaluate_ota(OTAParameters(), variations=_corner_dies(5))
        # The reference solve itself starts cold; every other solve
        # starts from its one read-only row.
        reference, *rest = dc_starts
        assert reference is None and len(rest) == 3
        assert all(start is rest[0] for start in rest)
        assert rest[0].shape == (12,) and not rest[0].flags.writeable

    def test_computed_once_per_kit(self, dc_starts, reference_memo):
        def cold_solves():
            return sum(start is None for start in dc_starts)

        for _ in range(3):
            evaluate_ota(OTAParameters())
        assert cold_solves() == 1
        low = dataclasses.replace(C35, supply=3.0)
        evaluate_ota(OTAParameters(), pdk=low)
        evaluate_ota(OTAParameters(), pdk=low)
        evaluate_ota(OTAParameters(), pdk=C35, cl=5e-12)
        assert cold_solves() == 3
        assert reference_memo.cache_info().currsize == 3
        assert not np.array_equal(dc_starts[1], dc_starts[5])

    def test_failing_reference_falls_back_to_cold_start(self, monkeypatch,
                                                        reference_memo):
        calls = []

        def reference_fails(circuit, **kwargs):
            calls.append(kwargs.get("x0"))
            if len(calls) == 1:
                raise ConvergenceError("reference solve failed")
            return dc_operating_point(circuit, **kwargs)

        monkeypatch.setattr(ota_module, "dc_operating_point", reference_fails)
        params = _corner_designs()
        fallback = evaluate_ota(params, variations=_corner_dies(256))
        again = evaluate_ota(OTAParameters())
        # The failure is memoised: no second reference solve.
        assert calls == [None, None, None]
        cold = _cold_ota(params, _corner_dies(256))
        for key in OTA_MEASURES:
            np.testing.assert_array_equal(fallback[key], cold[key],
                                          err_msg=key)
            np.testing.assert_array_equal(
                again[key], _cold_ota(OTAParameters())[key], err_msg=key)


class TestOTAProblem:
    def test_problem_interface(self):
        problem = OTAProblem()
        assert problem.n_parameters == 8
        assert problem.objective_names() == ("gain_db", "pm_deg")
        values = problem(np.full((2, 8), 0.5))
        assert values.shape == (2, 2)
        assert problem.evaluation_count == 2


class TestFilterCaps:
    def test_bounds_mapping(self):
        low = FilterCaps.from_normalized(np.zeros(3))
        high = FilterCaps.from_normalized(np.ones(3))
        assert low.c1 == pytest.approx(FilterCaps.BOUNDS[0][0])
        assert high.c3 == pytest.approx(FilterCaps.BOUNDS[2][1])

    def test_scaled(self):
        caps = FilterCaps(10e-12, 20e-12, 1e-12).scaled(1.1)
        assert caps.c1 == pytest.approx(11e-12)

    def test_shape_check(self):
        with pytest.raises(ReproError):
            FilterCaps.from_normalized(np.zeros(4))


class TestFilterSpec:
    def test_mask_specs(self):
        specs = DEFAULT_FILTER_SPEC.mask_specs()
        assert specs["ripple_db"].kind == "le"
        assert specs["atten_db"].kind == "ge"

    def test_ota_specs_match_paper(self):
        specs = DEFAULT_FILTER_SPEC.ota_specs()
        assert specs["gain_db"].limit == 50.0
        assert specs["pm_deg"].limit == 60.0

    def test_mask_points(self):
        points = DEFAULT_FILTER_SPEC.mask_points()
        assert len(points) == 3


class TestFilterCircuits:
    CAPS = FilterCaps(47e-12, 33e-12, 2e-12)

    def test_behavioral_unity_dc_gain(self):
        circuit = build_filter_behavioral(self.CAPS, ota_gain_db=50.0,
                                          ota_ro=1.1e6)
        perf = evaluate_filter(circuit)
        assert perf["dcgain_db"][0] == pytest.approx(0.0, abs=0.1)

    def test_behavioral_matches_ideal_biquad_formula(self):
        # With very high OTA gain the response approaches the ideal
        # gm-C biquad: w0 = sqrt(gm1 gm2 / C1' C2) with C1' = C1 + C3.
        gain_db_val, ro = 80.0, 1e6
        gm = 10 ** (gain_db_val / 20) / ro
        caps = FilterCaps(60e-12, 30e-12, 0.5e-12)
        circuit = build_filter_behavioral(caps, ota_gain_db=gain_db_val,
                                          ota_ro=ro)
        perf = evaluate_filter(circuit)
        f0 = gm / (2 * np.pi * np.sqrt((caps.c1 + caps.c3) * caps.c2))
        # Butterworth-ish Q: f3db within ~30% of f0.
        assert perf["f3db_hz"][0] == pytest.approx(f0, rel=0.3)

    def test_transistor_close_to_behavioral(self):
        ota = OTAParameters(l1=3e-6, l2=3e-6, l3=1e-6, l4=3e-6,
                            w1=40e-6, w2=40e-6, w4=40e-6)
        ota_perf = evaluate_ota(ota)
        gain_db_val = float(ota_perf["gain_db"][0])
        gm = 2 * np.pi * float(ota_perf["ugf_hz"][0]) * 10e-12
        ro = 10 ** (gain_db_val / 20) / gm
        behavioral = evaluate_filter(build_filter_behavioral(
            self.CAPS, ota_gain_db=gain_db_val, ota_ro=ro))
        transistor = evaluate_filter(build_filter_transistor(self.CAPS, ota))
        assert behavioral["f3db_hz"][0] == pytest.approx(
            transistor["f3db_hz"][0], rel=0.15)
        assert behavioral["dcgain_db"][0] == pytest.approx(
            transistor["dcgain_db"][0], abs=0.2)

    def test_transistor_filter_with_variations(self):
        rng = np.random.default_rng(2)
        sample = C35.sample(5, rng)
        ota = OTAParameters.from_array(
            np.broadcast_to(OTAParameters().to_array(), (5, 8)))
        circuit = build_filter_transistor(self.CAPS, ota, variations=sample)
        perf = evaluate_filter(circuit)
        assert perf["f3db_hz"].shape == (5,)
        assert np.std(perf["f3db_hz"]) > 0


class TestFilterMargins:
    def test_positive_iff_feasible(self):
        spec = FilterSpec()
        perf = {"ripple_db": np.array([0.5, 1.5]),
                "atten_db": np.array([35.0, 25.0])}
        margins = filter_margins(perf, spec)
        assert np.all(margins[0] > 0)
        assert np.all(margins[1] < 0)

    def test_saturation(self):
        spec = FilterSpec()
        perf = {"ripple_db": np.array([100.0]),
                "atten_db": np.array([500.0])}
        margins = filter_margins(perf, spec)
        assert margins[0, 0] == -1.0
        assert margins[0, 1] == 1.0

    def test_nan_maps_to_worst(self):
        spec = FilterSpec()
        perf = {"ripple_db": np.array([np.nan]),
                "atten_db": np.array([np.nan])}
        np.testing.assert_array_equal(filter_margins(perf, spec),
                                      [[-1.0, -1.0]])

    def test_behavioral_problem_interface(self):
        problem = BehavioralFilterProblem(ota_gain_db=50.0, ota_ro=1.1e6)
        values = problem(np.full((3, 3), 0.5))
        assert values.shape == (3, 2)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)
