"""Process kit tests: corners, global statistics, Pelgrom mismatch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.process import (C35, MismatchModel, ProcessSample, make_c35)


class TestKitStructure:
    def test_c35_headline_values(self):
        assert C35.nmos.vto == pytest.approx(0.5)
        assert C35.pmos.vto == pytest.approx(-0.65)
        assert C35.supply == 3.3
        assert set(C35.corners) == {"tm", "wp", "ws", "wo", "wz"}

    def test_model_lookup(self):
        assert C35.model("n") is C35.nmos
        assert C35.model("p") is C35.pmos
        with pytest.raises(ReproError):
            C35.model("x")

    def test_models_dict_for_parser(self):
        assert C35.models["nmos"] is C35.nmos

    def test_make_c35_fresh_instance(self):
        assert make_c35() is not C35


class TestCorners:
    def test_tm_is_identity(self):
        sample = C35.corner_sample("tm")
        assert sample.dvto_n[0] == 0.0
        assert sample.kp_scale_n[0] == 1.0
        assert sample.cap_scale[0] == 1.0

    def test_wp_is_fast(self):
        sample = C35.corner_sample("wp")
        assert sample.dvto_n[0] < 0      # lower threshold
        assert sample.kp_scale_n[0] > 1  # more current

    def test_ws_is_slow(self):
        sample = C35.corner_sample("ws")
        assert sample.dvto_n[0] > 0
        assert sample.kp_scale_n[0] < 1

    def test_cross_corners(self):
        wo = C35.corner_sample("wo")
        assert wo.dvto_n[0] < 0 and wo.dvto_p[0] > 0
        wz = C35.corner_sample("wz")
        assert wz.dvto_n[0] > 0 and wz.dvto_p[0] < 0

    def test_unknown_corner(self):
        with pytest.raises(ReproError, match="unknown corner"):
            C35.corner_sample("ff")

    def test_corner_moves_ota_gain(self):
        from repro.designs.ota import OTAParameters, evaluate_ota
        params = OTAParameters()
        tm = evaluate_ota(params, variations=C35.corner_sample("tm"))
        ws = evaluate_ota(params, variations=C35.corner_sample("ws"))
        assert tm["gain_db"][0] != pytest.approx(ws["gain_db"][0], abs=1e-3)


class TestGlobalSampling:
    def test_sample_statistics(self):
        rng = np.random.default_rng(42)
        sample = C35.sample(20000, rng, include_mismatch=False)
        gv = C35.global_variation
        assert np.mean(sample.dvto_n) == pytest.approx(0.0, abs=5e-4)
        assert np.std(sample.dvto_n) == pytest.approx(gv.sigma_vto_n, rel=0.05)
        assert np.mean(sample.kp_scale_n) == pytest.approx(1.0, abs=1e-3)
        assert np.std(sample.cap_scale) == pytest.approx(gv.sigma_cap,
                                                         rel=0.05)

    def test_kp_never_nonpositive(self):
        rng = np.random.default_rng(0)
        sample = C35.sample(50000, rng, include_mismatch=False)
        assert np.all(sample.kp_scale_n > 0)
        assert np.all(sample.cap_scale > 0)

    def test_disable_global(self):
        rng = np.random.default_rng(0)
        sample = C35.sample(10, rng, include_global=False,
                            include_mismatch=False)
        assert np.all(sample.dvto_n == 0)
        assert np.all(sample.kp_scale_p == 1)

    def test_nominal_classmethod(self):
        # A sample with no global shifts has a unit capacitor scale.
        sample = ProcessSample(3, dvto_n=0, kp_scale_n=1, dvto_p=0,
                               kp_scale_p=1)
        assert sample.size == 3
        assert np.all(sample.cap_scale == 1.0)

    def test_mismatch_requires_rng(self):
        with pytest.raises(ReproError, match="rng"):
            ProcessSample(2, dvto_n=0, kp_scale_n=1, dvto_p=0, kp_scale_p=1,
                          mismatch=MismatchModel())


class TestMismatchModel:
    def test_pelgrom_scaling(self):
        mm = MismatchModel(avt_n=10e-9)
        small = float(mm.sigma_vt_pair("n", 1e-12))   # 1 um^2
        large = float(mm.sigma_vt_pair("n", 4e-12))   # 4 um^2
        assert small == pytest.approx(2 * large)
        assert small == pytest.approx(10e-3)  # 10 mV at 1 um^2

    def test_device_sigma_is_pair_over_sqrt2(self):
        mm = MismatchModel()
        area = 2e-11
        assert float(mm.sigma_vt_device("n", area)) == pytest.approx(
            float(mm.sigma_vt_pair("n", area)) / np.sqrt(2))

    def test_polarity_coefficients(self):
        mm = MismatchModel(avt_n=7e-9, avt_p=10e-9)
        assert mm.coefficients("n")[0] == 7e-9
        assert mm.coefficients("p")[0] == 10e-9
        with pytest.raises(ReproError):
            mm.coefficients("z")

    def test_draw_statistics(self):
        mm = MismatchModel(avt_n=10e-9, abeta_n=0.02e-6)
        rng = np.random.default_rng(3)
        area = 1e-12
        dvt, dbeta = mm.draw("n", area, 20000, rng)
        assert np.std(dvt) == pytest.approx(
            float(mm.sigma_vt_device("n", area)), rel=0.05)
        assert np.std(dbeta) == pytest.approx(
            float(mm.sigma_beta_device("n", area)), rel=0.05)

    def test_draw_rejects_bad_area(self):
        with pytest.raises(ReproError):
            MismatchModel().draw("n", 0.0, 10, np.random.default_rng(0))

    @settings(max_examples=20, deadline=None)
    @given(area=st.floats(min_value=1e-13, max_value=1e-9))
    def test_pair_difference_has_pelgrom_sigma(self, area):
        mm = MismatchModel(avt_n=9.5e-9)
        rng = np.random.default_rng(17)
        a, _ = mm.draw("n", area, 4000, rng)
        b, _ = mm.draw("n", area, 4000, rng)
        measured = np.std(a - b)
        assert measured == pytest.approx(float(mm.sigma_vt_pair("n", area)),
                                         rel=0.1)


class TestDeviceVariation:
    def test_global_shared_mismatch_independent(self):
        rng = np.random.default_rng(5)
        sample = C35.sample(500, rng)
        d1, _ = sample.device_variation(C35.nmos, 20e-6, 1e-6)
        d2, _ = sample.device_variation(C35.nmos, 20e-6, 1e-6)
        # Same global part, different mismatch draw -> correlated but not
        # identical.
        assert not np.allclose(d1, d2)
        correlation = np.corrcoef(d1, d2)[0, 1]
        assert correlation > 0.5  # the shared global component

    def test_larger_devices_vary_less(self):
        rng = np.random.default_rng(6)
        sample = C35.sample(4000, rng, include_global=False)
        d_small, _ = sample.device_variation(C35.nmos, 10e-6, 0.35e-6)
        d_large, _ = sample.device_variation(C35.nmos, 60e-6, 4e-6)
        assert np.std(d_large) < np.std(d_small) / 3

    def test_polarity_routing(self):
        sample = ProcessSample(2, dvto_n=0.01, kp_scale_n=1.1,
                               dvto_p=0.02, kp_scale_p=0.9)
        dn, bn = sample.device_variation(C35.nmos, 1e-5, 1e-6)
        dp, bp = sample.device_variation(C35.pmos, 1e-5, 1e-6)
        assert np.all(dn == 0.01) and np.all(bn == 1.1)
        assert np.all(dp == 0.02) and np.all(bp == 0.9)


class TestConcatenate:
    @staticmethod
    def _draws(sample, devices):
        return [sample.device_variation(model, w, l)
                for model, w, l in devices]

    SIZES = (4, 7, 8)
    # The third device has per-lane geometry, sliced per segment.
    DEVICES = ((C35.nmos, 20e-6, 1e-6), (C35.pmos, 10e-6, 0.5e-6),
               (C35.nmos, np.linspace(10e-6, 60e-6, sum(SIZES)), 2e-6))

    def _samples(self, include_mismatch=True, seed=11):
        return [C35.sample(size, np.random.default_rng(seed + i),
                           include_mismatch=include_mismatch)
                for i, size in enumerate(self.SIZES)]

    def test_segment_mismatch_equals_separate_draws(self):
        bounds = np.cumsum([0, *self.SIZES])
        stacked = ProcessSample.concatenate(self._samples())
        assert stacked.size == sum(self.SIZES)
        assert len(stacked.segments) == len(self.SIZES)
        got = self._draws(stacked, self.DEVICES)
        for index, sample in enumerate(self._samples()):
            lo, hi = bounds[index], bounds[index + 1]
            local = [(m, w if np.ndim(w) == 0 else w[lo:hi], l)
                     for m, w, l in self.DEVICES]
            for (dvto, beta), (ref_dvto, ref_beta) in zip(
                    got, self._draws(sample, local), strict=True):
                assert dvto[lo:hi].tobytes() == ref_dvto.tobytes()
                assert beta[lo:hi].tobytes() == ref_beta.tobytes()

    def test_nested_concatenate_flattens_segments(self):
        a, b, c = self._samples()
        flat = ProcessSample.concatenate([a, b, c])
        a, b, c = self._samples()
        nested = ProcessSample.concatenate(
            [a, ProcessSample.concatenate([b, c])])
        assert [seg[:2] for seg in nested.segments] == \
            [seg[:2] for seg in flat.segments]
        np.testing.assert_array_equal(
            flat.device_variation(C35.nmos, 20e-6, 1e-6)[0],
            nested.device_variation(C35.nmos, 20e-6, 1e-6)[0])

    def test_global_arrays_stack_in_order(self):
        samples = self._samples(include_mismatch=False)
        stacked = ProcessSample.concatenate(samples)
        for attr in ("dvto_n", "kp_scale_n", "dvto_p", "kp_scale_p",
                     "cap_scale"):
            np.testing.assert_array_equal(
                getattr(stacked, attr),
                np.concatenate([getattr(s, attr) for s in samples]))
        assert stacked.mismatch is None and stacked.vdd is None

    def test_single_sample_keeps_its_stream(self):
        sample = C35.sample(6, np.random.default_rng(3))
        stacked = ProcessSample.concatenate([sample])
        assert stacked.segments == sample.segments
        ref = C35.sample(6, np.random.default_rng(3))
        np.testing.assert_array_equal(
            stacked.device_variation(C35.pmos, 10e-6, 1e-6)[1],
            ref.device_variation(C35.pmos, 10e-6, 1e-6)[1])

    def test_mixing_mismatch_and_no_mismatch_raises(self):
        with_mm = C35.sample(3, np.random.default_rng(1))
        without = C35.sample(3, np.random.default_rng(2),
                             include_mismatch=False)
        with pytest.raises(ReproError):
            ProcessSample.concatenate([with_mm, without])
        with pytest.raises(ReproError):
            ProcessSample.concatenate([without, with_mm])

    def test_mixing_vdd_lanes_raises(self):
        with pytest.raises(ReproError):
            ProcessSample.concatenate([C35.corner_sample("tm", vdd=3.0),
                                       C35.corner_sample("tm")])

    def test_empty_raises(self):
        with pytest.raises(ReproError):
            ProcessSample.concatenate([])

    def test_lanes_and_tiled_raise_with_live_mismatch(self):
        stacked = ProcessSample.concatenate(self._samples())
        with pytest.raises(ReproError):
            stacked.lanes(0, 2)
        with pytest.raises(ReproError):
            stacked.tiled(2)

    def test_lanes_and_tiled_work_without_mismatch(self):
        samples = self._samples(include_mismatch=False)
        stacked = ProcessSample.concatenate(samples)
        np.testing.assert_array_equal(stacked.lanes(4, 11).dvto_n,
                                      samples[1].dvto_n)
        assert stacked.tiled(2).size == 2 * stacked.size
