"""MOSFET model physics tests: regions, derivatives, symmetry, caps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.mosfet import Mosfet, MOSModel
from repro.errors import NetlistError

NMOS = MOSModel("nmos", "n", vto=0.5, kp=170e-6)
PMOS = MOSModel("pmos", "p", vto=-0.65, kp=58e-6)


def make_nmos(w=10e-6, l=1e-6, **kw):
    return Mosfet("M1", "d", "g", "s", "b", NMOS, w, l, **kw)


def make_pmos(w=10e-6, l=1e-6, **kw):
    return Mosfet("M1", "d", "g", "s", "b", PMOS, w, l, **kw)


class TestModelCard:
    def test_polarity_validation(self):
        with pytest.raises(NetlistError):
            MOSModel("bad", "x")

    def test_positive_kp_required(self):
        with pytest.raises(NetlistError):
            MOSModel("bad", "n", kp=-1.0)

    def test_with_variation_nmos(self):
        # A device's statistical shifts act like a varied model card.
        varied = make_nmos(delta_vto=0.03, beta_scale=1.1).evaluate(
            vgs=1.2, vds=1.5, vbs=0.0)
        card = MOSModel("nmos", "n", vto=0.53, kp=170e-6 * 1.1)
        shifted = Mosfet("M1", "d", "g", "s", "b", card, 10e-6,
                         1e-6).evaluate(vgs=1.2, vds=1.5, vbs=0.0)
        assert float(varied.ids) == pytest.approx(float(shifted.ids),
                                                  rel=1e-12)

    def test_with_variation_pmos_sign(self):
        # Positive dvto means "slower" -> |VT| grows -> more negative.
        varied = make_pmos(delta_vto=0.03).evaluate(vgs=-1.2, vds=-1.5,
                                                    vbs=0.0)
        card = MOSModel("pmos", "p", vto=-0.68, kp=58e-6)
        shifted = Mosfet("M1", "d", "g", "s", "b", card, 10e-6,
                         1e-6).evaluate(vgs=-1.2, vds=-1.5, vbs=0.0)
        assert float(varied.ids) == pytest.approx(float(shifted.ids),
                                                  rel=1e-12)


class TestGeometry:
    def test_leff(self):
        m = make_nmos(l=1e-6)
        assert m.leff == pytest.approx(1e-6 - 2 * NMOS.ld)

    def test_too_short_channel_rejected(self):
        with pytest.raises(NetlistError, match="length"):
            make_nmos(l=0.05e-6)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(NetlistError, match="width"):
            make_nmos(w=0.0)

    def test_beta_scales_with_geometry(self):
        narrow = make_nmos(w=10e-6)
        wide = make_nmos(w=20e-6)
        assert wide.beta == pytest.approx(2 * narrow.beta)

    def test_lambda_falls_with_length(self):
        short = make_nmos(l=0.5e-6)
        long = make_nmos(l=4e-6)
        assert short.lam > long.lam

    def test_engineering_strings(self):
        m = Mosfet("M1", "d", "g", "s", "b", NMOS, "10u", "1u")
        assert np.asarray(m.w) == pytest.approx(1e-5)


class TestOperatingRegions:
    def test_off_below_threshold(self):
        op = make_nmos().evaluate(vgs=0.0, vds=1.0, vbs=0.0)
        assert abs(op.ids) < 1e-9  # only subthreshold leakage

    def test_saturation_current_square_law(self):
        m = make_nmos(l=4e-6)  # long channel: weak CLM
        vov = 0.5
        op = m.evaluate(vgs=NMOS.vto + vov, vds=2.0, vbs=0.0)
        expected = 0.5 * float(m.beta) * vov ** 2 * (1 + float(m.lam) * 2.0)
        assert float(op.ids) == pytest.approx(expected, rel=0.05)

    def test_triode_region(self):
        m = make_nmos(l=4e-6)
        vov, vds = 0.8, 0.1
        op = m.evaluate(vgs=NMOS.vto + vov, vds=vds, vbs=0.0)
        expected = float(m.beta) * (vov - vds / 2) * vds
        assert float(op.ids) == pytest.approx(expected, rel=0.05)

    def test_current_increases_with_vgs(self):
        m = make_nmos()
        currents = [float(m.evaluate(v, 1.5, 0.0).ids)
                    for v in (0.7, 0.9, 1.1, 1.3)]
        assert np.all(np.diff(currents) > 0)

    def test_current_increases_with_vds(self):
        m = make_nmos()
        currents = [float(m.evaluate(1.0, v, 0.0).ids)
                    for v in (0.1, 0.3, 0.6, 1.0, 2.0)]
        assert np.all(np.diff(currents) > 0)  # CLM keeps slope positive

    def test_body_effect_raises_threshold(self):
        m = make_nmos()
        i_no_bias = float(m.evaluate(0.9, 1.0, 0.0).ids)
        i_back_bias = float(m.evaluate(0.9, 1.0, -1.0).ids)
        assert i_back_bias < i_no_bias

    def test_pmos_mirror_symmetry(self):
        pmos_model = MOSModel("p", "p", vto=-0.5, kp=170e-6, gamma=0.58)
        n = make_nmos()
        p = Mosfet("M1", "d", "g", "s", "b", pmos_model, 10e-6, 1e-6)
        op_n = n.evaluate(1.0, 1.5, 0.0)
        op_p = p.evaluate(-1.0, -1.5, 0.0)
        assert float(op_p.ids) == pytest.approx(-float(op_n.ids), rel=1e-12)
        assert float(op_p.gm) == pytest.approx(float(op_n.gm), rel=1e-12)
        assert float(op_p.gds) == pytest.approx(float(op_n.gds), rel=1e-12)

    def test_reverse_mode_antisymmetry(self):
        # Swapping drain and source must negate the current (vbs=0 so the
        # body terminal is symmetric too).
        m = make_nmos()
        fwd = float(m.evaluate(vgs=1.2, vds=0.4, vbs=0.0).ids)
        # Reverse: gate-to-(new)source = vgs - vds, vds negated.
        rev = float(m.evaluate(vgs=1.2 - 0.4, vds=-0.4, vbs=-0.4).ids)
        assert rev == pytest.approx(-fwd, rel=1e-9)


class TestDerivatives:
    """Analytic small-signal parameters must match finite differences."""

    @staticmethod
    def _fd(m, vgs, vds, vbs, which, h=1e-7):
        def ids(g, d, b):
            return float(m.evaluate(g, d, b).ids)
        if which == "gm":
            return (ids(vgs + h, vds, vbs) - ids(vgs - h, vds, vbs)) / (2 * h)
        if which == "gds":
            return (ids(vgs, vds + h, vbs) - ids(vgs, vds - h, vbs)) / (2 * h)
        return (ids(vgs, vds, vbs + h) - ids(vgs, vds, vbs - h)) / (2 * h)

    @settings(max_examples=60, deadline=None)
    @given(vgs=st.floats(0.2, 2.5), vds=st.floats(0.01, 3.0),
           vbs=st.floats(-2.0, 0.0))
    def test_gm_gds_gmb_match_fd_forward(self, vgs, vds, vbs):
        m = make_nmos()
        op = m.evaluate(vgs, vds, vbs)
        assert float(op.gm) == pytest.approx(
            self._fd(m, vgs, vds, vbs, "gm"), rel=1e-4, abs=1e-12)
        assert float(op.gds) == pytest.approx(
            self._fd(m, vgs, vds, vbs, "gds") + m.GDS_MIN, rel=1e-4, abs=1e-11)
        assert float(op.gmb) == pytest.approx(
            self._fd(m, vgs, vds, vbs, "gmb"), rel=1e-4, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(vgs=st.floats(0.6, 2.0), vds=st.floats(-2.0, -0.05))
    def test_derivatives_match_fd_reverse(self, vgs, vds):
        m = make_nmos()
        op = m.evaluate(vgs, vds, 0.0)
        # In reverse mode vbs FD would need vbd handling; test gm/gds only.
        assert float(op.gm) == pytest.approx(
            self._fd(m, vgs, vds, 0.0, "gm"), rel=1e-3, abs=1e-10)
        assert float(op.gds) == pytest.approx(
            self._fd(m, vgs, vds, 0.0, "gds") + m.GDS_MIN,
            rel=1e-3, abs=1e-10)

    def test_gmb_positive_in_forward_saturation(self):
        op = make_nmos().evaluate(1.0, 1.5, -0.5)
        assert float(op.gmb) > 0

    def test_intrinsic_gain_grows_with_length(self):
        gains = []
        for l in (0.5e-6, 1e-6, 2e-6, 4e-6):
            m = make_nmos(l=l)
            op = m.evaluate(0.8, 1.5, 0.0)
            gains.append(float(op.gm / op.gds))
        assert np.all(np.diff(gains) > 0)


class TestStatisticalHooks:
    def test_delta_vto_reduces_current(self):
        base = float(make_nmos().evaluate(1.0, 1.5, 0.0).ids)
        shifted = float(make_nmos(delta_vto=0.05).evaluate(1.0, 1.5, 0.0).ids)
        assert shifted < base

    def test_beta_scale(self):
        base = float(make_nmos().evaluate(1.0, 1.5, 0.0).ids)
        scaled = float(make_nmos(beta_scale=1.1).evaluate(1.0, 1.5, 0.0).ids)
        assert scaled == pytest.approx(1.1 * base, rel=1e-9)

    def test_batched_variation(self):
        m = make_nmos(delta_vto=np.array([0.0, 0.02, 0.05]))
        op = m.evaluate(1.0, 1.5, 0.0)
        assert op.ids.shape == (3,)
        assert np.all(np.diff(op.ids) < 0)


class TestCapacitances:
    def test_all_positive_in_saturation(self):
        caps = make_nmos().capacitances(1.0, 1.5, 0.0)
        for name, value in caps.items():
            assert float(value) > 0, name

    def test_meyer_limits(self):
        m = make_nmos()
        cox_total = NMOS.cox * 10e-6 * float(m.leff)
        sat = m.capacitances(1.5, 2.0, 0.0)
        # Deep saturation: Cgs -> 2/3 Cox + overlap, Cgd -> overlap only.
        overlap = NMOS.cgso * 10e-6
        assert float(sat["cgs"]) == pytest.approx(
            (2 / 3) * cox_total + overlap, rel=0.05)
        assert float(sat["cgd"]) == pytest.approx(NMOS.cgdo * 10e-6, rel=0.05)
        # vds = 0: Cgs = Cgd = Cox/2 + overlap.
        triode = m.capacitances(1.5, 0.0, 0.0)
        assert float(triode["cgs"]) == pytest.approx(
            0.5 * cox_total + overlap, rel=0.05)
        assert float(triode["cgs"]) == pytest.approx(float(triode["cgd"]),
                                                     rel=0.05)

    def test_junction_caps_fall_with_reverse_bias(self):
        m = make_nmos()
        weak = m.capacitances(1.0, 0.5, 0.0)
        strong = m.capacitances(1.0, 3.0, 0.0)
        assert float(strong["cdb"]) < float(weak["cdb"])

    def test_off_device_gate_cap_goes_to_bulk(self):
        m = make_nmos()
        off = m.capacitances(0.0, 1.0, 0.0)
        on = m.capacitances(1.5, 1.0, 0.0)
        assert float(off["cgb"]) > float(on["cgb"])


class TestOpInfo:
    def test_report_keys(self):
        from repro.analysis import dc_operating_point
        from repro.circuit import Circuit, Resistor, VoltageSource
        c = Circuit("t")
        c.add(VoltageSource("VDD", "vdd", "0", 3.3))
        c.add(VoltageSource("VG", "g", "0", 1.0))
        c.add(Resistor("RD", "vdd", "d", 1e4))
        c.add(Mosfet("M1", "d", "g", "0", "0", NMOS, 10e-6, 1e-6))
        op = dc_operating_point(c)
        info = op.device("M1")
        for key in ("ids", "gm", "gds", "vgs", "vds", "vth", "vov",
                    "saturated", "intrinsic_gain"):
            assert key in info
        assert bool(info["saturated"][0])
