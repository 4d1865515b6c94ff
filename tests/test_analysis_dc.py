"""DC operating-point solver tests: correctness, homotopies, batching,
and the KCL-residual property on random networks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Assembler, NewtonOptions, dc_operating_point
from repro.analysis.mna import solve_batched
from repro.circuit import (Circuit, Diode, Mosfet, Resistor,
                           VoltageSource)
from repro.errors import SingularMatrixError
from repro.process import C35


class TestBasics:
    def test_report_is_readable(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 5.0))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0"))
        op = dc_operating_point(c)
        text = op.report()
        assert "V(d)" in text and "D1" in text

    def test_floating_island_resolves_via_gmin_floor(self):
        # Like SPICE, the permanent GMIN floor keeps floating islands
        # solvable; their nodes settle to ground.
        c = Circuit("t")
        c.add(VoltageSource("V1", "a", "0", 1.0))
        c.add(Resistor("R1", "a", "0", 1e3))
        c.add(Resistor("R2", "b", "c", 1e3))  # floating island
        op = dc_operating_point(c)
        assert op.v("b")[0] == pytest.approx(0.0, abs=1e-6)

    def test_voltage_source_loop_is_singular(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "a", "0", 1.0))
        c.add(VoltageSource("V2", "a", "0", 2.0))  # conflicting loop
        c.add(Resistor("R1", "a", "0", 1e3))
        with pytest.raises(SingularMatrixError):
            dc_operating_point(c)

    def test_warm_start(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 5.0))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0"))
        cold = dc_operating_point(c)
        warm = dc_operating_point(c, x0=cold.x)
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-8)

    def test_source_scale(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Resistor("R2", "out", "0", 1e3))
        op = dc_operating_point(c, source_scale=0.5)
        assert op.v("out")[0] == pytest.approx(2.5)


class TestKCLProperty:
    """Random resistive ladder networks must satisfy KCL exactly."""

    @settings(max_examples=25, deadline=None)
    @given(
        resistances=st.lists(st.floats(min_value=10.0, max_value=1e6),
                             min_size=2, max_size=12),
        v_in=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_ladder_kcl_residual(self, resistances, v_in):
        c = Circuit("ladder")
        c.add(VoltageSource("V1", "n0", "0", v_in))
        for i, r in enumerate(resistances):
            c.add(Resistor(f"Rs{i}", f"n{i}", f"n{i + 1}", r))
            c.add(Resistor(f"Rp{i}", f"n{i + 1}", "0", 2 * r))
        op = dc_operating_point(c)
        assembler = op.assembler
        G, rhs = assembler.newton_system(op.x)
        residual = np.einsum("bij,bj->bi", G, op.x) - rhs
        assert np.max(np.abs(residual)) < 1e-9 * max(1.0, abs(v_in))

    @settings(max_examples=15, deadline=None)
    @given(v_in=st.floats(min_value=0.5, max_value=20.0))
    def test_diode_chain_monotone(self, v_in):
        c = Circuit("chain")
        c.add(VoltageSource("V1", "a", "0", v_in))
        c.add(Resistor("R1", "a", "b", 1e3))
        c.add(Diode("D1", "b", "c"))
        c.add(Diode("D2", "c", "0"))
        op = dc_operating_point(c)
        va, vb, vc = op.v("a")[0], op.v("b")[0], op.v("c")[0]
        assert va >= vb >= vc >= 0


class TestHomotopies:
    def test_gmin_strategy_reported(self):
        # A hard case: back-to-back diodes with a huge series resistor and
        # a tight tolerance to provoke fallback use.  Whatever strategy
        # wins, the solution must satisfy the circuit.
        c = Circuit("hard")
        c.add(VoltageSource("V1", "in", "0", 20.0))
        c.add(Resistor("R1", "in", "a", 1e6))
        c.add(Diode("D1", "a", "b", i_s=1e-16))
        c.add(Diode("D2", "b", "0", i_s=1e-16))
        op = dc_operating_point(c)
        assert op.strategy in ("newton", "gmin", "source")
        i_chain = (20.0 - op.v("a")[0]) / 1e6
        assert i_chain > 0

    def test_ota_converges_across_parameter_extremes(self):
        from repro.designs.ota import OTAParameters, build_ota
        # All corners of the W/L box at once (batched).
        lows = [10e-6, 0.35e-6] * 4
        highs = [60e-6, 4e-6] * 4
        corners = np.array([lows, highs,
                            [10e-6, 4e-6] * 4, [60e-6, 0.35e-6] * 4])
        params = OTAParameters.from_array(corners)
        op = dc_operating_point(build_ota(params))
        # All lanes converged, outputs within the rails.
        assert np.all(op.v("out") > 0.1)
        assert np.all(op.v("out") < 3.2)


class TestBatching:
    def test_batched_matches_scalar_loop(self):
        nmos = C35.nmos
        widths = np.array([10e-6, 25e-6, 60e-6])

        def build(w):
            c = Circuit("cs")
            c.add(VoltageSource("VDD", "vdd", "0", 3.3))
            c.add(VoltageSource("VG", "g", "0", 0.9))
            c.add(Resistor("RD", "vdd", "d", 1e4))
            c.add(Mosfet("M1", "d", "g", "0", "0", nmos, w, 1e-6))
            return c

        batched = dc_operating_point(build(widths))
        for lane, w in enumerate(widths):
            single = dc_operating_point(build(float(w)))
            assert batched.v("d")[lane] == pytest.approx(
                single.v("d")[0], rel=1e-9)

    def test_converged_lanes_do_not_drift(self):
        # One easy lane, one hard lane: the easy lane's answer must equal
        # its scalar solution exactly.
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", np.array([1.0, 30.0])))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0", i_s=1e-15))
        op = dc_operating_point(c)
        c1 = Circuit("t1")
        c1.add(VoltageSource("V1", "in", "0", 1.0))
        c1.add(Resistor("R1", "in", "d", 1e3))
        c1.add(Diode("D1", "d", "0", i_s=1e-15))
        op1 = dc_operating_point(c1)
        assert op.v("d")[0] == pytest.approx(op1.v("d")[0], rel=1e-6)

    @staticmethod
    def _mismatched_ota(size=256):
        from repro.designs.ota import OTAParameters, build_ota
        rng = np.random.default_rng(3)
        params = OTAParameters.from_normalized(rng.uniform(0, 1, (size, 8)))
        variations = C35.sample(size, rng)
        return build_ota(params, variations=variations)

    def test_newton_stamps_only_moving_lanes(self, monkeypatch):
        stamped = []
        newton_system = Assembler.newton_system

        def spy(self, voltages, **kwargs):
            stamped.append(voltages.shape[0])
            return newton_system(self, voltages, **kwargs)

        monkeypatch.setattr(Assembler, "newton_system", spy)
        op = dc_operating_point(self._mismatched_ota())
        assert len(stamped) == op.iterations
        assert stamped[0] == 256 and stamped[-1] < 128
        assert all(a >= b for a, b in zip(stamped, stamped[1:]))

    def test_lane_subsets_are_bit_identical_to_full_batch(self, monkeypatch):
        subset = dc_operating_point(self._mismatched_ota())
        monkeypatch.setattr(Assembler, "takes_lanes", lambda self: False)
        full = dc_operating_point(self._mismatched_ota())
        assert subset.iterations == full.iterations
        np.testing.assert_array_equal(subset.x, full.x)

    def test_take_lanes(self):
        nmos = C35.nmos
        device = Mosfet("M1", "d", "g", "0", "0", nmos,
                        np.array([10e-6, 20e-6, 30e-6]), 1e-6,
                        delta_vto=np.array([0.01, 0.02, 0.03]))
        view = device.take_lanes(np.array([2, 0]))
        np.testing.assert_array_equal(view.w, [30e-6, 10e-6])
        np.testing.assert_array_equal(view.delta_vto, [0.03, 0.01])
        assert view.l == 1e-6 and view.model is nmos
        np.testing.assert_array_equal(device.w, [10e-6, 20e-6, 30e-6])
        assert Diode("D1", "a", "0").take_lanes(np.array([1])) is not None

    def test_element_without_lane_views_keeps_full_batch(self, monkeypatch):
        monkeypatch.setattr(Mosfet, "take_lanes",
                            lambda self, lanes: None if self.batch_size() > 1
                            else self)
        circuit = self._mismatched_ota()
        assert not Assembler(circuit).takes_lanes()
        op = dc_operating_point(circuit)
        np.testing.assert_array_equal(
            op.x, dc_operating_point(self._mismatched_ota()).x)


class TestSolveBatched:
    def test_stacked_solve(self):
        rng = np.random.default_rng(0)
        matrices = rng.normal(size=(5, 4, 4)) + 4 * np.eye(4)
        rhs = rng.normal(size=(5, 4))
        x = solve_batched(matrices, rhs)
        np.testing.assert_allclose(
            np.einsum("bij,bj->bi", matrices, x), rhs, atol=1e-10)

    def test_singular_raises(self):
        singular = np.zeros((1, 3, 3))
        with pytest.raises(SingularMatrixError):
            solve_batched(singular, np.ones((1, 3)))

    def test_singular_error_names_the_offending_lanes(self):
        # Satellite gate: one bad Monte-Carlo sample must not kill a
        # chunk opaquely -- the error carries exactly the singular lane
        # indices so callers can report, drop, or re-draw them.
        rng = np.random.default_rng(0)
        matrices = rng.normal(size=(5, 3, 3)) + 4 * np.eye(3)
        matrices[1] = 0.0
        matrices[4] = 0.0
        with pytest.raises(SingularMatrixError) as excinfo:
            solve_batched(matrices, np.ones((5, 3)))
        assert excinfo.value.lane_indices == (1, 4)
        assert "lane(s) 1, 4 of 5" in str(excinfo.value)

    def test_singular_lane_report_truncates_long_lists(self):
        matrices = np.zeros((12, 2, 2))
        with pytest.raises(SingularMatrixError) as excinfo:
            solve_batched(matrices, np.ones((12, 2)))
        assert excinfo.value.lane_indices == tuple(range(12))
        assert "(12 total)" in str(excinfo.value)


class TestNewtonOptions:
    def test_option_validation_not_required_but_tolerances_used(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 1.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Resistor("R2", "out", "0", 1e3))
        loose = dc_operating_point(
            c, options=NewtonOptions(reltol=1e-2, vabstol=1e-3))
        assert loose.v("out")[0] == pytest.approx(0.5, abs=1e-2)

    def test_assembler_reuse(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 1.0))
        c.add(Resistor("R1", "in", "0", 1e3))
        assembler = Assembler(c)
        op1 = dc_operating_point(c, assembler=assembler)
        op2 = dc_operating_point(c, assembler=assembler)
        assert op1.assembler is op2.assembler
