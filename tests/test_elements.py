"""Per-element behavioural tests against hand-solvable circuits."""

import numpy as np
import pytest

from repro.analysis import ac_analysis, dc_operating_point
from repro.circuit import (CCCS, CCVS, VCCS, VCVS, Capacitor, CurrentSource,
                           Diode, Inductor, Resistor, VoltageSource)
from repro.circuit.netlist import Circuit


def solve(circuit):
    return dc_operating_point(circuit)


class TestResistorNetworks:
    def test_divider(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Resistor("R2", "out", "0", 3e3))
        op = solve(c)
        assert op.v("out")[0] == pytest.approx(7.5)

    def test_parallel_resistors(self):
        c = Circuit("t")
        c.add(CurrentSource("I1", "0", "n", 1e-3))
        c.add(Resistor("R1", "n", "0", 2e3))
        c.add(Resistor("R2", "n", "0", 2e3))
        op = solve(c)
        assert op.v("n")[0] == pytest.approx(1.0)

    def test_wheatstone_bridge_balanced(self):
        c = Circuit("bridge")
        c.add(VoltageSource("V1", "top", "0", 5.0))
        c.add(Resistor("R1", "top", "a", 1e3))
        c.add(Resistor("R2", "a", "0", 1e3))
        c.add(Resistor("R3", "top", "b", 2e3))
        c.add(Resistor("R4", "b", "0", 2e3))
        c.add(Resistor("Rg", "a", "b", 5e2))
        op = solve(c)
        assert op.v("a")[0] == pytest.approx(op.v("b")[0])


class TestSources:
    def test_voltage_source_branch_current(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "n", "0", 10.0))
        c.add(Resistor("R1", "n", "0", 1e3))
        op = solve(c)
        # SPICE convention: current flows plus -> through source -> minus,
        # so a sourcing supply shows -10 mA.
        assert op.branch_current("V1")[0] == pytest.approx(-0.01)

    def test_current_source_direction(self):
        c = Circuit("t")
        c.add(CurrentSource("I1", "0", "n", 1e-3))  # pushes into n
        c.add(Resistor("R1", "n", "0", 1e3))
        op = solve(c)
        assert op.v("n")[0] == pytest.approx(1.0)

    def test_series_voltage_sources(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "a", "0", 3.0))
        c.add(VoltageSource("V2", "b", "a", 2.0))
        c.add(Resistor("R1", "b", "0", 1e3))
        op = solve(c)
        assert op.v("b")[0] == pytest.approx(5.0)


class TestReactiveElements:
    def test_capacitor_open_in_dc(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Capacitor("C1", "out", "0", 1e-9))
        op = solve(c)
        assert op.v("out")[0] == pytest.approx(10.0)  # no DC current

    def test_inductor_short_in_dc(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "mid", 1e3))
        c.add(Inductor("L1", "mid", "out", 1e-3))
        c.add(Resistor("R2", "out", "0", 1e3))
        op = solve(c)
        assert op.v("mid")[0] == pytest.approx(op.v("out")[0])
        assert op.v("out")[0] == pytest.approx(5.0)

    def test_lc_resonance(self):
        # Series RLC driven at resonance: inductor and capacitor voltages
        # cancel, the full drive appears across R.
        c = Circuit("rlc")
        c.add(VoltageSource("V1", "in", "0", 0.0, ac_mag=1.0))
        c.add(Resistor("R1", "in", "a", 50.0))
        c.add(Inductor("L1", "a", "b", 1e-6))
        c.add(Capacitor("C1", "b", "0", 1e-9))
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-6 * 1e-9))
        res = ac_analysis(c, [f0])
        v_r = 1.0 - res.v("a")[0, 0]
        assert abs(v_r) == pytest.approx(1.0, rel=1e-6)


class TestControlledSources:
    def test_vcvs(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 2.0))
        c.add(VCVS("E1", "out", "0", "in", "0", 5.0))
        c.add(Resistor("RL", "out", "0", 1e3))
        op = solve(c)
        assert op.v("out")[0] == pytest.approx(10.0)

    def test_vccs(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 2.0))
        c.add(VCCS("G1", "0", "out", "in", "0", 1e-3))  # 2mA into out
        c.add(Resistor("RL", "out", "0", 1e3))
        op = solve(c)
        assert op.v("out")[0] == pytest.approx(2.0)

    def test_cccs(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 1.0))
        c.add(Resistor("R1", "in", "0", 1e3))  # 1mA through V1
        c.add(CCCS("F1", "0", "out", "V1", 2.0))
        c.add(Resistor("RL", "out", "0", 1e3))
        op = solve(c)
        # Branch current of V1 is -1mA (sourcing); F multiplies it.
        assert op.v("out")[0] == pytest.approx(-2.0)

    def test_ccvs(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 1.0))
        c.add(Resistor("R1", "in", "0", 1e3))
        c.add(CCVS("H1", "out", "0", "V1", 1e3))
        c.add(Resistor("RL", "out", "0", 1e6))
        op = solve(c)
        assert op.v("out")[0] == pytest.approx(-1.0, rel=1e-3)

    def test_control_source_must_be_voltage_source(self):
        from repro.errors import NetlistError
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 1.0))
        c.add(Resistor("R1", "in", "0", 1e3))
        c.add(CCCS("F1", "0", "out", "R1", 2.0))
        c.add(Resistor("RL", "out", "0", 1e3))
        with pytest.raises(NetlistError, match="branch current"):
            solve(c)


class TestDiode:
    def test_forward_drop(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 5.0))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0"))
        op = solve(c)
        assert 0.5 < op.v("d")[0] < 0.8

    def test_reverse_blocking(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", -5.0))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0"))
        op = solve(c)
        # Reverse: essentially no current, node follows the source.
        assert op.v("d")[0] == pytest.approx(-5.0, abs=1e-3)

    def test_current_matches_shockley(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 3.0))
        c.add(Resistor("R1", "in", "d", 1e4))
        c.add(Diode("D1", "d", "0", i_s=1e-14))
        op = solve(c)
        vd = op.v("d")[0]
        i_r = (3.0 - vd) / 1e4
        i_d = 1e-14 * (np.exp(vd / 0.025852) - 1.0)
        assert i_d == pytest.approx(i_r, rel=1e-4)

    def test_op_info(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 5.0))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0"))
        op = solve(c)
        info = op.device("D1")
        assert info["id"][0] > 0
        assert info["gd"][0] > 0
