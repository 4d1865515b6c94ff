"""DC operating-point solver tests: correctness, homotopies, batching,
and the KCL-residual property on random networks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.dc as dc_module
from repro.analysis import Assembler, ac_analysis, dc_operating_point, mna
from repro.analysis.dc import GMIN_FLOOR
from repro.analysis.mna import solve_batched
from repro.circuit import (Capacitor, Circuit, Diode, Mosfet, Resistor,
                           VoltageSource)
from repro.circuit.mosfet import MosfetBank
from repro.errors import ConvergenceError, SingularMatrixError
from repro.process import C35
from stamp_oracle import oracle_ac_system, oracle_newton_system


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
        # Source stepping scales the sources' right-hand side only.
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Resistor("R2", "out", "0", 1e3))
        assembler = Assembler(c)
        G, rhs = assembler.newton_system(np.zeros((1, assembler.n)),
                                         source_scale=0.5)
        x = solve_batched(G, rhs)
        assert x[0, assembler.topology.index_of("out")] == pytest.approx(2.5)


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

    def test_fallback_runs_only_on_unconverged_lanes(self, monkeypatch):
        # A lane started 150 V off cannot return within the 200-iteration
        # budget at 0.5 V per step, so it needs a fallback; every other
        # lane must keep its plain-Newton solution bit for bit.
        circuit = TestBatching._mismatched_ota(32)
        reference = dc_operating_point(circuit)
        assert reference.strategy == "newton"
        x0 = np.zeros_like(reference.x)
        x0[5] = 150.0
        stamped = []
        newton_system = Assembler.newton_system

        def spy(self, voltages, **kwargs):
            stamped.append(voltages.shape[0])
            return newton_system(self, voltages, **kwargs)

        monkeypatch.setattr(Assembler, "newton_system", spy)
        op = dc_operating_point(circuit, x0=x0)
        assert op.strategy == "source"
        others = np.arange(32) != 5
        assert op.x[others].tobytes() == reference.x[others].tobytes()
        np.testing.assert_allclose(op.x[5], reference.x[5], atol=1e-6)
        # After the first attempt only the hard lane is stamped.
        assert stamped[0] == 32 and stamped.count(1) > 200

    def test_convergence_error_names_the_failing_lanes(self, monkeypatch):
        # A short iteration budget keeps the hopeless lane's three
        # strategies cheap; the NaN lane fails on any budget.
        monkeypatch.setattr(dc_module, "MAX_ITERATIONS", 30)
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", np.array([1.0, np.nan, 2.0])))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0"))
        with pytest.raises(ConvergenceError, match=r"lane\(s\) 1 of 3") \
                as info:
            dc_operating_point(c)
        np.testing.assert_array_equal(info.value.converged_mask,
                                      [True, False, True])

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

    def test_lane_subsets_are_bit_identical_to_full_batch(self):
        # The Newton loop stamps only the moving lanes; its answer must be
        # bit-identical to iterating the whole batch with converged lanes
        # frozen, and each subset system to the full one, row by row.
        subset = dc_operating_point(self._mismatched_ota())
        assembler = subset.assembler
        x = np.zeros((assembler.batch, assembler.n))
        moving = np.ones(assembler.batch, dtype=bool)
        for iteration in range(1, dc_module.MAX_ITERATIONS + 1):
            G, rhs = assembler.newton_system(x, gmin=GMIN_FLOOR)
            dx = np.clip(solve_batched(G, rhs) - x, -dc_module.DV_LIMIT,
                         dc_module.DV_LIMIT)
            tol = dc_module.RELTOL * np.abs(x) + dc_module.VABSTOL
            converged = np.all(np.abs(dx) <= tol, axis=1)
            x = np.where(moving[:, None], x + dx, x)
            moving &= ~converged
            if not moving.any():
                break
        assert subset.strategy == "newton"
        assert subset.iterations == iteration
        assert subset.x.tobytes() == x.tobytes()

        x = subset.x + np.random.default_rng(1).normal(0, 0.05, x.shape)
        lanes = np.array([255, 3, 17, 128, 0, 64])
        G_full, rhs_full = assembler.newton_system(x, gmin=1e-9)
        G, rhs = assembler.newton_system(x[lanes], gmin=1e-9, lanes=lanes)
        assert G.tobytes() == G_full[lanes].tobytes()
        assert rhs.tobytes() == rhs_full[lanes].tobytes()

    def test_bank_indexes_per_lane_parameters_of_a_subset(self):
        nmos = C35.nmos
        device = Mosfet("M1", "d", "g", "0", "0", nmos,
                        np.array([10e-6, 20e-6, 30e-6]), 1e-6,
                        delta_vto=np.array([0.01, 0.02, 0.03]))
        bank = MosfetBank([device], 3)
        vgs = np.array([[0.9, 1.1]])
        vds = np.array([[1.5, -0.3]])
        vbs = np.zeros((1, 2))
        lanes = np.array([2, 0])
        subset = bank.evaluate(vgs, vds, vbs, lanes)
        full = bank.evaluate(np.array([[1.1, 0.0, 0.9]]),
                             np.array([[-0.3, 1.0, 1.5]]),
                             np.zeros((1, 3)))
        for part, whole in zip(subset, full):
            assert part.tobytes() == whole[:, lanes].tobytes()
        np.testing.assert_array_equal(device.w, [10e-6, 20e-6, 30e-6])

    def test_mixed_scalar_and_batched_devices_take_lane_subsets(self):
        # Scalar devices, per-lane devices and diodes in one batched
        # circuit: the bank broadcasts scalar parameters to every lane,
        # so a lane subset still matches the full batch bit for bit.
        c = Circuit("mixed")
        c.add(VoltageSource("VDD", "vdd", "0", np.linspace(2.5, 3.3, 5)))
        c.add(VoltageSource("VG", "g", "0", 1.0))
        c.add(Resistor("RD", "vdd", "d", 1e4))
        c.add(Mosfet("M1", "d", "g", "s", "0", C35.nmos, 10e-6, 1e-6))
        c.add(Mosfet("M2", "s", "g", "0", "0", C35.nmos,
                     np.linspace(5e-6, 25e-6, 5), 1e-6))
        c.add(Diode("D1", "d", "s"))
        op = dc_operating_point(c)
        lanes = np.array([4, 1])
        G_full, rhs_full = op.assembler.newton_system(op.x)
        G, rhs = op.assembler.newton_system(op.x[lanes], lanes=lanes)
        assert G.tobytes() == G_full[lanes].tobytes()
        assert rhs.tobytes() == rhs_full[lanes].tobytes()

    def test_singular_lane_in_a_subset_is_reported_in_batch_terms(
            self, monkeypatch):
        # Lane 2 of 4 converges late; make its Newton system singular
        # once the others have stopped and the system holds lanes
        # [1, 2] only: the error must still name batch lane 2.
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", np.array([1.0, 30.0, 30.0,
                                                          1.0])))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0", i_s=1e-15))
        newton_system = Assembler.newton_system

        def poisoned(self, voltages, **kwargs):
            G, rhs = newton_system(self, voltages, **kwargs)
            lanes = kwargs.get("lanes")
            if lanes is not None and 2 in lanes:
                G[list(lanes).index(2)] = 0.0
            return G, rhs

        monkeypatch.setattr(Assembler, "newton_system", poisoned)
        with pytest.raises(SingularMatrixError) as excinfo:
            dc_operating_point(c)
        assert excinfo.value.lane_indices == (2,)


class TestDeviceBankOracle:
    """The compiled device banks against device-by-device stamping:
    ``G``, ``rhs`` and ``C`` must be bit-identical."""

    @staticmethod
    def _ota(size, seed=3):
        from repro.designs.ota import OTAParameters, build_ota
        rng = np.random.default_rng(seed)
        params = OTAParameters.from_normalized(rng.uniform(0, 1, (size, 8)))
        return build_ota(params, variations=C35.sample(size, rng))

    @staticmethod
    def _assert_same(assembler, voltages, **kwargs):
        G, rhs = assembler.newton_system(voltages, **kwargs)
        G_ref, rhs_ref = oracle_newton_system(assembler, voltages, **kwargs)
        assert G.tobytes() == G_ref.tobytes()
        assert rhs.tobytes() == rhs_ref.tobytes()

    @staticmethod
    def _assert_same_ac(assembler, voltages):
        G, C, _ = assembler.ac_system(voltages)
        G_ref, C_ref = oracle_ac_system(assembler, voltages)
        assert G.tobytes() == G_ref.tobytes()
        assert C.tobytes() == C_ref.tobytes()

    @pytest.mark.parametrize("size", [1, 16, 300])
    def test_mismatched_ota(self, size):
        op = dc_operating_point(self._ota(size))
        self._assert_same(op.assembler, op.x)
        self._assert_same(op.assembler, op.x, gmin=1e-12)
        self._assert_same_ac(op.assembler, op.x)

    def test_off_solution_and_zero_voltages(self):
        # Random node voltages put devices in reverse mode and forward-
        # bias bulk junctions past the clamp of the body term.
        circuit = self._ota(300)
        assembler = Assembler(circuit)
        x = np.random.default_rng(5).uniform(-3.0, 3.0,
                                             (300, assembler.n))
        reversed_lanes = clamped = 0
        for device in circuit.nonlinear_elements():
            _, vds, vbs = device._terminal_voltages(x)
            sign = 1.0 if device.model.polarity == "n" else -1.0
            nvds, nvbs = sign * vds, sign * vbs
            reversed_lanes += np.count_nonzero(nvds < 0)
            e_vbs = np.where(nvds < 0, nvbs - nvds, nvbs)
            clamped += np.count_nonzero(device.model.phi - e_vbs < 1e-3)
        assert reversed_lanes and clamped
        for voltages in (x, np.zeros_like(x)):
            self._assert_same(assembler, voltages)
            self._assert_same_ac(assembler, voltages)

    def test_scalar_and_batched_parameters(self):
        from repro.designs.ota import OTAParameters, build_ota
        params = OTAParameters.from_array(
            np.array([30e-6, 1e-6, 60e-6, 1e-6, 10e-6, 2e-6, 20e-6, 2e-6]))
        scalar = dc_operating_point(build_ota(params))
        assert scalar.x.shape[0] == 1
        self._assert_same(scalar.assembler, scalar.x)
        self._assert_same_ac(scalar.assembler, scalar.x)
        # Scalar device parameters in a batch set by the sources alone.
        supply = np.linspace(2.8, 3.6, 7)
        batched = build_ota(params, variations=None)
        batched.element("VDD").dc = supply
        batched.invalidate()
        op = dc_operating_point(batched)
        assert op.x.shape[0] == 7
        self._assert_same(op.assembler, op.x)
        self._assert_same_ac(op.assembler, op.x)

    def test_source_scale_and_gmin(self):
        op = dc_operating_point(self._ota(16))
        self._assert_same(op.assembler, 0.5 * op.x, source_scale=0.25,
                          gmin=1e-3)

    def test_lane_subsets(self):
        op = dc_operating_point(self._ota(300))
        x = op.x + np.random.default_rng(2).normal(0, 0.2, op.x.shape)
        for lanes in (np.array([299, 0, 150, 7]), np.arange(1, 300, 2)):
            self._assert_same(op.assembler, x[lanes], lanes=lanes,
                              gmin=1e-9)

    def test_section5_filter(self):
        from repro.designs.filter2 import FilterCaps, build_filter_transistor
        from repro.designs.ota import OTAParameters
        rng = np.random.default_rng(9)
        params = OTAParameters.from_normalized(rng.uniform(0, 1, (20, 8)))
        circuit = build_filter_transistor(
            FilterCaps(), params, variations=C35.sample(20, rng))
        op = dc_operating_point(circuit)
        self._assert_same(op.assembler, op.x, gmin=1e-12)
        self._assert_same_ac(op.assembler, op.x)

    def test_lane_blocks(self, monkeypatch):
        from repro.analysis import mna
        monkeypatch.setattr(mna, "LANE_BLOCK", 7)
        op = dc_operating_point(self._ota(40))
        lanes = np.arange(39, 0, -3)
        self._assert_same(op.assembler, op.x, gmin=1e-12)
        self._assert_same(op.assembler, op.x[lanes], lanes=lanes)
        self._assert_same_ac(op.assembler, op.x)

    def test_diode_and_mosfet_sharing_nodes(self):
        # Diodes and MOSFETs live in different banks but add to the same
        # matrix entries; the merged pattern must keep element order.
        c = Circuit("mixed")
        c.add(VoltageSource("VDD", "vdd", "0", 3.3))
        c.add(VoltageSource("VG", "g", "0", 1.2))
        c.add(Resistor("RD", "vdd", "d", 1e4))
        c.add(Diode("D1", "d", "s", cj0=1e-12))
        c.add(Mosfet("M1", "d", "g", "s", "0", C35.nmos,
                     np.array([10e-6, 20e-6, 30e-6, 40e-6]), 1e-6))
        c.add(Diode("D2", "s", "0", i_s=1e-15))
        c.add(Mosfet("M2", "s", "g", "d", "0", C35.pmos, 20e-6, 2e-6))
        c.add(Diode("D3", "d", "s", n=1.5, cj0=2e-13))
        op = dc_operating_point(c)
        assembler = op.assembler
        rng = np.random.default_rng(6)
        for x in (op.x,
                  rng.uniform(-1.0, 3.3, (4, assembler.n))):
            self._assert_same(assembler, x, gmin=1e-12)
            self._assert_same_ac(assembler, x)


class TestStampPlanMemo:
    """Circuits of one topology share one compiled stamp plan."""

    @staticmethod
    def _systems(circuit, x):
        assembler = Assembler(circuit)
        G, rhs = assembler.newton_system(x, gmin=1e-12)
        return (G, rhs) + assembler.ac_system(x)[:2]

    def test_cleared_and_reused_memo_give_equal_systems(self):
        circuit = TestDeviceBankOracle._ota(40)
        x = dc_operating_point(circuit).x
        mna._stamp_plan.cache_clear()
        cold = self._systems(circuit, x)
        assert mna._stamp_plan.cache_info().misses == 1
        warm = self._systems(circuit, x)
        assert mna._stamp_plan.cache_info().hits == 1
        for fresh, reused in zip(cold, warm):
            assert fresh.tobytes() == reused.tobytes()

    def test_plan_follows_topology_not_values(self):
        from repro.designs.miller import MillerParameters, build_miller_ota
        ota = Assembler(TestDeviceBankOracle._ota(4)).devices()
        other = Assembler(TestDeviceBankOracle._ota(9, seed=8)).devices()
        miller = Assembler(build_miller_ota(MillerParameters())).devices()
        assert other.patterns is ota.patterns
        assert miller.patterns is not ota.patterns
        assert miller.rows != ota.rows

    def test_diode_capacitance_is_part_of_the_topology(self):
        def diode(cj0):
            c = Circuit("d")
            c.add(VoltageSource("V1", "a", "0", 0.6))
            c.add(Diode("D1", "a", "0", cj0=cj0))
            return Assembler(c).devices().patterns["ac"]

        assert diode(1e-12) is diode(2e-12)
        assert diode(0.0) is not diode(1e-12)

    def test_memo_stays_bounded(self):
        def ladder(k):
            c = Circuit(f"ladder {k}")
            c.add(VoltageSource("V1", "n0", "0", 1.0))
            for i in range(k):
                c.add(Diode(f"D{i}", f"n{i}", f"n{i + 1}"))
            c.add(Resistor("R1", f"n{k}", "0", 1e3))
            return c

        for k in range(1, mna.PLAN_MEMO_SIZE + 6):
            Assembler(ladder(k)).devices()
        assert mna._stamp_plan.cache_info().currsize == mna.PLAN_MEMO_SIZE


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
    def test_assembler_reuse(self):
        # AC analysis reuses the assembler its operating point built.
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 1.0, ac_mag=1.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Capacitor("C1", "out", "0", 1e-9))
        op = dc_operating_point(c)
        assert ac_analysis(c, [1e3], op=op).assembler is op.assembler

    def test_option_validation_not_required_but_tolerances_used(
            self, monkeypatch):
        # The Newton loop reads its tolerances from the module constants.
        monkeypatch.setattr(dc_module, "RELTOL", 1e-2)
        monkeypatch.setattr(dc_module, "VABSTOL", 1e-3)
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", 1.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Resistor("R2", "out", "0", 1e3))
        loose = dc_operating_point(c)
        assert loose.v("out")[0] == pytest.approx(0.5, abs=1e-2)
