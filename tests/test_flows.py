"""Integration tests of the end-to-end flows (reduced scale)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.flow import (FilterFlowConfig, FlowConfig, load_flow_arrays,
                        rebuild_model, reduced_config, run_filter_flow,
                        run_model_build_flow, save_flow_artifacts)
from repro.measure import Spec, SpecSet
from repro.telemetry import SimulationLedger, load_events, span_tree
from repro.telemetry.render import span_ledger
from repro.yieldmodel import estimate_yield


class TestModelBuildFlow:
    def test_front_is_monotone_tradeoff(self, reduced_flow):
        objectives = reduced_flow.pareto_objectives
        assert np.all(np.diff(objectives[:, 0]) > 0)   # gain ascending
        assert np.all(np.diff(objectives[:, 1]) <= 1e-9)  # pm descending

    def test_variation_columns_positive(self, reduced_flow):
        for column in reduced_flow.variation.values():
            assert np.all(column > 0)
            assert np.all(column < 20.0)  # sanity: below 20%

    def test_mc_sample_shapes(self, reduced_flow):
        k = reduced_flow.pareto_count
        s = reduced_flow.config.mc_samples
        for data in reduced_flow.mc_samples.values():
            assert data.shape == (k, s)

    def test_ledger_accounts_for_all_stages(self, reduced_flow):
        stages = set(reduced_flow.ledger.stages)
        assert "multi-objective optimisation" in stages
        assert "monte-carlo variation analysis" in stages
        expected_moo = (reduced_flow.config.generations
                        * reduced_flow.config.population)
        assert reduced_flow.ledger.stages[
            "multi-objective optimisation"].simulations == expected_moo

    def test_table2_rows_structure(self, reduced_flow):
        rows = reduced_flow.table2_rows(6)
        assert 2 <= len(rows) <= 6
        for row in rows:
            assert set(row) == {"design", "gain_db", "dgain_pct",
                                "pm_deg", "dpm_pct"}
        gains = [r["gain_db"] for r in rows]
        assert gains == sorted(gains)

    def test_ro_column_plausible(self, reduced_flow):
        assert np.all(reduced_flow.ro_ohms > 1e4)
        assert np.all(reduced_flow.ro_ohms < 1e8)

    def test_model_queries_work(self, combined_model):
        lo, hi = combined_model.table.key_range("gain_db")
        mid = 0.5 * (lo + hi)
        variation = combined_model.variation_at("gain_db", mid)
        assert 0 < variation < 10
        params = combined_model.parameters_at("gain_db", mid)
        assert set(params) == {"w1", "l1", "w2", "l2", "w3", "l3",
                               "w4", "l4"}

    def test_reproducible_across_runs(self, reduced_flow):
        again = run_model_build_flow(reduced_config())
        np.testing.assert_array_equal(again.pareto_objectives,
                                      reduced_flow.pareto_objectives)
        np.testing.assert_array_equal(
            again.variation["gain_db_delta_pct"],
            reduced_flow.variation["gain_db_delta_pct"])

    def test_seed_changes_results(self):
        other = run_model_build_flow(reduced_config(seed=77))
        base = run_model_build_flow(reduced_config())
        assert other.pareto_objectives.shape != base.pareto_objectives.shape \
            or not np.allclose(other.pareto_objectives,
                               base.pareto_objectives)


class TestYieldTargetingIntegration:
    def test_guard_banded_design_actually_yields(self, combined_model):
        """The paper's core claim at reduced scale: the guard-banded
        design passes its spec in a fresh Monte Carlo."""
        from repro.designs.ota import OTAParameters, evaluate_ota
        from repro.mc import MCConfig, monte_carlo
        from repro.process import C35

        lo, hi = combined_model.table.key_range("gain_db")
        spec_gain = lo + 0.6 * (hi - lo)
        specs = SpecSet([Spec("gain_db", "ge", spec_gain, "dB")])
        # Snap to a real front point: the reduced front is too sparse for
        # parameter interpolation (see design_for_specs docstring).
        design = combined_model.design_for_specs(specs, strategy="snap")
        params = OTAParameters(**design.parameters)

        def evaluator(sample):
            tiled = OTAParameters.from_array(
                np.broadcast_to(params.to_array(), (sample.size, 8)))
            return evaluate_ota(tiled, variations=sample)

        population = monte_carlo(evaluator, C35,
                                 MCConfig(n_samples=200, seed=123))
        estimate = estimate_yield(population, specs)
        assert estimate.fraction >= 0.98

    def test_unguarded_design_yields_less(self, reduced_flow):
        """Ablation: a design whose *nominal* performance sits exactly at
        the spec (no guard band) loses roughly half its dice -- the yield
        loss the paper's guard-banding eliminates."""
        from repro.designs.ota import OTAParameters, evaluate_ota
        from repro.mc import MCConfig, monte_carlo
        from repro.process import C35

        # Take a real front point and spec its own nominal gain.
        index = int(0.6 * (reduced_flow.pareto_count - 1))
        naive_params = OTAParameters.from_array(
            reduced_flow.pareto_parameters[index])
        spec_gain = float(reduced_flow.pareto_objectives[index, 0])
        specs = SpecSet([Spec("gain_db", "ge", spec_gain, "dB")])

        def evaluator(sample):
            tiled = OTAParameters.from_array(np.broadcast_to(
                naive_params.to_array(), (sample.size, 8)))
            return evaluate_ota(tiled, variations=sample)

        population = monte_carlo(evaluator, C35,
                                 MCConfig(n_samples=200, seed=123))
        naive = estimate_yield(population, specs)
        # Nominal design sits *at* the limit: ~50% of dice fall below.
        assert 0.15 <= naive.fraction <= 0.85


class TestArtifacts:
    def test_save_and_rebuild(self, reduced_flow, tmp_path):
        written = save_flow_artifacts(reduced_flow, tmp_path)
        assert (tmp_path / "flow_result.npz").exists()
        assert (tmp_path / "flow_summary.json").exists()
        assert (tmp_path / "ota_yield_model.va").exists()

        model = rebuild_model(tmp_path)
        lo, hi = model.table.key_range("gain_db")
        mid = 0.5 * (lo + hi)
        assert model.variation_at("gain_db", mid) == pytest.approx(
            reduced_flow.model.variation_at("gain_db", mid))
        params_a = model.parameters_at("gain_db", mid)
        params_b = reduced_flow.model.parameters_at("gain_db", mid)
        for key in params_a:
            assert params_a[key] == pytest.approx(params_b[key])

    def test_summary_json_contents(self, reduced_flow, tmp_path):
        save_flow_artifacts(reduced_flow, tmp_path)
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        assert summary["pdk"] == "c35"
        assert summary["pareto_points"] == reduced_flow.pareto_count
        assert any(row["stage"] == "TOTAL" for row in summary["ledger"])

    def test_load_arrays(self, reduced_flow, tmp_path):
        save_flow_artifacts(reduced_flow, tmp_path)
        arrays = load_flow_arrays(tmp_path)
        np.testing.assert_array_equal(arrays["pareto_objectives"],
                                      reduced_flow.pareto_objectives)
        assert "mc_gain_db" in arrays


class TestFilterFlow:
    @pytest.fixture(scope="class")
    def filter_result(self, combined_model):
        return run_filter_flow(
            combined_model,
            FilterFlowConfig(verification_samples=150, seed=2008))

    def test_caps_within_bounds(self, filter_result):
        from repro.designs.filter2 import FilterCaps
        caps = filter_result.caps.to_array()
        for value, (lo, hi) in zip(caps, FilterCaps.BOUNDS, strict=True):
            assert lo <= value <= hi

    def test_nominal_meets_mask(self, filter_result):
        spec = filter_result.config.spec
        assert filter_result.nominal_performance["ripple_db"] <= \
            spec.max_ripple_db
        assert filter_result.nominal_performance["atten_db"] >= \
            spec.min_atten_db

    def test_transistor_verification_close_to_behavioral(self, filter_result):
        behavioral = filter_result.nominal_performance
        transistor = filter_result.transistor_performance
        assert behavioral["f3db_hz"] == pytest.approx(
            transistor["f3db_hz"], rel=0.2)

    def test_yield_high(self, filter_result):
        assert filter_result.yield_estimate.fraction >= 0.95

    def test_ota_guard_band_applied(self, filter_result):
        target = filter_result.ota_design.targets["gain_db"]
        assert target.new_value > target.required

    def test_ledger_separates_design_from_verification(self, filter_result):
        stages = filter_result.ledger.stages
        assert stages["filter optimisation (behavioural)"].simulations > 0
        verification = stages["transistor verification (monte carlo)"]
        assert verification.simulations == 150


class TestSelectCapacitors:
    """Regression tests for the feasibility/guard mismatch in
    _select_capacitors (IndexError on an exactly-zero best margin)."""

    ARGS = dict(ota_gain_db=55.0, ota_ro=2.0e6,
                parasitic_pole_hz=50e6, cap_corner_scale=0.12)

    def _select(self, front_unit, front_obj):
        from repro.designs.filter2 import FilterSpec
        from repro.flow.filter_flow import _select_capacitors
        return _select_capacitors(np.asarray(front_unit),
                                  np.asarray(front_obj),
                                  spec=FilterSpec(), **self.ARGS)

    def test_zero_best_margin_returns_best_nominal(self):
        # Used to raise IndexError: the guard tested `< 0` while the
        # feasibility filter demanded `> 0`, so a front whose best
        # worst-margin is exactly 0 produced an empty candidate list.
        chosen = self._select([[0.5, 0.5, 0.5]], [[0.0, 0.4]])
        assert chosen == 0

    def test_zero_margin_candidate_ranked_by_worst_margin(self):
        front_obj = [[0.0, 0.4], [0.2, 0.3]]
        front_unit = [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]
        assert self._select(front_unit, front_obj) in (0, 1)

    def test_negative_best_margin_still_raises(self):
        from repro.errors import YieldModelError
        with pytest.raises(YieldModelError, match="no capacitor choice"):
            self._select([[0.5, 0.5, 0.5]], [[-0.1, 0.4]])


class TestAccounting:
    def test_ledger_math(self):
        ledger = SimulationLedger()
        with ledger.timed("a", 100):
            pass
        with ledger.timed("b", 10):
            pass
        with ledger.timed("a") as row:
            row.simulations += 50
        assert ledger.stages["a"].simulations == 150
        assert ledger.total_simulations == 160
        assert ledger.total_seconds == pytest.approx(sum(
            record.wall_seconds for record in ledger.stages.values()))
        rows = ledger.as_rows()
        assert [row[0] for row in rows] == ["a", "b", "TOTAL"]
        assert "a" in ledger.table()

    def test_timed_context(self):
        ledger = SimulationLedger()
        with ledger.timed("stage", 5) as row:
            assert row.simulations == 5
        assert ledger.stages["stage"].simulations == 5
        assert ledger.stages["stage"].wall_seconds == row.wall_seconds
        assert row.wall_seconds >= 0

    def test_row_recorded_when_the_block_raises(self):
        ledger = SimulationLedger()
        with pytest.raises(RuntimeError):
            with ledger.timed("stage") as row:
                row.simulations += 7
                raise RuntimeError("simulator died")
        assert ledger.stages["stage"].simulations == 7


class TestYieldSearchStage:
    """Stage 7: the in-loop yield search on both seed designs."""

    @pytest.fixture(scope="class")
    def yield_flow(self, tmp_path_factory):
        config = dataclasses.replace(
            reduced_config(),
            yield_objective="yield", yield_target=0.90,
            yield_generations=4, yield_population=10,
            corners="tm", corner_vdds=(3.3,), corner_temps=(27.0,),
            telemetry=str(tmp_path_factory.mktemp("yield-flow")
                          / "events.jsonl"))
        return run_model_build_flow(config)

    def test_both_seed_designs_get_annotated_fronts(self, yield_flow):
        for search in (yield_flow.yield_search,
                       yield_flow.filter_yield_search):
            assert search is not None
            assert search.front_count() > 0
            annotations = search.front_annotations()
            assert annotations["yield"].shape == (search.front_count(),)
            assert np.all((annotations["fidelity"] >= 0)
                          & (annotations["fidelity"] <= 2))

    def test_augmented_objective_names(self, yield_flow):
        assert yield_flow.yield_search.objective_names == \
            ("gain_db", "pm_deg", "yield_frac")
        assert yield_flow.filter_yield_search.objective_names == \
            ("ripple_margin", "atten_margin", "yield_frac")

    def test_ladder_costs_in_flow_ledger(self, yield_flow):
        stages = set(yield_flow.ledger.stages)
        assert "yield ladder: corner bounds" in stages
        assert "yield search: nominal evaluations" in stages
        ladder_sims = sum(record.simulations
                          for name, record in
                          yield_flow.ledger.stages.items()
                          if name.startswith("yield ladder:"))
        assert ladder_sims == (yield_flow.yield_search.counts.total_sims
                               + yield_flow.filter_yield_search
                                 .counts.total_sims)

    def test_every_ledger_row_is_a_span(self, yield_flow):
        roots = span_tree(load_events(yield_flow.config.telemetry))
        # Seconds included: the trace rebuilds the ledger exactly.
        assert span_ledger(roots).as_rows() == yield_flow.ledger.as_rows()

        def stage_spans(node, parent=None):
            if node.name == "flow.stage":
                yield node, parent
            for child in node.children:
                yield from stage_spans(child, node)

        rows = {}
        for node, parent in stage_spans(roots[0]):
            if "simulations" in node.attrs:
                rows.setdefault(node.attrs["stage"], set()).add(
                    parent.attrs.get("stage"))
        assert set(rows) == set(yield_flow.ledger.stages)
        # The searches' rows sit under the plain search spans, never
        # under another ledger row.
        searches = {"yield search (OTA)", "yield search (filter2)"}
        assert rows["yield search: nominal evaluations"] == searches
        for stage, parents in rows.items():
            if stage.startswith("yield ladder:"):
                assert parents <= searches
            elif not stage.startswith("yield search:"):
                assert parents == {None}

    def test_artifacts_include_yield_fronts(self, yield_flow, tmp_path):
        written = save_flow_artifacts(yield_flow, tmp_path)
        assert written["yield_front"].exists()
        assert written["filter_yield_front"].exists()
        report = written["yield_front"].read_text()
        assert "yield-annotated Pareto front" in report
        assert "target yield" in report
        arrays = load_flow_arrays(tmp_path)
        points = yield_flow.yield_search.front_count()
        assert arrays["yield_front_objectives"].shape == (points, 3)
        assert arrays["yield_front_yield"].shape == (points,)
        assert arrays["filter_yield_front_objectives"].shape[1] == 3
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        assert summary["yield_search"]["mode"] == "yield"
        assert len(summary["filter_yield_search"]["ladder"]
                   ["sims_per_fidelity"]) == 3

    def test_disabled_by_default(self, reduced_flow):
        assert reduced_flow.yield_search is None
        assert reduced_flow.filter_yield_search is None


class TestStreamingVerificationStage:
    """Stage 4c: the streaming adaptive yield verification."""

    @pytest.fixture(scope="class")
    def streaming_flow(self):
        config = dataclasses.replace(
            reduced_config(), generations=6,
            adaptive_ci=0.10, adaptive_max_samples=1000,
            adaptive_chunk_lanes=32,
            corners="tm", corner_vdds=(3.3,), corner_temps=(27.0,))
        return run_model_build_flow(config)

    def test_stage_runs_and_stops_adaptively(self, streaming_flow):
        streaming = streaming_flow.streaming_verification
        assert streaming is not None
        assert streaming.complete
        assert streaming.counter is not None
        assert streaming.counter.total == streaming.samples_done
        lo, hi = streaming.counter.interval()
        if streaming.stopped_early:
            assert hi - lo <= 0.10
            assert streaming.samples_done < streaming.samples_cap

    def test_costs_in_flow_ledger(self, streaming_flow):
        record = streaming_flow.ledger.stages[
            "streaming yield verification"]
        assert record.simulations == \
            streaming_flow.streaming_verification.samples_done

    def test_artifacts_include_report(self, streaming_flow, tmp_path):
        written = save_flow_artifacts(streaming_flow, tmp_path)
        assert written["streaming_verification"].exists()
        report = written["streaming_verification"].read_text()
        assert "yield" in report and "gain_db" in report
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        entry = summary["streaming_verification"]
        assert entry["total"] == \
            streaming_flow.streaming_verification.samples_done
        assert entry["wilson_interval"][0] <= entry["wilson_interval"][1]

    def test_disabled_by_default(self, reduced_flow):
        assert reduced_flow.streaming_verification is None

    def test_stale_checkpoint_from_other_front_rejected(self, tmp_path):
        # The checkpoint fingerprint binds the verified design (via the
        # stage key): a build whose front differs must refuse to resume
        # another build's verification rather than report its yield.
        from repro.errors import ReproError
        checkpoint = tmp_path / "verify.ckpt.npz"
        base = dataclasses.replace(
            reduced_config(), generations=6,
            adaptive_ci=0.15, adaptive_max_samples=500,
            adaptive_chunk_lanes=32,
            streaming_checkpoint=str(checkpoint),
            corners="none")
        run_model_build_flow(base)
        assert checkpoint.exists()
        with pytest.raises(ReproError, match="incompatible"):
            run_model_build_flow(
                dataclasses.replace(base, generations=8))


class TestHighSigmaStage:
    """Stage 4d: the rare-event high-sigma verification."""

    @pytest.fixture(scope="class")
    def high_sigma_flow(self):
        config = dataclasses.replace(
            reduced_config(), generations=6,
            high_sigma=True, high_sigma_per_level=200,
            high_sigma_final=300, mc_chunk_lanes=128,
            corners="tm", corner_vdds=(3.3,), corner_temps=(27.0,))
        return run_model_build_flow(config)

    def test_stage_runs_and_reports(self, high_sigma_flow):
        result = high_sigma_flow.high_sigma
        assert result is not None
        assert result.n_levels >= 1
        assert 0.0 <= result.p_fail <= 1.0
        assert result.n_final == 300
        assert all(level.n_samples == 200 for level in result.levels)

    def test_costs_in_flow_ledger(self, high_sigma_flow):
        record = high_sigma_flow.ledger.stages["high-sigma verification"]
        assert record.simulations == \
            high_sigma_flow.high_sigma.total_simulations

    def test_artifacts_include_report(self, high_sigma_flow, tmp_path):
        written = save_flow_artifacts(high_sigma_flow, tmp_path)
        assert written["high_sigma"].exists()
        report = written["high_sigma"].read_text()
        assert "p_fail" in report and "sigma" in report
        summary = json.loads((tmp_path / "flow_summary.json").read_text())
        entry = summary["high_sigma"]
        assert entry["p_fail"] == high_sigma_flow.high_sigma.p_fail
        assert entry["total_simulations"] == \
            high_sigma_flow.high_sigma.total_simulations
        assert entry["interval"][0] <= entry["interval"][1]
        assert len(entry["acceptance_rates"]) == \
            high_sigma_flow.high_sigma.n_levels

    def test_disabled_by_default(self, reduced_flow):
        assert reduced_flow.high_sigma is None
