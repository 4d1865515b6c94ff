"""Telemetry subsystem tests: tracer, metrics, sink, renderers, wiring.

The contracts gated here:

* spans nest identically across the serial, thread and process
  execution backends (the ``bind_task`` span-context handoff);
* the disabled path is inert -- ``span()`` returns the shared no-op
  singleton, ``bind_task`` is the identity, no sink exists -- and
  enabling telemetry never changes numeric results (bit-identical
  Monte-Carlo populations on/off);
* the JSONL sink is append-only, rotation-capped and tolerant of torn
  final lines;
* ``repro trace`` rebuilds the flow's :class:`SimulationLedger` table
  exactly from the ``flow.stage`` spans its rows are recorded on.
"""

import dataclasses
import json

import pytest

from repro import telemetry
from repro.mc import MCConfig, monte_carlo
from repro.process import C35
from repro.telemetry import (NULL_SPAN, EventSink, MetricsRegistry,
                             SimulationLedger, load_events, render_trace,
                             span_tree)
from repro.telemetry.render import span_ledger


def evaluator(sample):
    return {"m": 10.0 + 100.0 * sample.dvto_n}


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Each test starts disabled and leaves no sink behind."""
    telemetry.shutdown()
    yield
    telemetry.shutdown()


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.counter_add("hits")
        registry.counter_add("hits", 4)
        assert registry.counter_value("hits") == 5
        assert registry.snapshot()["counters"] == {"hits": 5}

    def test_gauges_keep_timestamped_history(self):
        registry = MetricsRegistry()
        registry.gauge_set("bytes", 10.0)
        registry.gauge_set("bytes", 20.0)
        samples = registry.gauge_samples("bytes")
        assert [value for _, value in samples] == [10.0, 20.0]
        assert all(t > 0 for t, _ in samples)
        snap = registry.snapshot()["gauges"]["bytes"]
        assert snap["value"] == 20.0
        assert len(snap["samples"]) == 2

    def test_gauge_history_is_bounded(self):
        registry = MetricsRegistry()
        for index in range(1000):
            registry.gauge_set("g", float(index))
        samples = registry.gauge_samples("g")
        assert len(samples) == telemetry.metrics.GAUGE_HISTORY
        assert samples[-1][1] == 999.0

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter_add("n")
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}}


class TestDisabledPath:
    def test_span_is_shared_noop_singleton(self):
        assert telemetry.span("anything", attr=1) is NULL_SPAN
        assert telemetry.span("other") is NULL_SPAN
        with telemetry.span("nested") as span:
            span.set(ignored=True)

    def test_bind_task_is_identity(self):
        def fn(task):
            return task
        assert telemetry.bind_task(fn) is fn

    def test_no_sink_allocated(self):
        assert not telemetry.enabled()
        telemetry.emit("event", field=1)  # dropped, no error
        assert telemetry._SINK is None

    def test_counters_still_count(self):
        before = telemetry.REGISTRY.counter_value("test.disabled")
        telemetry.counter_add("test.disabled", 3)
        assert telemetry.REGISTRY.counter_value("test.disabled") == before + 3

    def test_results_bit_identical_on_off(self, tmp_path):
        config = MCConfig(n_samples=64, seed=7, chunk_lanes=16)
        baseline = monte_carlo(evaluator, C35, config)
        with telemetry.session(tmp_path / "events.jsonl"):
            traced = monte_carlo(evaluator, C35, config)
        again = monte_carlo(evaluator, C35, config)
        for name in baseline:
            assert baseline[name].tobytes() == traced[name].tobytes()
            assert baseline[name].tobytes() == again[name].tobytes()


class TestSpans:
    def test_nesting_and_attributes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with telemetry.session(path):
            with telemetry.span("outer", stage="demo"):
                with telemetry.span("inner") as inner:
                    inner.set(lanes=4)
        events = load_events(path)
        opens = [e for e in events if e["type"] == "span_open"]
        closes = [e for e in events if e["type"] == "span_close"]
        assert [e["name"] for e in opens] == ["outer", "inner"]
        outer, inner = opens
        assert outer["parent"] is None
        assert inner["parent"] == outer["span"]
        assert inner["trace"] == outer["trace"]
        assert outer["attrs"] == {"stage": "demo"}
        by_name = {e["name"]: e for e in closes}
        assert by_name["inner"]["attrs"] == {"lanes": 4}
        assert all(e["elapsed"] >= 0 for e in closes)
        assert all(e["status"] == "ok" for e in closes)

    def test_error_status_on_exception(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with telemetry.session(path):
            with pytest.raises(ValueError):
                with telemetry.span("failing"):
                    raise ValueError("boom")
        closes = [e for e in load_events(path) if e["type"] == "span_close"]
        assert closes[0]["status"] == "error"

    def test_session_restores_previous_state(self, tmp_path):
        telemetry.configure(tmp_path / "ambient.jsonl")
        ambient = telemetry._SINK
        with telemetry.session(tmp_path / "scoped.jsonl"):
            assert telemetry._SINK is not ambient
        assert telemetry._SINK is ambient

    def test_session_with_falsy_path_is_passthrough(self):
        with telemetry.session(None):
            assert not telemetry.enabled()
        with telemetry.session(""):
            assert not telemetry.enabled()


def _nesting_edges(path):
    """The trace's (name, parent-name) multiset -- the nesting shape."""
    opens = {e["span"]: e for e in load_events(path)
             if e["type"] == "span_open"}
    edges = []
    for event in opens.values():
        parent = opens.get(event.get("parent"))
        edges.append((event["name"],
                      parent["name"] if parent else None))
    return sorted(edges)


class TestBackendNesting:
    @pytest.mark.parametrize("backend", ["serial", "thread:2", "process:2"])
    def test_chunk_spans_parent_identically(self, tmp_path, backend):
        path = tmp_path / f"{backend.replace(':', '-')}.jsonl"
        config = MCConfig(n_samples=64, seed=7, chunk_lanes=16,
                          backend=backend)
        with telemetry.session(path):
            monte_carlo(evaluator, C35, config)
        edges = _nesting_edges(path)
        assert edges == sorted(
            [("mc.single", None), ("exec.run", "mc.single")]
            + [("mc.chunk", "exec.run")] * 4)

    def test_fork_reparenting_carries_span_context(self, tmp_path):
        # The forked workers' span_open events must name the parent
        # process's exec.run span as parent (the SpanContext handoff),
        # and every chunk span must be closed.
        path = tmp_path / "fork.jsonl"
        config = MCConfig(n_samples=64, seed=7, chunk_lanes=16,
                          backend="process:2")
        with telemetry.session(path):
            monte_carlo(evaluator, C35, config)
        events = load_events(path)
        opens = {e["span"]: e for e in events if e["type"] == "span_open"}
        chunk_opens = [e for e in opens.values() if e["name"] == "mc.chunk"]
        run_span = next(e["span"] for e in opens.values()
                        if e["name"] == "exec.run")
        assert len(chunk_opens) == 4
        assert all(e["parent"] == run_span for e in chunk_opens)
        closed = {e["span"] for e in events if e["type"] == "span_close"}
        assert all(e["span"] in closed for e in chunk_opens)


class TestEventSink:
    def test_appends_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = EventSink(path)
        sink.emit({"type": "a", "n": 1})
        sink.emit({"type": "b", "n": 2})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["type"] for line in lines] == ["a", "b"]

    def test_fresh_truncates_append_preserves(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventSink(path).emit({"type": "old"})
        EventSink(path, fresh=False).emit({"type": "new"})
        assert [e["type"] for e in load_events(path)] == ["old", "new"]
        EventSink(path, fresh=True).emit({"type": "only"})
        assert [e["type"] for e in load_events(path)] == ["only"]

    def test_rotation_caps_size(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = EventSink(path, max_bytes=512)
        for index in range(100):
            sink.emit({"type": "tick", "index": index, "pad": "x" * 32})
        rotated = path.with_name(path.name + ".1")
        assert rotated.exists()
        assert path.stat().st_size <= 512 + 128  # cap + one event slack
        # Both generations remain readable.
        assert load_events(path)
        assert load_events(rotated)

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = EventSink(path)
        sink.emit({"type": "whole", "n": 1})
        with open(path, "a") as handle:
            handle.write('{"type": "torn", "n"')  # crash mid-write
        events = load_events(path)
        assert [e["type"] for e in events] == ["whole"]

    def test_load_events_missing_file(self, tmp_path):
        assert load_events(tmp_path / "absent.jsonl") == []


class TestEnvironmentInit:
    def test_env_var_enables_appending_sink(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        path.write_text('{"type": "pre-existing"}\n')
        monkeypatch.setenv(telemetry.TELEMETRY_ENV_VAR, str(path))
        telemetry._init_from_environment()
        try:
            assert telemetry.enabled()
            telemetry.emit("from-env")
        finally:
            telemetry.shutdown()
        # fresh=False: processes sharing one REPRO_TELEMETRY append.
        assert [e["type"] for e in load_events(path)] == \
            ["pre-existing", "from-env"]

    def test_blank_env_var_stays_disabled(self, monkeypatch):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV_VAR, "  ")
        telemetry._init_from_environment()
        assert not telemetry.enabled()


class TestAnnouncer:
    def test_messages_pass_through_byte_identical(self, tmp_path):
        messages = ["stage one", "  detail 42", ""]
        plain, traced = [], []
        say = telemetry.announcer(plain.append)
        for message in messages:
            say(message)
        with telemetry.session(tmp_path / "events.jsonl"):
            say = telemetry.announcer(traced.append)
            for message in messages:
                say(message)
        assert plain == messages
        assert traced == messages
        events = load_events(tmp_path / "events.jsonl")
        assert [e["message"] for e in events
                if e["type"] == "progress"] == messages

    def test_none_progress_swallows_output(self, tmp_path):
        with telemetry.session(tmp_path / "events.jsonl"):
            telemetry.announcer(None)("quiet")
        events = load_events(tmp_path / "events.jsonl")
        assert [e["message"] for e in events
                if e["type"] == "progress"] == ["quiet"]


class TestRenderers:
    def test_span_tree_shape(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with telemetry.session(path):
            with telemetry.span("root"):
                with telemetry.span("child"):
                    pass
                with telemetry.span("child"):
                    pass
        roots = span_tree(load_events(path))
        assert [node.name for node in roots] == ["root"]
        assert [node.name for node in roots[0].children] == \
            ["child", "child"]
        assert roots[0].cumulative >= sum(
            child.cumulative for child in roots[0].children)
        assert roots[0].self_time >= 0

    def test_unclosed_span_renders_open(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry.configure(path)
        telemetry._TRACER.span("dangling", {}).__enter__()
        telemetry.shutdown()
        text = render_trace(path)
        assert "dangling" in text and "(open)" in text

    def test_trace_reproduces_ledger_table_exactly(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ledger = SimulationLedger()
        with telemetry.session(path):
            with telemetry.span("flow.build"):
                for sims in (1200, 300):
                    with ledger.timed("optimisation") as row:
                        row.simulations += sims
                # A plain stage span (no ledger row) around nested rows.
                with telemetry.span("flow.stage", stage="search"):
                    with ledger.timed("verification", 500):
                        pass
        # Seconds included: the rows are summed from the spans in the
        # order the ledger summed them.
        assert span_ledger(span_tree(load_events(path))).as_rows() == \
            ledger.as_rows()
        assert render_trace(path).endswith(ledger.table())

    def test_stage_sims_attached_to_spans(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ledger = SimulationLedger()
        with telemetry.session(path):
            with ledger.timed("verification", 500):
                pass
        close = next(event for event in load_events(path)
                     if event["type"] == "span_close")
        assert close["attrs"] == {
            "stage": "verification", "simulations": 500,
            "seconds": ledger.stages["verification"].wall_seconds}
        text = render_trace(path)
        line = next(line for line in text.splitlines()
                    if "flow.stage: verification" in line)
        assert line.rstrip().endswith("500")


class TestFlowIntegration:
    def test_flow_trace_sim_counts_match_ledger(self, tmp_path):
        from repro.flow.pipeline import FlowConfig, run_model_build_flow

        path = tmp_path / "flow.jsonl"
        config = FlowConfig(generations=4, population=12, mc_samples=16,
                            max_pareto_points=6, corners="none",
                            telemetry=str(path))
        result = run_model_build_flow(config)
        # The rendered trace ends with the exact ledger table the flow
        # itself prints -- per-stage simulation counts included.
        assert render_trace(path).endswith(result.ledger.table())
        assert not telemetry.enabled()  # session closed behind itself

    def test_flow_artifacts_identical_with_and_without(self, tmp_path):
        from repro.flow.pipeline import FlowConfig, run_model_build_flow

        base = FlowConfig(generations=4, population=12, mc_samples=16,
                          max_pareto_points=6, corners="none")
        plain = run_model_build_flow(base)
        traced = run_model_build_flow(dataclasses.replace(
            base, telemetry=str(tmp_path / "flow.jsonl")))
        assert plain.pareto_parameters.tobytes() == \
            traced.pareto_parameters.tobytes()
        assert plain.pareto_objectives.tobytes() == \
            traced.pareto_objectives.tobytes()
        for name in plain.mc_samples:
            assert plain.mc_samples[name].tobytes() == \
                traced.mc_samples[name].tobytes()


class TestWorkloadCacheEvents:
    def test_hit_and_miss_recorded(self, tmp_path):
        from repro.cache import ResultCache
        from repro.measure.specs import Spec, SpecSet
        from repro.workload import StreamingYieldWorkload

        workload = StreamingYieldWorkload(
            evaluator, C35, SpecSet([Spec("m", "ge", 10.0)]),
            MCConfig(n_samples=32, seed=3, chunk_lanes=16))
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "events.jsonl"
        with telemetry.session(path):
            workload.run_cached(cache)
            workload.run_cached(cache)
        events = [e for e in load_events(path)
                  if e["type"] == "workload_cache"]
        assert [e["hit"] for e in events] == [False, True]
        assert all(e["key"] == workload.key() for e in events)
        # The cache's own counters surfaced through the registry too.
        metric_names = {e["name"] for e in load_events(path)
                        if e["type"] == "metric"}
        assert {"cache.misses", "cache.stores", "cache.hits"} <= metric_names
