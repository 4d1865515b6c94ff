"""Tests for the topology-lint subsystem (repro.lint).

Coverage map:

* per-rule positive/negative coverage from the ``tests/netlists``
  fixture corpus (every rule has a triggering and a passing netlist);
* report/finding mechanics: severity ordering, exit codes, JSON;
* the extension hooks: rule registry, ``only`` selection,
  ``lint_branches()`` element override;
* flow gating: ``preflight_lint`` modes and the stage-0 gate of
  ``run_model_build_flow`` rejecting a broken testbench with a
  :class:`LintGateError` (and the counterfactual: the same circuit
  crashes the solver when lint is off);
* the built-in designs lint clean at strict (tier-1 regression);
* the ``repro lint`` CLI verb and its exit-code convention;
* hypothesis properties: randomly sized connected RC ladders never
  produce error findings, and deleting any ground-path resistor from
  one always produces at least one.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import dc_operating_point
from repro.behavioral import BehavioralOTA
from repro.circuit import (Capacitor, Circuit, Inductor, Resistor,
                           VoltageSource)
from repro.circuit.netlist import Element
from repro.designs.filter2 import (FilterCaps, build_filter_behavioral,
                                   build_filter_transistor)
from repro.designs.miller import MillerParameters, build_miller_ota
from repro.designs.ota import OTAParameters, build_ota
from repro.errors import LintError, LintGateError, SingularMatrixError
from repro.lint import (LINT_MODES, LINT_RULES, CircuitGraph, Finding,
                        LintReport, lint_circuit, lint_netlist,
                        preflight_lint)
from repro.process import C35

# ---------------------------------------------------------------------------
# corpus-driven per-rule coverage
# ---------------------------------------------------------------------------

#: fixture name -> (rule id it must trigger, severity of that finding)
BAD_FIXTURES = {
    "bad_no_ground": ("missing-ground", "error"),
    "bad_duplicate": ("duplicate-element", "error"),
    "bad_floating_node": ("floating-node", "warning"),
    "bad_island": ("disconnected-island", "error"),
    "bad_cap_cut": ("no-dc-path", "error"),
    "bad_isource_cutset": ("isource-cutset", "error"),
    "bad_vloop": ("vsource-loop", "error"),
    "bad_inductor_loop": ("vsource-loop", "error"),
    "bad_shorted_r": ("shorted-element", "warning"),
    "bad_shorted_vsource": ("shorted-element", "error"),
    "bad_port_unused": ("subckt-port-unused", "warning"),
    "bad_unused_subckt": ("subckt-unused", "info"),
    "bad_malformed_number": ("parse-error", "error"),
    "bad_recursive_subckt": ("parse-error", "error"),
}

GOOD_FIXTURES = [
    "good_divider", "good_rc_ladder", "good_hierarchical",
    "good_mosfet_amp", "good_rlc", "good_suffixes", "good_divby2_chain",
    "good_params",
]


@pytest.mark.parametrize("name", sorted(BAD_FIXTURES))
def test_bad_fixture_triggers_its_rule(netlist, name):
    rule_id, severity = BAD_FIXTURES[name]
    report = lint_netlist(netlist(name), models=C35.models, source=name)
    hits = [f for f in report.findings if f.rule == rule_id]
    assert hits, f"{name} did not trigger {rule_id}: {report.render_text()}"
    assert any(f.severity == severity for f in hits)


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_good_fixture_lints_clean(netlist, name):
    report = lint_netlist(netlist(name), models=C35.models, source=name)
    assert report.ok(strict=True), report.render_text()
    assert report.findings == []


def test_every_rule_has_a_triggering_fixture():
    covered = {rule_id for rule_id, _ in BAD_FIXTURES.values()}
    assert set(LINT_RULES) <= covered


def test_findings_carry_line_numbers(netlist):
    report = lint_netlist(netlist("bad_shorted_vsource"), source="x")
    (finding,) = [f for f in report.findings if f.rule == "shorted-element"]
    assert finding.line_no == 4  # the V2 card
    assert finding.elements == ("V2",)


def test_parse_error_finding_carries_line(netlist):
    report = lint_netlist(netlist("bad_malformed_number"), source="x")
    (finding,) = report.findings
    assert finding.rule == "parse-error"
    assert finding.line_no == 3
    assert "ohms" in finding.message


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError, match="severity"):
        Finding("x", "fatal", "boom")


def test_report_sorting_and_counts():
    report = LintReport(source="s")
    report.add(Finding("a", "info", "i"))
    report.add(Finding("b", "error", "e", line_no=9))
    report.add(Finding("c", "warning", "w", line_no=2))
    report.add(Finding("d", "error", "e2", line_no=3))
    ordered = [f.rule for f in report.sorted_findings()]
    assert ordered == ["d", "b", "c", "a"]  # errors first, then by line
    assert report.count("error") == 2
    assert report.has_errors and report.has_warnings
    assert not report.ok()
    assert report.exit_code() == 1


def test_report_exit_code_convention():
    clean = LintReport()
    assert clean.exit_code() == 0 and clean.exit_code(strict=True) == 0
    warn = LintReport()
    warn.add(Finding("r", "warning", "w"))
    assert warn.exit_code() == 0
    assert warn.exit_code(strict=True) == 1
    info = LintReport()
    info.add(Finding("r", "info", "i"))
    assert info.exit_code(strict=True) == 0


def test_report_json_round_trip(netlist):
    report = lint_netlist(netlist("bad_island"), source="bad_island")
    payload = json.loads(report.render_json())
    assert payload["source"] == "bad_island"
    assert payload["ok"] is False
    assert payload["counts"]["error"] >= 1
    (finding,) = [f for f in payload["findings"]
                  if f["rule"] == "disconnected-island"]
    assert set(finding["nodes"]) == {"x", "y"}


# ---------------------------------------------------------------------------
# registry and extension hooks
# ---------------------------------------------------------------------------

def test_only_selection_restricts_rules(netlist):
    text = netlist("bad_shorted_r")
    full = lint_netlist(text)
    assert any(f.rule == "shorted-element" for f in full.findings)
    none = lint_netlist(text, only=["missing-ground"])
    assert none.findings == []


def test_unknown_rule_id_rejected():
    circuit = Circuit("c")
    circuit.add(VoltageSource("V1", "a", "0", dc=1.0))
    circuit.add(Resistor("R1", "a", "0", 1e3))
    with pytest.raises(LintError, match="unknown lint rule"):
        lint_circuit(circuit, only=["no-such-rule"])


def test_duplicate_rule_registration_rejected():
    from repro.lint.rules import rule
    with pytest.raises(LintError, match="duplicate lint rule"):
        rule("missing-ground", "error", "again")(lambda ctx: iter(()))


def test_unknown_element_classified_conservatively():
    # A custom Element without lint_branches: all distinct node pairs
    # become DC-conducting branches, so it cannot false-positive.
    class Weird(Element):
        pass

    circuit = Circuit("c")
    circuit.add(VoltageSource("V1", "a", "0", dc=1.0))
    circuit.add(Weird("U1", ("a", "b", "c")))
    circuit.add(Resistor("R1", "b", "0", 1e3))
    circuit.add(Resistor("R2", "c", "0", 1e3))
    assert lint_circuit(circuit).ok(strict=True)


def test_unknown_element_tied_terminals_not_flagged():
    # Tied terminals on an unknown device are not reported as shorts --
    # the lint cannot judge devices it does not know.
    class Weird(Element):
        pass

    circuit = Circuit("c")
    circuit.add(VoltageSource("V1", "a", "0", dc=1.0))
    circuit.add(Weird("U1", ("a", "a", "b")))
    circuit.add(Resistor("R1", "b", "0", 1e3))
    report = lint_circuit(circuit)
    assert not any(f.rule == "shorted-element" for f in report.findings)


def test_lint_branches_override_used():
    captured = []

    class Custom(Element):
        def lint_branches(self):
            captured.append(self.name)
            return [(self.nodes[0], self.nodes[1], "isource")]

    circuit = Circuit("c")
    circuit.add(VoltageSource("V1", "a", "0", dc=1.0))
    circuit.add(Resistor("R1", "a", "0", 1e3))
    circuit.add(Custom("U1", ("a", "n")))
    report = lint_circuit(circuit)
    assert captured == ["U1"]
    # The declared isource branch means n hangs on a current source.
    assert any(f.rule == "isource-cutset" for f in report.findings)


def test_behavioral_ota_unity_feedback_not_a_short():
    # out == inn is a legitimate unity-feedback configuration.
    circuit = Circuit("c")
    circuit.add(VoltageSource("VIN", "in", "0", dc=0.0, ac_mag=1.0))
    circuit.add(BehavioralOTA("OTA", "out", "in", "out", gain=100.0, ro=1e6))
    circuit.add(Capacitor("CL", "out", "0", 1e-12))
    assert lint_circuit(circuit).ok(strict=True)


# ---------------------------------------------------------------------------
# graph view sanity
# ---------------------------------------------------------------------------

def test_graph_views_distinguish_dc_and_hyperedge():
    circuit = Circuit("c")
    circuit.add(VoltageSource("V1", "in", "0", dc=1.0))
    circuit.add(Capacitor("C1", "in", "out", 1e-12))
    circuit.add(Resistor("R1", "out", "x", 1e3))
    graph = CircuitGraph(circuit)
    assert graph.reachable_from_ground() == {"0", "in", "out", "x"}
    assert graph.dc_reachable_from_ground() == {"0", "in"}


def test_ground_aliases_canonicalised():
    circuit = Circuit("c")
    circuit.add(VoltageSource("V1", "a", "GND", dc=1.0))
    circuit.add(Resistor("R1", "a", "gnd", 1e3))
    graph = CircuitGraph(circuit)
    assert graph.has_ground
    assert lint_circuit(circuit).ok(strict=True)


# ---------------------------------------------------------------------------
# flow gating
# ---------------------------------------------------------------------------

def _broken_circuit() -> Circuit:
    """A circuit the lint rejects (V+L source loop -> singular MNA)."""
    circuit = Circuit("broken")
    circuit.add(VoltageSource("V1", "a", "0", dc=1.0))
    circuit.add(Inductor("L1", "a", "0", 1e-3))
    circuit.add(Resistor("R1", "a", "0", 1e3))
    return circuit


def test_preflight_modes():
    circuit = _broken_circuit()
    assert preflight_lint(circuit, "off") is None
    report = preflight_lint(circuit, "warn")
    assert isinstance(report, LintReport) and report.has_errors
    with pytest.raises(LintGateError) as excinfo:
        preflight_lint(circuit, "strict", stage="unit test")
    assert isinstance(excinfo.value.report, LintReport)
    assert excinfo.value.stage == "unit test"
    assert "vsource-loop" in str(excinfo.value)
    with pytest.raises(LintError, match="unknown lint mode"):
        preflight_lint(circuit, "bogus")
    assert set(LINT_MODES) == {"strict", "warn", "off"}


def test_flow_rejects_broken_testbench(monkeypatch):
    # Stage 0 must fail fast with the report, before any optimisation.
    import repro.flow.pipeline as pipeline
    from repro.flow import reduced_config, run_model_build_flow
    monkeypatch.setattr(pipeline, "build_ota",
                        lambda *args, **kwargs: _broken_circuit())
    with pytest.raises(LintGateError) as excinfo:
        run_model_build_flow(reduced_config())
    assert any(f.rule == "vsource-loop"
               for f in excinfo.value.report.findings)


def test_counterfactual_solver_crashes_without_lint():
    # The same circuit the gate rejects produces the unreadable
    # singular-matrix failure when simulated directly -- this is the
    # traceback the lint stage replaces.
    with pytest.raises(SingularMatrixError):
        dc_operating_point(_broken_circuit())


# ---------------------------------------------------------------------------
# built-in designs regression (tier-1): everything we ship lints clean
# ---------------------------------------------------------------------------

DESIGN_BUILDERS = {
    "ota": lambda: build_ota(OTAParameters()),
    "miller": lambda: build_miller_ota(MillerParameters()),
    "filter2-behavioral": lambda: build_filter_behavioral(
        FilterCaps(), ota_gain_db=70.0, ota_ro=1e6,
        parasitic_pole_hz=50e6),
    "filter2-transistor": lambda: build_filter_transistor(
        FilterCaps(), OTAParameters()),
}


@pytest.mark.parametrize("name", sorted(DESIGN_BUILDERS))
def test_builtin_design_lints_clean_at_strict(name):
    report = lint_circuit(DESIGN_BUILDERS[name]())
    assert report.ok(strict=True), report.render_text()


# ---------------------------------------------------------------------------
# CLI verb
# ---------------------------------------------------------------------------

def test_cli_lint_clean_file_exits_zero(netlist_path, capsys):
    from repro.cli import main
    assert main(["lint", str(netlist_path("good_divider"))]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_error_file_exits_nonzero(netlist_path, capsys):
    from repro.cli import main
    assert main(["lint", str(netlist_path("bad_vloop"))]) == 1
    assert "vsource-loop" in capsys.readouterr().out


def test_cli_lint_warning_exit_depends_on_strict(netlist_path):
    from repro.cli import main
    path = str(netlist_path("bad_shorted_r"))
    assert main(["lint", path]) == 0
    assert main(["lint", "--strict", path]) == 1


def test_cli_lint_many_files_worst_exit_wins(netlist_path):
    from repro.cli import main
    assert main(["lint", str(netlist_path("good_divider")),
                 str(netlist_path("bad_no_ground"))]) == 1


def test_cli_lint_missing_file_exits_two(tmp_path, capsys):
    from repro.cli import main
    assert main(["lint", str(tmp_path / "nope.cir")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_lint_json_output(netlist_path, capsys):
    from repro.cli import main
    code = main(["lint", "--json", str(netlist_path("bad_cap_cut")),
                 str(netlist_path("good_rlc"))])
    assert code == 1
    reports = json.loads(capsys.readouterr().out)
    assert [r["ok"] for r in reports] == [False, True]
    assert any(f["rule"] == "no-dc-path" for f in reports[0]["findings"])


def test_cli_lint_uses_pdk_models(netlist_path):
    # good_mosfet_amp defines its model inline; the C35-preseeded parser
    # must also accept bare 'nmos'/'pmos' references (as examples do).
    from repro.cli import main
    assert main(["lint", str(netlist_path("good_mosfet_amp"))]) == 0


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

def _rc_ladder(resistances) -> Circuit:
    """A series RC ladder: V1 drives n0, R_i spans n_i -> n_{i+1}, every
    internal node has a capacitor to ground.  Always connected, always
    DC-biased -- must never produce an error finding."""
    circuit = Circuit("ladder")
    circuit.add(VoltageSource("V1", "n0", "0", dc=1.0))
    for i, value in enumerate(resistances):
        circuit.add(Resistor(f"R{i}", f"n{i}", f"n{i + 1}", value))
        circuit.add(Capacitor(f"C{i}", f"n{i + 1}", "0", 1e-12))
    return circuit


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1.0, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12))
def test_connected_rc_ladder_never_errors(resistances):
    report = lint_circuit(_rc_ladder(resistances))
    assert not report.has_errors, report.render_text()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cutting_any_ground_path_resistor_errors(data):
    n = data.draw(st.integers(min_value=1, max_value=10), label="sections")
    k = data.draw(st.integers(min_value=0, max_value=n - 1), label="cut")
    circuit = _rc_ladder(np.full(n, 1e3))
    circuit.remove(f"R{k}")
    report = lint_circuit(circuit)
    assert report.has_errors, (
        f"removing R{k} of {n} left no error finding:\n"
        f"{report.render_text()}")
