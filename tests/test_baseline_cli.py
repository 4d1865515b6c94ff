"""Baseline (conventional flow) and CLI tests."""

import numpy as np
import pytest

from repro.baselines import DirectMCConfig, run_direct_mc_optimization
from repro.cli import main
from repro.measure import Spec, SpecSet


class TestDirectMCBaseline:
    @pytest.fixture(scope="class")
    def result(self):
        specs = SpecSet([Spec("gain_db", "ge", 45.0, "dB"),
                         Spec("pm_deg", "ge", 70.0, "deg")])
        config = DirectMCConfig(population=8, generations=3,
                                mc_samples_per_candidate=10, seed=1)
        return run_direct_mc_optimization(specs, config)

    def test_simulation_count(self, result):
        # Per generation: pop nominal + pop*mc MC; plus 500 verification.
        expected = 3 * (8 + 8 * 10) + 500
        assert result.transistor_simulations == expected

    def test_yield_estimate_present(self, result):
        assert 0.0 <= result.best_yield.fraction <= 1.0
        assert result.best_yield.total == 500

    def test_much_more_expensive_than_proposed_per_use(self, result,
                                                       reduced_flow):
        """The structural claim of Table 5: once the model exists, a
        yield-targeted design costs zero transistor simulations, while
        the conventional flow pays per use."""
        assert result.transistor_simulations > 0
        # Proposed flow: design_for_specs is pure interpolation.
        specs = SpecSet([Spec("gain_db", "ge",
                              float(np.mean(
                                  reduced_flow.pareto_objectives[:, 0])),
                              "dB")])
        design = reduced_flow.model.design_for_specs(specs)
        assert design.parameters  # obtained without any simulation


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "W1 (M5,M4)" in out
        assert "Gain weight" in out

    def test_build_target_filter_roundtrip(self, tmp_path, capsys):
        assert main(["build", "--reduced", "--seed", "2008",
                     "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "artefacts written" in out
        assert (tmp_path / "ota_yield_model.va").exists()

        # Target a spec that the reduced front can satisfy.
        arrays = np.load(tmp_path / "flow_result.npz")
        gains = arrays["pareto_objectives"][:, 0]
        spec_gain = float(np.percentile(gains, 50))
        assert main(["target", str(tmp_path), "--gain", f"{spec_gain:.2f}",
                     "--pm", "60"]) == 0
        out = capsys.readouterr().out
        assert "guard-banded targets" in out
        assert "um" in out

    def test_filter_command(self, tmp_path, capsys):
        assert main(["build", "--reduced", "--output", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["filter", str(tmp_path), "--samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "yield" in out.lower()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_corner_flags_parse(self):
        from repro.cli import build_parser
        # The '=' form is required for a leading-negative temperature
        # list (argparse would read a bare '-40,...' as an option).
        args = build_parser().parse_args(
            ["build", "--corners", "tm,ws", "--vdd", "3.0,3.6",
             "--temp=-40,27,125"])
        assert args.corners == "tm,ws"
        assert args.vdd == "3.0,3.6"
        assert args.temp == "-40,27,125"

    def test_corner_build_and_artifacts(self, tmp_path, capsys):
        assert main(["build", "--reduced", "--corners", "tm",
                     "--vdd", "3.3", "--temp", "27",
                     "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corner verification" in out
        assert "designs passing" in out
        assert (tmp_path / "corner_margins.txt").exists()

    def test_bad_corner_flags_fail_fast(self, capsys):
        assert main(["build", "--reduced", "--corners", "bogus"]) == 2
        assert "unknown corner" in capsys.readouterr().err
        assert main(["build", "--reduced", "--vdd", "3.3;x"]) == 2
        assert "--vdd" in capsys.readouterr().err

    def test_streaming_flags_parse(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["build", "--adaptive-ci", "0.05",
             "--checkpoint", "mc.ckpt.npz"])
        assert args.adaptive_ci == 0.05
        assert args.checkpoint == "mc.ckpt.npz"

    def test_bad_streaming_flags_fail_fast(self, capsys):
        assert main(["build", "--reduced", "--adaptive-ci", "1.5"]) == 2
        assert "--adaptive-ci" in capsys.readouterr().err
        assert main(["build", "--reduced", "--adaptive-ci", "-0.1"]) == 2
        assert "--adaptive-ci" in capsys.readouterr().err
        # A checkpoint without the stage enabled is a configuration
        # mistake, not a silent no-op.
        assert main(["build", "--reduced",
                     "--checkpoint", "mc.ckpt.npz"]) == 2
        assert "--adaptive-ci" in capsys.readouterr().err

    def test_streaming_build_and_artifacts(self, tmp_path, capsys):
        checkpoint = tmp_path / "mc.ckpt.npz"
        assert main(["build", "--reduced", "--generations", "6",
                     "--corners", "tm", "--vdd", "3.3", "--temp", "27",
                     "--adaptive-ci", "0.15",
                     "--checkpoint", str(checkpoint),
                     "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "streaming yield verification" in out
        assert (tmp_path / "streaming_verification.txt").exists()
        assert checkpoint.exists()
