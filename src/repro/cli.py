"""Command-line interface: ``repro-flow`` / ``python -m repro``.

Subcommands mirror the paper's experiments:

* ``build``   -- run the model-building flow (Figure 3) and save artefacts;
* ``target``  -- query a saved model with a specification (Table 3);
* ``filter``  -- run the filter application flow on a saved model
  (section 5);
* ``table1``  -- print the design-parameter space (Table 1);
* ``lint``    -- topology-lint netlist files without simulating them
  (exit 0 when clean, 1 on errors -- or on warnings with ``--strict``);
* ``serve``   -- run the yield-service daemon over a spool directory
  (:mod:`repro.service`);
* ``submit``  -- drop a JSON job request into a service root (optionally
  waiting for the result);
* ``jobs``    -- list job statuses under a service root, cancel a job,
  or stop the daemon;
* ``trace``   -- render a telemetry events file (``--telemetry`` /
  ``REPRO_TELEMETRY``) as an indented span tree with per-stage
  simulation counts;
* ``stats``   -- ask a running daemon for a live metrics snapshot.

Paper-scale runs take a couple of minutes; pass ``--reduced`` for a
seconds-scale smoke run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .designs.ota import OTA_DESIGN_SPACE
from .errors import ReproError
from .exec import resolve_backend
from .flow.artifacts import rebuild_model, save_flow_artifacts
from .flow.filter_flow import FilterFlowConfig, run_filter_flow
from .flow.pipeline import (paper_scale_config, reduced_config,
                            run_model_build_flow)
from .lint import LINT_MODES, lint_file
from .measure.specs import Spec, SpecSet
from .process import C35

__all__ = ["main"]


def _backend_invalid(spec: str, workers: int = 0) -> bool:
    """Fail fast on a bad backend spec (or REPRO_EXEC_BACKEND value)
    instead of tracebacking after earlier flow stages already ran."""
    try:
        resolve_backend(spec or None, workers)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return True
    return False


def _parse_floats(spec: str, option: str) -> tuple[float, ...]:
    """Parse a comma-separated float list CLI option."""
    try:
        return tuple(float(token) for token in spec.split(",")
                     if token.strip())
    except ValueError:
        raise ReproError(
            f"{option} expects a comma-separated list of numbers, "
            f"got {spec!r}") from None


def _cmd_build(args) -> int:
    config = reduced_config(args.seed) if args.reduced \
        else paper_scale_config(args.seed)
    if args.generations:
        config = dataclasses.replace(config, generations=args.generations)
    if _backend_invalid(args.backend, args.workers):
        return 2
    if args.backend:
        config = dataclasses.replace(config, mc_backend=args.backend)
    if args.workers:
        config = dataclasses.replace(config, mc_workers=args.workers)
    if args.surrogate_budget < 0:
        print("error: --surrogate-budget must be >= 0", file=sys.stderr)
        return 2
    budget = args.surrogate_budget
    if args.surrogate and not budget:
        budget = 96  # the default seed-batch size of repro.surrogate
    if not 0.0 < args.yield_target < 1.0:
        print("error: --yield-target must lie in (0, 1)", file=sys.stderr)
        return 2
    if args.fidelity_budget < 0:
        print("error: --fidelity-budget must be >= 0", file=sys.stderr)
        return 2
    if not 0.0 <= args.adaptive_ci < 1.0:
        print("error: --adaptive-ci must lie in [0, 1) "
              "(0 disables the stage)", file=sys.stderr)
        return 2
    if args.checkpoint and not args.adaptive_ci:
        print("error: --checkpoint needs --adaptive-ci to enable the "
              "streaming verification stage", file=sys.stderr)
        return 2
    if args.high_sigma_budget < 0:
        print("error: --high-sigma-budget must be >= 0", file=sys.stderr)
        return 2
    high_sigma_budget = args.high_sigma_budget
    if args.high_sigma and not high_sigma_budget:
        high_sigma_budget = 1000  # the stage's default per-level budget
    try:
        config = dataclasses.replace(
            config, corners=args.corners,
            corner_vdds=_parse_floats(args.vdd, "--vdd"),
            corner_temps=_parse_floats(args.temp, "--temp"),
            surrogate_budget=budget,
            yield_objective=args.yield_objective,
            yield_target=args.yield_target,
            fidelity_budget=args.fidelity_budget,
            adaptive_ci=args.adaptive_ci,
            streaming_checkpoint=args.checkpoint,
            high_sigma=bool(high_sigma_budget),
            high_sigma_per_level=high_sigma_budget or 1000,
            high_sigma_final=2 * high_sigma_budget or 2000,
            lint=args.lint,
            telemetry=args.telemetry)
        config.corner_grid(C35)  # fail fast on unknown corner names
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_model_build_flow(config, progress=print)
    print()
    print(result.ledger.table())
    if result.corner_check is not None:
        print()
        print(result.corner_check.summary_table())
    written = save_flow_artifacts(result, args.output)
    print(f"\nartefacts written to {args.output}:")
    for name, path in sorted(written.items()):
        print(f"  {name}: {path}")
    return 0


def _cmd_target(args) -> int:
    model = rebuild_model(args.model_dir)
    specs = SpecSet([
        Spec("gain_db", "ge", args.gain, "dB"),
        Spec("pm_deg", "ge", args.pm, "deg"),
    ])
    design = model.design_for_specs(specs)
    print("guard-banded targets (Table 3):")
    for name, target in design.targets.items():
        print(f"  {name}: required {target.required:g}, "
              f"variation {target.variation_pct:.3f}%, "
              f"new performance {target.new_value:.4f}")
    print("nominal performance at the selected front point:")
    for name, value in design.nominal_performance.items():
        print(f"  {name} = {value:.4f}")
    print("interpolated design parameters:")
    for name, value in design.parameters.items():
        print(f"  {name} = {value * 1e6:.3f} um")
    return 0


def _cmd_filter(args) -> int:
    if _backend_invalid(""):  # the filter flow's MC honours the env var
        return 2
    model = rebuild_model(args.model_dir)
    config = FilterFlowConfig(seed=args.seed,
                              verification_samples=args.samples,
                              telemetry=args.telemetry)
    result = run_filter_flow(model, config, progress=print)
    print()
    print(result.ledger.table())
    return 0


def _cmd_lint(args) -> int:
    import json

    reports = []
    for path in args.netlists:
        try:
            reports.append(lint_file(path, models=C35.models))
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps([report.to_dict() for report in reports], indent=2))
    else:
        for report in reports:
            print(report.render_text())
    return max(report.exit_code(strict=args.strict) for report in reports)


def _cmd_serve(args) -> int:
    from .service import serve
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    serve(args.root, workers=args.workers,
          idle_exit=args.idle_exit if args.idle_exit > 0 else None,
          max_bytes=args.cache_bytes if args.cache_bytes > 0 else None,
          progress=print)
    return 0


def _cmd_submit(args) -> int:
    import json
    import time

    from .service import read_status, submit_request
    try:
        if args.request == "-":
            request = json.load(sys.stdin)
        else:
            with open(args.request) as handle:
                request = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        job_id = submit_request(args.root, request)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"submitted {job_id}")
    if not args.wait:
        return 0
    deadline = time.monotonic() + args.timeout
    while True:
        status = read_status(args.root, job_id)
        if status["state"] in ("done", "failed", "cancelled"):
            break
        if time.monotonic() > deadline:
            print(f"error: timed out after {args.timeout:g}s "
                  f"(job {job_id} still {status['state']})",
                  file=sys.stderr)
            return 2
        time.sleep(0.2)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if status["state"] == "done" else 1


def _cmd_jobs(args) -> int:
    from .service import job_statuses, request_cancel, request_stop
    if args.cancel:
        request_cancel(args.root, args.cancel)
        print(f"cancel requested for {args.cancel}")
        return 0
    if args.stop:
        request_stop(args.root)
        print("stop requested")
        return 0
    statuses = job_statuses(args.root)
    if not statuses:
        print("no jobs")
        return 0
    for status in statuses:
        line = (f"{status.get('id', '?'):<22} "
                f"{status.get('kind', '?'):<16} "
                f"{status.get('state', '?'):<10}")
        if status.get("cache_hit"):
            line += " (cache hit)"
        if status.get("progress"):
            done, total = status["progress"]
            line += f" {done}/{total}"
        print(line)
    return 0


def _cmd_trace(args) -> int:
    import os
    from pathlib import Path

    from .telemetry import render_trace
    # load_events treats a missing file as "no events" (it walks rotated
    # generations that may not exist), so check the primary file here --
    # a typo'd path should error, not print an empty tree.
    if not Path(args.events).exists():
        print(f"error: no such events file: {args.events}",
              file=sys.stderr)
        return 2
    try:
        print(render_trace(args.events))
    except BrokenPipeError:
        # Piped into `head`/`less` and the reader left -- exit quietly
        # like cat(1); redirect stdout so the interpreter's exit flush
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_stats(args) -> int:
    import json

    from .service import request_stats
    try:
        payload = request_stats(args.root, timeout=args.timeout)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    cache = payload.get("cache", {})
    print(f"cache: {cache.get('hits', 0)} hit(s), "
          f"{cache.get('misses', 0)} miss(es), "
          f"{cache.get('stores', 0)} store(s), "
          f"{cache.get('evictions', 0)} eviction(s), "
          f"{cache.get('entries', 0)} entrie(s), "
          f"{cache.get('bytes', 0)} byte(s)")
    jobs = payload.get("jobs", {})
    print("jobs: " + ", ".join(f"{state} {count}"
                               for state, count in sorted(jobs.items())))
    metrics = payload.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        print("counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name:<28} {value}")
    gauges = metrics.get("gauges", {})
    if gauges:
        print("gauges:")
        for name, gauge in sorted(gauges.items()):
            samples = gauge.get("samples", [])
            print(f"  {name:<28} {gauge.get('value')} "
                  f"({len(samples)} sample(s))")
    return 0


def _cmd_table1(_args) -> int:
    print(f"{'Design Parameter:':<24} Range:")
    for name, rng in OTA_DESIGN_SPACE.table1_rows():
        print(f"{name:<24} {rng}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-flow",
        description="Combined yield+performance behavioural modelling "
                    "(reproduction of Ali et al., DATE 2008)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="run the model-building flow")
    build.add_argument("--output", default="artifacts",
                       help="artefact directory (default: ./artifacts)")
    build.add_argument("--seed", type=int, default=2008)
    build.add_argument("--reduced", action="store_true",
                       help="seconds-scale run instead of paper scale")
    build.add_argument("--generations", type=int, default=0,
                       help="override generation count")
    build.add_argument("--backend", default="",
                       help="Monte-Carlo execution backend: serial, "
                            "thread[:N], process[:N], or auto "
                            "(default: $REPRO_EXEC_BACKEND or serial)")
    build.add_argument("--workers", type=int, default=0,
                       help="worker count for pooled backends "
                            "(default: one per CPU)")
    build.add_argument("--corners", default="all",
                       help="PVT corner-verification set: 'all' (default), "
                            "a comma list of corner names (e.g. tm,ws), or "
                            "'none' to skip the stage")
    build.add_argument("--vdd", default="",
                       help="comma list of supply voltages [V] for the "
                            "corner sweep (default: nominal +/-10%%)")
    build.add_argument("--temp", default="",
                       help="comma list of temperatures [deg C] for the "
                            "corner sweep (default: -40,27,125); use the "
                            "'--temp=-40,27,125' form for lists starting "
                            "with a negative value")
    build.add_argument("--surrogate", action="store_true",
                       help="train a process-space surrogate bundle of the "
                            "mid-front design and save it with the "
                            "artefacts (surrogate_model.npz)")
    build.add_argument("--surrogate-budget", type=int, default=0,
                       help="simulator budget of the surrogate training "
                            "stage (implies --surrogate; default 96 when "
                            "--surrogate is given)")
    build.add_argument("--adaptive-ci", type=float, default=0.0,
                       help="enable the streaming adaptive yield "
                            "verification stage: stop the mid-front "
                            "verification MC once the Wilson CI on the "
                            "yield is narrower than this width (yield "
                            "fraction, e.g. 0.05; default 0 = stage "
                            "disabled)")
    build.add_argument("--checkpoint", default="",
                       help="checkpoint file of the streaming "
                            "verification; an interrupted build resumes "
                            "from it instead of restarting the stage "
                            "(needs --adaptive-ci)")
    build.add_argument("--high-sigma", action="store_true",
                       help="enable the stage-4d high-sigma verification: "
                            "a rare-event (multilevel splitting + "
                            "importance sampling) failure-probability "
                            "estimate of the mid-front design, saved as "
                            "high_sigma.txt")
    build.add_argument("--high-sigma-budget", type=int, default=0,
                       help="per-level sample budget of the high-sigma "
                            "stage (implies --high-sigma; default 1000 "
                            "when --high-sigma is given; the final "
                            "unbiased run uses twice this)")
    build.add_argument("--yield-objective", default="none",
                       choices=["none", "yield", "ksigma", "chance"],
                       help="stage-7 in-loop yield search mode: append a "
                            "yield objective, a k-sigma robustness "
                            "objective, or a chance-constraint penalty "
                            "(default: none, stage disabled)")
    build.add_argument("--yield-target", type=float, default=0.90,
                       help="target yield of the stage-7 estimator-ladder "
                            "escalation and chance penalty (default 0.90)")
    build.add_argument("--lint", default="strict", choices=list(LINT_MODES),
                       help="stage-0 pre-flight topology lint of the "
                            "testbench: strict (default) fails fast on "
                            "error findings, warn only reports, off skips "
                            "the stage")
    build.add_argument("--fidelity-budget", type=int, default=0,
                       help="simulator-call budget bounding the stage-7 "
                            "ladder's escalation per search; the corner "
                            "floor always runs and counts against it "
                            "(default 0 = unlimited)")
    build.add_argument("--telemetry", default="", metavar="EVENTS_JSONL",
                       help="record tracing spans, metrics and progress "
                            "events to this JSONL file (render with "
                            "'repro-flow trace'; default: off)")
    build.set_defaults(func=_cmd_build)

    target = sub.add_parser("target", help="yield-target a specification")
    target.add_argument("model_dir", help="directory written by 'build'")
    target.add_argument("--gain", type=float, default=50.0,
                        help="required gain [dB] (default 50)")
    target.add_argument("--pm", type=float, default=74.0,
                        help="required phase margin [deg] (default 74)")
    target.set_defaults(func=_cmd_target)

    filt = sub.add_parser("filter", help="run the filter application flow")
    filt.add_argument("model_dir", help="directory written by 'build'")
    filt.add_argument("--seed", type=int, default=2008)
    filt.add_argument("--samples", type=int, default=500,
                      help="verification MC samples (default 500)")
    filt.add_argument("--telemetry", default="", metavar="EVENTS_JSONL",
                      help="record tracing spans, metrics and progress "
                           "events to this JSONL file (render with "
                           "'repro-flow trace'; default: off)")
    filt.set_defaults(func=_cmd_filter)

    lint = sub.add_parser(
        "lint", help="topology-lint netlist files without simulating",
        description="Parse SPICE netlist files and run the topology lint "
                    "rules (repro.lint) over each.  Exit status: 0 when "
                    "every file is clean, 1 when any file has "
                    "error-severity findings (or any finding at all with "
                    "--strict), 2 when a file cannot be read.")
    lint.add_argument("netlists", nargs="+", metavar="netlist",
                      help="netlist file(s) to check")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as failures (nonzero exit)")
    lint.add_argument("--json", action="store_true",
                      help="emit one JSON array of report objects instead "
                           "of text")
    lint.set_defaults(func=_cmd_lint)

    serve = sub.add_parser(
        "serve", help="run the yield-service daemon over a spool directory",
        description="Serve job requests dropped into <root>/queue/ "
                    "(see 'repro-flow submit') through a worker pool with "
                    "a content-addressed result cache.  Runs until a stop "
                    "sentinel appears ('repro-flow jobs <root> --stop') or "
                    "the idle timeout elapses.")
    serve.add_argument("root", help="service root directory (created if "
                       "missing)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent jobs (default 2)")
    serve.add_argument("--idle-exit", type=float, default=0.0,
                       help="exit after this many idle seconds "
                            "(default: run until stopped)")
    serve.add_argument("--cache-bytes", type=int, default=0,
                       help="result-cache byte budget "
                            "(default: cache default)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a JSON job request to a service root",
        description="Validate a JSON request (kinds: estimate, lint) and "
                    "drop it into <root>/queue/ for a running daemon.")
    submit.add_argument("root", help="service root directory")
    submit.add_argument("request",
                        help="path to a JSON request file, or '-' for stdin")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its "
                             "final status")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait timeout in seconds (default 300)")
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list, cancel, or stop jobs under a service root")
    jobs.add_argument("root", help="service root directory")
    jobs.add_argument("--cancel", metavar="JOB_ID", default="",
                      help="request cancellation of one job")
    jobs.add_argument("--stop", action="store_true",
                      help="ask the daemon to exit")
    jobs.set_defaults(func=_cmd_jobs)

    trace = sub.add_parser(
        "trace", help="render a telemetry events file as a span tree",
        description="Rebuild the hierarchical span tree from a telemetry "
                    "events JSONL file (written via --telemetry or "
                    "REPRO_TELEMETRY) and print it with cumulative/self "
                    "wall time and per-stage simulation counts, followed "
                    "by the run's simulation ledger.")
    trace.add_argument("events", help="telemetry events JSONL file")
    trace.set_defaults(func=_cmd_trace)

    stats = sub.add_parser(
        "stats", help="fetch a live metrics snapshot from a daemon",
        description="Ask the daemon serving <root> for its metrics "
                    "registry snapshot (counters and gauges with "
                    "timestamped samples), live cache figures and job "
                    "counts, over the same file-spool protocol the other "
                    "service verbs use.")
    stats.add_argument("root", help="service root directory")
    stats.add_argument("--timeout", type=float, default=10.0,
                       help="seconds to wait for the daemon's response "
                            "(default 10)")
    stats.add_argument("--json", action="store_true",
                       help="print the raw JSON payload")
    stats.set_defaults(func=_cmd_stats)

    table1 = sub.add_parser("table1", help="print the Table-1 design space")
    table1.set_defaults(func=_cmd_table1)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        # Library errors are diagnoses, not crashes: an unreachable
        # specification in `target`, say, reads as one error line.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
