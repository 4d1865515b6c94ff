"""The paper's proposed algorithm, end to end (Figure 3).

``run_model_build_flow`` executes the model-building half of the paper:

0. **Pre-flight topology lint** (``config.lint``) -- the OTA testbench
   the whole flow is about to simulate thousands of times is checked by
   :mod:`repro.lint` before any simulation budget is spent; in
   ``strict`` mode a topologically broken circuit fails fast with a
   readable :class:`~repro.errors.LintGateError` carrying the full
   :class:`~repro.lint.LintReport` instead of a singular-matrix
   traceback deep inside the optimiser.
1. **Netlist / objective generation** -- the OTA problem over the Table-1
   parameter space (:class:`repro.designs.problems.OTAProblem`).
2. **Multi-objective optimisation** -- WBGA, 100 generations x 100
   individuals by default (section 4.2).
3. **Pareto front extraction** -- non-dominated filtering of all evaluated
   individuals (section 3.3; the paper finds 1022 points).
4. **Monte-Carlo variation analysis** -- ``mc_samples`` die realisations
   on *every* Pareto point (section 3.4; paper: 200).
4b. **PVT corner verification** -- every Pareto point swept across the
   full process-corner x supply x temperature grid as stacked batch
   lanes (:mod:`repro.corners`), reporting per-corner spec margins and
   checking that deterministic corners bound the Monte-Carlo spread.
4c. **Streaming adaptive yield verification** (optional,
   ``adaptive_ci > 0``) -- a streaming Monte-Carlo run
   (:mod:`repro.mc.streaming`) on the mid-front design that reduces
   chunks into online accumulators and stops as soon as the Wilson
   interval on the yield is narrower than the requested width, instead
   of burning a fixed sample count; checkpointable via
   ``streaming_checkpoint`` so an interrupted build resumes it.
5. **Table-model generation** -- performance + variation tables
   (section 3.5) assembled into a
   :class:`~repro.yieldmodel.targeting.CombinedYieldModel`.
6. **Surrogate training** (optional, ``surrogate_budget > 0``) -- a
   process-space response-surface bundle (:mod:`repro.surrogate`) of the
   mid-front reference design, trained through the same execution
   backends and persisted with the artefacts so later yield campaigns
   can run at polynomial cost.
7. **In-loop yield search** (optional, ``yield_objective != "none"``) --
   the :mod:`repro.optimize` subsystem re-optimises both seed designs
   (the OTA W/L space and the filter2 capacitor space) with yield as an
   in-loop objective, estimated per candidate by the multi-fidelity
   estimator ladder, and produces yield-annotated Pareto fronts plus a
   comparison against the paper's guard-banded selection.

Costs are tracked in a :class:`~repro.telemetry.ledger.SimulationLedger`
so Table 5 and the conventional-flow comparison can be regenerated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..corners import CornerGrid, CornerVerification, corner_sweep_points
from ..designs.filter2 import DEFAULT_FILTER_SPEC
from ..designs.ota import (OTA_DESIGN_SPACE, OTAParameters, build_ota,
                           evaluate_ota)
from ..designs.problems import OTAProblem, TransistorFilterProblem
from ..errors import YieldModelError
from ..lint import preflight_lint
from ..mc.engine import MCConfig, monte_carlo_points
from ..mc.sampler import stream
from ..mc.streaming import AdaptiveStop, StreamingResult
from ..measure.specs import Spec, SpecSet
from ..moo.ga import GAConfig
from ..moo.wbga import WBGAResult, run_wbga
from ..optimize import (LadderConfig, YieldSearchConfig, YieldSearchResult,
                        filter_evaluator_factory, ota_evaluator_factory,
                        run_yield_search)
from ..process import C35, ProcessKit
from ..surrogate import train_surrogates
from ..tablemodel.pareto_table import ParetoTableModel
from ..telemetry.ledger import SimulationLedger
from ..workload import ota_points_evaluator, ota_reference_evaluator
from ..yieldmodel.estimator import estimate_yield_streaming
from ..yieldmodel.rare import (RareEventConfig, RareEventResult,
                               estimate_yield_rare)
from ..yieldmodel.targeting import CombinedYieldModel
from ..yieldmodel.variation import DEFAULT_K_SIGMA, variation_columns

__all__ = ["FlowConfig", "FlowResult", "run_model_build_flow",
           "paper_scale_config", "reduced_config"]


@dataclass(frozen=True)
class FlowConfig:
    """Configuration of the model-building flow.

    Defaults reproduce the paper's run (100x100 WBGA, 200 MC samples per
    Pareto point, 3-sigma variation).  ``reduced_config()`` gives a
    seconds-scale variant for tests and default benchmarks.
    """

    generations: int = 100
    population: int = 100
    mc_samples: int = 200
    k_sigma: float = DEFAULT_K_SIGMA
    seed: int = 2008
    #: Stage-0 pre-flight topology lint of the OTA testbench the flow is
    #: about to simulate thousands of times: ``"strict"`` rejects
    #: circuits with error findings by raising
    #: :class:`~repro.errors.LintGateError` (carrying the full
    #: :class:`~repro.lint.LintReport`), ``"warn"`` reports findings via
    #: ``progress`` but continues, ``"off"`` skips the stage.
    lint: str = "strict"
    cl: float = 10e-12
    ibias: float = 20e-6
    mc_chunk_lanes: int = 4000
    max_pareto_points: int | None = None
    mc_backend: str | None = None
    mc_workers: int = 0
    #: Corner-verification stage: "all" sweeps every kit corner, a comma
    #: list ("tm,ws") restricts it, "none" skips the stage entirely.
    corners: str = "all"
    #: Supply-voltage sweep [V]; empty means nominal +/-10 %.
    corner_vdds: tuple[float, ...] = ()
    #: Temperature sweep [deg C]; empty means -40/27/125.
    corner_temps: tuple[float, ...] = ()
    #: Spec limits the per-corner margins are measured against (the
    #: paper's section-5 OTA requirement).
    corner_spec_gain_db: float = 50.0
    corner_spec_pm_deg: float = 60.0
    #: Streaming adaptive yield verification (stage 4c): target full
    #: width of the Wilson confidence interval on the yield of the
    #: mid-front design, as a yield fraction (e.g. 0.05 = +/-2.5 %);
    #: 0 disables the stage.
    adaptive_ci: float = 0.0
    #: Sample cap of the adaptive verification run (it usually stops
    #: far earlier).
    adaptive_max_samples: int = 4000
    #: Chunk size of the adaptive verification.  Deliberately smaller
    #: than ``mc_chunk_lanes``: the adaptive stop can only fire between
    #: chunks, so the chunk size is the stopping granularity.
    adaptive_chunk_lanes: int = 256
    #: Chunks per stopping-check round of the adaptive verification
    #: (also the per-round parallelism -- set it at or above the worker
    #: count of a pooled backend to keep the pool busy).  Explicit
    #: rather than derived from the backend, so the stop point -- and
    #: the checkpoint identity -- never depends on the backend choice.
    adaptive_check_every: int = 1
    #: Checkpoint artefact of the streaming verification ("" = none).
    #: An interrupted build re-run with the same seed resumes the
    #: verification from this file instead of restarting it.
    streaming_checkpoint: str = ""
    #: Stage-4d high-sigma verification: estimate the rare-event failure
    #: probability of the mid-front design against the corner specs via
    #: multilevel splitting + adaptive importance sampling
    #: (:mod:`repro.yieldmodel.rare`) -- resolves 5-6 sigma failure
    #: rates the sampling stages cannot see.  ``False`` skips the stage.
    high_sigma: bool = False
    #: Per-splitting-level sample budget of the stage-4d estimator.
    high_sigma_per_level: int = 1000
    #: Final unbiased importance-sampling budget of stage 4d.
    high_sigma_final: int = 2000
    #: Simulator budget of the optional surrogate-training stage
    #: (stage 6); 0 disables the stage entirely.
    surrogate_budget: int = 0
    #: Surrogate model family when the stage runs
    #: (:data:`repro.surrogate.SURROGATE_KINDS`).
    surrogate_kind: str = "quadratic"
    #: In-loop yield search mode of the optional stage 7: ``"none"``
    #: disables the stage; ``"yield"`` / ``"ksigma"`` / ``"chance"``
    #: select the augmentation of :mod:`repro.optimize`.
    yield_objective: str = "none"
    #: Target yield of the stage-7 escalation logic and of the
    #: chance-constraint penalty.
    yield_target: float = 0.90
    #: Total simulator-call budget of the stage-7 estimator ladder per
    #: search (0 = unlimited).
    fidelity_budget: int = 0
    #: GA scale of the stage-7 searches (deliberately smaller than the
    #: stage-2 WBGA: every candidate pays an in-loop yield estimate).
    yield_generations: int = 12
    yield_population: int = 16
    #: Telemetry events file (JSONL) of this run; "" leaves telemetry in
    #: its ambient state (off, or whatever ``REPRO_TELEMETRY`` enabled).
    #: Never part of any checkpoint fingerprint -- telemetry observes the
    #: computation, it does not shape it.
    telemetry: str = ""

    def ga_config(self) -> GAConfig:
        return GAConfig(population_size=self.population,
                        generations=self.generations, seed=self.seed)

    def corner_grid(self, pdk: ProcessKit) -> CornerGrid | None:
        """The PVT grid of the corner stage, or ``None`` when disabled."""
        if self.corners.strip().lower() == "none":
            return None
        grid = CornerGrid.from_spec(pdk, self.corners)
        if self.corner_vdds:
            grid = dataclasses.replace(grid, vdds=tuple(self.corner_vdds))
        if self.corner_temps:
            grid = dataclasses.replace(grid, temps_c=tuple(self.corner_temps))
        return grid

    def corner_specs(self) -> SpecSet:
        """The spec the corner margins are measured against."""
        return SpecSet([
            Spec("gain_db", "ge", self.corner_spec_gain_db, "dB"),
            Spec("pm_deg", "ge", self.corner_spec_pm_deg, "deg"),
        ])

    def yield_search_config(self) -> YieldSearchConfig:
        """Stage-7 search settings derived from the flow configuration."""
        ladder = LadderConfig(
            yield_target=self.yield_target,
            fidelity_budget=self.fidelity_budget,
            seed=self.seed,
            backend=self.mc_backend, workers=self.mc_workers,
            chunk_lanes=self.mc_chunk_lanes)
        return YieldSearchConfig(
            mode=self.yield_objective, yield_target=self.yield_target,
            generations=self.yield_generations,
            population=self.yield_population,
            seed=self.seed, ladder=ladder)


def paper_scale_config(seed: int = 2008) -> FlowConfig:
    """The full section-4 scale: 10,000 evaluations, 200-sample MC."""
    return FlowConfig(seed=seed)


def reduced_config(seed: int = 2008) -> FlowConfig:
    """A seconds-scale configuration for tests and quick benchmarks."""
    return FlowConfig(generations=12, population=24, mc_samples=40,
                      max_pareto_points=24, seed=seed)


@dataclass
class FlowResult:
    """Everything the model-building flow produced.

    Attributes
    ----------
    pareto_parameters:
        Natural-unit designable parameters of the front, ``(K, 8)``.
    pareto_objectives:
        Nominal (gain_db, pm_deg) of the front, ``(K, 2)``.
    mc_samples:
        Per-point Monte-Carlo populations, name -> ``(K, S)``.
    variation:
        Variation-model columns, ``"<objective>_delta_pct"`` -> ``(K,)``.
    model:
        The combined performance + variation model (the paper's
        deliverable).
    corner_check:
        Per-corner verification of the whole front
        (:class:`~repro.corners.CornerVerification`), or ``None`` when
        the stage was disabled (``config.corners == "none"``).
    surrogate:
        Trained process-space surrogate bundle of the reference design
        (:class:`repro.surrogate.SurrogateBundle`), or ``None`` when the
        stage was disabled (``config.surrogate_budget == 0``).
    surrogate_reference:
        Natural-unit design parameters the surrogate was trained at
        (the mid-front point), shape ``(8,)``; ``None`` when disabled.
    yield_search, filter_yield_search:
        Stage-7 in-loop yield-aware searches of the OTA and filter2
        designs (:class:`repro.optimize.YieldSearchResult`), or ``None``
        when the stage was disabled (``config.yield_objective == "none"``).
    streaming_verification:
        Stage-4c streaming adaptive yield verification of the mid-front
        design (:class:`repro.mc.streaming.StreamingResult`: online
        accumulators, yield counts, stop state), or ``None`` when the
        stage was disabled (``config.adaptive_ci == 0``).
    high_sigma:
        Stage-4d rare-event failure-probability estimate of the
        mid-front design (:class:`repro.yieldmodel.rare.RareEventResult`),
        or ``None`` when the stage was disabled
        (``config.high_sigma == False``).
    ledger:
        Simulation/time accounting for the Table-5 comparison.
    """

    config: FlowConfig
    pdk_name: str
    wbga: WBGAResult
    pareto_parameters: np.ndarray
    pareto_objectives: np.ndarray
    ro_ohms: np.ndarray
    ugf_hz: np.ndarray
    mc_samples: dict[str, np.ndarray]
    variation: dict[str, np.ndarray]
    model: CombinedYieldModel
    corner_check: CornerVerification | None = None
    surrogate: object | None = None
    surrogate_reference: np.ndarray | None = None
    yield_search: YieldSearchResult | None = None
    filter_yield_search: YieldSearchResult | None = None
    streaming_verification: StreamingResult | None = None
    high_sigma: RareEventResult | None = None
    ledger: SimulationLedger = field(default_factory=SimulationLedger)

    @property
    def pareto_count(self) -> int:
        """Number of Pareto points carried into the model."""
        return self.pareto_parameters.shape[0]

    @property
    def total_pareto_found(self) -> int:
        """Front size before any ``max_pareto_points`` subsampling (the
        paper's 1022)."""
        return self.wbga.pareto_count()

    def table2_rows(self, count: int = 10) -> list[dict[str, float]]:
        """Rows shaped like the paper's Table 2: design index, gain,
        dGain%, PM, dPM% -- sampled evenly along the front."""
        k = self.pareto_count
        indices = np.unique(np.linspace(0, k - 1, min(count, k)).astype(int))
        rows = []
        for i in indices:
            rows.append({
                "design": int(i),
                "gain_db": float(self.pareto_objectives[i, 0]),
                "dgain_pct": float(self.variation["gain_db_delta_pct"][i]),
                "pm_deg": float(self.pareto_objectives[i, 1]),
                "dpm_pct": float(self.variation["pm_deg_delta_pct"][i]),
            })
        return rows


def _subsample_front(order: np.ndarray, limit: int | None) -> np.ndarray:
    """Evenly subsample a sorted front to at most ``limit`` points."""
    if limit is None or order.size <= limit:
        return order
    picks = np.unique(np.linspace(0, order.size - 1, limit).astype(int))
    return order[picks]


def _collapse_front(objectives: np.ndarray, unit_params: np.ndarray,
                    rel_tol: float = 1e-3
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Collapse clusters of near-duplicate front points to one each.

    A converged GA revisits essentially the same design many times, so the
    raw front contains clusters of points whose objectives differ by
    floating-point dust while their *parameters* may differ arbitrarily
    (the performance->parameter map is many-to-one).  Interpolating
    through such clusters is meaningless -- and feeds the cubic-spline
    tables knots separated by ~1e-3 dB with independent Monte-Carlo noise,
    which makes them ring.  One representative (the first, i.e. the
    best-second-objective member) is kept per cluster; the cluster width
    is ``rel_tol`` of the key-objective span.

    Expects ``objectives`` sorted ascending by objective 0.
    """
    keys = objectives[:, 0]
    span = max(keys[-1] - keys[0], 1e-12)
    width = rel_tol * span
    keep = [0]
    for i in range(1, keys.size):
        if keys[i] - keys[keep[-1]] > width:
            keep.append(i)
    picks = np.asarray(keep)
    return objectives[picks], unit_params[picks]


def run_model_build_flow(config: FlowConfig | None = None, *,
                         pdk: ProcessKit = C35,
                         progress=None) -> FlowResult:
    """Execute the Figure-3 flow and return the combined model.

    Parameters
    ----------
    config:
        Flow settings (paper scale by default).
    progress:
        Optional ``callable(str)`` for stage announcements.

    Raises
    ------
    LintGateError
        If ``config.lint == "strict"`` and the stage-0 pre-flight lint
        found error-severity topology problems in the testbench.
    YieldModelError
        If the optimisation produced no usable Pareto front (e.g. a
        degenerate configuration with too few evaluations).
    """
    config = config or FlowConfig()
    with telemetry.session(config.telemetry or None):
        with telemetry.span("flow.build", generations=config.generations,
                            population=config.population,
                            mc_samples=config.mc_samples, seed=config.seed):
            return _model_build_flow(config, pdk=pdk, progress=progress)


def _model_build_flow(config: FlowConfig, *, pdk: ProcessKit,
                      progress) -> FlowResult:
    """The flow body, run inside the telemetry session + root span."""
    ledger = SimulationLedger()
    say = telemetry.announcer(progress)

    # Stage 0: pre-flight topology lint of the testbench, before any
    # simulation budget is spent on it.
    if config.lint != "off":
        say(f"pre-flight lint ({config.lint}): OTA testbench")
        testbench = build_ota(OTAParameters(), pdk=pdk, cl=config.cl,
                              ibias=config.ibias)
        # Spanned but not timed: the ledger (Table 5) counts simulator
        # work, and the lint simulates nothing.
        with telemetry.span("flow.stage", stage="pre-flight lint"):
            preflight_lint(testbench, config.lint,
                           stage="model-build pre-flight lint",
                           progress=progress)

    # Stages 1+2: objective setup and WBGA optimisation.
    say(f"WBGA optimisation: {config.generations} generations x "
        f"{config.population} individuals")
    problem = OTAProblem(pdk=pdk, cl=config.cl, ibias=config.ibias)
    with ledger.timed("multi-objective optimisation") as row:
        wbga = run_wbga(problem, config.ga_config(),
                        rng=stream(config.seed, "wbga"))
        row.simulations += wbga.evaluations

    # Stage 3: Pareto front extraction.
    with ledger.timed("pareto extraction"):
        mask = wbga.pareto_mask()
        if np.count_nonzero(mask) < 2:
            raise YieldModelError(
                "optimisation yielded fewer than two Pareto points; "
                "increase generations/population")
        unit_params = wbga.all_parameters[mask]
        objectives = wbga.all_objectives[mask]
        order = np.argsort(objectives[:, 0])
        objectives, unit_params = _collapse_front(objectives[order],
                                                  unit_params[order])
        picks = _subsample_front(np.arange(objectives.shape[0]),
                                 config.max_pareto_points)
        objectives = objectives[picks]
        unit_params = unit_params[picks]
    say(f"Pareto front: {int(np.count_nonzero(mask))} points found, "
        f"{unit_params.shape[0]} carried into the model")

    natural_params = OTAParameters.from_normalized(unit_params).to_array()
    natural_params = np.atleast_2d(natural_params)
    k_points = natural_params.shape[0]

    # Nominal re-evaluation for the behavioural-stage columns (ro, ugf).
    with ledger.timed("nominal characterisation", k_points):
        nominal = evaluate_ota(OTAParameters.from_array(natural_params),
                               pdk=pdk, cl=config.cl, ibias=config.ibias)
    gain_lin = 10.0 ** (nominal["gain_db"] / 20.0)
    gm = 2.0 * np.pi * nominal["ugf_hz"] * config.cl
    ro_ohms = gain_lin / gm

    # Stage 4: Monte-Carlo variation analysis on every front point.
    say(f"Monte Carlo: {config.mc_samples} samples x {k_points} points")
    mc_config = MCConfig(n_samples=config.mc_samples,
                         seed=config.seed,
                         chunk_lanes=config.mc_chunk_lanes,
                         backend=config.mc_backend,
                         workers=config.mc_workers)
    front_evaluator = ota_points_evaluator(natural_params, pdk=pdk,
                                           cl=config.cl, ibias=config.ibias)

    with ledger.timed("monte-carlo variation analysis",
                      k_points * config.mc_samples):
        mc_samples = monte_carlo_points(
            front_evaluator, k_points, pdk, mc_config,
            progress=(lambda done, total:
                      say(f"  MC {done}/{total} points"))
            if progress else None)

    # Stage 4b: deterministic PVT corner verification of the whole front.
    corner_check = None
    grid = config.corner_grid(pdk)
    if grid is not None:
        say(f"corner verification: {grid.describe()} x {k_points} points")
        with ledger.timed("corner verification", k_points * grid.size):
            corner_samples = corner_sweep_points(
                front_evaluator, k_points, pdk, grid,
                backend=config.mc_backend, workers=config.mc_workers,
                chunk_lanes=config.mc_chunk_lanes)
        corner_check = CornerVerification(grid=grid, samples=corner_samples,
                                          specs=config.corner_specs())
        corner_check.attach_mc_check(mc_samples, k_sigma=config.k_sigma)
        for check in corner_check.mc_check.values():
            say(f"  {check.describe()}")

    # Stage 4c (optional): streaming adaptive yield verification of the
    # mid-front design against the corner specs -- stops as soon as the
    # Wilson interval is narrower than the requested width instead of
    # burning a fixed sample count.
    streaming_verification = None
    if config.adaptive_ci > 0.0:
        import hashlib

        reference = natural_params[k_points // 2]
        say(f"streaming yield verification: CI width <= "
            f"{config.adaptive_ci:g} (cap {config.adaptive_max_samples} "
            f"samples) at the mid-front design")
        # The stage key binds the verified design into the checkpoint
        # fingerprint: a stale checkpoint from a build whose front (and
        # therefore mid-front reference) differs must be rejected, not
        # silently resumed as another design's yield.
        digest = hashlib.sha256(reference.tobytes()).hexdigest()[:16]
        streaming_config = MCConfig(
            n_samples=config.adaptive_max_samples, seed=config.seed,
            chunk_lanes=config.adaptive_chunk_lanes,
            backend=config.mc_backend, workers=config.mc_workers)
        with ledger.timed("streaming yield verification") as row:
            estimate, streaming_verification = estimate_yield_streaming(
                ota_reference_evaluator(reference, pdk=pdk, cl=config.cl,
                                        ibias=config.ibias),
                pdk, config.corner_specs(), streaming_config,
                adaptive=AdaptiveStop(
                    metric="yield", ci_width=config.adaptive_ci,
                    check_every=config.adaptive_check_every),
                checkpoint=config.streaming_checkpoint or None,
                stage=f"mc-verify-{digest}")
            # Only the work this invocation simulated counts: a resumed
            # run's checkpointed samples were paid for by the earlier run.
            row.simulations += (streaming_verification.samples_done
                                - streaming_verification.samples_resumed)
        for line in estimate.describe().splitlines():
            say(f"  {line}")
        if streaming_verification.stopped_early:
            say(f"  adaptive stop after "
                f"{streaming_verification.samples_done}/"
                f"{streaming_verification.samples_cap} samples")

    # Stage 4d (optional): high-sigma rare-event verification of the
    # mid-front design -- multilevel splitting + adaptive importance
    # sampling resolves failure rates far below what stages 4/4c can
    # see at their sample budgets.
    high_sigma = None
    if config.high_sigma:
        reference = natural_params[k_points // 2]
        say(f"high-sigma verification: rare-event estimate "
            f"({config.high_sigma_per_level}/level, "
            f"{config.high_sigma_final} final) at the mid-front design")
        rare_config = RareEventConfig(
            n_per_level=config.high_sigma_per_level,
            n_final=config.high_sigma_final, seed=config.seed,
            chunk_lanes=config.mc_chunk_lanes,
            backend=config.mc_backend, workers=config.mc_workers)
        with ledger.timed("high-sigma verification") as row:
            high_sigma = estimate_yield_rare(
                ota_reference_evaluator(reference, pdk=pdk, cl=config.cl,
                                        ibias=config.ibias),
                config.corner_specs(), pdk, rare_config)
            row.simulations += high_sigma.total_simulations
        for line in high_sigma.describe().splitlines():
            say(f"  {line}")

    # Stage 5: table-model generation -> the combined model.
    with ledger.timed("table model generation"):
        # Smooth the per-point variation estimates along the front: the
        # MC estimator noise (~1/sqrt(2S) relative) is independent per
        # point while the physical variation is smooth (see
        # smooth_along_front).  Window ~ 5% of the front length.
        window = max(3, k_points // 20)
        variation = variation_columns(mc_samples, k_sigma=config.k_sigma,
                                      smooth_window=window)
        columns: dict[str, np.ndarray] = dict(variation)
        for j, name in enumerate(OTA_DESIGN_SPACE.names):
            columns[name] = natural_params[:, j]
        columns["ro_ohms"] = ro_ohms
        columns["ugf_hz"] = nominal["ugf_hz"]
        table = ParetoTableModel(objectives, ("gain_db", "pm_deg"),
                                 columns=columns)
        model = CombinedYieldModel(table, OTA_DESIGN_SPACE.names)
    say("combined performance + variation model ready")

    # Stage 6 (optional): train a process-space surrogate of the
    # mid-front reference design and carry it into the artefacts.
    surrogate = None
    surrogate_reference = None
    if config.surrogate_budget > 0:
        reference = natural_params[k_points // 2]
        say(f"surrogate training: {config.surrogate_budget} samples "
            f"({config.surrogate_kind}) at the mid-front design")
        with ledger.timed("surrogate training", config.surrogate_budget):
            surrogate = train_surrogates(
                ota_reference_evaluator(reference, pdk=pdk, cl=config.cl,
                                        ibias=config.ibias),
                pdk, n_train=config.surrogate_budget, seed=config.seed,
                kind=config.surrogate_kind,
                backend=config.mc_backend, workers=config.mc_workers,
                chunk_lanes=config.mc_chunk_lanes)
        surrogate_reference = reference
        for line in surrogate.describe().splitlines():
            say(f"  {line}")

    # Stage 7 (optional): in-loop yield-aware Pareto search on both
    # seed designs, sharing the flow's ledger for per-fidelity costs.
    yield_search = None
    filter_yield_search = None
    if config.yield_objective != "none":
        search_config = config.yield_search_config()
        say(f"in-loop yield search (OTA): {config.yield_generations} "
            f"generations x {config.yield_population} individuals, "
            f"mode {config.yield_objective}")
        # Spanned, not timed: the search's ledger rows open their own
        # spans under this one, and timing it too would count their
        # seconds twice.
        with telemetry.span("flow.stage", stage="yield search (OTA)"):
            yield_search = run_yield_search(
                OTAProblem(pdk=pdk, cl=config.cl, ibias=config.ibias),
                ota_evaluator_factory(pdk=pdk, cl=config.cl,
                                      ibias=config.ibias),
                config.corner_specs(), pdk, search_config, ledger=ledger)
        for line in yield_search.describe().splitlines():
            say(f"  {line}")

        reference_ota = OTAParameters.from_array(
            natural_params[k_points // 2])
        filter_specs = SpecSet([
            Spec("ripple_db", "le", DEFAULT_FILTER_SPEC.max_ripple_db, "dB"),
            Spec("atten_db", "ge", DEFAULT_FILTER_SPEC.min_atten_db, "dB"),
        ])
        say("in-loop yield search (filter2) at the mid-front OTA design")
        with telemetry.span("flow.stage", stage="yield search (filter2)"):
            filter_yield_search = run_yield_search(
                TransistorFilterProblem(reference_ota, pdk=pdk),
                filter_evaluator_factory(reference_ota, pdk=pdk),
                filter_specs, pdk, search_config, ledger=ledger)
        for line in filter_yield_search.describe().splitlines():
            say(f"  {line}")

    return FlowResult(
        config=config,
        pdk_name=pdk.name,
        wbga=wbga,
        pareto_parameters=natural_params,
        pareto_objectives=objectives,
        ro_ohms=ro_ohms,
        ugf_hz=nominal["ugf_hz"],
        mc_samples=mc_samples,
        variation=variation,
        model=model,
        corner_check=corner_check,
        surrogate=surrogate,
        surrogate_reference=surrogate_reference,
        yield_search=yield_search,
        filter_yield_search=filter_yield_search,
        streaming_verification=streaming_verification,
        high_sigma=high_sigma,
        ledger=ledger,
    )
