"""The paper's section-5 application flow: filter design on the model.

Given the combined OTA model from :mod:`repro.flow.pipeline`, this flow
reproduces the anti-aliasing-filter demonstration:

1. **OTA selection** -- yield-targeted design for the paper's OTA
   requirement (gain > 50 dB, PM > 60 deg) via the combined model: one
   table interpolation, zero transistor simulations.
2. **Filter optimisation** -- MOO over C1-C3 (paper: 30 individuals x 40
   generations) with the *behavioural* OTA macromodel in the loop.  The
   optimiser here is NSGA-II rather than the WBGA: with spec-margin
   objectives the WBGA degenerates (an individual that maximises one
   margin while carrying a matching one-sided weight vector scores a
   perfect weighted fitness, so the population splits into two extreme
   clusters and never reaches the feasible knee).  The ablation benchmark
   ``benchmarks/test_ablation_optimizer.py`` quantifies exactly this
   failure mode; the paper's text only commits to "MOO" for this stage.
3. **Capacitor selection** -- the mask-feasible Pareto point with the
   largest worst-case margin (so capacitor process spread cannot push the
   response out of the mask).
4. **Verification** -- transistor-level Monte Carlo of the complete filter
   (paper: 500 samples, "confirmed a yield of 100 %").

Every transistor-level simulation spent here belongs to *verification
only*; the design loop itself runs entirely on the behavioural model --
that separation is the paper's headline efficiency claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..designs.filter2 import (DEFAULT_FILTER_SPEC, FilterCaps, FilterSpec,
                               build_filter_behavioral,
                               build_filter_transistor, evaluate_filter)
from ..designs.ota import OTAParameters
from ..designs.problems import BehavioralFilterProblem
from ..errors import YieldModelError
from ..lint import preflight_lint
from ..mc.engine import MCConfig, monte_carlo
from ..mc.sampler import stream
from ..measure.specs import Spec, SpecSet
from ..moo.ga import GAConfig
from ..moo.nsga2 import run_nsga2
from ..process import C35, ProcessKit
from ..telemetry.ledger import SimulationLedger
from ..yieldmodel.estimator import YieldEstimate, estimate_yield
from ..yieldmodel.targeting import CombinedYieldModel, YieldTargetedDesign

__all__ = ["FilterFlowConfig", "FilterFlowResult", "run_filter_flow"]

#: Population of the capacitor search (the paper's 30 individuals).
INDIVIDUALS = 30


@dataclass(frozen=True)
class FilterFlowConfig:
    """Settings of the filter application flow (paper defaults)."""

    #: Paper: "A total of 30 individuals and 40 generations were used"
    #: (the population is :data:`INDIVIDUALS`).
    generations: int = 40
    verification_samples: int = 500
    seed: int = 2008
    #: Topology lint of the chosen behavioural filter and the transistor
    #: verification testbench, run before the Monte-Carlo budget is
    #: spent: ``"strict"`` rejects error findings with
    #: :class:`~repro.errors.LintGateError`, ``"warn"`` only reports,
    #: ``"off"`` skips the checks.
    lint: str = "strict"
    #: Telemetry events file (JSONL) of this run; "" leaves telemetry in
    #: its ambient state.  Never part of any checkpoint fingerprint.
    telemetry: str = ""

    def ga_config(self) -> GAConfig:
        return GAConfig(population_size=INDIVIDUALS,
                        generations=self.generations, seed=self.seed)


@dataclass
class FilterFlowResult:
    """Everything the filter flow produced.

    Attributes
    ----------
    ota_design:
        The yield-targeted OTA selection (guard-banded per the model).
    caps:
        The chosen filter capacitors.
    nominal_performance:
        Behavioural-model filter measures of the chosen design.
    transistor_performance:
        Transistor-level filter measures (nominal process).
    yield_estimate:
        The 500-sample transistor Monte-Carlo verification.
    """

    config: FilterFlowConfig
    ota_design: YieldTargetedDesign
    ota_parameters: OTAParameters
    caps: FilterCaps
    nominal_performance: dict[str, float]
    transistor_performance: dict[str, float]
    yield_estimate: YieldEstimate
    pareto_objectives: np.ndarray
    ledger: SimulationLedger = field(default_factory=SimulationLedger)


def _parasitic_pole_from_pm(pm_deg: float, ugf_hz: float) -> float:
    """Equivalent second-pole frequency encoding the OTA's excess phase.

    At the unity-gain frequency the dominant pole contributes ~90 degrees,
    so the remaining lag ``90 - PM`` maps to a single equivalent pole at
    ``f_u / tan(90 - PM)``.  Feeding this into the behavioural macromodel
    makes the filter-level simulation reproduce the transistor OTA's
    peaking -- this is exactly the information the phase-margin column of
    the combined model carries into system-level design.
    """
    excess = np.radians(max(90.0 - pm_deg, 0.1))
    return float(ugf_hz / np.tan(excess))


def _select_capacitors(front_unit: np.ndarray, front_obj: np.ndarray, *,
                       spec: FilterSpec, ota_gain_db: float, ota_ro: float,
                       parasitic_pole_hz: float,
                       cap_corner_scale: float) -> int:
    """Pick the mask-feasible front point with the best worst margin that
    also survives the +/-3-sigma capacitor process corners.

    Objectives are the saturated mask margins
    (:func:`repro.designs.problems.filter_margins`); a design is feasible
    iff both are non-negative.  Candidates are tried best-margin-first; the
    first whose response stays inside the mask when all capacitors shift
    by ``+/-cap_corner_scale`` wins ("taking into account their
    variations", section 5).  If no candidate survives the corners the
    best nominal point is returned.
    """
    from ..designs.problems import filter_margins

    worst = np.min(front_obj, axis=1)
    order = np.argsort(worst)[::-1]
    if worst[order[0]] < 0:
        raise YieldModelError(
            "no capacitor choice on the Pareto front satisfies the filter "
            f"mask (best worst-margin {worst[order[0]]:.3f}); "
            "loosen the specification or enlarge the capacitor range")

    # Feasibility mirrors Spec.satisfied (margin >= 0): a zero worst
    # margin is on-mask, not a failure -- and must leave at least the
    # best nominal point as the corner-check fallback below.
    feasible = [int(i) for i in order if worst[i] >= 0]
    for index in feasible:
        caps = FilterCaps.from_normalized(front_unit[index])
        corners_ok = True
        for scale in (1.0 - cap_corner_scale, 1.0 + cap_corner_scale):
            circuit = build_filter_behavioral(
                caps.scaled(scale), ota_gain_db=ota_gain_db, ota_ro=ota_ro,
                parasitic_pole_hz=parasitic_pole_hz)
            margins = filter_margins(
                evaluate_filter(circuit, spec=spec), spec)
            if np.min(margins) <= 0:
                corners_ok = False
                break
        if corners_ok:
            return index
    return feasible[0]


def run_filter_flow(model: CombinedYieldModel,
                    config: FilterFlowConfig | None = None, *,
                    progress=None) -> FilterFlowResult:
    """Design and verify the section-5 filter on a combined OTA model,
    against the :data:`~repro.designs.filter2.DEFAULT_FILTER_SPEC` mask
    on the C35 kit.

    Raises
    ------
    LintGateError
        If ``config.lint == "strict"`` and a verification circuit has
        error-severity topology findings.
    YieldModelError
        If the OTA model cannot meet the OTA spec at 100 % yield, or no
        capacitor choice satisfies the filter mask.
    """
    config = config or FilterFlowConfig()
    with telemetry.session(config.telemetry or None):
        with telemetry.span("flow.filter", individuals=INDIVIDUALS,
                            generations=config.generations,
                            seed=config.seed):
            return _filter_flow(model, config, pdk=C35, progress=progress)


def _filter_flow(model: CombinedYieldModel, config: FilterFlowConfig, *,
                 pdk: ProcessKit, progress) -> FilterFlowResult:
    """The flow body, run inside the telemetry session + root span."""
    spec = DEFAULT_FILTER_SPEC
    ledger = SimulationLedger()
    say = telemetry.announcer(progress)

    # Step 1: yield-targeted OTA selection (pure table interpolation).
    with ledger.timed("ota selection (behavioural)"):
        # "snap": take a real front point's parameters (robust on the
        # sparse fronts reduced-scale runs produce; see design_for_specs).
        ota_design = model.design_for_specs(SpecSet([
            Spec("gain_db", "ge", spec.ota_gain_db, "dB"),
            Spec("pm_deg", "ge", spec.ota_pm_deg, "deg"),
        ]), strategy="snap")
        ota_params = OTAParameters(**ota_design.parameters)
        ota_gain_db = ota_design.nominal_performance["gain_db"]
        ota_pm_deg = ota_design.nominal_performance["pm_deg"]
        ota_ro = model.ro_at("gain_db", ota_design.front_position)
        ota_ugf = float(model.table.lookup("gain_db",
                                           ota_design.front_position,
                                           "ugf_hz"))
        parasitic_pole = _parasitic_pole_from_pm(ota_pm_deg, ota_ugf)
    say(f"OTA selected: gain {ota_gain_db:.2f} dB "
        f"(guard-banded from {spec.ota_gain_db:g} dB), ro {ota_ro:.3g} ohm, "
        f"excess-phase pole {parasitic_pole / 1e6:.1f} MHz")

    # Step 2: capacitor MOO on the behavioural model.
    say(f"filter MOO: {config.generations} generations x "
        f"{INDIVIDUALS} individuals (behavioural OTA)")
    problem = BehavioralFilterProblem(ota_gain_db=ota_gain_db,
                                      ota_ro=ota_ro, spec=spec,
                                      parasitic_pole_hz=parasitic_pole)
    with ledger.timed("filter optimisation (behavioural)") as row:
        moo = run_nsga2(problem, config.ga_config(),
                        rng=stream(config.seed, "filter-nsga2"))
        row.simulations += moo.evaluations

    # Step 3: capacitor selection from the filter's own Pareto front,
    # corner-checked against +/-3-sigma capacitor spread.
    cap_corner = 3.0 * pdk.global_variation.sigma_cap
    with ledger.timed("capacitor selection", 1):
        mask = moo.pareto_mask()
        front_unit = moo.all_parameters[mask]
        front_obj = moo.all_objectives[mask]
        chosen = _select_capacitors(
            front_unit, front_obj, spec=spec, ota_gain_db=ota_gain_db,
            ota_ro=ota_ro, parasitic_pole_hz=parasitic_pole,
            cap_corner_scale=cap_corner)
        caps = FilterCaps.from_normalized(front_unit[chosen])
        # Re-measure the chosen point in natural units for the report.
        chosen_circuit = build_filter_behavioral(
            caps, ota_gain_db=ota_gain_db, ota_ro=ota_ro,
            parasitic_pole_hz=parasitic_pole)
        if config.lint != "off":
            preflight_lint(chosen_circuit, config.lint,
                           stage="filter-flow lint (behavioural)",
                           progress=progress)
        nominal = {key: float(value[0]) for key, value in
                   evaluate_filter(chosen_circuit, spec=spec).items()}
    say(f"capacitors: C1={caps.c1 * 1e12:.1f}pF C2={caps.c2 * 1e12:.1f}pF "
        f"C3={caps.c3 * 1e12:.2f}pF "
        f"(ripple {nominal['ripple_db']:.2f} dB, "
        f"attenuation {nominal['atten_db']:.1f} dB)")

    # Step 4: transistor-level verification -- nominal + Monte Carlo.
    # Lint the testbench before the Monte-Carlo budget is committed.
    with ledger.timed("transistor verification (nominal)", 1):
        nominal_circuit = build_filter_transistor(caps, ota_params, pdk=pdk)
        if config.lint != "off":
            preflight_lint(nominal_circuit, config.lint,
                           stage="filter-flow lint (transistor)",
                           progress=progress)
        transistor = {key: float(value[0]) for key, value in
                      evaluate_filter(nominal_circuit, spec=spec).items()}

    say(f"transistor MC verification: {config.verification_samples} samples")
    mask_specs = spec.mask_specs()

    def verification_evaluator(die_sample):
        tiled = OTAParameters.from_array(
            np.broadcast_to(ota_params.to_array(), (die_sample.size, 8)))
        circuit = build_filter_transistor(caps, tiled, pdk=pdk,
                                          variations=die_sample)
        return evaluate_filter(circuit, spec=spec)

    with ledger.timed("transistor verification (monte carlo)",
                      config.verification_samples):
        yield_estimate = estimate_yield(
            monte_carlo(verification_evaluator, pdk,
                        MCConfig(n_samples=config.verification_samples,
                                 seed=config.seed)),
            mask_specs)
    say(yield_estimate.describe())

    return FilterFlowResult(
        config=config,
        ota_design=ota_design,
        ota_parameters=ota_params,
        caps=caps,
        nominal_performance=nominal,
        transistor_performance=transistor,
        yield_estimate=yield_estimate,
        pareto_objectives=front_obj,
        ledger=ledger,
    )
