"""The conventional simulation-based flow (the paper's comparison point).

The paper positions its behavioural-model approach against "conventional
simulation based approaches" and quotes, for the OTA optimisation itself,
"a previously reported optimisation time of 7 hours for the same circuit
[HOLMES]" versus its own 4 hours.  The conventional approach this module
implements is the direct one:

* **design loop at transistor level** -- every candidate the optimiser
  visits is simulated at transistor level (no model reuse), and
* **yield inside the loop** -- each candidate's yield/variation is
  estimated by its own Monte-Carlo run, because without a variation model
  there is no other way to target yield.

That makes the cost per candidate ``1 + mc_samples`` transistor
simulations, against the proposed flow's amortised model (10,000 + K x 200
simulations *once*, then zero per use).  The benchmark for Table 5
regenerates exactly this comparison; the filter-design benchmark shows the
reuse effect, where the conventional flow pays transistor prices again
while the proposed flow pays none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..designs.ota import OTAParameters, evaluate_ota
from ..mc.engine import MCConfig, monte_carlo_points
from ..mc.sampler import stream
from ..measure.specs import SpecSet
from ..moo.ga import (GAConfig, gaussian_mutation, tournament_select,
                      uniform_crossover)
from ..process import C35
from ..telemetry.ledger import SimulationLedger
from ..yieldmodel.estimator import YieldEstimate, estimate_yield

__all__ = ["DirectMCConfig", "DirectMCResult", "run_direct_mc_optimization"]

#: Weight of the MC yield against the normalised nominal spec margins.
YIELD_WEIGHT = 2.0
#: Lane bound of each chunk of a generation's Monte-Carlo sweep.
CHUNK_LANES = 200


@dataclass(frozen=True)
class DirectMCConfig:
    """Settings of the conventional yield-inclusive optimisation.

    ``backend`` selects the execution backend for the per-candidate
    Monte Carlo (see :mod:`repro.exec`); the default defers to
    ``REPRO_EXEC_BACKEND`` and then serial execution.  Each generation's
    sweep is sharded into :data:`CHUNK_LANES`-lane chunks (4 candidates
    at 50 samples each: the stock 1000-lane generation makes 5 chunks,
    so a pooled backend actually has work to distribute) -- remember
    that the chunk geometry, not the backend, fixes the random draw (see
    :class:`repro.mc.engine.MCConfig`).
    """

    population: int = 20
    generations: int = 10
    mc_samples_per_candidate: int = 50
    seed: int = 2008
    backend: str | None = None

    def ga_config(self) -> GAConfig:
        return GAConfig(population_size=self.population,
                        generations=self.generations, seed=self.seed)


@dataclass
class DirectMCResult:
    """Outcome of the conventional flow.

    Attributes
    ----------
    best_parameters:
        Best design found (natural units).
    best_yield:
        Monte-Carlo yield estimate of the best design.
    best_performance:
        Nominal performance of the best design.
    transistor_simulations:
        Total transistor-level simulator calls spent -- the number the
        Table-5 comparison is about.
    """

    config: DirectMCConfig
    best_parameters: dict[str, float]
    best_yield: YieldEstimate
    best_performance: dict[str, float]
    transistor_simulations: int
    ledger: SimulationLedger = field(default_factory=SimulationLedger)


def run_direct_mc_optimization(specs: SpecSet,
                               config: DirectMCConfig | None = None
                               ) -> DirectMCResult:
    """Run the conventional flow on the C35 kit: GA with per-candidate
    Monte Carlo.

    Fitness is ``YIELD_WEIGHT * yield + normalised spec margins``: a
    candidate must first pass its own MC yield estimate, then better
    nominal margins break ties.  Every fitness evaluation costs
    ``1 + mc_samples_per_candidate`` transistor simulations.
    """
    config = config or DirectMCConfig()
    rng = stream(config.seed, "direct-mc")
    ledger = SimulationLedger()
    pdk = C35
    mc_config = MCConfig(n_samples=config.mc_samples_per_candidate,
                         seed=config.seed, chunk_lanes=CHUNK_LANES,
                         backend=config.backend)

    pop = config.population
    genes = rng.random((pop, 8))
    best: dict | None = None

    with ledger.timed(
            "conventional optimisation (transistor MC in loop)") as row:
        for generation in range(config.generations):
            params = OTAParameters.from_normalized(genes)

            # Nominal simulation of the whole population (batched).
            nominal = evaluate_ota(params, pdk=pdk)
            row.simulations += pop

            # Per-candidate Monte Carlo: tile each candidate against its
            # own die samples -- the expensive inner loop the proposed
            # flow eliminates.  Routed through the chunked engine so the
            # sweep parallelises across the configured backend.
            generation_genes = genes

            def mc_evaluator(point_indices, repeats, die_sample):
                tiled = OTAParameters.from_normalized(
                    np.repeat(generation_genes[point_indices], repeats,
                              axis=0))
                return evaluate_ota(tiled, pdk=pdk, variations=die_sample)

            mc_perf = monte_carlo_points(
                mc_evaluator, pop, pdk, mc_config,
                stage=f"direct-mc-gen{generation}")
            row.simulations += pop * config.mc_samples_per_candidate

            yields = np.empty(pop)
            for i in range(pop):
                candidate_perf = {name: values[i]
                                  for name, values in mc_perf.items()}
                yields[i] = specs.yield_fraction(candidate_perf)

            margins = np.zeros(pop)
            for spec in specs:
                margin = spec.margin(nominal[spec.name])
                scale = max(abs(spec.limit), 1e-9)
                margins += np.clip(margin / scale, -1.0, 1.0)
            fitness = YIELD_WEIGHT * yields + margins
            fitness = np.where(
                np.all([np.isfinite(nominal[s.name]) for s in specs], axis=0),
                fitness, -np.inf)

            gen_best = int(np.argmax(fitness))
            if best is None or fitness[gen_best] > best["fitness"]:
                best = {
                    "fitness": float(fitness[gen_best]),
                    "genes": genes[gen_best].copy(),
                    "yield": float(yields[gen_best]),
                    "nominal": {name: float(values[gen_best])
                                for name, values in nominal.items()},
                }

            parents_a = genes[tournament_select(fitness, pop, 2, rng)]
            parents_b = genes[tournament_select(fitness, pop, 2, rng)]
            children = uniform_crossover(parents_a, parents_b, 0.9, rng)
            genes = gaussian_mutation(children, 0.1, 0.08, rng)
            genes[0] = best["genes"]  # elitism

    # Final verification MC on the winner (same budget as the proposed
    # flow's verification, for a like-for-like yield number).
    winner = OTAParameters.from_normalized(best["genes"])
    with ledger.timed("final verification", 500):
        tiled = winner.tile(500)
        die = pdk.sample(500, stream(config.seed, "direct-mc-verify"))
        final_perf = evaluate_ota(tiled, pdk=pdk, variations=die)
        final_yield = estimate_yield(final_perf, specs)

    values = winner.to_array()
    names = ("w1", "l1", "w2", "l2", "w3", "l3", "w4", "l4")
    return DirectMCResult(
        config=config,
        best_parameters={name: float(values[i])
                         for i, name in enumerate(names)},
        best_yield=final_yield,
        best_performance=best["nominal"],
        transistor_simulations=ledger.total_simulations,
        ledger=ledger,
    )
