"""Candidate-evaluator factories for the paper's two designs.

The :class:`~repro.optimize.ladder.EstimatorLadder` is circuit-agnostic:
it consumes a *factory* that binds one generation's candidate parameters
and returns a :func:`repro.mc.engine.monte_carlo_points`-contract
evaluator ``(point_indices, repeats, ProcessSample) -> dict[name,
(len(point_indices) * repeats,) array]``.  This module provides the two
factories matching the seed designs:

* :func:`ota_evaluator_factory` -- the section-4 symmetrical OTA
  (candidates are normalised Table-1 W/L vectors);
* :func:`filter_evaluator_factory` -- the section-5 anti-aliasing
  filter at transistor level (candidates are normalised C1-C3 vectors,
  the embedded OTA design fixed), with die-consistent process variation
  across both OTA cores and the capacitor bank.

Both tile candidates against the die sample **in order** (candidate 0 x
repeats, candidate 1 x repeats, ...), exactly like the flow's
Monte-Carlo and corner stages, so the same stacked MNA batching applies.
"""

from __future__ import annotations

import numpy as np

from ..designs.filter2 import (FILTER_OBJECTIVES, FilterCaps,
                               build_filter_transistor, evaluate_filter,
                               filter_frequency_grid)
from ..designs.ota import OTAParameters, ota_points_evaluator
from ..process import C35, ProcessKit

__all__ = ["ota_evaluator_factory", "filter_evaluator_factory"]


def ota_evaluator_factory(*, pdk: ProcessKit = C35):
    """Factory of batched OTA evaluators over normalised W/L candidates.

    The testbench mirrors :class:`repro.designs.problems.OTAProblem`;
    the evaluators return the spec'd ``gain_db`` and ``pm_deg`` only
    (fewer keys means less result traffic through pooled backends).
    """

    def factory(unit_params: np.ndarray):
        return ota_points_evaluator(
            np.atleast_2d(OTAParameters.from_normalized(unit_params)
                          .to_array()), pdk=pdk)

    return factory


def filter_evaluator_factory(ota_params: OTAParameters, *,
                             pdk: ProcessKit = C35):
    """Factory of batched transistor-level filter evaluators over
    normalised C1-C3 candidates, returning ``ripple_db`` and
    ``atten_db``.

    ``ota_params`` is the single OTA design embedded in both cores
    (typically the flow's mid-front reference or the yield-targeted
    selection); process variation applies die-consistently to both
    cores and to the capacitor process scale.
    """
    ota_vector = np.asarray(ota_params.to_array(), dtype=float).reshape(-1)
    measure_freqs = filter_frequency_grid()

    def factory(unit_params: np.ndarray):
        caps = FilterCaps.from_normalized(np.atleast_2d(unit_params))
        cap_matrix = np.stack([np.atleast_1d(caps.c1),
                               np.atleast_1d(caps.c2),
                               np.atleast_1d(caps.c3)], axis=1)

        def evaluate(point_indices, repeats, die_sample):
            lanes = cap_matrix[point_indices].repeat(repeats, axis=0)
            tiled_caps = FilterCaps(lanes[:, 0], lanes[:, 1], lanes[:, 2])
            ota = OTAParameters.from_array(
                np.broadcast_to(ota_vector, (lanes.shape[0], ota_vector.size)))
            circuit = build_filter_transistor(tiled_caps, ota, pdk=pdk,
                                              variations=die_sample)
            performance = evaluate_filter(circuit, freqs=measure_freqs)
            return {name: performance[name] for name in FILTER_OBJECTIVES}

        return evaluate

    return factory
