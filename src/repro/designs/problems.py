"""Optimisation-problem wrappers for the paper's two designs.

These adapt the circuit evaluators to the
:class:`~repro.moo.problem.OptimizationProblem` interface consumed by the
WBGA/NSGA-II optimisers.  Both evaluate whole GA populations as single
batched circuits -- one stacked matrix solve per generation.
"""

from __future__ import annotations

import numpy as np

from ..moo.problem import Objective, OptimizationProblem
from ..process import C35, ProcessKit
from .filter2 import (DEFAULT_FILTER_SPEC, FilterCaps, FilterSpec,
                      build_filter_behavioral, build_filter_transistor,
                      evaluate_filter, filter_frequency_grid)
from .ota import OTA_DESIGN_SPACE, OTAParameters, evaluate_ota

__all__ = ["OTAProblem", "BehavioralFilterProblem",
           "TransistorFilterProblem"]


class OTAProblem(OptimizationProblem):
    """The paper's section-4 problem: maximise OTA gain and phase margin
    over the Table-1 W/L space.

    Each objective evaluation is a full transistor-level DC + AC
    simulation of the whole population batch.
    """

    parameter_names = OTA_DESIGN_SPACE.names
    objectives = (Objective("gain_db", "maximize", "dB"),
                  Objective("pm_deg", "maximize", "deg"))

    def __init__(self, *, pdk: ProcessKit = C35) -> None:
        super().__init__()
        self.pdk = pdk

    def evaluate_batch(self, unit_params: np.ndarray) -> np.ndarray:
        params = OTAParameters.from_normalized(unit_params)
        performance = evaluate_ota(params, pdk=self.pdk)
        return np.stack([performance["gain_db"], performance["pm_deg"]],
                        axis=1)


def filter_margins(performance: dict[str, np.ndarray],
                   spec: FilterSpec) -> np.ndarray:
    """Saturated specification margins of filter performance.

    The paper optimises the filter "within the filter specifications", so
    the capacitor search maximises *margin to the mask* rather than raw
    ripple/attenuation numbers:

    * ``ripple_margin = (max_ripple - ripple) / max_ripple``
    * ``atten_margin  = (atten - min_atten) / min_atten``

    both clipped to ``[-1, 1]``.  The clipping matters: raw ripple spans
    three decades across the capacitor box, and feeding that to a
    min-max-normalised weighted sum buries the feasible knee in the
    normalisation; saturated margins keep the whole landscape
    hill-climbable.  A design is mask-feasible iff both margins are
    positive.
    """
    ripple = np.asarray(performance["ripple_db"], dtype=float)
    atten = np.asarray(performance["atten_db"], dtype=float)
    ripple_margin = (spec.max_ripple_db - ripple) / spec.max_ripple_db
    atten_margin = (atten - spec.min_atten_db) / spec.min_atten_db
    margins = np.stack([ripple_margin, atten_margin], axis=1)
    margins = np.where(np.isnan(margins), -1.0, margins)
    return np.clip(margins, -1.0, 1.0)


class BehavioralFilterProblem(OptimizationProblem):
    """The paper's section-5 problem: choose C1-C3 for the anti-aliasing
    filter, simulating with the *behavioural* OTA model (this is the whole
    point of the flow -- no transistor simulation in the system-level
    loop).

    Objectives: maximise the two saturated mask margins
    (:func:`filter_margins`).
    """

    parameter_names = ("c1", "c2", "c3")
    objectives = (Objective("ripple_margin", "maximize"),
                  Objective("atten_margin", "maximize"))

    def __init__(self, *, ota_gain_db: float, ota_ro: float,
                 spec: FilterSpec = DEFAULT_FILTER_SPEC,
                 parasitic_pole_hz: float | None = None) -> None:
        super().__init__()
        self.ota_gain_db = ota_gain_db
        self.ota_ro = ota_ro
        self.spec = spec
        self.parasitic_pole_hz = parasitic_pole_hz
        self.freqs = filter_frequency_grid()

    def evaluate_batch(self, unit_params: np.ndarray) -> np.ndarray:
        caps = FilterCaps.from_normalized(unit_params)
        batch = unit_params.shape[0]
        gain = np.full(batch, self.ota_gain_db)
        ro = np.full(batch, self.ota_ro)
        circuit = build_filter_behavioral(
            caps, ota_gain_db=gain, ota_ro=ro,
            parasitic_pole_hz=self.parasitic_pole_hz)
        performance = evaluate_filter(circuit, spec=self.spec,
                                      freqs=self.freqs)
        return filter_margins(performance, self.spec)


class TransistorFilterProblem(OptimizationProblem):
    """The *conventional* section-5 problem: the same capacitor search but
    simulating the filter at transistor level every time.  Used by the
    baseline flow (:mod:`repro.baselines.direct_mc`) for the paper's
    cost comparison.
    """

    parameter_names = ("c1", "c2", "c3")
    objectives = (Objective("ripple_margin", "maximize"),
                  Objective("atten_margin", "maximize"))

    def __init__(self, ota_params: OTAParameters, *,
                 pdk: ProcessKit = C35) -> None:
        super().__init__()
        self.ota_params = ota_params
        self.pdk = pdk
        self.spec = DEFAULT_FILTER_SPEC
        self.freqs = filter_frequency_grid()

    def evaluate_batch(self, unit_params: np.ndarray) -> np.ndarray:
        caps = FilterCaps.from_normalized(unit_params)
        batch = unit_params.shape[0]
        ota = OTAParameters.from_array(
            np.broadcast_to(self.ota_params.to_array(), (batch, 8)))
        circuit = build_filter_transistor(caps, ota, pdk=self.pdk)
        performance = evaluate_filter(circuit, spec=self.spec,
                                      freqs=self.freqs)
        return filter_margins(performance, self.spec)
