"""JSON-constructible workloads over the paper's designs.

The service layer (:mod:`repro.service`) receives plain-JSON requests;
this module turns them into live workloads.  The interesting part is
evaluator identity: a service request names a *design* (the OTA's eight
W/L parameters), so the evaluator closure built here is digested from
those parameters -- two users submitting the same design and config get
the same fingerprint, and therefore share one cached result.
"""

from __future__ import annotations

import numpy as np

from ..cache import canonicalize, fingerprint_key
from ..designs.ota import ota_points_evaluator, ota_reference_evaluator
from ..errors import ReproError, WorkloadError, YieldModelError
from ..mc.engine import MCConfig
from ..mc.streaming import AdaptiveStop
from ..measure.specs import Spec, SpecSet
from ..process import C35
from ..yieldmodel.rare import RareEventConfig
from .units import (CornerSweepWorkload, LintWorkload, RareEventWorkload,
                    StreamingYieldWorkload, SurrogateTrainWorkload)

__all__ = ["design_digest", "ota_estimate_workload",
           "ota_rare_workload", "ota_corner_workload",
           "ota_surrogate_workload", "lint_workload_from_source",
           "DEFAULT_OTA_SPECS"]

#: The paper's section-5 OTA requirement -- the default spec set of a
#: service ``estimate`` request.
DEFAULT_OTA_SPECS = (("gain_db", "ge", 50.0, "dB"),
                     ("pm_deg", "ge", 60.0, "deg"))

_KITS = {"c35": C35}


def design_digest(**parts) -> str:
    """Canonical digest of a design's identifying parts.

    Accepts anything :func:`repro.cache.canonicalize` handles (floats,
    arrays, strings); the digest is what workload constructors take as
    ``evaluator_id``.
    """
    import json
    payload = json.dumps(canonicalize(parts), sort_keys=True,
                         separators=(",", ":"))
    return f"design:{fingerprint_key(payload)}"


def resolve_pdk(name: str):
    """The process kit registered under ``name`` (case-insensitive)."""
    try:
        return _KITS[name.strip().lower()]
    except KeyError:
        raise WorkloadError(
            f"unknown process kit {name!r} "
            f"(known: {', '.join(sorted(_KITS))})") from None


def _specs_from_request(entries) -> SpecSet:
    specs = []
    for entry in entries:
        if not 3 <= len(entry) <= 4:
            raise WorkloadError(
                f"spec entry must be [name, op, limit(, unit)], "
                f"got {entry!r}")
        name, op, limit = entry[0], entry[1], float(entry[2])
        unit = entry[3] if len(entry) == 4 else ""
        specs.append(Spec(str(name), str(op), limit, str(unit)))
    return SpecSet(specs)


def _reference_from_design(design) -> np.ndarray:
    """The natural-unit ``(8,)`` parameter vector a request's ``design``
    field describes (mapping keyed by the OTA design-space names, or a
    flat 8-sequence in W1 L1 ... W4 L4 order)."""
    from ..designs.ota import OTA_DESIGN_SPACE
    if isinstance(design, dict):
        try:
            reference = np.array([float(design[name])
                                  for name in OTA_DESIGN_SPACE.names])
        except KeyError as missing:
            raise WorkloadError(
                f"design is missing parameter {missing}") from None
    else:
        reference = np.asarray(design, dtype=float)
    if reference.shape != (8,):
        raise WorkloadError(
            f"design must have exactly 8 parameters, got {reference.shape}")
    return reference


def ota_estimate_workload(design, *, n_samples: int = 500, seed: int = 2008,
                          chunk_lanes: int = 256, specs=None,
                          adaptive_ci: float = 0.0, check_every: int = 1,
                          pdk: str = "c35", cl: float = 10e-12,
                          ibias: float = 20e-6) -> StreamingYieldWorkload:
    """A streaming yield estimate of one OTA design, from plain JSON.

    Parameters
    ----------
    design:
        The eight natural-unit W/L parameters: a mapping with keys
        ``w1, l1, ..., w4, l4`` or a flat 8-sequence in that order.
    specs:
        Spec entries ``[name, op, limit(, unit)]``; defaults to the
        paper's OTA requirement (:data:`DEFAULT_OTA_SPECS`).
    adaptive_ci:
        Target Wilson-interval full width; 0 runs the exact
        ``n_samples`` count.
    """
    reference = _reference_from_design(design)
    kit = resolve_pdk(pdk)
    spec_set = _specs_from_request(specs if specs is not None
                                   else DEFAULT_OTA_SPECS)
    config = MCConfig(n_samples=int(n_samples), seed=int(seed),
                      chunk_lanes=int(chunk_lanes))
    adaptive = (AdaptiveStop(metric="yield", ci_width=float(adaptive_ci),
                             check_every=int(check_every))
                if adaptive_ci else None)
    return StreamingYieldWorkload(
        ota_reference_evaluator(reference, pdk=kit, cl=cl, ibias=ibias),
        kit, spec_set, config, adaptive=adaptive,
        evaluator_id=design_digest(reference=reference, pdk=kit.name,
                                   cl=cl, ibias=ibias))


def ota_rare_workload(design, *, n_per_level: int = 2000,
                      max_levels: int = 12, level_quantile: float = 0.25,
                      n_final: int = 4000, seed: int = 2008,
                      chunk_lanes: int = 4000, specs=None,
                      max_shift_sigma: float = 6.0,
                      include_mismatch: bool = True,
                      confidence: float = 0.95, pdk: str = "c35",
                      cl: float = 10e-12,
                      ibias: float = 20e-6) -> RareEventWorkload:
    """A high-sigma rare-event failure estimate of one OTA design, from
    plain JSON (:func:`repro.yieldmodel.rare.estimate_yield_rare`).

    Same ``design``/``specs`` conventions as
    :func:`ota_estimate_workload`; the remaining knobs mirror
    :class:`~repro.yieldmodel.rare.RareEventConfig`.
    """
    reference = _reference_from_design(design)
    kit = resolve_pdk(pdk)
    spec_set = _specs_from_request(specs if specs is not None
                                   else DEFAULT_OTA_SPECS)
    try:
        config = RareEventConfig(
            n_per_level=int(n_per_level), max_levels=int(max_levels),
            level_quantile=float(level_quantile), n_final=int(n_final),
            seed=int(seed), max_shift_sigma=float(max_shift_sigma),
            include_mismatch=bool(include_mismatch),
            confidence=float(confidence), chunk_lanes=int(chunk_lanes))
    except YieldModelError as error:
        # Config bounds are request errors: surface them at the
        # submission boundary like every other malformed field.
        raise WorkloadError(str(error)) from None
    return RareEventWorkload(
        ota_reference_evaluator(reference, pdk=kit, cl=cl, ibias=ibias),
        kit, spec_set, config,
        evaluator_id=design_digest(reference=reference, pdk=kit.name,
                                   cl=cl, ibias=ibias))


def ota_corner_workload(design, *, corners: str = "all", vdds: str = "",
                        temps: str = "", pdk: str = "c35",
                        cl: float = 10e-12, ibias: float = 20e-6,
                        chunk_lanes: int = 0) -> CornerSweepWorkload:
    """A deterministic PVT corner sweep of one OTA design, from plain
    JSON (:func:`repro.corners.corner_sweep_points`).

    ``corners``/``vdds``/``temps`` are the CLI-style comma-separated
    specs of :meth:`repro.corners.CornerGrid.from_spec` (``corners``
    defaults to every kit corner, empty ``vdds``/``temps`` mean the
    default supply/temperature sets).
    """
    from ..corners.grid import CornerGrid
    reference = _reference_from_design(design)
    kit = resolve_pdk(pdk)
    try:
        grid = CornerGrid.from_spec(kit, str(corners), str(vdds),
                                    str(temps))
    except ReproError as error:
        # Bad grid specs are request errors: surface them at the
        # submission boundary like every other malformed field.
        raise WorkloadError(str(error)) from None
    return CornerSweepWorkload(
        ota_points_evaluator(reference[None, :], pdk=kit, cl=cl,
                             ibias=ibias),
        1, kit, grid, chunk_lanes=int(chunk_lanes),
        evaluator_id=design_digest(reference=reference, pdk=kit.name,
                                   cl=cl, ibias=ibias))


def ota_surrogate_workload(design, *, n_train: int = 96, seed: int = 2008,
                           surrogate_kind: str = "quadratic",
                           include_mismatch: bool = True,
                           chunk_lanes: int = 4000, pdk: str = "c35",
                           cl: float = 10e-12,
                           ibias: float = 20e-6) -> SurrogateTrainWorkload:
    """A process-space surrogate training run for one OTA design, from
    plain JSON (:func:`repro.surrogate.train_surrogates`)."""
    from ..surrogate.regression import SURROGATE_KINDS
    reference = _reference_from_design(design)
    kit = resolve_pdk(pdk)
    surrogate_kind = str(surrogate_kind).strip().lower()
    if surrogate_kind not in SURROGATE_KINDS:
        raise WorkloadError(
            f"unknown surrogate kind {surrogate_kind!r} "
            f"(known: {', '.join(sorted(SURROGATE_KINDS))})")
    if int(n_train) < 2:
        raise WorkloadError("n_train must be >= 2")
    return SurrogateTrainWorkload(
        ota_reference_evaluator(reference, pdk=kit, cl=cl, ibias=ibias),
        kit, n_train=int(n_train), seed=int(seed),
        surrogate_kind=surrogate_kind,
        include_mismatch=bool(include_mismatch),
        chunk_lanes=int(chunk_lanes),
        evaluator_id=design_digest(reference=reference, pdk=kit.name,
                                   cl=cl, ibias=ibias))


def lint_workload_from_source(source: str, mode: str = "strict", *,
                              title: str = "") -> LintWorkload:
    """A topology-lint workload over netlist source text.

    The text is parsed here (parse errors surface at submission, not
    inside a worker) and digested into the evaluator identity, so
    identical netlists share one cached verdict.
    """
    from ..circuit.parser import parse_netlist
    circuit = parse_netlist(source, title=title)
    return LintWorkload(circuit, mode, stage="service lint", source=source)
