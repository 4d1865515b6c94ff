"""Plain-JSON service requests -> live workloads.

The service boundary speaks JSON only: a request is a dict with a
``kind`` field naming the workload family, plus that family's
parameters.  Everything identity-relevant ends up in the workload's
fingerprint, so two users submitting the same request -- from different
processes, machines, or days -- address the same cache entry.

Request kinds
-------------
``estimate``
    Streaming Monte-Carlo yield estimate of one OTA design::

        {"kind": "estimate",
         "design": {"w1": 3e-05, "l1": 1e-06, ..., "w4": ..., "l4": ...},
         "n_samples": 500, "seed": 2008, "chunk_lanes": 256,
         "specs": [["gain_db", "ge", 50.0, "dB"],
                   ["pm_deg", "ge", 60.0, "deg"]],
         "adaptive_ci": 0.05}

    ``design`` may also be a flat 8-list (W1 L1 ... W4 L4).  All fields
    but ``design`` are optional; ``specs`` defaults to the paper's OTA
    requirement, ``adaptive_ci`` of 0 runs the exact sample count.

``lint``
    Topology lint of netlist source text::

        {"kind": "lint", "netlist": "...", "mode": "warn"}

    ``mode`` defaults to ``"warn"`` at the service boundary (report,
    don't raise): a strict gate turns findings into a *failed* job,
    which is also supported but rarely what a lint client wants.

``rare``
    High-sigma rare-event failure estimate of one OTA design
    (:func:`repro.yieldmodel.rare.estimate_yield_rare`)::

        {"kind": "rare", "design": {...},
         "n_per_level": 2000, "n_final": 4000, "seed": 2008,
         "specs": [["gain_db", "ge", 50.0, "dB"]]}

    Same ``design``/``specs`` conventions as ``estimate``; the other
    fields mirror :class:`~repro.yieldmodel.rare.RareEventConfig`.

``corners``
    Deterministic PVT corner sweep of one OTA design::

        {"kind": "corners", "design": {...},
         "corners": "ws,wp", "vdds": "3.0,3.3,3.6", "temps": "-40,27,125"}

    Grid specs are the CLI's comma-separated strings; all optional
    (``corners`` defaults to every kit corner, empty supply/temperature
    lists mean the kit defaults).

``surrogate``
    Process-space surrogate training for one OTA design::

        {"kind": "surrogate", "design": {...},
         "n_train": 96, "surrogate_kind": "quadratic", "seed": 2008}
"""

from __future__ import annotations

import inspect

from ..errors import WorkloadError
from ..workload import (Workload, lint_workload_from_source,
                        ota_corner_workload, ota_estimate_workload,
                        ota_rare_workload, ota_surrogate_workload)

__all__ = ["workload_from_request", "REQUEST_KINDS"]

#: Request kinds the service understands.
REQUEST_KINDS = ("estimate", "lint", "rare", "corners", "surrogate")


def _keyword_fields(constructor) -> tuple[str, ...]:
    """The request fields of a design kind: its constructor's
    keyword-only parameters (``design`` is the one positional field)."""
    return tuple(name for name, parameter
                 in inspect.signature(constructor).parameters.items()
                 if parameter.kind is parameter.KEYWORD_ONLY)


#: kind -> (accepted fields, workload constructor); the fields are read
#: off each constructor's signature once, at import.
_DESIGN_KINDS = {
    kind: (_keyword_fields(constructor), constructor)
    for kind, constructor in (("estimate", ota_estimate_workload),
                              ("rare", ota_rare_workload),
                              ("corners", ota_corner_workload),
                              ("surrogate", ota_surrogate_workload))}


def workload_from_request(request: dict) -> Workload:
    """Build the workload a JSON request describes.

    Raises
    ------
    WorkloadError
        Unknown kind, missing required fields, or malformed parameters
        -- raised *here*, at the submission boundary, so a bad request
        never occupies a worker.
    """
    if not isinstance(request, dict):
        raise WorkloadError(f"request must be a JSON object, "
                            f"got {type(request).__name__}")
    kind = request.get("kind")
    if kind in _DESIGN_KINDS:
        fields, constructor = _DESIGN_KINDS[kind]
        if "design" not in request:
            raise WorkloadError(f"{kind} request needs a 'design' field")
        unknown = set(request) - {"kind", "design", *fields}
        if unknown:
            raise WorkloadError(
                f"unknown {kind} field(s): {', '.join(sorted(unknown))}")
        options = {name: request[name] for name in fields
                   if name in request}
        return constructor(request["design"], **options)
    if kind == "lint":
        if "netlist" not in request:
            raise WorkloadError("lint request needs a 'netlist' field")
        return lint_workload_from_source(
            str(request["netlist"]), str(request.get("mode", "warn")),
            title=str(request.get("title", "")))
    raise WorkloadError(
        f"unknown request kind {kind!r} "
        f"(known: {', '.join(REQUEST_KINDS)})")
