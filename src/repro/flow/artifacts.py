"""Flow artefact persistence.

The paper's flow communicates through data files: the performance model
and variation model are "stored in a data file" (sections 3.3/3.4) and
consumed by the Verilog-A ``$table_model`` function.  This module writes
exactly that artefact set for a finished
:class:`~repro.flow.pipeline.FlowResult`:

* ``gain_delta.tbl`` / ``pm_delta.tbl`` -- the variation model;
* ``lp1_data.tbl`` ... ``lp8_data.tbl`` -- the performance model
  (design parameter vs (gain, pm));
* ``ota_yield_model.va`` -- the generated Verilog-A module;
* ``corner_margins.txt`` -- the PVT corner-verification spec-margin
  table (when the corner stage ran);
* ``surrogate_model.npz`` -- the trained process-space surrogate bundle
  of the reference design (when the surrogate stage ran), reloadable
  with :func:`repro.surrogate.load_surrogates`;
* ``yield_front.txt`` / ``filter_yield_front.txt`` -- the stage-7
  yield-annotated Pareto fronts (in-loop yield search on the OTA and
  filter2 designs) with per-fidelity ladder accounting and the
  comparison against the guard-banded reference (when stage 7 ran);
* ``streaming_verification.txt`` -- the stage-4c streaming adaptive
  yield verification report (per-performance online statistics, yield
  with Wilson interval, adaptive-stop state; when the stage ran);
* ``high_sigma.txt`` -- the stage-4d rare-event verification report
  (failure probability with CI, equivalent sigma, per-level splitting
  ledger; when the stage ran);
* ``flow_result.npz`` + ``flow_summary.json`` -- full numeric state
  (including per-corner performance arrays), so a flow run can be
  reloaded without re-simulating.

``load_flow_arrays`` restores the numpy payload and rebuilds the combined
model (the WBGA history itself is not persisted -- it is 10k rows of
intermediate state; the model is the deliverable).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..behavioral.codegen import write_verilog_a_package
from ..designs.ota import OTA_DESIGN_SPACE
from ..errors import YieldModelError
from ..optimize import (format_guardband_comparison, format_ladder_summary,
                        format_yield_front)
from ..surrogate import save_surrogates
from ..tablemodel.pareto_table import ParetoTableModel
from ..yieldmodel.targeting import CombinedYieldModel

__all__ = ["save_flow_artifacts", "load_flow_arrays", "rebuild_model"]


def _ota_yield_report(result, search) -> str:
    """Stage-7 OTA report: annotated front + ladder accounting + the
    comparison against the paper's guard-banded model selection."""
    parts = [format_yield_front(search), "", format_ladder_summary(
        search.counts)]
    try:
        design = result.model.design_for_specs(result.config.corner_specs())
        reference = dict(design.nominal_performance)
        label = "guard-banded (model)"
    except YieldModelError:
        # Reduced fronts may not reach the paper's spec; fall back to
        # the mid-front reference design for a like-for-like row.
        mid = result.pareto_count // 2
        reference = {name: float(result.pareto_objectives[mid, j])
                     for j, name in enumerate(
                         result.model.objective_names)}
        label = "mid-front reference"
    parts += ["", format_guardband_comparison(search, label, reference)]
    return "\n".join(parts)


def _filter_yield_report(search) -> str:
    """Stage-7 filter2 report; the reference row is the search's own
    max-worst-nominal-margin point (the filter flow's selection rule)."""
    objectives = search.front_objectives()
    annotations = search.front_annotations()
    base_names = tuple(obj.name for obj in search.problem.base.objectives)
    worst = objectives[:, :len(base_names)].min(axis=1)
    best = int(np.argmax(worst))
    reference = {name: float(objectives[best, j])
                 for j, name in enumerate(base_names)}
    reference_yield = float(annotations["yield"][best])
    if not np.isfinite(reference_yield):
        reference_yield = None
    return "\n".join([
        format_yield_front(search), "",
        format_ladder_summary(search.counts), "",
        format_guardband_comparison(search, "max-nominal-margin point",
                                    reference, reference_yield),
    ])


def save_flow_artifacts(result, directory) -> dict[str, Path]:
    """Write the complete artefact set of a model-building flow run.

    Parameters
    ----------
    result:
        A :class:`~repro.flow.pipeline.FlowResult`.
    directory:
        Destination directory (created if needed).

    Returns
    -------
    Mapping artefact name -> written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    # Verilog-A module + .tbl tables (the paper's deliverable).
    written = write_verilog_a_package(result.model, directory)

    # Numeric state for lossless reload.
    arrays = {
        "pareto_parameters": result.pareto_parameters,
        "pareto_objectives": result.pareto_objectives,
        "ro_ohms": result.ro_ohms,
        "ugf_hz": result.ugf_hz,
    }
    for name, data in result.mc_samples.items():
        arrays[f"mc_{name}"] = data
    for name, data in result.variation.items():
        arrays[f"var_{name}"] = data
    corner_check = getattr(result, "corner_check", None)
    if corner_check is not None:
        for name, data in corner_check.samples.items():
            arrays[f"corner_{name}"] = data
        # The per-corner spec-margin table, human-readable.
        table_path = directory / "corner_margins.txt"
        table_path.write_text(corner_check.summary_table() + "\n")
        written["corner_margins"] = table_path
    surrogate = getattr(result, "surrogate", None)
    if surrogate is not None:
        written["surrogate"] = save_surrogates(
            surrogate, directory / "surrogate_model.npz")
        arrays["surrogate_reference"] = result.surrogate_reference
    searches = (("yield", getattr(result, "yield_search", None)),
                ("filter_yield", getattr(result, "filter_yield_search",
                                         None)))
    for tag, search in searches:
        if search is None:
            continue
        arrays[f"{tag}_front_parameters"] = search.front_parameters()
        arrays[f"{tag}_front_objectives"] = search.front_objectives()
        for name, values in search.front_annotations().items():
            arrays[f"{tag}_front_{name}"] = values
        report = _ota_yield_report(result, search) if tag == "yield" \
            else _filter_yield_report(search)
        report_path = directory / f"{tag}_front.txt"
        report_path.write_text(report + "\n")
        written[f"{tag}_front"] = report_path
    streaming = getattr(result, "streaming_verification", None)
    if streaming is not None:
        streaming_path = directory / "streaming_verification.txt"
        streaming_path.write_text(streaming.describe() + "\n")
        written["streaming_verification"] = streaming_path
    high_sigma = getattr(result, "high_sigma", None)
    if high_sigma is not None:
        high_sigma_path = directory / "high_sigma.txt"
        high_sigma_path.write_text(high_sigma.describe() + "\n")
        written["high_sigma"] = high_sigma_path
        arrays["high_sigma_shift"] = np.asarray(high_sigma.shift_sigma)
    npz_path = directory / "flow_result.npz"
    np.savez_compressed(npz_path, **arrays)
    written["arrays"] = npz_path

    summary = {
        "pdk": result.pdk_name,
        "config": asdict(result.config),
        "pareto_points": int(result.pareto_count),
        "total_pareto_found": int(result.total_pareto_found),
        "evaluations": int(result.wbga.evaluations),
        "ledger": [
            {"stage": stage, "simulations": sims, "seconds": seconds}
            for stage, sims, seconds in result.ledger.as_rows()
        ],
        "objective_names": list(result.model.objective_names),
        "parameter_names": list(result.model.parameter_names),
    }
    if corner_check is not None:
        summary["corners"] = {
            "grid": {"corners": list(corner_check.grid.corners),
                     "vdds": list(corner_check.grid.vdds),
                     "temps_c": list(corner_check.grid.temps_c)},
            "spec": corner_check.specs.describe(),
            "mc_bounded_fraction": {
                name: check.bounded_fraction
                for name, check in corner_check.mc_check.items()},
        }
    if surrogate is not None:
        summary["surrogate"] = {
            "kind": surrogate.kind,
            "n_train": int(surrogate.n_train),
            "cv_errors": {name: float(err)
                          for name, err in surrogate.cv_errors.items()},
            "reference_parameters": [float(v)
                                     for v in result.surrogate_reference],
        }
    for tag, search in searches:
        if search is None:
            continue
        summary[f"{tag}_search"] = {
            "mode": search.config.mode,
            "optimizer": search.config.optimizer,
            "yield_target": search.config.yield_target,
            "front_points": int(search.front_count()),
            "objective_names": list(search.objective_names),
            "ladder": {
                "resolved_per_fidelity": list(search.counts.resolved),
                "sims_per_fidelity": list(search.counts.sims),
                "budget_exhausted": bool(search.counts.budget_exhausted),
            },
        }
    if streaming is not None and streaming.counter is not None:
        confidence = streaming.confidence
        lo, hi = streaming.counter.interval(confidence)
        summary["streaming_verification"] = {
            "passed": int(streaming.counter.passed),
            "total": int(streaming.counter.total),
            "confidence": float(confidence),
            "wilson_interval": [float(lo), float(hi)],
            "samples_done": int(streaming.samples_done),
            "samples_cap": int(streaming.samples_cap),
            "stopped_early": bool(streaming.stopped_early),
            "interrupted": bool(streaming.interrupted),
        }
    if high_sigma is not None:
        lo, hi = high_sigma.interval
        summary["high_sigma"] = {
            "p_fail": float(high_sigma.p_fail),
            "sigma_level": (float(high_sigma.sigma_level)
                            if np.isfinite(high_sigma.sigma_level)
                            else None),
            "confidence": float(high_sigma.confidence),
            "interval": [float(lo), float(hi)],
            "n_levels": int(high_sigma.n_levels),
            "total_simulations": int(high_sigma.total_simulations),
            "effective_samples": float(high_sigma.effective_samples),
            "levels_converged": bool(high_sigma.levels_converged),
            "acceptance_rates": [float(rate) for rate
                                 in high_sigma.acceptance_rates],
        }
    json_path = directory / "flow_summary.json"
    json_path.write_text(json.dumps(summary, indent=2))
    written["summary"] = json_path
    return written


def load_flow_arrays(directory) -> dict[str, np.ndarray]:
    """Load the numeric payload written by :func:`save_flow_artifacts`."""
    directory = Path(directory)
    with np.load(directory / "flow_result.npz") as data:
        return {key: data[key].copy() for key in data.files}


def rebuild_model(directory) -> CombinedYieldModel:
    """Reconstruct the :class:`CombinedYieldModel` from saved artefacts.

    Only the numeric payload is needed; the ``.tbl`` files are a
    human/Verilog-A-readable projection of the same data.
    """
    arrays = load_flow_arrays(directory)
    summary = json.loads((Path(directory) / "flow_summary.json").read_text())
    parameter_names = tuple(summary["parameter_names"])
    objective_names = tuple(summary["objective_names"])

    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(OTA_DESIGN_SPACE.names):
        columns[name] = arrays["pareto_parameters"][:, j]
    for key, data in arrays.items():
        if key.startswith("var_"):
            columns[key[len("var_"):]] = data
    columns["ro_ohms"] = arrays["ro_ohms"]
    columns["ugf_hz"] = arrays["ugf_hz"]

    table = ParetoTableModel(arrays["pareto_objectives"], objective_names,
                             columns=columns)
    return CombinedYieldModel(table, parameter_names)
