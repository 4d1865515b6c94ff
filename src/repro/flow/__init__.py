"""The paper's end-to-end flows: model building, filter application,
artefact persistence."""

from .artifacts import load_flow_arrays, rebuild_model, save_flow_artifacts
from .filter_flow import FilterFlowConfig, FilterFlowResult, run_filter_flow
from .pipeline import (FlowConfig, FlowResult, paper_scale_config,
                       reduced_config, run_model_build_flow)

__all__ = [
    "load_flow_arrays", "rebuild_model", "save_flow_artifacts",
    "FilterFlowConfig", "FilterFlowResult", "run_filter_flow",
    "FlowConfig", "FlowResult", "paper_scale_config", "reduced_config",
    "run_model_build_flow",
]
