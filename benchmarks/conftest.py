"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures.  By
default the flow runs at a reduced scale so ``pytest benchmarks/
--benchmark-only`` completes in well under a minute; set ``REPRO_FULL=1``
to run the paper-scale configuration (100x100 WBGA, 200-sample MC on the
full front, 500-sample verifications -- a few minutes).

Each benchmark *prints* the reproduced rows/series and also writes its
deterministic results (simulation counts, yields, bit-identity flags) to
``benchmarks/results/<name>.txt`` so the numbers survive pytest's output
capture.  Wall-clock timings and host facts are printed only, so running
the benchmarks leaves the tracked files unchanged.
"""

import os
import sys
from pathlib import Path

import pytest

from repro.flow import (FilterFlowConfig, FlowConfig, paper_scale_config,
                        run_filter_flow, run_model_build_flow)

# The statistical ground-truth helpers (tests/statcheck.py) are shared
# with the test suite; pytest puts each rootdir on sys.path separately,
# so the benchmarks add the tests directory explicitly.
TESTS_DIR = str(Path(__file__).parent.parent / "tests")
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SCALE = os.environ.get("REPRO_FULL", "") == "1"


def flow_config() -> FlowConfig:
    """The benchmark flow configuration (reduced unless REPRO_FULL=1)."""
    if FULL_SCALE:
        return paper_scale_config()
    # Benchmark-default: bigger than the test-suite reduced config so the
    # front is dense enough for the paper's interpolation strategy, still
    # seconds-scale.
    return FlowConfig(generations=30, population=40, mc_samples=60,
                      max_pareto_points=60, seed=2008)


@pytest.fixture(scope="session")
def flow_result():
    """A completed model-building flow shared by all benchmarks."""
    return run_model_build_flow(flow_config())


@pytest.fixture(scope="session")
def filter_result(flow_result):
    """A completed filter application flow."""
    samples = 500 if FULL_SCALE else 150
    return run_filter_flow(flow_result.model,
                           FilterFlowConfig(verification_samples=samples))


@pytest.fixture(scope="session")
def emit():
    """Writer for benchmark artefacts.

    ``emit(name, text, timings)`` prints ``text`` and the ``timings``
    lines, and persists only ``text`` under ``results/<name>.txt``.  A
    second emit under the same name in one session appends a section.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    written: dict[str, str] = {}

    def _emit(name: str, text: str, timings=()) -> None:
        print(f"\n=== {name} ===\n" + "\n".join([text, *timings]))
        if name in written:
            text = f"{written[name]}\n\n{text}"
        written[name] = text
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
