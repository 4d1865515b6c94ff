"""Import layering: the flows sit on top of the engines they call, and
the service sits on top of both.

``repro.optimize`` and ``repro.baselines`` are called by the flows, so
importing them must not load any ``repro.flow`` module; and none of
``repro.optimize``, ``repro.flow`` or ``repro.baselines`` may load the
service side (``repro.workload``, ``repro.service``).  Each check runs
in a fresh interpreter, so other tests' imports cannot mask a
violation.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_modules(imports: str, prefixes: tuple[str, ...]) -> list[str]:
    """The ``repro`` modules under ``prefixes`` that ``import imports``
    loads in a fresh interpreter."""
    code = (f"import sys, {imports}; "
            f"print(sorted(name for name in sys.modules "
            f"if name.startswith({prefixes!r})))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=120)
    return ast.literal_eval(completed.stdout.strip())


def test_optimize_and_baselines_load_no_flow_module():
    assert loaded_modules("repro.optimize, repro.baselines",
                          ("repro.flow",)) == []


def test_engines_and_flows_load_no_service_module():
    assert loaded_modules("repro.optimize, repro.flow, repro.baselines",
                          ("repro.workload", "repro.service")) == []
