"""Import layering: the flows sit on top of the engines they call.

``repro.optimize`` and ``repro.baselines`` are called by the flows, so
importing them must not load any ``repro.flow`` module (a fresh
interpreter, so other tests' imports cannot mask a violation).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_optimize_and_baselines_load_no_flow_module():
    code = ("import sys, repro.optimize, repro.baselines; "
            "print(sorted(name for name in sys.modules "
            "if name == 'repro.flow' or name.startswith('repro.flow.')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=120)
    assert completed.stdout.strip() == "[]"
