"""Smoke test: each demo runs to completion in a fresh interpreter.

demos/05_water_network.py is the slowest: it solves the shipped network
to the gap as it stands and under two strategies, in about 1.5 s on 2
cores.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = ["01_model_and_intervals.py", "02_bigm_flattening.py",
         "03_term_approximation.py", "04_global_solver.py",
         "05_water_network.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / name)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
