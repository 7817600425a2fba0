"""The package's public surface, and the benchmark's hooks into it."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import minann

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_imported_public_names():
    imported = {
        name
        for name, value in vars(minann).items()
        if not inspect.ismodule(value) and (not name.startswith("_") or name == "__version__")
    }
    assert set(minann.__all__) == imported
    namespace: dict = {}
    exec("from minann import *", namespace)
    assert "sweep_scenario" in namespace


def test_benchmark_tracer_finds_every_traced_layer():
    # perfbench/tracer.py wraps minann functions by name and reads some of
    # their parameters (circle_length's n_theta among them); install() fails
    # when a traced layer or such a parameter is gone.
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
