"""The package's public surface, and the benchmark's hooks into it."""

import inspect
import os
import pkgutil
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
    assert len(minann.__all__) == len(imported)


def test_star_import_binds_exactly_all_with_the_version_and_no_submodule():
    namespace: dict = {}
    exec("from minann import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(minann.__all__)
    assert "__version__" in namespace and "sweep_scenario" in namespace
    submodules = {info.name for info in pkgutil.iter_modules(minann.__path__)}
    assert {"laurent", "measures", "weierstrass", "cli"} <= submodules
    assert submodules.isdisjoint(minann.__all__)


def _run_with_perfbench(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_tracer_finds_every_traced_layer():
    # perfbench/tracer.py wraps minann functions by name and reads some of
    # their parameters (circle_length's n_theta among them); install() fails
    # when a traced layer or such a parameter is gone.
    proc = _run_with_perfbench("import tracer; tracer.Tracer().install()")
    assert proc.returncode == 0, proc.stderr


ORACLE_CHECK = """
import minann, oracle, workloads
seed, n = workloads.CATALOG_SEED, workloads.N_THETA
for workload in ("traced_route", "circle_route"):
    for name, overrides in workloads.scenario_calls(workload, seed):
        doc = minann.run_scenario(name, overrides, n_theta=n).to_json()
        for problem in oracle.check_report(name, doc, seed, n):
            print(problem)
"""


def test_benchmark_oracle_accepts_the_catalog_reports():
    # The benchmark rejects a run whose verdict set, pass pattern or pinned
    # margins differ from perfbench/oracle.py; this fails first.
    proc = _run_with_perfbench(ORACLE_CHECK)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


CLI_CHECK = """
import pathlib, sys
import oracle, run, workloads
seed = workloads.CATALOG_SEED
ref = run.cli_reference(seed)
for label, argv in workloads.cli_commands(seed):
    child, files, _ = run.cli_command(pathlib.Path(sys.argv[1]), label, argv, traced=False)
    for problem in oracle.check_cli(label, child.returncode, child.stdout.decode(), files,
                                    ref, seed):
        print(problem)
"""


def test_benchmark_oracle_accepts_one_cold_cli_pass(tmp_path):
    # One cli_cold pass: each command of the workload in a fresh
    # ``python -m minann.cli`` child in tmp_path, checked as the benchmark
    # checks it, so a gen flag or CLI output the oracle rejects fails here.
    proc = _run_with_perfbench(CLI_CHECK, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
