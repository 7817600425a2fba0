"""minann benchmark: three workloads, timed end to end, traced per module.

    python3 perfbench/run.py --workload traced_route --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # all three in turn
    python3 perfbench/run.py --self-test                      # short check of the harness

Run from the repository root.  Children run ``minann`` from ``src`` on
PYTHONPATH, one child alive at a time.  ``--trace 0`` reports the end-to-end
metrics of untraced passes; ``--trace 1`` reports the per-layer metrics of a
separate traced run.  Every output is checked by ``oracle``.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, spans
and CLI outputs go to ``perfbench/out/``.  See README.md for the workloads
and the metric predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_CHILDREN = 9  # set-up samples of a warm workload
VERSION_RUNS = 9  # cli_cold set-up samples
TAIL_BEYOND = 10  # passes that must lie above the reported tail percentile
# cli_cold command outputs written to files, compared byte for byte across passes
CLI_FILES = {"gen": ("fig8.json",), "trace": ("levels.csv", "levels.svg")}
END_TO_END_UNITS = {"pass_s": "s", "pass_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    stdout: bytes
    returncode: int
    wall_s: float
    ready_s: float | None
    maxrss_kb: int


def run_child(argv, *, stderr_path, cwd=ROOT, ready=False) -> Child:
    """Run one child to completion; wall time and peak RSS from os.wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            ready_s = None
            if ready:
                line = proc.stdout.readline()
                ready_s = time.perf_counter() - start if line.strip() == b"ready" else None
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return Child(out, proc.returncode, wall, ready_s, usage.ru_maxrss)


def _stderr_tail(path) -> str:
    try:
        return Path(path).read_text(errors="replace").strip().splitlines()[-1]
    except (OSError, IndexError):
        return ""


@dataclass
class Result:
    """Samples of one workload run.  ``pass_s`` is what the metrics report:
    speed-normalised for in-process passes, wall time for CLI passes."""

    workload: str
    pass_s: list = field(default_factory=list)
    pass_wall_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    maxrss_kb: dict = field(default_factory=dict)  # peak per kind of child process
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    layer_metrics: dict = field(default_factory=dict)

    def record_rss(self, kind: str, child: Child) -> None:
        self.maxrss_kb[kind] = max(self.maxrss_kb.get(kind, 0), child.maxrss_kb)


# -- in-process workloads ------------------------------------------------------------


def run_warm(workload: str, seed: int, seconds: float, trace: int) -> Result:
    res = Result(workload)
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    stderr = OUT / f"{workload}.stderr.txt"
    for _ in range(SETUP_CHILDREN):
        child = run_child(base + ["--setup-only"], ready=True, stderr_path=stderr)
        if child.returncode != 0 or child.ready_s is None:
            raise RuntimeError(f"{workload} set-up failed: {_stderr_tail(stderr)}")
        res.setup_s.append(child.ready_s)
        res.record_rss("set-up", child)
    spans = OUT / f"{workload}.spans.csv"
    child = run_child(base + ["--seconds", str(seconds), "--trace", str(trace),
                              "--spans-out", str(spans)],
                      ready=True, stderr_path=stderr)
    if child.returncode != 0 or child.ready_s is None:
        raise RuntimeError(f"{workload} worker failed: {_stderr_tail(stderr)}")
    res.record_rss("worker", child)
    doc = json.loads(child.stdout.decode().strip().splitlines()[-1])
    res.pass_wall_s, res.pass_s = doc["pass_times"], doc["normalised_pass_times"]
    res.attempted, res.failed = doc["attempted"], doc["failed"]
    res.problems, res.digests = doc["problems"], doc["digests"]
    res.layer_metrics = doc.get("layer_metrics", {})
    return res


# -- cli_cold ------------------------------------------------------------------------


def cli_reference(seed: int) -> dict:
    """In-process values the CLI outputs are checked against (512 nodes)."""
    sys.path.insert(0, str(SRC))
    from minann import Slab, clip_to_slab, figure_eight, slab_area, total_curvature
    from minann.measures import DEFAULT_THETA_NODES

    fam = workloads.family_params(seed)
    data = figure_eight(fam["a_m1"], fam["a_1"])
    half = workloads.AREA_SLAB_HALF
    slab = clip_to_slab(data, Slab(-half, half))
    return {
        "f3": 8.0 * math.pi,  # psi3's constant term is |a_m1|^2 + |a_0|^2 + |a_1|^2 = 4
        "area_512": slab_area(data, slab, 512),
        "curvature_512": float(total_curvature(data, n_theta=512)),
        "theta_nodes": DEFAULT_THETA_NODES,
    }


def cli_command(workdir: Path, label: str, argv: list, traced: bool):
    """Run one CLI command cold; return the child, its output files and, when
    traced, the document its launcher wrote (None if it wrote none)."""
    for name in CLI_FILES.get(label, ()):
        (workdir / name).unlink(missing_ok=True)
    spans_file = workdir / f"spans-{label}.json"
    spans_file.unlink(missing_ok=True)
    prefix = ([str(BENCH / "launcher.py"), str(spans_file), "--"] if traced
              else ["-m", "minann.cli"])
    child = run_child([sys.executable, *prefix, *argv], cwd=workdir,
                      stderr_path=workdir / "stderr.txt")
    files = {name: (workdir / name).read_bytes() for name in CLI_FILES.get(label, ())
             if (workdir / name).exists()}
    spans_doc = json.loads(spans_file.read_text()) if spans_file.exists() else None
    return child, files, spans_doc


def run_cli(seed: int, seconds: float, trace: int) -> Result:
    res = Result("cli_cold")
    workdir = OUT / "cli_cold"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stderr = workdir / "stderr.txt"
    for _ in range(VERSION_RUNS):
        child = run_child([sys.executable, "-m", "minann.cli", "--version"], cwd=workdir,
                          stderr_path=stderr)
        if child.returncode != 0 or not child.stdout.startswith(b"minann "):
            raise RuntimeError(f"minann --version failed: {_stderr_tail(stderr)}")
        res.setup_s.append(child.wall_s)
        res.record_rss("--version", child)
    ref = cli_reference(seed)
    commands = workloads.cli_commands(seed)
    first: dict[str, str] = {}
    import_times, hits, misses = [], 0, 0
    spans, pass_of_op = [], {}
    untraced_times = []
    start = time.perf_counter()
    pass_index = 0
    while True:
        traced = bool(trace) and pass_index > 0  # a traced run's first pass is untraced
        elapsed = 0.0
        for label, argv in commands:
            child, files, spans_doc = cli_command(workdir, label, argv, traced)
            elapsed += child.wall_s
            res.record_rss(label, child)
            res.attempted += 1
            op = res.attempted
            faults = oracle.check_cli(label, child.returncode, child.stdout.decode(),
                                      files, ref, seed)
            digest = hashlib.sha256(child.stdout + b"".join(files.values())).hexdigest()
            if first.setdefault(label, digest) != digest:
                faults.append(f"{label}: output differs from the first pass")
            if child.returncode not in (0, 1):
                faults.append(f"{label}: {_stderr_tail(stderr)}")
            if traced and spans_doc is None:
                faults.append(f"{label}: the launcher wrote no spans")
            if faults:
                res.failed += 1
                res.problems.extend(faults)
            res.digests.append(digest)
            if traced and spans_doc is not None:
                import_times.append(spans_doc["import_s"])
                hits += spans_doc["cache"][0]
                misses += spans_doc["cache"][1]
                # span ids restart in every process: offset them by the operation id
                offset = op << 32
                spans += [(offset + i, name, offset + parent, op, *rest)
                          for i, name, parent, _, *rest in spans_doc["spans"]]
                pass_of_op[op] = pass_index
        (res.pass_wall_s if traced or not trace else untraced_times).append(elapsed)
        pass_index += 1
        if res.pass_wall_s and time.perf_counter() - start >= seconds:
            break
    # the reference loop of clock.py would run in this process, not in the
    # command's: measured so, it added spread instead of removing it
    res.pass_s = res.pass_wall_s
    if trace:
        by_pass = tracing.per_pass(tracing.aggregate(spans), pass_of_op.__getitem__)
        res.layer_metrics = tracing.run_metrics(by_pass, hits, misses,
                                                statistics.median(import_times),
                                                res.pass_wall_s, untraced_times)
        tracing.write_spans(OUT / "cli_cold.spans.csv", spans)
    return res


# -- reporting -------------------------------------------------------------------------


def tail(times: list) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile that leaves at
    least TAIL_BEYOND passes above it, when that percentile is at or above the
    median; with fewer than 2 * TAIL_BEYOND passes no such percentile exists
    and the slowest pass (p100) is reported instead."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND
        return ordered[rank - 1], 100.0 * rank / n
    return ordered[-1], 100.0


def end_to_end(res: Result) -> tuple[dict, list[str]]:
    tail_s, pct = tail(res.pass_s)
    values = {
        "pass_s": statistics.median(res.pass_s),
        "pass_s.tail": tail_s,
        "setup_s": statistics.median(res.setup_s),
        "peak_rss_mb": max(res.maxrss_kb.values()) / 1024.0,
    }
    n = len(res.pass_s)
    kind = ("speed-normalised; raw wall median "
            f"{statistics.median(res.pass_wall_s):.3f} s" if res.pass_s is not res.pass_wall_s
            else "wall time")
    notes = {
        "pass_s": f"median of {n} passes, {kind}",
        "pass_s.tail": f"p{pct:.0f} of {n} passes" + ("" if pct < 100 else
                       f" (the slowest: fewer than {2 * TAIL_BEYOND} passes)"),
        "setup_s": f"median of {len(res.setup_s)} set-ups, wall time",
        "peak_rss_mb": "max over child processes; per kind: " + ", ".join(
            f"{kind} {kb / 1024.0:.1f}" for kind, kb in res.maxrss_kb.items()),
    }
    ratio = res.failed / res.attempted if res.attempted else 1.0
    lines = [f"{res.workload:<13} {name:<12} {values[name]:11.6f} {END_TO_END_UNITS[name]:<2} "
             f"{notes[name]}" for name in values]
    lines.append(f"{res.workload:<13} {'failed_ratio':<12} {ratio:11.6f}    "
                 f"{res.failed} failed of {res.attempted} operations")
    return values, lines


def environment(seed: int, results: list[Result]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
        "passes": {r.workload: len(r.pass_s) for r in results},
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git work tree or without git."""
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(workload, seed, seconds, trace) -> Result:
    if workload == "cli_cold":
        return run_cli(seed, seconds, trace)
    return run_warm(workload, seed, seconds, trace)


def _on_alarm(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def measure(names, seed, seconds, trace) -> int:
    results, metrics = [], {}
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    units.update(END_TO_END_UNITS)
    for workload in names:
        signal.alarm(int(seconds) + 120)
        res = run_workload(workload, seed, seconds, trace)
        signal.alarm(0)
        results.append(res)
        values, lines = end_to_end(res)
        if trace:
            values = res.layer_metrics
            lines = [f"{workload:<13} {k:<52} {v:.6g} {units[k]}" for k, v in values.items()]
        print("\n".join(lines))
        for problem in res.problems:
            print(f"{workload}: FAILED {problem}")
        prefix = f"{workload}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()})
    env = environment(seed, results)
    print("environment " + json.dumps(env, sort_keys=True))
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {**summary, "environment": env, "trace": trace, "seconds": seconds,
              "samples": {r.workload: {"pass_s": r.pass_s, "pass_wall_s": r.pass_wall_s,
                                       "setup_s": r.setup_s,
                                       "peak_rss_kb": r.maxrss_kb, "problems": r.problems}
                          for r in results}}
    (OUT / f"result-{'-'.join(names)}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 1 if failed else 0


def self_test() -> int:
    """Short mode: one timed pass per workload, untraced and traced, at the
    catalog seed.  Asserts byte-identical outputs with and without tracing,
    every per-layer metric of BENCHMARK.json emitted, every traced layer
    called on at least one workload (a layer that lost its wrapper would read
    0 everywhere), and no level traced on circle_route."""
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    failures = []
    called = set()
    for workload in workloads.WORKLOADS:
        signal.alarm(600)
        plain = run_workload(workload, workloads.CATALOG_SEED, 0, 0)
        traced = run_workload(workload, workloads.CATALOG_SEED, 0, 1)
        signal.alarm(0)
        called |= {layer for layer, _ in tracing.LAYERS
                   if traced.layer_metrics.get(f"{layer}.calls", 0) > 0}
        for res in (plain, traced):
            failures += [f"{workload}: {p}" for p in res.problems]
        if set(plain.digests) != set(traced.digests):
            failures.append(f"{workload}: traced and untraced outputs differ")
        missing = [m for m in declared if m not in traced.layer_metrics]
        if missing:
            failures.append(f"{workload}: per-layer metrics not emitted: {missing}")
        if workload == "circle_route" and traced.layer_metrics.get(
                "measures.trace_level.calls") != 0:
            failures.append("circle_route traced a level")
        print(f"{workload}: {len(set(plain.digests))} distinct outputs, "
              f"{len(traced.layer_metrics)} per-layer metrics")
    never = [layer for layer, _ in tracing.LAYERS if layer not in called]
    if never:
        failures.append(f"layers never called on any workload: {never}")
    for failure in failures:
        print("SELF-TEST FAILED " + failure)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.CATALOG_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (SRC / "minann" / "__init__.py").is_file():
        print(f"run.py: no minann sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.self_test:
            return self_test()
        return measure(names, args.seed, args.seconds, args.trace)
    except (RuntimeError, TimeoutError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
