"""Child process of the in-process workloads (traced_route, circle_route).

Protocol with ``run.py``: the worker imports ``minann``, builds the seeded
inputs and prints ``ready``; the measured set-up time ends there.  With
``--setup-only`` it then exits.  Otherwise it runs one untimed warm-up pass
and timed passes, closed loop with one caller, until ``--seconds`` have
passed (at least one pass), and prints one JSON result line.

In a traced run one more untimed-for-metrics pass runs untraced before the
wrappers go in, so the result carries an untraced pass time next to the
traced ones; the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("traced_route", "circle_route"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    import minann

    import oracle
    import workloads
    from clock import SpeedScale

    calls = workloads.scenario_calls(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    first_text: dict[int, str] = {}
    digests: list[str] = []
    problems: list[str] = []
    attempted = failed = 0
    op_id = 0
    scale = SpeedScale()

    def run_pass(tracer=None) -> tuple[float, float]:
        """(wall, speed-normalised) seconds of one pass."""
        nonlocal attempted, failed, op_id
        elapsed = scaled = 0.0
        for index, (name, overrides) in enumerate(calls):
            op_id += 1
            if tracer is not None:
                tracer.op_id = op_id
            attempted += 1
            start = time.perf_counter()
            try:
                # looked up per call, so the traced run goes through the wrapper
                doc = minann.run_scenario(name, overrides, n_theta=workloads.N_THETA).to_json()
            except Exception as exc:  # one failed operation, reported, run goes on
                doc = None
                problems.append(f"{name}: raised {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
            elapsed += wall
            scaled += scale.normalise(wall)
            if doc is None:
                failed += 1
                continue
            text = json.dumps(doc, sort_keys=True)
            faults = oracle.check_report(name, doc, args.seed, workloads.N_THETA)
            if first_text.setdefault(index, text) != text:
                faults.append(f"{name}: report differs from the first pass")
            if faults:
                failed += 1
                problems.extend(faults)
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        return elapsed, scaled

    run_pass()  # warm-up, untimed
    untraced = [run_pass()[1]] if args.trace else []
    tracer = None
    if args.trace:
        import tracer as tracing
        from minann.weierstrass import _immersion

        tracer = tracing.Tracer()
        tracer.install()
        cache_before = _immersion.cache_info()
    first_traced_op = op_id + 1
    times: list[float] = []
    normalised: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        wall, norm = run_pass(tracer)
        times.append(wall)
        normalised.append(norm)

    result = {
        "pass_times": times,
        "normalised_pass_times": normalised,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digests": digests,
    }
    if tracer is not None:
        cache = _immersion.cache_info()
        by_pass = tracing.per_pass(
            tracing.aggregate(tracer.spans), lambda op: (op - first_traced_op) // len(calls)
        )
        result["layer_metrics"] = tracing.run_metrics(
            by_pass, cache.hits - cache_before.hits, cache.misses - cache_before.misses,
            0.0, normalised, untraced)
        if args.spans_out:
            tracing.write_spans(args.spans_out, tracer.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
