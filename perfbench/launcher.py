"""Traced entry point of the cli_cold workload.

Usage: ``python perfbench/launcher.py SPANS_JSON -- MINANN_ARGS...``

Imports ``minann.cli`` (timed as ``import_s``), installs the span wrappers of
``tracer`` and calls ``minann.cli.main(argv)``, so the command behaves as
``python -m minann.cli MINANN_ARGS...``.  When the command ends, its spans,
import time and ``_immersion`` cache counters are written to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_JSON -- MINANN_ARGS...")
    start = time.perf_counter()
    import minann.cli
    from minann.weierstrass import _immersion

    import_s = time.perf_counter() - start

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = 1
    try:
        return minann.cli.main(argv)
    finally:
        cache = _immersion.cache_info()
        with open(spans_path, "w") as handle:
            json.dump({"import_s": import_s, "cache": [cache.hits, cache.misses],
                       "spans": tracer.spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
