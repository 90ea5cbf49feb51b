"""One benchmark repetition in a fresh interpreter; prints one JSON line.

    python3 bench/child.py SPEC_JSON [--setup-only | --spans PATH RUN_ID]

with ``PYTHONPATH`` pointing at ``src``.  A fresh interpreter starts with the
program's caches empty (the lru_cached inverse, ``_context``,
``_GAUSS_CACHE``), as every CLI invocation does.  Set-up is the import of
the package and ``compute_ts(p0)``; the parent measures it from spawn to
``setup_done_ns`` on the shared monotonic clock.  ``--spans`` traces the
run and writes the spans to PATH.
"""

import json
import resource
import sys
import time
from fractions import Fraction


def main(argv) -> int:
    spec = json.loads(argv[0])
    import bethestates  # noqa: F401
    import bethestates.cli  # noqa: F401
    from bethestates import tsdata
    ts = tsdata.compute_ts(Fraction(spec["p0"]))
    result = {"setup_done_ns": time.monotonic_ns()}
    if "--setup-only" in argv:
        print(json.dumps(result))
        return 0

    import workloads
    tracer = None
    if "--spans" in argv:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    runner = workloads.RUNNERS[spec["kind"]]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    outputs = runner(spec, ts)
    result["run_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["outputs"] = outputs
    if tracer is not None:
        path, run_id = argv[argv.index("--spans") + 1:][:2]
        result["trace"] = tracer.summary()
        tracer.write(path, run_id)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
