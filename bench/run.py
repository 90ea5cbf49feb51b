"""Benchmark for bethestates: fixed exact workloads timed end to end, and
per-layer times and work counts from a separate traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere in a checkout; it needs only the standard library and
runs the program from ``src``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (name ->
value and unit); the line before it is ``{"info": ...}``: machine and code
identity (nproc, Python, commit, ``src/`` digest and line count), the
failed fraction, every sample and any failure messages.  The metric names
and units are those in ``BENCHMARK.json`` at the root.

Workloads (``workloads.py``).  The inputs are fixed exact instances with no
randomness, so the seed is recorded but selects nothing:

* ``identity-16_7``: ``identity --p0 16/7 --cutoff 120 --json`` through
  ``cli.main``.  The truncated-series path: ``QSeries.div_cyclotomic`` does
  most of the work.  The cutoff passes the first nontrivial bosonic
  exponent (112), so the check compares real terms.  ``spectral`` does
  almost nothing (dim 7).
* ``completeness-16_7``: ``completeness --p0 16/7 --chain 1x50 --json``
  through ``cli.main``.  The census path: 453,164 lambda vectors over 51
  levels, tops and signed binomials, no series arithmetic.
* ``qcount-201_2``: ``identities.q_count`` at every level of chain ``1x16``
  with ``p0 = 201/2``.  The wide linear form (dense inverse at dim 102, tops
  per lambda) with exact polynomial products and Gaussian binomials.

Every repetition runs in a fresh interpreter (``child.py``), so the
program's caches start empty, as for every CLI call; ``BETHE_THREADS`` is
unset, so the level sweep runs inline.  A repetition fails on wrong output
(``workloads.gate`` against ``expected.json``), a non-zero exit, an
exception or a timeout.

``--trace 0`` runs cycles of ``SETUP_SPAWNS`` set-up-only children and one
untraced repetition while another cycle fits in S seconds (at least one
cycle), and reports medians: ``run_s`` (wall time from after set-up to the
checked result), ``cpu_s`` (process CPU time over the same interval),
``peak_rss_mb`` (the child's peak resident memory, MiB) and ``setup_s``
(spawn through ``import bethestates`` and ``compute_ts(p0)``).

``--trace 1`` runs cycles of one untraced and one traced repetition the same
way and reports the per-layer metrics (``spans.py``) of the traced
repetition with the median ``run_s`` (the lower one of two).  Counts must
repeat exactly in every traced repetition, and ``trace.overhead_s`` is that
``run_s`` minus the untraced median.  Spans go to ``.bench_out/``.

Exit status 2 when ``src/bethestates`` or ``BENCHMARK.json`` is missing or
the workload is unknown, 1 when no repetition produced a timing; no result
line is printed then.

Self-tests: ``python3 bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 5   # set-up-only children before each repetition
HARD_LIMIT_S = 170  # no child outlives this much time from the start


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BETHE_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(spec: dict, env: dict, *extra, stop_by: float):
    """Run child.py once; (result, None) on success, else (None, message).

    The child is killed at ``stop_by`` (``time.monotonic`` seconds).
    """
    spawned_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec), *extra],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(stop_by - spawned_ns / 1e9, 0.1))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = (result.pop("setup_done_ns") - spawned_ns) / 1e9
    return result, None


def repetition(spec: dict, expected: dict, env: dict, *extra, stop_by: float):
    """One gated repetition: (result or None, list of failure messages)."""
    result, error = spawn(spec, env, *extra, stop_by=stop_by)
    if result is None:
        return None, [error]
    return result, gate(spec["kind"], result["outputs"], expected)


def src_identity() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def until(deadline):
    """Yield once per cycle, as long as a cycle as long as the last one still
    ends before the deadline; always at least once."""
    while True:
        began = time.monotonic()
        yield
        now = time.monotonic()
        if now + (now - began) > deadline:
            return


def untraced_metrics(spec, expected, env, deadline, stop_by, log):
    setup, runs = [], []
    for _ in until(deadline):
        for _ in range(SETUP_SPAWNS):
            result, error = spawn(spec, env, "--setup-only", stop_by=stop_by)
            if result is None:
                log["failures"].append(f"set-up: {error}")
            else:
                setup.append(result["setup_s"])
        log["attempted"] += 1
        result, failures = repetition(spec, expected, env, stop_by=stop_by)
        if failures:
            log["failed"] += 1
            log["failures"].extend(failures)
        if result is not None:
            runs.append(result)
            setup.append(result["setup_s"])
    if not runs:
        return None
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in runs],   # MiB
        "setup_s": setup,
    }
    log["samples"] = samples
    return {name: statistics.median(values) for name, values in samples.items()}


def counts_of(summary: dict) -> dict:
    """The exact work counts of a trace summary (times are floats)."""
    return {k: v for k, v in summary.items() if isinstance(v, int)}


def traced_metrics(spec, expected, env, deadline, stop_by, log, names, run_tag):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{log['workload']}.csv.gz"
    plain, traced = [], []
    for _ in until(deadline):
        for extra in ((), ("--spans", str(spans_path), f"{run_tag}-rep{len(traced)}")):
            log["attempted"] += 1
            result, failures = repetition(spec, expected, env, *extra, stop_by=stop_by)
            if result is not None and extra:
                summary = result["trace"]
                if summary["trace.self_sum_s"] > result["run_s"]:
                    failures.append("layer self times exceed the traced run_s")
                if traced and counts_of(summary) != counts_of(traced[0]["trace"]):
                    failures.append("counts differ between traced repetitions")
            if failures:
                log["failed"] += 1
                log["failures"].extend(failures)
            if result is not None:
                (traced if extra else plain).append(result)
    if not plain or not traced:
        return None
    # One representative traced repetition, so the reported layer self times
    # sum to no more than the reported trace.run_s.
    rep = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
    summary = rep["trace"]
    plain_run = statistics.median(r["run_s"] for r in plain)
    derived = {
        "trace.run_s": rep["run_s"],
        "trace.untraced_run_s": plain_run,
        "trace.overhead_s": rep["run_s"] - plain_run,
        "trace.outside_spans_s": rep["run_s"] - summary["trace.self_sum_s"],
        "configs.useful_ratio": (summary["configs.admissible"] / summary["configs.lambda_vectors"]
                                 if summary["configs.lambda_vectors"] else 0.0),
    }
    metrics = {}
    absent = []
    for name, _ in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name in summary:
            metrics[name] = summary[name]
        else:
            absent.append(name)
            metrics[name] = 0
    log["absent_metrics"] = absent
    log["samples"] = {"run_s": [r["run_s"] for r in plain],
                      "trace.run_s": [r["run_s"] for r in traced]}
    log["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "bethestates" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"bench: no program to measure under {SRC} (or no {bench_file.name})",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    group = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [(m["name"], m["unit"]) for m in group]
    spec = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]

    log = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "attempted": 0, "failed": 0, "failures": []}
    start = time.monotonic()
    deadline, stop_by = start + args.seconds, start + HARD_LIMIT_S
    env = child_env()
    if args.trace:
        metrics = traced_metrics(spec, expected, env, deadline, stop_by, log, names,
                                 f"{args.workload}-seed{args.seed}")
    else:
        metrics = untraced_metrics(spec, expected, env, deadline, stop_by, log)
    if metrics is None:
        print("bench: no repetition produced a timing: "
              + "; ".join(log["failures"][:3]), file=sys.stderr)
        return 1

    log["failed_frac"] = log["failed"] / log["attempted"]
    log["failures"] = log["failures"][:20]
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), **src_identity(), **log}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": log["failed"] == 0,
        "attempted": log["attempted"],
        "failed": log["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
