"""One pass of a workload in a fresh interpreter.

The package caches End(G) and cyclic generators in process-wide
``lru_cache``s keyed by group value, so every pass gets its own process:
a reused interpreter would time cache hits.  ``run.py`` starts this
script and reads the JSON it writes to ``--out``.

Modes: ``setup`` stops once the first request is ready; ``pass`` runs
the requests; ``traced`` runs them with the span recorder installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

import spaceform  # noqa: F401  (its import time belongs to set-up)

import tracer
import workloads

# Calibration loops per pass (at least): the same number before every
# request and after the last one.
CALIBRATIONS_PER_PASS = 40
# Batch metric suffix -> seconds-to-unit factor.
PER_OP_SCALE = {"_ns": 1e9, "_us": 1e6}


def calibration_s() -> float:
    """Time of a fixed pure-Python integer loop: the speed of the machine right now.

    It allocates nothing the garbage collector tracks, so the program's
    heap does not change it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(30_000):
        s = (s * 1103515245 + i) & 0x7FFFFFFF
    return time.perf_counter() - t0


def run_pass(wl: workloads.Workload, recorder: tracer.Recorder | None) -> dict:
    latencies: list[float] = []
    failures: list[str] = []
    calibration: list[float] = []
    clock = time.perf_counter
    per_request = -(-CALIBRATIONS_PER_PASS // len(wl.requests))
    for req in wl.requests:
        data = req.make_input()
        calibration.append(statistics.median(calibration_s() for _ in range(per_request)))
        out = exc = None
        t0 = clock()
        try:
            out = req.call(data)
        except Exception as e:  # the check decides whether this error was expected
            exc = e
        latencies.append(clock() - t0)
        if recorder is not None:
            recorder.active = False
        problem = req.check(data, out, exc)
        if recorder is not None:
            recorder.active = True
        if problem:
            failures.append(f"{req.label}: {problem}")
        del data, out, exc
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration.append(statistics.median(calibration_s() for _ in range(per_request)))
    if recorder is not None:
        recorder.active = False
    for label, post_check in wl.post_checks:
        problem = post_check()
        if problem:
            failures.append(f"{label}: {problem}")
    by_label = dict(zip((r.label for r in wl.requests), latencies))
    per_op = {
        metric: PER_OP_SCALE[metric[metric.rindex("_"):]]
        * sum(by_label[label] for label, _ in batches) / sum(ops for _, ops in batches)
        for metric, batches in wl.batches.items()
    }
    return {
        "latencies": latencies,
        "attempted": len(wl.requests) + len(wl.post_checks),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "per_op": per_op,
        "calibration_s": calibration,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="file for the spans of a traced pass")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the start")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()

    goldens = workloads.load_goldens()
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.work), goldens, args.tiny)
    result: dict = {"setup_s": time.monotonic() - args.spawned_at, "stats": wl.stats}
    result["setup_calibration_s"] = statistics.median(
        calibration_s() for _ in range(CALIBRATIONS_PER_PASS // 4))
    if args.mode != "setup":
        recorder = tracer.Recorder().install() if args.mode == "traced" else None
        result.update(run_pass(wl, recorder))
        if recorder is not None:
            recorder.uninstall()
            result["layers"] = recorder.layer_metrics()
            result["entries"] = recorder.entry_table()
            Path(args.spans).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "child_s"],
                 "spans": recorder.spans}))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
