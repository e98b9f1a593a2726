"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build|arith|cli --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src``.
Each pass runs in a fresh child process (``child.py``), one at a time:
a closed loop with one client.  Passes repeat until ``--seconds`` is
used up, and timings are reported as medians over passes, scaled to a
reference machine speed (see ``speed``).  The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``; the line before
it holds the end-to-end metrics unscaled.  A traced run runs pairs of
an untraced and a traced pass, in alternating order, and reports the
tracing overhead as the mean over the pairs of traced minus untraced
pass time.  Generated inputs live
under ``.bench_work/`` and are removed at the end; the spans of the
last traced pass are kept in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("build", "arith", "cli")
MIN_PASSES = 3
# A traced run measures pairs of an untraced and a traced pass.  The
# order can matter (in one run on build the first pass of every pair
# was 0.4 s slower), so which runs first alternates, and the mean over
# an even number of pairs cancels the effect of order on the overhead.
MIN_TRACED_PAIRS = 4
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150
# No new pass starts that would end later than this after the start, so
# that a run ends within 180 s even when a change makes passes slow.
RUN_LIMIT_S = 120
# Times are reported at the machine speed at which child.calibration_s()
# takes this long; see speed().
CALIBRATION_REF_S = 0.004
TIME_UNITS = {"s", "ms", "us", "ns"}

END_TO_END = {
    "run_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "groups.build_s": "s",
    "endomorphisms.enumerate_s": "s",
    "endomorphisms.end_count": "count",
    "endomorphisms.aut_count": "count",
    "endomorphisms.composition_table_s": "s",
    "endomorphisms.composition_table_calls": "count",
    "endomorphisms.compose_us": "us",
    "degree.build_s": "s",
    "degree.validate_s": "s",
    "degree.law_pairs": "count",
    "monoid_odd.context_s": "s",
    "monoid_odd.equivalence_group_s": "s",
    "monoid_odd.multiply_ns": "ns",
    "monoid_even.multiply_even_ns": "ns",
    "selfmap_oracle.cross_check_s": "s",
    "selfmap_oracle.products": "count",
    "cli.monoid_ms": "ms",
    "cli.equiv_ms": "ms",
    "cli.even_ms": "ms",
    "cli.degrees_ms": "ms",
    "cli.check_ms": "ms",
    "cli.census_ms": "ms",
    "cli.emit_ms": "ms",
    "trace.overhead_s": "s",
}


class Runner:
    """Starts child passes for one workload and seed, one at a time."""

    def __init__(self, root: Path, workload: str, seed: int, tiny: bool = False):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.spans = root / ".bench_work" / "traces" / f"{workload}-seed{seed}.json"
        self.count = 0

    def spawn(self, mode: str) -> dict:
        self.count += 1
        work = self.work / f"{mode}-{self.count}"
        work.mkdir(parents=True)
        out = work / "result.json"
        self.spans.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--work", str(work),
               "--out", str(out), "--spans", str(self.spans)]
        if self.tiny:
            cmd.append("--tiny")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], env=env, cwd=self.root,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} pass failed:\n{proc.stderr[-2000:]}")
        return json.loads(out.read_text())

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def measure(runner: Runner, seconds: float, traced: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Passes until ``seconds`` are used up: (untraced, traced, children with a set-up time)."""
    start = time.monotonic()
    plain: list[dict] = []
    traced_passes: list[dict] = []
    cycle: list[float] = []
    while True:
        t0 = time.monotonic()
        if not traced:
            plain.append(runner.spawn("pass"))
        elif len(plain) % 2 == 0:
            plain.append(runner.spawn("pass"))
            traced_passes.append(runner.spawn("traced"))
        else:
            traced_passes.append(runner.spawn("traced"))
            plain.append(runner.spawn("pass"))
        cycle.append(time.monotonic() - t0)
        next_end = time.monotonic() + statistics.median(cycle) - start
        if traced:
            enough = len(plain) >= MIN_TRACED_PAIRS and len(plain) % 2 == 0
        else:
            enough = len(plain) >= MIN_PASSES
        if (enough and next_end > seconds) or next_end > RUN_LIMIT_S:
            break
    setups = plain + traced_passes
    while len(setups) < MIN_SETUPS and time.monotonic() - start < RUN_LIMIT_S:
        setups.append(runner.spawn("setup"))
    return plain, traced_passes, setups


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(calibrations: list[float]) -> float:
    """Factor that scales a child's times to the reference machine speed.

    The machine is shared: the same pass runs 25% faster or slower from
    one minute to the next, on all code alike.  Each child times a fixed
    integer loop before and after every request (after set-up for the
    set-up time); dividing by its median takes that drift out of the
    times while leaving any change in the program's own speed in them.
    """
    return CALIBRATION_REF_S / statistics.median(calibrations)


def latencies(p: dict, scaled: bool = True) -> list[float]:
    f = speed(p["calibration_s"]) if scaled else 1.0
    return [lat * f for lat in p["latencies"]]


def request_latencies(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each request's median latency over the passes.

    Every pass runs the same request list; taking the median per request
    keeps a slow spell of the machine during one request out of the
    figures, and keeps a percentile that falls between two groups of
    requests of different sizes from jumping between them.
    """
    return [statistics.median(lats) for lats in zip(*(latencies(p, scaled) for p in passes))]


def pass_time(passes: list[dict], scaled: bool = True) -> float:
    """Time of one pass: the requests' median latencies, summed."""
    return sum(request_latencies(passes, scaled))


def end_to_end(passes: list[dict], setups: list[dict], scaled: bool = True) -> dict[str, float]:
    lats = request_latencies(passes, scaled)
    return {
        "run_s": sum(lats),
        "req_p50_ms": 1000 * statistics.median(lats),
        "req_p90_ms": 1000 * percentile(lats, 90),
        "setup_s": statistics.median(
            c["setup_s"] * (speed([c["setup_calibration_s"]]) if scaled else 1.0)
            for c in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def overheads(plain: list[dict], traced: list[dict], scaled: bool = True) -> list[float]:
    """Traced minus untraced pass time, per pair of passes; the untraced pass of pair 0 runs first."""
    return [pass_time([t], scaled) - pass_time([p], scaled) for p, t in zip(plain, traced)]


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = statistics.fmean(overheads(plain, traced))
            continue
        values = [p["layers"].get(name, p["per_op"].get(name, 0.0))
                  * (speed(p["calibration_s"]) if PER_LAYER[name] in TIME_UNITS else 1.0)
                  for p in traced]
        out[name] = statistics.median(values)
    return out


def print_entries(traced: list[dict]) -> None:
    print("entry point (unscaled times)                  calls    total_s     self_s")
    for name in traced[-1]["entries"]:
        rows = [p["entries"][name] for p in traced]
        calls = statistics.median(r["calls"] for r in rows)
        total = statistics.median(r["total_s"] for r in rows)
        own = statistics.median(r["self_s"] for r in rows)
        print(f"{name:44s} {calls:6g} {total:10.4f} {own:10.4f}")
    zero = [name for name, row in traced[-1]["entries"].items() if row["calls"] == 0]
    print(f"entry points with zero calls: {', '.join(zero) or 'none'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spaceform" / "__init__.py").is_file():
        print("run.py: no src/spaceform here; run it from the repository root",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        plain, traced, setups = measure(runner, args.seconds, bool(args.trace))
    finally:
        runner.close()

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    stats = plain[0]["stats"]
    e2e = end_to_end(plain, setups)
    unscaled = end_to_end(plain, setups, scaled=False)
    n_lat = len(plain[0]["latencies"])
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-ups, "
          f"{len(plain[0]['latencies'])} requests per pass")
    for key, value in stats.items():
        print(f"  {key:28s} {value:.4g}")
    for name, unit in END_TO_END.items():
        print(f"  {name:28s} {e2e[name]:.6g} {unit}  (unscaled {unscaled[name]:.6g})")
    print(f"  {'request latencies':28s} {n_lat}, each a median over {len(plain)} passes "
          f"(p90 has {n_lat - 1 - int(0.9 * (n_lat - 1))} beyond it)")
    print(f"  {'failed_ratio':28s} {len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    if traced:
        metrics = per_layer(plain, traced)
        for name, unit in PER_LAYER.items():
            print(f"  {name:40s} {metrics[name]:.6g} {unit}")
        diffs = overheads(plain, traced)
        raw = overheads(plain, traced, scaled=False)
        # Resolved when the traced pass is the slower one in every pair,
        # scaled and unscaled: then the overhead is larger than the
        # pass-to-pass spread, the effect of order and the noise of the
        # scaling.  The wrappers only add work, so traced passes that ran
        # faster show noise, not a negative overhead.
        resolved = all(d > 0 for d in diffs + raw)
        spans = sum(row["calls"] for row in traced[-1]["entries"].values())
        print("  trace.overhead_s per pair (untraced/traced first): " + ", ".join(
            f"{'UT'[i % 2]} {d:.3f}" for i, d in enumerate(diffs))
              + f" s; unscaled {', '.join(f'{d:.3f}' for d in raw)} s, "
              f"mean {statistics.fmean(raw):.4g} s; {spans} spans per traced pass: "
              + ("resolved" if resolved else "unresolved, not every pair has the traced pass slower"))
        print_entries(traced)
        print(f"spans of the last traced pass: {runner.spans.relative_to(root)}")
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    print("unscaled " + json.dumps(unscaled))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
