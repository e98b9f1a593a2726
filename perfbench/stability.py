"""Check that the benchmark is steady: ten seeds per workload, twice.

    python3 perfbench/stability.py [--out FILE]

Run it from the repository root.  Each of two sets runs ``run.py`` once
per seed and workload of ``BENCHMARK.json``; set k, counting from 0,
uses seeds k*100 + 1 to k*100 + 10.  For every end-to-end metric it
reports the median and the spread, the distance between the first and
third quartiles as a share of the median, of the scaled values and of
the unscaled ones next to them.  It fails when a spread of the scaled
values exceeds the metric's bound in ``BENCHMARK.json``, or when the
second set's median is worse than the first set's by more than the
bound.  The figures are written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(bench: dict, workload: str, seed: int) -> tuple[dict, dict]:
    """(scaled, unscaled) end-to-end metrics of one run."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its output checks:\n{proc.stdout}")
    unscaled = json.loads(lines[-2].removeprefix("unscaled "))
    return {k: v["value"] for k, v in result["metrics"].items()}, unscaled


def evaluate(bench: dict, sets: list[dict]) -> list[str]:
    """Problems found in ``sets`` (a list of {workload: [metrics per run]})."""
    problems = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            medians = []
            for k, runs in enumerate(sets):
                values = [r[name] for r in runs[workload]]
                medians.append(statistics.median(values))
                s = spread(values)
                if s > bound:
                    problems.append(f"set {k + 1} {workload} {name}: spread {s:.3f} > {bound}")
            for k, m in enumerate(medians[1:], start=2):
                w = worse_by(medians[0], m, metric["better"])
                if w > bound:
                    problems.append(f"set {k} {workload} {name}: median worse by {w:.3f} > {bound}")
    return problems


def summarize(sets: list[dict], name: str, workload: str) -> list[dict]:
    out = []
    for runs in sets:
        values = [r[name] for r in runs[workload]]
        out.append({"median": statistics.median(values), "spread": spread(values)})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".bench_work/stability.json")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sets, unscaled_sets = [], []
    for k in range(SETS):
        runs: dict[str, list] = {w: [] for w in workloads}
        unscaled: dict[str, list] = {w: [] for w in workloads}
        for workload in workloads:
            for seed in range(k * 100 + 1, k * 100 + RUNS + 1):
                scaled_m, unscaled_m = run_once(bench, workload, seed)
                runs[workload].append(scaled_m)
                unscaled[workload].append(unscaled_m)
                print(f"set {k + 1} {workload} seed {seed}: {scaled_m} unscaled {unscaled_m}",
                      flush=True)
        sets.append(runs)
        unscaled_sets.append(unscaled)

    print(f"{'workload':8s} {'metric':12s} " + " ".join(
        f"{'median' + str(k + 1):>12s} {'spread' + str(k + 1):>8s} {'unscaled':>8s}"
        for k in range(SETS)))
    summary, unscaled_summary = {}, {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            stats = summarize(sets, name, workload)
            raw = summarize(unscaled_sets, name, workload)
            summary.setdefault(workload, {})[name] = stats
            unscaled_summary.setdefault(workload, {})[name] = raw
            print(f"{workload:8s} {name:12s} " + " ".join(
                f"{s['median']:12.5g} {s['spread']:8.4f} {r['spread']:8.4f}"
                for s, r in zip(stats, raw)))
    problems = evaluate(bench, sets)
    for p in problems:
        print("PROBLEM", p)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"summary": summary, "unscaled_summary": unscaled_summary,
                               "runs": sets, "unscaled_runs": unscaled_sets,
                               "problems": problems}, indent=1))
    print(f"wrote {out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
