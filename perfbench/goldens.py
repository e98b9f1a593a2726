"""Capture the benchmark's golden outputs from the package as it is now.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/goldens.py

It rewrites ``perfbench/goldens.json``: |End| per input group, the
summary of every context the ``build`` and ``arith`` workloads build
(|End|, |Aut|, unit-group order and Cayley-table digest, realizable
degrees, digests of the composition table and of the d values), the
cross-check element counts, and for every request the ``cli`` workload
can draw, a digest of its JSON report and of its rows.  Each
subcommand's report keys are recorded once: a run's JSON report passes
when every one of them is present with the same value, so reports may
gain keys later.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import spaceform as sf
from spaceform import degree as sf_degree

import workloads as wl

END_BASES = ("C4xC8", "C5", "C8", "C12", "C64", "Q8", "Q12", "Q16", "Q32", "Q64")


def base_group(base: str):
    if base == "C4xC8":
        return sf.direct_product(sf.make_cyclic(4), sf.make_cyclic(8))
    return sf.make_from_table(wl.base_table(base))


def summary(ctx) -> dict:
    return wl.context_summary(ctx, ctx.equivalence_group(), ctx.is_abelian(),
                              ctx.realizable_degrees())


def cli_golden(argv: list[str], keys: dict[str, list[str]]) -> list[str]:
    code, text = wl.run_cli(argv + ["--format", "json"])
    if code != 0:
        raise SystemExit(f"capture failed: {argv} exited {code}")
    report = json.loads(text)
    if keys.setdefault(argv[0], sorted(report)) != sorted(report):
        raise SystemExit(f"capture failed: {argv[0]} reports differ in their keys")
    return wl.report_golden(report)


def capture(work: Path) -> dict:
    end_counts = {b: len(sf.enumerate_endomorphisms(base_group(b))) for b in END_BASES}
    inputs = wl.Inputs(work, end_counts)

    def ones_ctx(g, base, n):
        _, table = sf_degree.load_dtable(inputs.ones_dtable(base, None))
        return sf.monoid_context(g, n, table)

    build = {
        "C128": summary(sf.monoid_context(sf.make_cyclic(128), 5)),
        "C96": summary(sf.monoid_context(sf.make_cyclic(96), 3)),
        "C4xC8": summary(ones_ctx(base_group("C4xC8"), "C4xC8", 1)),
        "C64": [
            summary(sf.monoid_context(sf.make_from_table(wl.permuted_table("C64", p)), 2))
            for p in range(wl.PERM_POOL)
        ],
    }
    arith = {}
    for base, n in wl.ARITH_CONTEXTS:
        g = base_group(base)
        ctx = sf.monoid_context(g, n) if base[0] == "C" else ones_ctx(g, base, n)
        arith[f"{base} n={n}"] = summary(ctx)
    cross = {}
    for m in wl.CROSS_ORDERS:
        for n in (1, 2, 3):
            report = sf.cross_check(sf.make_cyclic(m), n, 5 * m)
            if not report.passed:
                raise SystemExit(f"capture failed: cross-check C{m} n={n}")
            cross[f"{m} n={n}"] = report.element_count
    arith["cross_check"] = cross

    keys: dict[str, list[str]] = {}
    cli = {wl.BUILD_Q64_KEY: cli_golden(
        ["monoid", "--group", "quaternion:64", "--d-table", inputs.ones_dtable("Q64", 1),
         "--n", "1"], keys)}
    for spec in wl.cli_specs():
        cli[wl.spec_key(spec)] = cli_golden(wl.spec_argv(spec, inputs), keys)
    return {"end_counts": end_counts, "build": build, "arith": arith, "cli_keys": keys,
            "cli": cli}


def write(goldens: dict, path: Path) -> None:
    """One line per cli request, so that a changed golden shows as a one-line diff."""
    head = {k: v for k, v in goldens.items() if k != "cli"}
    lines = [json.dumps(head, sort_keys=True)[:-1] + ', "cli": {']
    items = sorted(goldens["cli"].items())
    for i, (key, value) in enumerate(items):
        sep = "," if i + 1 < len(items) else ""
        lines.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}{sep}")
    lines.append("}}")
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    work = Path(".bench_work") / "capture"
    try:
        goldens = capture(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    write(goldens, wl.GOLDENS_PATH)
    print(f"wrote {len(goldens['cli'])} cli goldens to {wl.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
