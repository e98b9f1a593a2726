"""The benchmark's workloads: seeded inputs, timed requests, output checks.

Every workload is a closed loop with one client: a request is issued
only after the previous one has returned, as a CLI or notebook user
does.  The program receives only the files and values generated here
from the seed.  Every output is checked against the goldens captured by
``goldens.py`` or against an independent recomputation.

The package is driven only through public functions and
``spaceform.cli.main``, always looked up as module attributes at call
time, so the span recorder in ``tracer.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import spaceform as sf
from spaceform import cli as sf_cli
from spaceform import degree as sf_degree
from spaceform import endomorphisms as sf_endo
from spaceform.errors import NotAHomomorphismError

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

# Permuted group tables come from a fixed pool per base group, so the
# goldens can cover every table a seed may pick.
PERM_POOL = 8

# --- cli request space; goldens.py captures a report for every point ---
CYCLIC_MAX = 64
QUATERNIONS = (8, 16, 32)
TABLE_BASES = ("C5", "C8", "C12", "Q8", "Q12")
NS = (1, 2)
MONOID_WINDOWS = (3, 10)
K_LISTS = ((1, 2, 3, 5, 7, 9, -1), (0, 4, 6, 12, 25, -9, 101))
CENSUS_MAX = (8, 16, 24)
EVEN_NS = (1, 2, 3)
FORMATS = ("json", "md", "csv")
# Per subcommand: (cyclic requests, table: requests); each also gets one
# request per quaternion order.
CLI_MIX = {"monoid": (30, 3), "equiv": (18, 3), "degrees": (18, 3), "check": (10, 2)}
CENSUS_COUNT = 6
EVEN_COUNT = 6
# Expected rejections, about a tenth of a pass.
BAD_KINDS = ("corrupt",) * 5 + ("nongroup",) * 3 + ("cyclic0", "cyclic0", "unknown", "even0")

# --- build ---
BUILD_Q64_KEY = "monoid|quaternion:64|n=1|w=10"
BUILD_Q32_N = 1

# --- arith sizes ---
ARITH_CONTEXTS = (("C2", 3), ("C12", 2), ("C24", 8), ("Q8", 1))
MULT_BATCHES, MULT_BATCH = 6, 10_000
# 29 small multiply_even batches, as many as compose and cross_check
# requests together, put the median request in the middle of the
# multiply batches rather than at the edge of a group.
EVEN_BATCHES, EVEN_BATCH = 29, 7_000
COMPOSE_BATCHES, COMPOSE_BATCH = 10, 100
CROSS_ORDERS = tuple(range(12, 31))


def digest(value: Any) -> str:
    """Short content hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def as_int(r) -> int:
    """A residue as a plain int, whether the package returns ints or Residue."""
    return r if isinstance(r, int) else r.value


# --- group tables, computed here without the package ---


def cyclic_table(m: int) -> list[list[int]]:
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def quaternion_table(order: int) -> list[list[int]]:
    """Q_{4k}: x^i is index i, x^i y is index 2k + i."""
    k = order // 4
    n2 = 2 * k

    def mul(a: int, b: int) -> int:
        i, s = a % n2, a // n2
        j, t = b % n2, b // n2
        i2 = (i + (-j if s else j)) % n2
        if s and t:
            return (i2 + k) % n2
        return i2 + (n2 if s != t else 0)

    return [[mul(a, b) for b in range(order)] for a in range(order)]


def base_table(base: str) -> list[list[int]]:
    kind, order = base[0], int(base[1:])
    return cyclic_table(order) if kind == "C" else quaternion_table(order)


def permuted_table(base: str, perm_id: int) -> list[list[int]]:
    """The base table relabelled by pool permutation ``perm_id``; 0 is never the identity."""
    t = base_table(base)
    m = len(t)
    perm = list(range(m))
    random.Random(f"{base}#{perm_id}").shuffle(perm)
    if perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
    out = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            out[perm[x]][perm[y]] = perm[t[x][y]]
    return out


def corrupt_value(m: int, rng: random.Random) -> int:
    """A residue v with v*v not in {1, v} mod m.

    Setting one entry of an all-ones d-table to v breaks
    multiplicativity at that entry composed with itself, whichever
    entry it is, so the table is always rejected as not a homomorphism.
    """
    return rng.choice([v for v in range(2, m) if v * v % m not in (1, v)])


class Inputs:
    """Writes each generated input file once, under ``work``."""

    def __init__(self, work: Path, end_counts: dict[str, int]):
        self.work = work
        self.end_counts = end_counts
        self._written: dict[str, Path] = {}
        work.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, data) -> str:
        if name not in self._written:
            path = self.work / f"{name}.json"
            path.write_text(json.dumps(data))
            self._written[name] = path
        return str(self._written[name])

    def group_file(self, base: str, perm_id: int) -> str:
        table = permuted_table(base, perm_id)
        return self._write(f"group-{base}-{perm_id}", {"order": len(table), "table": table})

    def ones_dtable(self, base: str, n: int | None) -> str:
        values = {str(i): 1 for i in range(self.end_counts[base])}
        data = {"values": values} if n is None else {"n": n, "values": values}
        return self._write(f"ones-{base}-{n}", data)

    def corrupt_dtable(self, base: str, n: int, rng: random.Random) -> tuple[str, dict]:
        end = self.end_counts[base]
        values = {i: 1 for i in range(end)}
        values[rng.randrange(end)] = corrupt_value(int(base[1:]), rng)
        name = f"corrupt-{base}-{n}-{len(self._written)}"
        path = self._write(name, {"n": n, "values": {str(i): v for i, v in values.items()}})
        return path, values

    def nongroup_file(self, rng: random.Random) -> str:
        """A Latin square without identity (x - y mod m), or a table with a repeated entry."""
        m = rng.randint(3, 9)
        table = [[(x - y) % m for y in range(m)] for x in range(m)]
        if rng.random() < 0.5:
            r, c = rng.randrange(m), rng.randrange(m - 1)
            table[r][c] = table[r][c + 1]
        return self._write(f"nongroup-{len(self._written)}", {"order": m, "table": table})


# --- requests ---


def no_input() -> None:
    return None


@dataclass
class Request:
    """One timed call and the check of its output.

    ``make_input()`` runs just before the call and ``check(input, output,
    exc)`` just after it, both outside the timed part; the check returns
    None or a description of the failure.  The input is dropped after
    the check, so a batch's inputs are not in memory during other
    requests.
    """

    label: str
    call: Callable[[Any], Any]
    check: Callable[[Any, Any, BaseException | None], str | None]
    make_input: Callable[[], Any] = no_input


@dataclass
class Workload:
    requests: list[Request]
    post_checks: list[tuple[str, Callable[[], str | None]]] = field(default_factory=list)
    # Per-op batches: metric name -> list of (request label, op count).
    batches: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sf_cli.main(argv)
    return code, out.getvalue()


def sorted_columns(table: list[list[str]]) -> list[list[str]]:
    """Columns in header order, as in the JSON report (rendered with sorted keys)."""
    if not table:
        return []
    order = sorted(range(len(table[0])), key=lambda i: table[0][i])
    return [[row[i] for i in order] for row in table]


def _cells(line: str) -> list[str]:
    return [c.strip() for c in line.strip()[1:-1].split("|")]


def md_rows(text: str) -> list[list[str]]:
    """Header and body cells of the unlabelled ('rows') table in a md report."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("|") or (i and lines[i - 1].startswith("|")):
            continue
        label = lines[i - 2] if i >= 2 else ""
        if label.startswith("**") and label.endswith("**"):
            continue
        block = []
        for row in lines[i:]:
            if not row.startswith("|"):
                break
            block.append(row)
        return sorted_columns([_cells(block[0])] + [_cells(r) for r in block[2:]])
    return []


def csv_rows(text: str) -> list[list[str]]:
    return sorted_columns([[c.strip() for c in row] for row in csv.reader(io.StringIO(text))])


def report_rows(report: dict) -> list[list[str]]:
    """The rows of a JSON report as the md and csv renderers print them."""
    rows = report.get("rows", [])
    if not rows:
        return []
    return sorted_columns([list(rows[0])] + [[str(v).strip() for v in r.values()] for r in rows])


def report_golden(report: dict) -> list[str]:
    """[digest of the whole JSON report, digest of its rows as md/csv print them]."""
    return [digest(report), digest(report_rows(report))]


def check_cli(golden: list[str] | None, keys: list[str], fmt: str, expect: int):
    """Check exit code, then the output against the golden of the same request.

    A JSON report passes when every key of the golden report (``keys``)
    is present with the same value; md and csv pass when their rows match.
    """

    def check(_, result, exc):
        if exc is not None:
            return f"raised {exc!r}"
        code, text = result
        if code != expect:
            return f"exit code {code}, expected {expect}"
        if golden is None:
            return None
        if fmt == "json":
            report = json.loads(text)
            missing = [k for k in keys if k not in report]
            if missing:
                return f"keys {missing} missing"
            if digest({k: report[k] for k in keys}) != golden[0]:
                return "report differs from golden"
            return None
        rows = md_rows(text) if fmt == "md" else csv_rows(text)
        if digest(rows) != golden[1]:
            return f"{fmt} rows differ from golden"
        return None

    return check


def context_summary(ctx, eg, abelian, realizable) -> dict:
    """Everything a build request is checked on, as plain JSON values."""
    return {
        "end": len(ctx.endos),
        "aut": sum(1 for e in ctx.endos if e.is_automorphism),
        "units": eg.order,
        "abelian": bool(abelian),
        "realizable": sorted(as_int(r) for r in realizable),
        "d": digest([as_int(v) for v in ctx.dhom.values]),
        "comp": digest(sf_endo.composition_table(ctx.group)),
        "units_table": digest(eg.table),
    }


def compare(got: dict, want: dict) -> str | None:
    bad = sorted(k for k in want if got.get(k) != want[k])
    return f"differs from golden in {bad}" if bad else None


def _context_request(label: str, make_ctx: Callable, golden: dict) -> Request:
    def call(_):
        ctx = make_ctx()
        eg = ctx.equivalence_group()
        return ctx, eg, ctx.is_abelian(), ctx.realizable_degrees()

    def check(_, out, exc):
        if exc is not None:
            return f"raised {exc!r}"
        return compare(context_summary(*out), golden)

    return Request(label, call, check)


# --- build ---


def build_workload(seed: int, work: Path, goldens: dict, tiny: bool = False) -> Workload:
    """Cold contexts near the order cap, with the law checks they need."""
    rng = random.Random(f"build-{seed}")
    inputs = Inputs(work, goldens["end_counts"])
    gb = goldens["build"]
    perm_id = rng.randrange(PERM_POOL)
    perm64 = inputs.group_file("C64", perm_id)
    ones_c4c8 = inputs.ones_dtable("C4xC8", None)
    ones_q64 = inputs.ones_dtable("Q64", 1)
    q32_path, q32_values = inputs.corrupt_dtable("Q32", BUILD_Q32_N, rng)

    def c4xc8():
        g = sf.direct_product(sf.make_cyclic(4), sf.make_cyclic(8))
        _, table = sf_degree.load_dtable(ones_c4c8)
        return sf.monoid_context(g, 1, table)

    def q32_corrupt(_):
        g = sf.make_generalized_quaternion(32)
        _, table = sf_degree.load_dtable(q32_path)
        return sf.monoid_context(g, BUILD_Q32_N, table)

    def check_q32(_, out, exc):
        if not isinstance(exc, NotAHomomorphismError) or exc.witness is None:
            return f"expected NotAHomomorphismError with witness, got {exc!r}"
        i, j = exc.witness
        endos = sf.enumerate_endomorphisms(sf.make_generalized_quaternion(32))
        index = {e.images: e.canonical_index for e in endos}
        k = index[tuple(endos[i].images[v] for v in endos[j].images)]
        if q32_values[k] == q32_values[i] * q32_values[j] % 32:
            return f"witness {exc.witness} does not violate multiplicativity"
        return None

    q64_argv = ["monoid", "--group", "quaternion:64", "--d-table", ones_q64,
                "--n", "1", "--format", "json"]
    requests = [
        _context_request("C128 n=5", lambda: sf.monoid_context(sf.make_cyclic(128), 5),
                         gb["C128"]),
        _context_request("C96 n=3", lambda: sf.monoid_context(sf.make_cyclic(96), 3),
                         gb["C96"]),
        _context_request("C4xC8 ones", c4xc8, gb["C4xC8"]),
        _context_request("table C64 n=2",
                         lambda: sf.monoid_context(sf.load_group(perm64), 2),
                         gb["C64"][perm_id]),
        Request("cli monoid Q64", lambda _: run_cli(q64_argv),
                check_cli(goldens["cli"][BUILD_Q64_KEY], goldens["cli_keys"]["monoid"],
                          "json", 0)),
        Request("Q32 corrupt", q32_corrupt, check_q32),
    ]
    if tiny:
        requests = [requests[1], requests[3], requests[5]]
    return Workload(requests)


# --- arith ---


def arith_workload(seed: int, work: Path, goldens: dict, tiny: bool = False) -> Workload:
    """Element arithmetic on contexts built in set-up.

    Each batch draws its operands from its own seeded generator just
    before its timed call, so ``peak_rss_mb`` holds one batch of inputs,
    not all of them.
    """
    rng = random.Random(f"arith-{seed}")
    inputs = Inputs(work, goldens["end_counts"])
    mult_batches, even_batches, compose_batches = (
        (1, 1, 1) if tiny else (MULT_BATCHES, EVEN_BATCHES, COMPOSE_BATCHES)
    )
    requests: list[Request] = []
    post: list[tuple[str, Callable[[], str | None]]] = []
    wl = Workload(requests, post,
                  {"monoid_odd.multiply_ns": [], "monoid_even.multiply_even_ns": [],
                   "endomorphisms.compose_us": []})

    def batch_rng(label: str) -> random.Random:
        return random.Random(f"arith-{seed}-{label}")

    for base, n in ARITH_CONTEXTS:
        if base[0] == "C":
            ctx = sf.monoid_context(sf.make_cyclic(int(base[1:])), n)
        else:
            _, table = sf_degree.load_dtable(inputs.ones_dtable(base, n))
            ctx = sf.monoid_context(sf.make_generalized_quaternion(int(base[1:])), n, table)
        elems = list(ctx.elements_in_window(3 * ctx.group.order))

        def ctx_check(ctx=ctx, key=f"{base} n={n}"):
            eg = ctx.equivalence_group()
            got = context_summary(ctx, eg, ctx.is_abelian(), ctx.realizable_degrees())
            return compare(got, goldens["arith"][key])

        post.append((f"context {base} n={n}", ctx_check))
        images = [e.images for e in ctx.endos]
        index = {img: i for i, img in enumerate(images)}
        for b in range(mult_batches):
            label = f"multiply {base} n={n} #{b}"

            def make_pairs(r=batch_rng(label), elems=elems):
                return list(zip(r.choices(elems, k=MULT_BATCH), r.choices(elems, k=MULT_BATCH)))

            def call(pairs, mul=ctx.multiply):
                return [mul(x, y) for x, y in pairs]

            def check(pairs, out, exc, images=images, index=index):
                if exc is not None:
                    return f"raised {exc!r}"
                want_alpha: dict[tuple[int, int], int] = {}
                for (x, y), r in zip(pairs, out):
                    key = (x[0], y[0])
                    if key not in want_alpha:
                        want_alpha[key] = index[tuple(images[x[0]][v] for v in images[y[0]])]
                    if r[0] != want_alpha[key] or r[1] != x[1] * y[1]:
                        return f"{x} * {y} gave {r}"
                return None

            requests.append(Request(label, call, check, make_pairs))
            wl.batches["monoid_odd.multiply_ns"].append((label, MULT_BATCH))

    for b in range(even_batches):
        label = f"multiply_even #{b}"

        def make_even(r=batch_rng(label)):
            ints = [(r.getrandbits(21) - 2**20, r.getrandbits(21) - 2**20)
                    for _ in range(EVEN_BATCH)]
            return ints, [(sf.canonicalize(a), sf.canonicalize(c)) for a, c in ints]

        def call(batch):
            mul = sf.multiply_even
            return [mul(x, y) for x, y in batch[1]]

        def check(batch, out, exc):
            if exc is not None:
                return f"raised {exc!r}"
            for (a, c), r in zip(batch[0], out):
                if r != sf.canonicalize(a * c):
                    return f"class({a}) * class({c}) gave {r}"
            return None

        requests.append(Request(label, call, check, make_even))
        wl.batches["monoid_even.multiply_even_ns"].append((label, EVEN_BATCH))

    c128 = sf.enumerate_endomorphisms(sf.make_cyclic(128))
    for b in range(compose_batches):
        label = f"compose C128 #{b}"

        def make_compose(r=batch_rng(label)):
            return list(zip(r.choices(c128, k=COMPOSE_BATCH), r.choices(c128, k=COMPOSE_BATCH)))

        def call(pairs):
            compose = sf.compose
            return [compose(a, c) for a, c in pairs]

        def check(pairs, out, exc):
            if exc is not None:
                return f"raised {exc!r}"
            for (a, c), r in zip(pairs, out):
                if r.images != tuple(a.images[v] for v in c.images):
                    return f"compose({a.canonical_index}, {c.canonical_index}) wrong"
            return None

        requests.append(Request(label, call, check, make_compose))
        wl.batches["endomorphisms.compose_us"].append((label, COMPOSE_BATCH))

    for m in CROSS_ORDERS[:3] if tiny else CROSS_ORDERS:
        g = sf.make_cyclic(m)
        n = rng.choice((1, 2, 3))
        want = goldens["arith"]["cross_check"][f"{m} n={n}"]

        def call(_, g=g, n=n, m=m):
            return sf.cross_check(g, n, 5 * m)

        def check(_, out, exc, want=want):
            if exc is not None:
                return f"raised {exc!r}"
            if not out.passed or out.element_count != want or out.product_count != want**2:
                return f"cross-check report {out.to_json()} (expected {want} elements)"
            return None

        requests.append(Request(f"cross_check C{m} n={n}", call, check))
    return wl


# --- cli ---


def group_keys() -> list[str]:
    return (
        [f"cyclic:{m}" for m in range(1, CYCLIC_MAX + 1)]
        + [f"quaternion:{q}" for q in QUATERNIONS]
        + [f"table:{b}#{p}" for b in TABLE_BASES for p in range(PERM_POOL)]
    )


def cli_specs():
    """Every well-formed cli request the generator can draw, without format."""
    for g in group_keys():
        for n in NS:
            for w in MONOID_WINDOWS:
                yield {"sub": "monoid", "group": g, "n": n, "window": w}
            yield {"sub": "equiv", "group": g, "n": n}
            for k in range(len(K_LISTS)):
                yield {"sub": "degrees", "group": g, "n": n, "klist": k}
            yield {"sub": "check", "group": g, "n": n}
    for mx in CENSUS_MAX:
        for n in NS:
            yield {"sub": "census", "max": mx, "n": n}
    for n in EVEN_NS:
        yield {"sub": "even", "n": n}


def spec_key(spec: dict) -> str:
    parts = [spec["sub"]]
    if "group" in spec:
        parts.append(spec["group"])
    if "max" in spec:
        parts.append(f"max={spec['max']}")
    parts.append(f"n={spec['n']}")
    if "window" in spec:
        parts.append(f"w={spec['window']}")
    if "klist" in spec:
        parts.append(f"k={spec['klist']}")
    return "|".join(parts)


def group_argv(group: str, n: int, inputs: Inputs) -> list[str]:
    kind, _, arg = group.partition(":")
    if kind == "cyclic":
        return ["--group", group]
    if kind == "quaternion":
        return ["--group", group, "--d-table", inputs.ones_dtable(f"Q{arg}", n)]
    base, _, perm = arg.partition("#")
    argv = ["--group", "table:" + inputs.group_file(base, int(perm))]
    if base[0] == "Q":
        argv += ["--d-table", inputs.ones_dtable(base, n)]
    return argv


def spec_argv(spec: dict, inputs: Inputs) -> list[str]:
    sub = spec["sub"]
    argv = [sub]
    if "group" in spec:
        argv += group_argv(spec["group"], spec["n"], inputs)
    if sub == "census":
        argv += ["--max-order", str(spec["max"])]
    argv += ["--n", str(spec["n"])]
    if "window" in spec:
        argv += ["--window", str(spec["window"])]
    if sub == "degrees":
        argv += [str(k) for k in K_LISTS[spec["klist"]]]
    return argv


def _cyclic_orders(rng: random.Random, count: int) -> list[int]:
    """One order from each of ``count`` equal strata of 1..CYCLIC_MAX.

    Stratifying keeps the cost of a pass nearly the same from seed to
    seed while every order can still be drawn, with repetition.
    """
    return [rng.randint(1 + i * CYCLIC_MAX // count, (i + 1) * CYCLIC_MAX // count)
            for i in range(count)]


def draw_specs(rng: random.Random) -> list[dict]:
    """The well-formed part of a pass: fixed counts per subcommand and family."""
    specs = []
    for sub, (cyclic, tables) in CLI_MIX.items():
        groups = [f"cyclic:{m}" for m in _cyclic_orders(rng, cyclic)]
        groups += [f"quaternion:{q}" for q in QUATERNIONS]
        groups += [f"table:{rng.choice(TABLE_BASES)}#{rng.randrange(PERM_POOL)}"
                   for _ in range(tables)]
        for group in groups:
            spec = {"sub": sub, "group": group, "n": rng.choice(NS)}
            if sub == "monoid":
                spec["window"] = rng.choice(MONOID_WINDOWS)
            elif sub == "degrees":
                spec["klist"] = rng.randrange(len(K_LISTS))
            specs.append(spec)
    for i in range(CENSUS_COUNT):
        specs.append({"sub": "census", "max": CENSUS_MAX[i % len(CENSUS_MAX)],
                      "n": rng.choice(NS)})
    specs += [{"sub": "even", "n": rng.choice(EVEN_NS)} for _ in range(EVEN_COUNT)]
    return specs


def draw_bad(kind: str, rng: random.Random, inputs: Inputs) -> tuple[str, list[str], int]:
    """An input the CLI must reject: (reuse key, argv, expected exit code)."""
    n = rng.choice(NS)
    if kind == "corrupt":
        q = rng.choice(QUATERNIONS)
        path, _ = inputs.corrupt_dtable(f"Q{q}", n, rng)
        sub = rng.choice(("monoid", "equiv", "degrees", "check"))
        argv = [sub, "--group", f"quaternion:{q}", "--d-table", path, "--n", str(n)]
        if sub == "degrees":
            argv.append("1")
        return f"quaternion:{q}", argv, 2
    if kind == "nongroup":
        sub = rng.choice(("monoid", "equiv"))
        return "nongroup", [sub, "--group", "table:" + inputs.nongroup_file(rng), "--n", str(n)], 1
    if kind == "cyclic0":
        return "cyclic:0", ["monoid", "--group", "cyclic:0", "--n", str(n)], 1
    if kind == "unknown":
        return "dihedral:8", ["equiv", "--group", "dihedral:8", "--n", str(n)], 1
    return "even", ["even", "--n", "0"], 1


def cli_workload(seed: int, work: Path, goldens: dict, tiny: bool = False) -> Workload:
    """A seeded stream of in-process ``cli.main`` requests, in seeded order."""
    rng = random.Random(f"cli-{seed}")
    inputs = Inputs(work, goldens["end_counts"])
    items = [(spec, None) for spec in draw_specs(rng)] + [(None, k) for k in BAD_KINDS]
    rng.shuffle(items)
    if tiny:
        items = items[:20]
    requests: list[Request] = []
    seen: set[str] = set()
    reused = 0
    for spec, bad_kind in items:
        if bad_kind is not None:
            key, argv, expect = draw_bad(bad_kind, rng, inputs)
            golden = None
        else:
            key = spec.get("group", spec["sub"])
            argv = spec_argv(spec, inputs)
            golden = goldens["cli"][spec_key(spec)]
            expect = 0
        reused += key in seen
        seen.add(key)
        fmt = rng.choice(FORMATS)
        argv += ["--format", fmt]
        requests.append(Request(" ".join(argv[:3]), lambda _, argv=argv: run_cli(argv),
                                check_cli(golden, goldens["cli_keys"].get(argv[0]), fmt, expect)))
    rejected = sum(1 for _, kind in items if kind is not None)
    stats = {"requests": len(requests), "reuse_share": reused / len(requests),
             "reject_share": rejected / len(requests)}
    return Workload(requests, stats=stats)


WORKLOADS = {"build": build_workload, "arith": arith_workload, "cli": cli_workload}
