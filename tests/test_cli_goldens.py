"""The CLI's stdout, stderr and exit code, pinned by digest for fixed commands.

Each command runs in process through ``cli.main``.  Its exit code and the
sha256 of its stdout and of its stderr (first 16 hex digits) must equal
the pinned ones.  The input files are written per test run: all-ones
d-tables for generalized quaternion groups, group tables relabelled so
that the identity is not at index 0, and tables that are no group.  A
``{name}`` in a command stands for the path of input file ``name``.

To print the digests of the code as it is now, for a reviewed change of
output: ``PYTHONPATH=src python3 -m tests.test_cli_goldens``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from spaceform import cli, endomorphisms
from spaceform.groups import direct_product, make_cyclic, make_generalized_quaternion
from tests.test_end_properties import count_composition_tables

# |End(Q_4k)|, so that an all-ones d-table has exactly End's indices
QUATERNION_ENDS = {8: 28, 16: 36, 32: 132, 128: 2052}


def relabelled(g) -> dict:
    """g's table under x -> |g| - 1 - x, so the identity sits last."""
    n = g.order
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[n - 1 - x][n - 1 - y] = n - 1 - g.table[x][y]
    return {"order": n, "table": table}


def write_inputs(folder: Path) -> dict[str, str]:
    files = {
        f"q{q}_ones_n{n}": {"n": n, "values": {str(i): 1 for i in range(size)}}
        for q, size in QUATERNION_ENDS.items()
        for n in (1, 2)
    }
    broken = {str(i): 1 for i in range(28)}
    broken["27"] = 3
    files["q8_broken"] = {"n": 1, "values": broken}
    files["q8_short"] = {"n": 1, "values": {"0": 1}}
    files["c2xc4_ones"] = {"n": 1, "values": {str(i): 1 for i in range(32)}}
    files["c6_relabelled"] = relabelled(make_cyclic(6))
    files["c12_relabelled"] = relabelled(make_cyclic(12))
    files["q8_relabelled"] = relabelled(make_generalized_quaternion(8))
    files["c2xc4_relabelled"] = relabelled(direct_product(make_cyclic(2), make_cyclic(4)))
    files["column_repeats"] = {"table": [[0, 1, 2], [1, 2, 0], [0, 1, 2]]}
    files["column_repeats_identity"] = {
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 0, 1]]
    }
    files["left_identity_only"] = {"table": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]}
    files["no_identity"] = {"table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}
    files["nonassociative"] = {
        "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    }
    paths = {}
    for name, data in files.items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


# command -> (exit code, sha256 of stdout, sha256 of stderr), digests cut to 16
EMPTY = "e3b0c44298fc1c14"  # no output
GOLDENS = {
    "monoid --group cyclic:1 --n 0 --format json": (0, "c7bbe912d0fd6762", EMPTY),
    "monoid --group cyclic:2 --n 3 --format md": (0, "f02715e0b23f069a", EMPTY),
    "monoid --group cyclic:12 --n 1 --format csv": (0, "09853e030238d0c5", EMPTY),
    "monoid --group cyclic:64 --n 2 --window 100 --format json": (0, "104742341693ef9a", EMPTY),
    "monoid --group quaternion:8 --n 1 --d-table {q8_ones_n1} --format json":
        (0, "c408e84da2f6ef03", EMPTY),
    "monoid --group quaternion:32 --n 2 --d-table {q32_ones_n2} --format md":
        (0, "f8b85bf2369df2e9", EMPTY),
    "monoid --group quaternion:128 --n 1 --d-table {q128_ones_n1} --format json":
        (0, "cb0bcbd962debce2", EMPTY),
    "monoid --group table:{c6_relabelled} --n 1 --format json": (0, "11f1753c0a65fcec", EMPTY),
    "monoid --group table:{q8_relabelled} --n 1 --d-table {q8_ones_n1} --format csv":
        (0, "bd17a4bcfcc2f241", EMPTY),
    "equiv --group cyclic:1 --n 0 --format json": (0, "f6f3560a7f2bb26c", EMPTY),
    "equiv --group cyclic:2 --n 1 --format md": (0, "49b30b34d3512dfb", EMPTY),
    "equiv --group cyclic:24 --n 1 --format json": (0, "f519134c8843b3d6", EMPTY),
    "equiv --group cyclic:63 --n 2 --format csv": (0, "2400fa0fac59b6c7", EMPTY),
    "equiv --group quaternion:16 --n 1 --d-table {q16_ones_n1} --format json":
        (0, "d9d1c0128fd4b848", EMPTY),
    "equiv --group quaternion:32 --n 1 --d-table {q32_ones_n1} --format md":
        (0, "9ed2a2e416ed5318", EMPTY),
    "equiv --group table:{c12_relabelled} --n 3 --format json": (0, "c852e85094340e70", EMPTY),
    "equiv --group table:{c2xc4_relabelled} --n 1 --d-table {c2xc4_ones} --format json":
        (0, "3b96b3a7dfd0d261", EMPTY),
    "degrees --group cyclic:15 --n 1 --format json -1 0 2 4 16": (0, "7d0c84bcc68a028a", EMPTY),
    "degrees --group quaternion:16 --n 2 --d-table {q16_ones_n2} --format csv 1 3":
        (0, "b1607893bef7ee95", EMPTY),
    "check --group cyclic:7 --n 1 --window 5 --format json": (0, "47139e216f937d9c", EMPTY),
    "check --group cyclic:32 --n 2 --format md": (0, "9be32e274a98d3c8", EMPTY),
    "check --group quaternion:8 --n 1 --d-table {q8_ones_n1} --format json":
        (0, "cb177e78abc65cc6", EMPTY),
    "check --group quaternion:32 --n 1 --d-table {q32_ones_n1} --format json":
        (0, "cb177e78abc65cc6", EMPTY),
    "check --group quaternion:8 --n 1 --d-table {q8_broken} --format json":
        (2, "14a30e9df845a5ed", EMPTY),
    "check --group table:{c2xc4_relabelled} --n 1 --d-table {c2xc4_ones} --format csv":
        (2, "f7c870df797d2cdc", EMPTY),
    "check --group table:{c6_relabelled} --n 2 --format json": (0, "2df18e9f040d4e35", EMPTY),
    "census --max-order 24 --n 1 --format md": (0, "cae2d6d156f0e34a", EMPTY),
    "census --max-order 64 --n 0 --format json": (0, "cf0e231845c7ca2a", EMPTY),
    "census --max-order 12 --n 2 --format csv": (0, "fbafc2aa377225af", EMPTY),
    "even --n 1 --format md": (0, "961cffcb05bcbf14", EMPTY),
    "even --n 2 --format json": (0, "40a90ef2276b0d4b", EMPTY),
    "monoid --group quaternion:8 --n 1": (1, EMPTY, "7511b830261d5f57"),
    "monoid --group quaternion:8 --n 1 --d-table {q8_broken} --format json":
        (2, EMPTY, "809c55648e9d22bc"),
    "equiv --group quaternion:8 --n 1 --d-table {q8_short}":
        (2, EMPTY, "2c4b9ed1df0f8664"),
    "monoid --group quaternion:8 --n 2 --d-table {q8_ones_n1}":
        (1, EMPTY, "4220bce673cd485c"),
    "monoid --group table:{column_repeats} --n 1": (1, EMPTY, "26fa12b61ac6f0e6"),
    "monoid --group table:{column_repeats_identity} --n 1":
        (1, EMPTY, "eb9bc6fd0b7f6771"),
    "monoid --group table:{left_identity_only} --n 1": (1, EMPTY, "9d9c064bf3c43c75"),
    "monoid --group table:{no_identity} --n 1": (1, EMPTY, "9d9c064bf3c43c75"),
    "monoid --group table:{nonassociative} --n 1": (1, EMPTY, "a0fd69d2a3cd3249"),
    "check --group table:{nonassociative} --n 1 --format json":
        (1, EMPTY, "a0fd69d2a3cd3249"),
    "monoid --group cyclic:129 --n 1": (1, EMPTY, "00d50e1fa88a1916"),
    "monoid --group cyclic:5 --n 1 --window 0": (1, EMPTY, "a2396b9869d52611"),
    "census --max-order 129 --n 1": (1, EMPTY, "00d50e1fa88a1916"),
    "even --n 0 --format json": (1, EMPTY, "5633ddddaf1f11b4"),
    "monoid --group table:no-such-file.json --n 1": (1, EMPTY, "ea87fee14c5cbb19"),
}


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(command: str, paths: dict[str, str]) -> tuple[int, str, str]:
    code, out, err = run([word.format(**paths) for word in command.split()])
    return code, digest(out), digest(err)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("cli_goldens"))


@pytest.mark.parametrize("command", GOLDENS)
def test_output_is_unchanged(command, paths):
    assert outcome(command, paths) == GOLDENS[command]


def test_q128_monoid_reads_only_the_rows_it_shows(monkeypatch, paths):
    """The 10 x 10 product table of |End(Q128)| = 2052 gathers 10 rows and
    their ancestors, not the whole table (41 MB of peak before)."""
    tables = count_composition_tables(monkeypatch)
    command = "monoid --group quaternion:128 --n 1 --d-table {q128_ones_n1} --format json"
    tracemalloc.start()
    try:
        code, _, _ = outcome(command, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert tables == []
    assert peak < 16 * 2**20


def test_q128_check_reads_no_row(monkeypatch, paths):
    """check decides the monoid axioms off End(Q128)'s Cayley-graph columns:
    no row but the identity's, which the record holds, is gathered.  Gathering
    End's whole table for Light's test peaked at 35.4 MB."""
    tables, contexts = count_composition_tables(monkeypatch), []
    axioms = cli.monoid_axioms

    def recording(ctx):
        contexts.append(ctx)
        return axioms(ctx)

    monkeypatch.setattr(cli, "monoid_axioms", recording)
    command = "check --group quaternion:128 --n 1 --d-table {q128_ones_n1} --format json"
    tracemalloc.start()
    try:
        code, _, _ = outcome(command, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert tables == []
    (ctx,) = contexts
    rows = endomorphisms.cayley_graph(ctx.group).rows
    assert [x for x, row in enumerate(rows) if row is not None] == [ctx.identity_index]
    assert peak < 8 * 2**20


def test_the_goldens_cover_every_subcommand_format_and_exit_code():
    words = [command.split() for command in GOLDENS]
    assert {w[0] for w in words} == {"monoid", "equiv", "even", "degrees", "check", "census"}
    assert {w[w.index("--format") + 1] for w in words if "--format" in w} == {"json", "md", "csv"}
    assert {code for code, _, _ in GOLDENS.values()} == {0, 1, 2}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        found = write_inputs(Path(folder))
        for command in GOLDENS:
            code, out, err = outcome(command, found)
            out, err = (f'"{d}"' if d != EMPTY else "EMPTY" for d in (out, err))
            print(f'    "{command}": ({code}, {out}, {err}),')
