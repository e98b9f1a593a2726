"""Fuzz the command line: every call of ``cli.main`` ends in exit 0, 1 or 2.

Each example draws a subcommand, a format, ``--n``, ``--window`` and
``--max-order``, a group and a d-table.  A group is a ``cyclic:k`` or
``quaternion:k`` spec, possibly far over the order cap, or a table file:
a group of order <= 16 relabelled with its identity anywhere, a Latin
square that is mostly no group, or a group table with one entry turned
into a float, a bool, a string or a huge int.  A d-table is absent, all
ones, has one entry corrupted or of the wrong type, or has the key
``"04"``.  An exit 3 (an internal error) or a call slower than
``SECONDS`` fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spaceform.cli import main, parse_group_spec
from spaceform.endomorphisms import enumerate_endomorphisms
from tests.test_end_properties import base_groups
from tests.test_groups import NONASSOC_5

SECONDS = 5
COMMANDS = ["monoid", "equiv", "even", "degrees", "check", "census"]
WITH_GROUP = {"monoid", "equiv", "degrees", "check"}
ORDERS = st.one_of(st.integers(-2, 40), st.sampled_from([129, 1000, 10**12]))
SPECS = st.builds("{}:{}".format, st.sampled_from(["cyclic", "quaternion"]), ORDERS)


@st.composite
def relabelled_tables(draw) -> list[list[int]]:
    """A group of order <= 16 whose identity may sit at any index."""
    g = draw(base_groups(16))
    perm = draw(st.permutations(range(g.order)))
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    return table


@st.composite
def latin_squares(draw) -> list[list[int]]:
    """x*y = p(x) + q(y) mod n: a Latin square, a group only by chance."""
    n = draw(st.integers(1, 9))
    p, q = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return [[(p[x] + q[y]) % n for y in range(n)] for x in range(n)]


@st.composite
def mistyped_tables(draw) -> list:
    """A group table with one entry of the wrong type."""
    table = draw(relabelled_tables())
    x, y = draw(st.integers(0, len(table) - 1)), draw(st.integers(0, len(table) - 1))
    v = table[x][y]
    table[x][y] = draw(st.sampled_from([float(v), bool(v), str(v), 10**30 + v]))
    return table


TABLES = st.one_of(
    relabelled_tables(), latin_squares(), st.just(NONASSOC_5), mistyped_tables()
)


def end_size(spec: str) -> int | None:
    """|End(G)| of the group the CLI would build from ``spec``, or None if it
    builds none; an unexpected error is left for ``cli.main`` to meet."""
    try:
        return len(enumerate_endomorphisms(parse_group_spec(spec)))
    except Exception:
        return None


@st.composite
def dtables(draw, size: int | None, n: int) -> dict | None:
    """A d-table for a group with ``size`` endomorphisms, or None for no table."""
    kind = draw(st.sampled_from(["none", "ones", "corrupt", "mistyped", "key 04"]))
    if kind == "none":
        return None
    size = size or draw(st.integers(1, 30))
    values: dict[str, object] = {str(i): 1 for i in range(size)}
    i = str(draw(st.integers(0, size - 1)))
    if kind == "corrupt":
        values[i] = draw(st.integers(-5, 50))
    elif kind == "mistyped":
        values[i] = draw(st.sampled_from([True, 1.0, 1.5, 10**30]))
    elif kind == "key 04":
        values["04"] = values.pop("4", 1)
    table: dict[str, object] = {"values": values}
    if draw(st.booleans()):
        table["n"] = draw(st.sampled_from([n, n + 1]))
    return table


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One directory for the module: Hypothesis refuses function-scoped fixtures."""
    return tmp_path_factory.mktemp("cli_fuzz")


@pytest.fixture(scope="module")
def default_cap():
    """The default order cap, whatever the environment sets."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("SPACEFORM_MAX_ORDER", raising=False)
        yield


@st.composite
def command_lines(draw, workdir) -> list[str]:
    command = draw(st.sampled_from(COMMANDS))
    n = draw(st.integers(-2, 6))
    argv = [command, "--n", str(n), "--format", draw(st.sampled_from(["json", "csv", "md"]))]
    if command in ("monoid", "check") and draw(st.booleans()):
        window = draw(st.one_of(st.sampled_from([-1, 0, 1001]), st.integers(1, 30)))
        argv += ["--window", str(window)]
    if command == "census" and draw(st.booleans()):
        cap = draw(st.one_of(st.sampled_from([-1, 0, 129]), st.integers(1, 32)))
        argv += ["--max-order", str(cap)]
    if command in WITH_GROUP:
        if draw(st.booleans()):
            spec = draw(SPECS)
        else:
            group = {"table": draw(TABLES)}
            if draw(st.booleans()):
                group["order"] = len(group["table"])
            path = workdir / "group.json"
            path.write_text(json.dumps(group))
            spec = f"table:{path}"
        argv += ["--group", spec]
        dtable = draw(dtables(end_size(spec), n))
        if dtable is not None:
            path = workdir / "dtable.json"
            path.write_text(json.dumps(dtable))
            argv += ["--d-table", str(path)]
    if command == "degrees":
        argv += [str(k) for k in draw(st.lists(st.integers(-100, 100), min_size=1, max_size=3))]
    return argv


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one ``cli.main`` call; argparse's refusal exits 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_line_ends_in_a_verdict(workdir, default_cap, data):
    argv = data.draw(command_lines(workdir), label="argv")
    start = time.perf_counter()
    code, err = run(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), err
    assert elapsed < SECONDS
