"""Fuzz the command line: every call of ``cli.main`` ends in exit 0, 1 or 2.

Each example draws a subcommand, a format, ``--n``, ``--window`` and
``--max-order``, a group, a d-table and sometimes ``--out``.  A group is a
``cyclic:k`` or ``quaternion:k`` spec, possibly far over the order cap, or
a table file: a group of order <= 16 relabelled with its identity
anywhere, a relabelled C_m, Q_4k or product of two of them up to the order
cap whose calls take well under ``SECONDS``, a Latin square that is mostly
no group, or a group table with one entry turned into a float, a bool, a
string or a huge int.  A d-table is absent, all ones, has one entry
corrupted or of the wrong type, or has the key ``"04"``.  An exit 3 (an
internal error) or a call slower than ``SECONDS`` fails, and so does an
exit 0 with ``--out`` whose file does not hold what the same call without
``--out`` prints.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import time
from math import prod

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spaceform import direct_product, make_cyclic, make_generalized_quaternion
from spaceform.cli import main, parse_group_spec
from spaceform.endomorphisms import MAX_CANDIDATES, enumerate_endomorphisms
from spaceform.groups import DEFAULT_MAX_ORDER, FiniteGroup
from tests.test_end_properties import base_groups, relabel
from tests.test_groups import NONASSOC_5

SECONDS = 5
COMMANDS = ["monoid", "equiv", "even", "degrees", "check", "census"]
WITH_GROUP = {"monoid", "equiv", "degrees", "check"}
ORDERS = st.one_of(st.integers(-2, 40), st.sampled_from([129, 1000, 10**12]))
SPECS = st.builds("{}:{}".format, st.sampled_from(["cyclic", "quaternion"]), ORDERS)
# A drawn product with more candidate generator images than this takes up to
# 2 s to search (C4 x Q32, 819 200), and one with more automorphisms makes
# ``equiv`` with an all-ones d-table print a Cayley table of |Aut|^2 entries
# (Q128: 2048^2, 2.8 s as JSON); neither is drawn.
SEARCHED, UNITS = 10**5, 1024


@st.composite
def relabelled_tables(draw) -> list[list[int]]:
    """A group of order <= 16 whose identity may sit at any index."""
    g = draw(base_groups(16))
    return relabel(g, draw(st.permutations(range(g.order))))


def factors(max_order: int):
    """C_m or Q_4k of order <= ``max_order``, as its constructor and order."""
    cyclic = st.tuples(st.just(make_cyclic), st.integers(1, max_order))
    if max_order < 8:
        return cyclic
    quaternion = st.tuples(
        st.just(make_generalized_quaternion), st.sampled_from(range(8, max_order + 1, 4))
    )
    return st.one_of(cyclic, quaternion)


@functools.cache
def searched_once(parts: tuple) -> tuple[FiniteGroup, int | None] | None:
    """The product of ``parts`` and |End| (None if the search is refused),
    built and searched once per process; None for a product with more than
    ``SEARCHED`` candidates below the cap or more than ``UNITS`` automorphisms."""
    g = functools.reduce(direct_product, (make(order) for make, order in parts))
    orders = g.element_orders
    count = prod(sum(orders[s] % o == 0 for o in orders) for s in g.generators)
    if count > MAX_CANDIDATES:
        return g, None
    if count > SEARCHED:
        return None
    endos = enumerate_endomorphisms(g)
    return (g, len(endos)) if sum(e.is_automorphism for e in endos) <= UNITS else None


@st.composite
def relabelled_large_tables(draw) -> tuple[list[list[int]], int | None]:
    """C_m, Q_4k or a product of two of them, up to the order cap, relabelled,
    and |End|."""
    parts = (draw(factors(DEFAULT_MAX_ORDER)),)
    if draw(st.booleans()):
        parts += (draw(factors(DEFAULT_MAX_ORDER // parts[0][1])),)
    found = searched_once(parts)
    assume(found is not None)
    g, size = found
    return relabel(g, draw(st.permutations(range(g.order)))), size


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


# a table and |End| when known (None: search the file, it is small)
TABLES = st.one_of(
    st.one_of(relabelled_tables(), latin_squares(), st.just(NONASSOC_5), mistyped_tables())
    .map(lambda table: (table, None)),
    relabelled_large_tables(),
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
            spec, size = draw(SPECS), None
        else:
            table, size = draw(TABLES)
            group = {"table": table}
            if draw(st.booleans()):
                group["order"] = len(table)
            path = workdir / "group.json"
            path.write_text(json.dumps(group))
            spec = f"table:{path}"
        argv += ["--group", spec]
        dtable = draw(dtables(end_size(spec) if size is None else size, n))
        if dtable is not None:
            path = workdir / "dtable.json"
            path.write_text(json.dumps(dtable))
            argv += ["--d-table", str(path)]
    if command == "degrees":
        argv += [str(k) for k in draw(st.lists(st.integers(-100, 100), min_size=1, max_size=3))]
    if draw(st.booleans()):
        argv += ["--out", str(workdir / "out.txt")]
    return argv


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``cli.main`` call; argparse's
    refusal exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_line_ends_in_a_verdict(workdir, default_cap, data):
    argv = data.draw(command_lines(workdir), label="argv")
    out_file = workdir / "out.txt"
    out_file.unlink(missing_ok=True)
    start = time.perf_counter()
    code, _, err = run(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), err
    assert elapsed < SECONDS
    if "--out" in argv and code == 0:
        assert run(argv[:-2]) == (0, out_file.read_bytes().decode(), "")
