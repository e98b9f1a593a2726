import dataclasses
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import permutations
from pathlib import Path

import pytest

import spaceform
from spaceform import endomorphisms, monoid_odd
from spaceform.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    MAX_WINDOW,
    NAMED_GROUP_MAX_ORDER,
    NAMED_GROUPS,
    coset_representative,
    main,
    named_group,
    parse_group_spec,
    render_json,
)
from spaceform.degree import _law_failures as law_failures
from spaceform.errors import GroupSpecError, InputError
from spaceform.monoid_odd import MonoidContext
from tests.conftest import with_columns
from tests.test_end_properties import relabel
from tests.test_groups import NONASSOC_5, sl23_table

KLEIN_4 = {"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]}


def all_ones_q8(tmp_path):
    """A d-table for Q8 (28 endomorphisms) and n = 1 that sends every one to 1."""
    path = tmp_path / "q8_ones.json"
    path.write_text(json.dumps({"n": 1, "values": {str(i): 1 for i in range(28)}}))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCosetRepresentative:
    @pytest.mark.parametrize(
        "d,m,expected",
        [(4, 5, -1), (2, 5, 2), (2, 4, 2), (0, 5, 0), (1, 2, 1), (3, 6, 3), (5, 6, -1)],
    )
    def test_least_absolute_value_ties_positive(self, d, m, expected):
        assert coset_representative(d, m) == expected


class TestMonoidCommand:
    def test_c5_table(self, capsys):
        code, out, _ = run(
            capsys, "monoid", "--group", "cyclic:5", "--n", "1", "--format", "json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert [row["d"] for row in report["rows"]] == [0, 1, 4, 4, 1]

    def test_c2_cosets_are_parities(self, capsys):
        code, out, _ = run(
            capsys, "monoid", "--group", "cyclic:2", "--n", "3", "--format", "json"
        )
        report = json.loads(out)
        assert code == EXIT_OK
        assert [row["coset"] for row in report["rows"]] == ["0 + 2Z", "1 + 2Z"]

    def test_trivial_group_single_row(self, capsys):
        code, out, _ = run(
            capsys, "monoid", "--group", "cyclic:1", "--n", "0", "--format", "json"
        )
        report = json.loads(out)
        assert len(report["rows"]) == 1
        assert report["rows"][0]["coset"] == "0 + 1Z"

    def test_unsupported_group_without_table(self, capsys):
        code, _, err = run(capsys, "monoid", "--group", "quaternion:8", "--n", "1")
        assert code == EXIT_INPUT
        assert "d-table" in err

    @pytest.mark.parametrize("spec", ["cyclic:5", "quaternion:8"])
    @pytest.mark.parametrize(
        "window,bound", [("0", ">= 1"), ("-3", ">= 1"), ("1001", "<= 1000"), ("1000000", "<= 1000")]
    )
    def test_window_outside_1_to_1000_exits_1_before_any_work(
        self, capsys, monkeypatch, spec, window, bound
    ):
        def no_work(*args):
            pytest.fail("a group or context was built")

        monkeypatch.setattr("spaceform.cli.parse_group_spec", no_work)
        monkeypatch.setattr("spaceform.cli.monoid_context", no_work)
        code, out, err = run(capsys, "monoid", "--group", spec, "--n", "1", "--window", window)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"input error: window must be {bound}, got {window}\n"

    @pytest.mark.parametrize("window", ["1", str(MAX_WINDOW)])
    def test_window_at_the_bounds_is_listed(self, capsys, window):
        code, out, _ = run(
            capsys, "monoid", "--group", "cyclic:5", "--n", "1",
            "--window", window, "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["window"] == int(window)


class TestEquivCommand:
    def test_c5_identified_cyclic(self, capsys):
        code, out, _ = run(
            capsys, "equiv", "--group", "cyclic:5", "--n", "1", "--format", "json"
        )
        report = json.loads(out)
        assert report["order"] == 4
        assert report["isomorphism_type"] == "C4"

    def test_c2_order_two(self, capsys):
        _, out, _ = run(
            capsys, "equiv", "--group", "cyclic:2", "--n", "7", "--format", "json"
        )
        assert json.loads(out)["order"] == 2

    def test_c7_n2_order_six(self, capsys):
        _, out, _ = run(
            capsys, "equiv", "--group", "cyclic:7", "--n", "2", "--format", "json"
        )
        report = json.loads(out)
        assert report["order"] == 6
        assert report["isomorphism_type"] == "C6"


EVEN_REPORT = {
    "classes": ["a0 (degrees = 0 mod 4)", "a2 (degrees = 2 mod 4)", "b[k] for each odd k"],
    "command": "even",
    "n": 1,
    "note": "monoid of self-maps of RP^(2n); structure independent of n",
    "rows": [
        {"a0": "a0", "a2": "a0", "b[2l+1]": "a0", "x": "a0"},
        {"a0": "a0", "a2": "a0", "b[2l+1]": "a2", "x": "a2"},
        {"a0": "a0", "a2": "a2", "b[2l+1]": "b[(2l+1)(2l'+1)]", "x": "b[2l+1]"},
    ],
    "units": ["b[1]", "b[-1]"],
}


class TestEvenCommand:
    def test_whole_report(self, capsys):
        code, out, _ = run(capsys, "even", "--n", "1", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == EVEN_REPORT

    def test_class_table(self, capsys):
        code, out, _ = run(capsys, "even", "--n", "3", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        a2_row = next(r for r in report["rows"] if r["x"] == "a2")
        assert a2_row["a2"] == "a0"

    def test_output_independent_of_n(self, capsys):
        _, out1, _ = run(capsys, "even", "--n", "1", "--format", "json")
        _, out3, _ = run(capsys, "even", "--n", "3", "--format", "json")
        assert json.loads(out1)["rows"] == json.loads(out3)["rows"]

    def test_n_zero_rejected(self, capsys):
        code, _, err = run(capsys, "even", "--n", "0")
        assert code == EXIT_INPUT
        assert "n >= 1" in err


class TestDegreesCommand:
    def test_verdicts(self, capsys):
        code, out, _ = run(
            capsys,
            "degrees",
            "--group",
            "cyclic:5",
            "--n",
            "1",
            "--format",
            "json",
            "7",
            "9",
            "1",
        )
        assert code == EXIT_OK
        rows = {r["k"]: r for r in json.loads(out)["rows"]}
        assert rows[7]["realizable"] is False
        assert rows[9]["realizable"] is True
        assert rows[9]["via_endomorphisms"] == "2 3"
        assert rows[1]["realizable"] is True


class TestCheckCommand:
    def test_cyclic_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--group",
            "cyclic:12",
            "--n",
            "2",
            "--window",
            "24",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["passed"] is True
        assert all(s["passed"] for s in report["rows"])

    def test_klein_four_reports_both_problems(self, capsys, tmp_path):
        path = tmp_path / "klein4.json"
        path.write_text(json.dumps(KLEIN_4))
        code, out, _ = run(
            capsys,
            "check",
            "--group",
            f"table:{path}",
            "--n",
            "1",
            "--format",
            "json",
        )
        assert code == EXIT_VALIDATION
        report = json.loads(out)
        suites = {s["suite"]: s for s in report["rows"]}
        assert suites["admissibility"]["passed"] is False
        assert suites["degree-hom"]["passed"] is False
        assert "d-table" in suites["degree-hom"]["detail"]

    @pytest.mark.parametrize("p, q", [(2, 2), (2, 4)], ids=["C2xC2", "C2xC4"])
    def test_an_inadmissible_group_fails_check_alone(self, capsys, tmp_path, p, q):
        # C_p x C_q contains Z/2 x Z/2, which acts freely on no sphere (Smith),
        # so the failed admissibility row fails check; the all-ones d passes
        # every other suite
        table = [
            [q * ((x // q + y // q) % p) + (x + y) % q for y in range(p * q)]
            for x in range(p * q)
        ]
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"order": p * q, "table": table}))
        size = len(spaceform.enumerate_endomorphisms(spaceform.make_from_table(table)))
        ones = tmp_path / "ones.json"
        ones.write_text(json.dumps({"n": 1, "values": {str(i): 1 for i in range(size)}}))
        code, out, err = run(
            capsys, "check", "--group", f"table:{group}", "--n", "1",
            "--d-table", str(ones), "--format", "json",
        )
        assert (code, err) == (EXIT_VALIDATION, "")
        report = json.loads(out)
        assert report["passed"] is False
        assert [(row["suite"], row["passed"]) for row in report["rows"]] == [
            ("admissibility", False),
            ("degree-hom", True),
            ("monoid-axioms", True),
            ("oracle-cross-check", True),
        ]
        assert report["rows"][0]["detail"].endswith("; failing primes [2]")

    def test_s3_fails_admissibility(self, capsys, tmp_path):
        # S3 is a non-cyclic group of order 2p, which acts freely on no
        # sphere (Milnor), so the verdict stays right under an exact test;
        # the detail text is left free
        perms = sorted(permutations(range(3)))
        table = [[perms.index(tuple(a[i] for i in b)) for b in perms] for a in perms]
        group = tmp_path / "s3.json"
        group.write_text(json.dumps({"order": 6, "table": table}))
        size = len(spaceform.enumerate_endomorphisms(spaceform.make_from_table(table)))
        ones = tmp_path / "ones.json"
        ones.write_text(json.dumps({"n": 1, "values": {str(i): 1 for i in range(size)}}))
        code, out, _ = run(
            capsys, "check", "--group", f"table:{group}", "--n", "1",
            "--d-table", str(ones), "--format", "json",
        )
        assert code == EXIT_VALIDATION
        row = json.loads(out)["rows"][0]
        assert (row["suite"], row["passed"]) == ("admissibility", False)

    def test_sl23_passes_admissibility(self, capsys, tmp_path):
        # SL(2, 3) acts freely on S^3: its four subgroups of order 3 hold no
        # Z/3 x Z/3; with no d-table the degree-hom row fails instead
        group = tmp_path / "sl23.json"
        group.write_text(json.dumps({"order": 24, "table": sl23_table()}))
        code, out, _ = run(capsys, "check", "--group", f"table:{group}", "--n", "1",
                           "--format", "json")
        assert code == EXIT_VALIDATION
        assert json.loads(out)["rows"][0] == {
            "detail": "counts {2: 2, 3: 9}", "passed": True, "suite": "admissibility"
        }

    def test_q8_with_invalid_table(self, capsys, tmp_path):
        # multiplicativity-violating table: derived from the frozen C_6-style
        # perturbation approach, here simply a non-constant assignment that
        # cannot be multiplicative on Aut(Q8)
        values = {str(i): 1 for i in range(28)}
        values["0"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "values": values}))
        code, out, _ = run(
            capsys,
            "check",
            "--group",
            "quaternion:8",
            "--n",
            "1",
            "--d-table",
            str(path),
            "--format",
            "json",
        )
        assert code == EXIT_VALIDATION
        report = json.loads(out)
        assert report["passed"] is False
        assert "endo" in json.dumps(report)  # witness pair is reported

    @pytest.mark.parametrize("spec", ["cyclic:5", "quaternion:8"])
    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_window_below_one_exits_1_before_any_suite(
        self, capsys, monkeypatch, spec, window
    ):
        def no_suite(*args):
            pytest.fail("a suite ran")

        monkeypatch.setattr("spaceform.cli.rank_one_check", no_suite)
        monkeypatch.setattr("spaceform.cli.monoid_context", no_suite)
        code, out, err = run(capsys, "check", "--group", spec, "--n", "1", "--window", window)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"input error: window must be >= 1, got {window}\n"

    @pytest.mark.parametrize("spec", ["cyclic:5", "quaternion:8"])
    @pytest.mark.parametrize("window", ["1001", "10000"])
    def test_window_above_the_cap_exits_1_before_any_suite(
        self, capsys, monkeypatch, spec, window
    ):
        def no_suite(*args):
            pytest.fail("a suite ran")

        monkeypatch.setattr("spaceform.cli.rank_one_check", no_suite)
        monkeypatch.setattr("spaceform.cli.monoid_context", no_suite)
        code, out, err = run(capsys, "check", "--group", spec, "--n", "1", "--window", window)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"input error: window must be <= 1000, got {window}\n"

    def test_window_at_the_cap_reaches_the_suites(self, capsys, monkeypatch):
        def first_suite(*args):
            raise InputError("the first suite ran")

        monkeypatch.setattr("spaceform.cli.rank_one_check", first_suite)
        code, _, err = run(
            capsys, "check", "--group", "cyclic:5", "--n", "1",
            "--window", str(MAX_WINDOW),
        )
        assert code == EXIT_INPUT
        assert err == "input error: the first suite ran\n"

    @pytest.mark.parametrize("sub", ["monoid", "check"])
    def test_negative_n_exits_1(self, capsys, sub):
        code, out, err = run(capsys, sub, "--group", "cyclic:5", "--n", "-1")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: n must be >= 0, got -1\n"

    def test_non_associative_table_exits_1_with_the_first_witness(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"table": NONASSOC_5}))
        code, out, err = run(capsys, "check", "--group", f"table:{path}", "--n", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: associativity fails at (1*1)*2 != 1*(1*2)\n"

    def test_cyclic_rows_are_pinned(self, capsys):
        code, out, _ = run(capsys, "check", "--group", "cyclic:12", "--n", "2", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["rows"] == [
            {"detail": "counts {2: 2, 3: 3}", "passed": True, "suite": "admissibility"},
            {"detail": "all laws hold", "passed": True, "suite": "degree-hom"},
            {
                "detail": "0 axiom failures over 10000 sampled triples; "
                "closure holds in window",
                "passed": True,
                "suite": "monoid-axioms",
            },
            {
                "detail": "20 elements, 400 products agree",
                "passed": True,
                "suite": "oracle-cross-check",
            },
        ]

    def test_q8_dtable_rows_are_pinned(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "check", "--group", "quaternion:8", "--n", "1",
            "--d-table", str(all_ones_q8(tmp_path)), "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["rows"] == [
            {"detail": "counts {2: 2}", "passed": True, "suite": "admissibility"},
            {"detail": "all laws hold", "passed": True, "suite": "degree-hom"},
            {
                "detail": "0 axiom failures over 10000 sampled triples; "
                "closure holds in window",
                "passed": True,
                "suite": "monoid-axioms",
            },
            {
                "detail": "skipped: oracle is defined for cyclic groups only",
                "passed": True,
                "suite": "oracle-cross-check",
            },
        ]

    def test_a_non_multiplicative_builtin_d_fails_closure(self, capsys, monkeypatch):
        build_degree_hom = monoid_odd.build_degree_hom

        def broken(g, n, user_table=None):  # d(zero endo 0) = 2 instead of 0
            d = build_degree_hom(g, n, user_table)
            return dataclasses.replace(d, values=(2, *d.values[1:]))

        monkeypatch.setattr(monoid_odd, "build_degree_hom", broken)
        code, out, _ = run(capsys, "check", "--group", "cyclic:5", "--n", "1", "--format", "json")
        assert code == EXIT_VALIDATION
        report = json.loads(out)
        assert report["passed"] is False
        degree_hom, axioms = report["rows"][1:3]
        assert degree_hom["passed"] is False
        assert degree_hom["detail"].startswith(
            "d(endo 0 o endo 0) = 2 != d(0)*d(0) = 4 mod 5; "
        )
        assert axioms == {
            "detail": "0 axiom failures over 10000 sampled triples; "
            "closure fails in window",
            "passed": False,
            "suite": "monoid-axioms",
        }

    def test_an_identity_that_is_not_an_element_is_named(self, capsys, monkeypatch):
        build_degree_hom = monoid_odd.build_degree_hom

        def zero(g, n, user_table=None):  # d = 0, so (id, 1) is not an element
            d = build_degree_hom(g, n, user_table)
            return dataclasses.replace(d, values=(0,) * len(d.values))

        monkeypatch.setattr(monoid_odd, "build_degree_hom", zero)
        code, out, _ = run(capsys, "check", "--group", "cyclic:5", "--n", "1", "--format", "json")
        assert code == EXIT_VALIDATION
        rows = json.loads(out)["rows"]
        assert [r["suite"] for r in rows] == [
            "admissibility", "degree-hom", "monoid-axioms", "oracle-cross-check"
        ]
        assert rows[2] == {
            "detail": "(id, 1) is not an element: d(identity endo 1) = 0 mod 5; "
            "closure holds in window",
            "passed": False,
            "suite": "monoid-axioms",
        }

    def test_a_non_associative_table_is_named(self, capsys):
        # C_4 with 0 o 2 -> 2 in End(C_4)'s column of 2: d(0) = d(2) = 0 keeps
        # d's laws; the kept named group is the one check reads
        c4 = spaceform.make_cyclic(4)
        graph = endomorphisms.cayley_graph(c4)
        columns = [list(col) for col in graph.columns]
        columns[graph.generators.index(2)][0] = 2
        NAMED_GROUPS["cyclic", 4] = with_columns(c4, columns)
        code, out, _ = run(capsys, "check", "--group", "cyclic:4", "--n", "1", "--format", "json")
        assert code == EXIT_VALIDATION
        rows = json.loads(out)["rows"]
        assert [r["suite"] for r in rows] == [
            "admissibility", "degree-hom", "monoid-axioms", "oracle-cross-check"
        ]
        assert rows[2] == {
            "detail": "endo 0 o endo 2 = endo 2, but composing their images gives endo 0; "
            "closure holds in window",
            "passed": False,
            "suite": "monoid-axioms",
        }

    def test_a_sound_check_makes_no_product_outside_the_oracle(
        self, capsys, monkeypatch, tmp_path
    ):
        def no_element(*args):
            pytest.fail("a window element was built or multiplied")

        monkeypatch.setattr(MonoidContext, "elements_in_window", no_element)
        monkeypatch.setattr(MonoidContext, "multiply", no_element)
        code, _, _ = run(  # Q8: the oracle suite is skipped
            capsys, "check", "--group", "quaternion:8", "--n", "1",
            "--d-table", str(all_ones_q8(tmp_path)),
        )
        assert code == EXIT_OK

    def test_a_user_dtable_is_law_checked_once(self, capsys, monkeypatch, tmp_path):
        calls = []

        def counting(*args):
            calls.append(args)
            return law_failures(*args)

        monkeypatch.setattr("spaceform.degree._law_failures", counting)
        code, _, _ = run(
            capsys, "check", "--group", "quaternion:8", "--n", "1",
            "--d-table", str(all_ones_q8(tmp_path)),
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_the_oracle_checks_the_supplied_d(self, capsys, tmp_path):
        # d(r) = r is multiplicative with d(id) = 1 and unit values on Aut,
        # so the other suites pass; the built-in d would be r^2 mod 8
        path = tmp_path / "identity_d.json"
        path.write_text(json.dumps({"n": 1, "values": {str(r): r for r in range(8)}}))
        code, out, err = run(
            capsys, "check", "--group", "cyclic:8", "--n", "1",
            "--d-table", str(path), "--format", "json",
        )
        assert (code, err) == (EXIT_VALIDATION, "")
        rows = json.loads(out)["rows"]
        assert [row["passed"] for row in rows] == [True, True, True, False]
        assert rows[3] == {
            "detail": "valid-element sets differ, e.g. (2, -6)",
            "passed": False,
            "suite": "oracle-cross-check",
        }


class TestEndSearchBound:
    """C2^6 is within the order cap, but its End(G) search has 64^6 candidates."""

    @pytest.fixture
    def c2_6(self, tmp_path):
        g = spaceform.make_cyclic(2)
        for _ in range(5):
            g = spaceform.direct_product(g, spaceform.make_cyclic(2))
        group = tmp_path / "c2_6.json"
        group.write_text(json.dumps({"table": [list(row) for row in g.table]}))
        ones = tmp_path / "ones.json"
        ones.write_text(json.dumps({"n": 1, "values": {"0": 1}}))
        return f"table:{group}", str(ones)

    def test_monoid_and_check_end_in_a_verdict_within_seconds(self, capsys, c2_6):
        spec, ones = c2_6
        start = time.perf_counter()
        code, out, err = run(capsys, "monoid", "--group", spec, "--n", "1")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("input error: no built-in degree homomorphism for non-cyclic")
        code, out, _ = run(capsys, "check", "--group", spec, "--n", "1", "--format", "json")
        assert code == EXIT_VALIDATION
        assert [(r["suite"], r["passed"]) for r in json.loads(out)["rows"]] == [
            ("admissibility", False), ("degree-hom", False)
        ]
        for command in ("monoid", "check"):
            code, out, err = run(capsys, command, "--group", spec, "--n", "1", "--d-table", ones)
            assert (code, out) == (EXIT_INPUT, "")
            assert f"would search {64 ** 6} candidate generator images" in err
        assert time.perf_counter() - start < 10

    def test_a_relabelled_q128_is_searched_like_the_named_group(self, capsys, tmp_path):
        """Q128 relabelled by ``random.Random(3).shuffle``: its 2 generators have
        8704 candidate images, as the named group's have."""
        q128 = spaceform.make_generalized_quaternion(128)
        perm = list(range(128))
        random.Random(3).shuffle(perm)
        group, ones = tmp_path / "q128r.json", tmp_path / "q128_ones.json"
        group.write_text(json.dumps({"table": relabel(q128, perm)}))
        ones.write_text(json.dumps({"n": 1, "values": {str(i): 1 for i in range(2052)}}))
        code, out, err = run(
            capsys, "monoid", "--group", f"table:{group}", "--n", "1",
            "--d-table", str(ones), "--format", "json",
        )
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["endomorphisms"] == 2052


class TestOrderCapBeforeTheTable:
    @pytest.mark.parametrize("spec", ["cyclic:1000", "quaternion:1000"])
    def test_a_named_group_over_the_cap_is_refused_before_its_table(
        self, capsys, monkeypatch, spec
    ):
        """The cap is checked before the order-squared table is built."""
        monkeypatch.delenv("SPACEFORM_MAX_ORDER", raising=False)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "monoid", "--group", spec, "--n", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (EXIT_INPUT, "", "input error: order 1000 exceeds cap 128\n")
        assert peak < 2**20


class TestCensusCommand:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--max-order", "-5", "--n", "-3"], "n must be >= 0, got -3"),
            (["--max-order", "-5", "--n", "1"], "max order must be >= 1, got -5"),
            (["--max-order", "0", "--n", "1"], "max order must be >= 1, got 0"),
            (["--max-order", "200", "--n", "1"], "order 129 exceeds cap 128"),
            (["--max-order", "200", "--n", "-3"], "n must be >= 0, got -3"),
        ],
    )
    def test_bad_arguments_exit_1_before_any_work(self, capsys, monkeypatch, argv, message):
        monkeypatch.delenv("SPACEFORM_MAX_ORDER", raising=False)
        monkeypatch.setattr("spaceform.cli.make_cyclic", lambda m: pytest.fail("a group was built"))
        code, out, err = run(capsys, "census", *argv, "--format", "json")
        assert (code, out, err) == (EXIT_INPUT, "", f"input error: {message}\n")

    def test_the_order_cap_is_the_last_order_allowed(self, capsys, monkeypatch):
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", "4")
        code, out, _ = run(capsys, "census", "--max-order", "4", "--n", "0", "--format", "json")
        assert code == EXIT_OK
        assert [row["m"] for row in json.loads(out)["rows"]] == [1, 2, 3, 4]
        code, out, err = run(capsys, "census", "--max-order", "5", "--n", "0")
        assert (code, out, err) == (EXIT_INPUT, "", "input error: order 5 exceeds cap 4\n")

    def test_row_contents(self, capsys):
        code, out, _ = run(
            capsys, "census", "--max-order", "8", "--n", "1", "--format", "json"
        )
        assert code == EXIT_OK
        rows = {r["m"]: r for r in json.loads(out)["rows"]}
        assert rows[5] == {
            "m": 5,
            "endomorphisms": 5,
            "automorphisms": 4,
            "units": 4,
            "realizable_residues": 3,
        }


class TestInfrastructure:
    def test_a_subcommand_patched_after_the_first_call_runs(self, capsys, monkeypatch):
        # the parser is built once per process; perfbench's tracer wraps
        # cli.cmd_* in place and must still be called
        run(capsys, "even", "--n", "1")
        monkeypatch.setattr("spaceform.cli.cmd_even", lambda args: 7)
        assert main(["even", "--n", "1"]) == 7

    @pytest.mark.parametrize(
        "exc, text",
        [
            (MemoryError(), "internal error: MemoryError\n"),  # no message of its own
            (KeyError(3), "internal error: KeyError: 3\n"),
        ],
        ids=["MemoryError", "KeyError"],
    )
    def test_an_internal_error_is_named_by_its_type(self, capsys, monkeypatch, exc, text):
        def failing(args):
            raise exc

        monkeypatch.setattr("spaceform.cli.cmd_monoid", failing)
        code, out, err = run(capsys, "monoid", "--group", "cyclic:5", "--n", "1")
        assert (code, out, err) == (EXIT_INTERNAL, "", text)

    def test_window_is_refused_where_it_is_not_read(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["equiv", "--group", "cyclic:5", "--n", "1", "--window", "5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --window 5\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["monoid", "--group", "cyclic:5", "--n", "one"], "argument --n: invalid int value"),
            (["equiv", "--group", "cyclic:5", "--n", "1", "--format", "xml"],
             "argument --format: invalid choice"),
            (["monoids", "--group", "cyclic:5", "--n", "1"], "argument command: invalid choice"),
        ],
        ids=["non-integer-n", "unknown-format", "unknown-subcommand"],
    )
    def test_a_refused_command_line_exits_2_with_a_usage_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert message in captured.err

    def test_json_round_trips_byte_identical(self, capsys):
        _, out, _ = run(
            capsys, "equiv", "--group", "cyclic:12", "--n", "2", "--format", "json"
        )
        assert render_json(json.loads(out)) == out

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "degrees", "--group", "cyclic:5", "--n", "1", "--format", "csv", "9"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "k,realizable,via_endomorphisms"
        assert lines[1] == "9,True,2 3"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "monoid",
            "--group",
            "cyclic:3",
            "--n",
            "1",
            "--format",
            "json",
            "--out",
            str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["order"] == 3

    def test_bad_group_spec(self, capsys):
        code, _, err = run(capsys, "monoid", "--group", "dihedral:6", "--n", "1")
        assert code == EXIT_INPUT
        assert "group spec" in err

    def test_missing_group_file(self, capsys):
        code, _, _ = run(capsys, "monoid", "--group", "table:/no/such/file.json", "--n", "1")
        assert code == EXIT_INPUT

    def test_dtable_n_mismatch(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"n": 2, "values": {"0": 1}}))
        code, _, err = run(
            capsys,
            "monoid",
            "--group",
            "cyclic:1",
            "--n",
            "1",
            "--d-table",
            str(path),
        )
        assert code == EXIT_INPUT
        assert "n=2" in err

    def test_check_refuses_a_dtable_built_for_another_n(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"n": 1, "values": {str(i): 1 for i in range(28)}}))
        for sub in ("monoid", "check"):
            code, out, err = run(
                capsys, sub, "--group", "quaternion:8", "--n", "2", "--d-table", str(path)
            )
            assert code == EXIT_INPUT
            assert out == ""
            assert err == "input error: d-table was built for n=1 but --n is 2\n"

    @pytest.mark.parametrize("sub", ["monoid", "check"])
    def test_dtable_indices_outside_end_exit_2(self, capsys, tmp_path, sub):
        values = {str(i): 1 for i in range(28)}
        values.update({"999": 1, "-1": 1})
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"n": 1, "values": values}))
        code, out, err = run(
            capsys, sub, "--group", "quaternion:8", "--n", "1", "--d-table", str(path),
            "--format", "json",
        )
        assert code == EXIT_VALIDATION
        message = "d-table has entries for unknown endomorphism indices [-1, 999]"
        if sub == "check":
            suites = {s["suite"]: s for s in json.loads(out)["rows"]}
            assert suites["degree-hom"]["passed"] is False
            assert suites["degree-hom"]["detail"].startswith(message)
        else:
            assert out == ""
            assert err.startswith(f"validation error: {message}")

    def test_invalid_order_is_input_error(self, capsys):
        code, _, _ = run(capsys, "monoid", "--group", "cyclic:0", "--n", "1")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("spec", ["cyclic:x", "quaternion:x", "cyclic:", "quaternion:8.0"])
    def test_non_integer_order_in_spec_is_typed_input_error(self, capsys, spec):
        with pytest.raises(GroupSpecError):
            parse_group_spec(spec)
        code, out, err = run(capsys, "monoid", "--group", spec, "--n", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert "group spec" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"table": 5},
            {"table": [1, 2]},
            {"table": [[0, [1]], [1, 0]]},
            {"table": [[0, 1.7], [1.2, 0]]},
            {"order": [2], "table": [[0, 1], [1, 0]]},
            [[0, 1], [1, 0]],
            {"table": [[0, True], [True, 0]]},
            {"order": 2.0, "table": [[0, 1], [1, 0]]},
        ],
    )
    @pytest.mark.parametrize("sub", ["monoid", "check"])
    def test_malformed_group_file_exits_1(self, capsys, tmp_path, data, sub):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, sub, "--group", f"table:{path}", "--n", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error:")

    @pytest.mark.parametrize(
        "data",
        [
            [1],
            {"n": 1, "values": [1, 1]},
            {"n": 1, "values": {"0": None}},
            {"n": 1, "values": {str(i): 1.9 for i in range(28)}},
            {"n": 1, "values": {"x": 1}},
            {"n": 1.0, "values": {str(i): 1 for i in range(28)}},
            {"n": 1, "values": {"0": True}},
            {"n": True, "values": {str(i): 1 for i in range(28)}},
            {"n": 1, "values": {**{str(i): 1 for i in range(28)}, " 4": 3}},
            # a string is written as it is, not through json.dumps
            pytest.param('{"n": 1, "values": {"0": 1', id="truncated-json"),
        ],
    )
    @pytest.mark.parametrize("sub", ["monoid", "check"])
    def test_malformed_dtable_exits_1(self, capsys, tmp_path, data, sub):
        path = tmp_path / "d.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        code, out, err = run(
            capsys, sub, "--group", "quaternion:8", "--n", "1", "--d-table", str(path)
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "d-table" in err

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--group", "[" * 100_000 + "]" * 100_000),
            ("--d-table", "[" * 100_000 + "]" * 100_000),
            ("--d-table", '{"n": 1, "values": ' + "[" * 100_000 + "]" * 100_000 + "}"),
        ],
        ids=["group", "d-table", "d-table-values"],
    )
    def test_a_deeply_nested_json_file_exits_1(self, capsys, tmp_path, flag, text):
        path = tmp_path / "nested.json"
        path.write_text(text)
        argv = ["--group", "quaternion:8", "--d-table", str(path)]
        if flag == "--group":
            argv = ["--group", f"table:{path}"]
        code, out, err = run(capsys, "check", *argv, "--n", "1")
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("input error: ") and "nested too deeply" in err

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_order_cap_is_input_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", raw)
        code, out, err = run(capsys, "monoid", "--group", "cyclic:5", "--n", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert "SPACEFORM_MAX_ORDER" in err


class TestNamedGroupsKept:
    """A named group is built once per process and serves every later request."""

    @pytest.fixture
    def extends(self, monkeypatch):
        """The End(G) candidate extensions made, as a list that grows."""
        calls = []
        real = endomorphisms._extend

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(endomorphisms, "_extend", counting)
        return calls

    def test_a_second_request_runs_no_end_search(self, capsys, tmp_path, extends):
        ones = str(all_ones_q8(tmp_path))
        for first, second in [
            (["monoid", "--group", "cyclic:12", "--n", "1"],
             ["equiv", "--group", "cyclic:12", "--n", "2"]),
            (["check", "--group", "quaternion:8", "--n", "1", "--d-table", ones],
             ["degrees", "--group", "quaternion:8", "--n", "1", "--d-table", ones, "1"]),
            (["census", "--max-order", "6", "--n", "1"],
             ["monoid", "--group", "cyclic:6", "--n", "2"]),
        ]:
            extends.clear()
            assert run(capsys, *first)[0] == EXIT_OK
            assert extends
            extends.clear()
            assert run(capsys, *second)[0] == EXIT_OK
            assert extends == []

    def test_cold_and_warm_output_are_identical(self, capsys, tmp_path):
        ones = str(all_ones_q8(tmp_path))
        requests = [["even", "--n", "1"], ["census", "--max-order", "12", "--n", "1"]]
        for group in (["--group", "cyclic:12"], ["--group", "quaternion:8", "--d-table", ones]):
            requests += [
                ["monoid", *group, "--n", "1", "--window", "3"],
                ["equiv", *group, "--n", "1"],
                ["degrees", *group, "--n", "1", "1", "3", "5", "-7"],
                ["check", *group, "--n", "1"],
            ]
        argvs = [[*argv, "--format", fmt] for argv in requests for fmt in ("json", "md", "csv")]
        cold = []
        for argv in argvs:
            NAMED_GROUPS.clear()
            cold.append(run(capsys, *argv))
        assert {code for code, _, _ in cold} == {EXIT_OK}
        NAMED_GROUPS.clear()
        for _ in range(2):  # warmed by earlier requests, then by all of them
            assert [run(capsys, *argv) for argv in argvs] == cold

    def test_a_lowered_cap_refuses_a_kept_group(self, capsys, monkeypatch, extends):
        argv = ["monoid", "--group", "cyclic:12", "--n", "1"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", "8")
        assert run(capsys, *argv) == (EXIT_INPUT, "", "input error: order 12 exceeds cap 8\n")
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", "abc")
        code, _, err = run(capsys, *argv)
        assert code == EXIT_INPUT and "SPACEFORM_MAX_ORDER" in err
        monkeypatch.delenv("SPACEFORM_MAX_ORDER")
        extends.clear()
        assert run(capsys, *argv) == (EXIT_OK, out, "")
        assert extends == []  # still kept

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("cyclic:0", "cyclic group order must be >= 1, got 0"),
            ("quaternion:6", "generalized quaternion order must be 4k with k >= 2, got 6"),
        ],
    )
    def test_a_refused_spec_is_refused_every_time(self, capsys, spec, message):
        for _ in range(2):
            code, out, err = run(capsys, "monoid", "--group", spec, "--n", "1")
            assert (code, out, err) == (EXIT_INPUT, "", f"input error: {message}\n")
        assert NAMED_GROUPS == {}

    @pytest.mark.parametrize(
        "kind, order, kept",
        [("cyclic", 64, True), ("cyclic", 65, False),
         ("quaternion", 64, True), ("quaternion", 68, False)],
    )
    def test_only_groups_up_to_order_64_are_kept(self, kind, order, kept):
        assert NAMED_GROUP_MAX_ORDER == 64
        assert (named_group(kind, order) is named_group(kind, order)) is kept
        assert ((kind, order) in NAMED_GROUPS) is kept

    def test_library_constructors_and_table_files_are_not_cached(self, capsys, tmp_path):
        kept = named_group("cyclic", 12)
        assert spaceform.make_cyclic(12) is not kept
        assert spaceform.make_cyclic(12) is not spaceform.make_cyclic(12)
        path = tmp_path / "group.json"
        argv = ["monoid", "--group", f"table:{path}", "--n", "1", "--format", "json"]
        for order in (5, 7):  # the file changes between requests
            path.write_text(json.dumps(
                {"table": [[(i + j) % order for j in range(order)] for i in range(order)]}
            ))
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert json.loads(out)["order"] == order


class TestProcess:
    """``python -m spaceform.cli`` in a child process, so that the exit status
    is the one ``sys.exit(main())`` gives the shell."""

    @staticmethod
    def spaceform(*argv: str) -> subprocess.CompletedProcess:
        src = str(Path(spaceform.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "SPACEFORM_MAX_ORDER"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "spaceform.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_a_passing_check_exits_0_with_json_on_stdout(self):
        proc = self.spaceform("check", "--group", "cyclic:5", "--n", "1", "--format", "json")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert json.loads(proc.stdout)["passed"] is True

    def test_a_refused_window_exits_1_with_stderr_only(self):
        proc = self.spaceform("check", "--group", "cyclic:5", "--n", "1", "--window", "0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_INPUT, "", "input error: window must be >= 1, got 0\n"
        )
