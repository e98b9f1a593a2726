import json

import pytest

from spaceform.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VALIDATION,
    coset_representative,
    main,
    parse_group_spec,
    render_json,
)
from spaceform.errors import GroupSpecError

KLEIN_4 = {"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]}


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


class TestEvenCommand:
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


class TestCensusCommand:
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
        ],
    )
    @pytest.mark.parametrize("sub", ["monoid", "check"])
    def test_malformed_dtable_exits_1(self, capsys, tmp_path, data, sub):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        code, out, err = run(
            capsys, sub, "--group", "quaternion:8", "--n", "1", "--d-table", str(path)
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "d-table" in err

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_order_cap_is_input_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", raw)
        code, out, err = run(capsys, "monoid", "--group", "cyclic:5", "--n", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert "SPACEFORM_MAX_ORDER" in err
