"""End-to-end tests of the command line front end."""

import dataclasses
import json
import re
import subprocess
import sys

import pytest

import subclose.cli as cli
from subclose import codes, families, graphs
from subclose.families import KrRecord
from subclose.serialize import validate_doc


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_TABLE_2_5 = (
    "  r  1  2  3  4  5   6   7   8   9  10\n"
    "K_r  0  1  3  6  8  12  15  19  24  30\n"
)


# ---------------------------------------------------------------- kr-table

def test_kr_table_golden_default_range(capsys):
    code, out, err = run(capsys, "kr-table", "--ell", "2", "--m", "5")
    assert code == 0 and err == ""
    assert out == GOLDEN_TABLE_2_5


def test_kr_table_is_byte_deterministic(capsys):
    args = ("kr-table", "--ell", "2", "--m", "5", "--format", "json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_kr_table_json_documents_validate(capsys):
    code, out, _ = run(
        capsys, "kr-table", "--ell", "2", "--m", "6", "--r", "4..8",
        "--format", "json",
    )
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["r"] for d in docs] == [4, 5, 6, 7, 8]
    assert [d["value"] for d in docs] == [6, 10, 12, 15, 19]
    methods = {d["r"]: d["method"] for d in docs}
    assert methods[4] == "closed_form_low"
    assert methods[7] == "brute_force"
    for d in docs:
        validate_doc(d)


def test_kr_table_csv(capsys):
    code, out, _ = run(
        capsys, "kr-table", "--ell", "2", "--m", "5", "--r", "4..5",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "ell,m,r,value,method\n"
        "2,5,4,6,closed_form_low\n"
        "2,5,5,8,brute_force\n"
    )


def test_kr_table_oracle_mode_matches_auto(capsys):
    _, auto_out, _ = run(capsys, "kr-table", "--ell", "2", "--m", "5")
    code, oracle_out, _ = run(
        capsys, "kr-table", "--ell", "2", "--m", "5", "--mode", "oracle"
    )
    assert code == 0
    assert oracle_out == auto_out


def test_kr_table_closed_mode_refuses_middle_range(capsys):
    code, out, err = run(
        capsys, "kr-table", "--ell", "2", "--m", "6", "--r", "7",
        "--mode", "closed",
    )
    assert code == 2
    assert "no closed form applies" in err
    assert out == ""


def test_kr_table_both_mode_cross_checks(capsys):
    code, out, err = run(
        capsys, "kr-table", "--ell", "2", "--m", "5", "--mode", "both"
    )
    assert code == 0 and err == ""
    assert out == GOLDEN_TABLE_2_5


def test_kr_table_both_mode_detects_disagreement(capsys, monkeypatch):
    sane = families.k_r

    def doctored(ell, m, r, mode="auto", **kw):
        rec = sane(ell, m, r, mode=mode, **kw)
        if mode == "closed" and rec is not None and r == 3:
            return dataclasses.replace(rec, value=rec.value + 1, maximizer=None)
        return rec

    monkeypatch.setattr(families, "k_r", doctored)
    code, out, err = run(
        capsys, "kr-table", "--ell", "2", "--m", "5", "--mode", "both"
    )
    assert code == 1
    assert "disagrees" in err


def test_kr_table_budget_exceeded_exits_1(capsys):
    code, out, err = run(
        capsys, "kr-table", "--ell", "2", "--m", "6", "--r", "7",
        "--mode", "oracle", "--budget-families", "100",
    )
    assert code == 1
    assert "6435" in err and "budget 100" in err


def test_kr_table_bad_params_exit_2(capsys):
    assert run(capsys, "kr-table", "--ell", "3", "--m", "2")[0] == 2
    assert run(capsys, "kr-table", "--ell", "2", "--m", "5", "--r", "x")[0] == 2
    assert run(capsys, "kr-table", "--ell", "2", "--m", "5", "--r", "5..3")[0] == 2
    assert run(capsys, "kr-table", "--ell", "2", "--m", "5", "--r", "0..11")[0] == 2


def test_out_writes_identical_bytes(tmp_path, capsys):
    _, stdout_text, _ = run(capsys, "kr-table", "--ell", "2", "--m", "5")
    target = tmp_path / "table.txt"
    code = cli.main(
        ["kr-table", "--ell", "2", "--m", "5", "--out", str(target)]
    )
    capsys.readouterr()
    assert code == 0
    assert target.read_text(encoding="utf-8") == stdout_text == GOLDEN_TABLE_2_5


def test_out_unwritable_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(
        capsys, "kr-table", "--ell", "2", "--m", "4", "--out", str(target)
    )
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


# ----------------------------------------------------------------- optimal

def test_optimal_golden_line(capsys):
    code, out, err = run(capsys, "optimal", "--m", "5", "--r", "4")
    assert code == 0 and err == ""
    assert out == (
        "m=5 r=4 sigma_max=20 edges=1-2,1-3,1-4,1-5 threshold=yes "
        "de_caen=20 (tight) trivial=20 (tight)\n"
    )


def test_optimal_range_and_empty_graph(capsys):
    code, out, _ = run(capsys, "optimal", "--m", "4", "--r", "0..6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("m=4 r=0 sigma_max=0 edges=- ")
    assert "dual=36 (tight)" in lines[6]


def test_optimal_routes_disagreeing_exits_1(capsys, monkeypatch):
    sane = graphs.sigma_max_closed
    monkeypatch.setattr(graphs, "sigma_max_closed", lambda m, r: sane(m, r) + 1)
    code, out, err = run(capsys, "optimal", "--m", "5", "--r", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_optimal_json_validates(capsys):
    code, out, _ = run(
        capsys, "optimal", "--m", "6", "--r", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    validate_doc(doc)
    assert doc["sigma_max"] == 30
    assert doc["maximizer_is_threshold"] is True


def test_optimal_requires_r(capsys):
    with pytest.raises(SystemExit):
        cli.main(["optimal", "--m", "5"])
    capsys.readouterr()


def test_optimal_bad_m_exits_2(capsys):
    assert run(capsys, "optimal", "--m", "1", "--r", "0")[0] == 2


# ------------------------------------------------------------------ verify

def test_verify_grassmann_default_range(capsys):
    code, out, err = run(capsys, "verify", "--ell", "2", "--m", "4", "--q", "2")
    assert code == 0 and err == ""
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 6
    for d in docs:
        validate_doc(d)
        assert d["verdict"] == "equal"
        assert d["proven"] == (d["r"] <= 3)
    assert [d["d_r"] for d in docs] == [16, 24, 28, 32, 34, 35]


def test_verify_schubert_instance(capsys):
    code, out, _ = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "2",
        "--alpha", "2,4", "--r", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == [2, 4]
    assert doc["n"] == 19 and doc["code_dimension"] == 5
    assert doc["d_r"] == 8 and doc["verdict"] == "equal" and doc["proven"]


def test_verify_table_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "2",
        "--r", "1..2", "--format", "table",
    )
    assert code == 0
    assert out.splitlines() == [
        "r=1 d_r=16 rhs_subclose=16 rhs_all_coordinate=16 verdict=equal [proven]",
        "r=2 d_r=24 rhs_subclose=24 rhs_all_coordinate=24 verdict=equal [proven]",
    ]


def test_verify_proven_failure_exits_1(capsys, monkeypatch):
    sane = cli.verify_conjecture

    def doctored(*a, **kw):
        return dataclasses.replace(sane(*a, **kw), verdict="lhs_less")

    monkeypatch.setattr(cli, "verify_conjecture", doctored)
    code, out, _ = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "2", "--r", "1",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "lhs_less"


def test_verify_open_regime_verdicts_are_informational(capsys, monkeypatch):
    # a non-equal verdict outside the proven range must not flip the exit
    sane = cli.verify_conjecture

    def doctored(*a, **kw):
        rep = sane(*a, **kw)
        if not rep.proven:
            rep = dataclasses.replace(rep, verdict="lhs_greater")
        return rep

    monkeypatch.setattr(cli, "verify_conjecture", doctored)
    code, _, _ = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "2", "--r", "3..4",
    )
    assert code == 0


def test_verify_bad_params_exit_2(capsys):
    assert run(capsys, "verify", "--ell", "2", "--m", "4", "--q", "6")[0] == 2
    assert (
        run(
            capsys, "verify", "--ell", "2", "--m", "4", "--q", "2",
            "--alpha", "4,2",
        )[0]
        == 2
    )
    assert (
        run(
            capsys, "verify", "--ell", "2", "--m", "4", "--q", "2",
            "--alpha", "2,x",
        )[0]
        == 2
    )
    assert (
        run(capsys, "verify", "--ell", "2", "--m", "4", "--q", "2", "--r", "0..2")[0]
        == 2
    )


def test_verify_budget_exits_1(capsys):
    code, _, err = run(
        capsys, "verify", "--ell", "2", "--m", "5", "--q", "2",
        "--budget-subspaces", "100",
    )
    assert code == 1
    assert "budget 100" in err


def test_verify_internal_check_failure_exits_1(capsys, monkeypatch):
    # a failed internal check is an error line and exit 1, not a traceback
    monkeypatch.setattr(codes, "mat_rank", lambda F, rows: 0)
    code, out, err = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "2", "--r", "1",
    )
    assert code == 1 and out == ""
    assert err == "error: generator rank 0 below row count 6\n"


# ---------------------------------------------------------------- selftest

def test_selftest_fast_passes(capsys):
    code, out, err = run(capsys, "selftest", "--fast")
    assert code == 0 and err == ""
    m = re.search(r"(\d+)/(\d+) checks passed", out)
    assert m and m.group(1) == m.group(2)
    assert "FAIL" not in out


def test_selftest_json_document(capsys):
    code, out, _ = run(capsys, "selftest", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate_doc(doc)
    assert doc["mode"] == "fast" and doc["ok"] is True


def test_selftest_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_selftest", lambda mode, seed: [("boom", False), ("fine", True)]
    )
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL boom" in out
    assert "1/2 checks passed" in out


def test_selftest_modes_are_exclusive(capsys):
    with pytest.raises(SystemExit):
        cli.main(["selftest", "--fast", "--full"])
    capsys.readouterr()


# ------------------------------------------------------------------ shared

def test_parse_r_spec():
    assert cli._parse_r_spec("3", 10) == [3]
    assert cli._parse_r_spec("2..5", 10) == [2, 3, 4, 5]
    assert cli._parse_r_spec("1..1", 10, lower=1) == [1]
    for bad in ("x", "4..2", "-1..3", "3..11"):
        with pytest.raises(cli.CLIError):
            cli._parse_r_spec(bad, 10)


def test_parse_alpha():
    assert cli._parse_alpha("2,4") == (2, 4)
    assert cli._parse_alpha("2, 4") == (2, 4)
    with pytest.raises(cli.CLIError):
        cli._parse_alpha("2,x")


def test_missing_required_args_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kr-table"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "subclose.cli", "kr-table", "--ell", "2", "--m", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_TABLE_2_5
