"""End-to-end tests of the command line front end."""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

import subclose.cli as cli
from subclose import codes, families, graphs, selftest
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


def test_kr_table_both_mode_detects_disagreement(capsys, monkeypatch, replace):
    sane = families._closed_record

    def doctored(ell, m, r):
        rec = sane(ell, m, r)
        if rec is not None and r == 3:
            return replace(rec, value=rec.value + 1, maximizer=None)
        return rec

    monkeypatch.setattr(families, "_closed_record", doctored)
    code, out, err = run(
        capsys, "kr-table", "--ell", "2", "--m", "5", "--mode", "both"
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: closed form 4 disagrees with exhaustive search 3 "
        "at (ell=2, m=5, r=3)\n"
    )


def test_kr_table_budget_exceeded_exits_1(capsys):
    code, out, err = run(
        capsys, "kr-table", "--ell", "2", "--m", "6", "--r", "7",
        "--mode", "oracle", "--budget-families", "100",
    )
    assert code == 1
    assert "6435" in err and "budget 100" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("kr-table", "--ell", "2", "--m", "5"), "--budget-families"),
        (("optimal", "--m", "4", "--r", "3"), "--budget-families"),
        (("verify", "--ell", "2", "--m", "4", "--q", "2"), "--budget-families"),
        (("verify", "--ell", "2", "--m", "4", "--q", "2"), "--budget-subspaces"),
    ],
)
def test_negative_budgets_exit_2(capsys, argv, flag):
    # a negative budget is no budget at all; 0 is one, and refuses all work
    for value in ("-1", "-5"):
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be at least 0, got {value}\n"
    code, out, err = run(capsys, *argv, flag, "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(" exceed budget 0\n")


def test_kr_table_refuses_a_wide_ground_set_before_the_budget(capsys):
    # the lattice check comes before the candidate count, which at r = 100
    # is far over the default budget; the closed-form row at r = 1 builds
    # its witness family instead, which meets the same ground-set rule
    for r in ("100", "1"):
        code, out, err = run(capsys, "kr-table", "--ell", "2", "--m", "63", "--r", r)
        assert (code, out) == (2, "")
        assert err == "error: ground set too large for mask words (m=63 > 62)\n"


def test_kr_table_answers_a_closed_row_past_the_mask_words(capsys):
    # C(2000, 2) is past the witness cap, so the closed-form row builds no
    # family and needs no mask words; the CLI refuses no wide m up front
    code, out, err = run(capsys, "kr-table", "--ell", "2", "--m", "2000", "--r", "1")
    assert (code, out, err) == (0, "  r  1\nK_r  0\n", "")


def test_kr_table_auto_above_the_count_cap_prints_the_oracle_bytes(capsys):
    # (2, 8) has 2^28 subfamilies, past the count cap: auto takes the least
    # shifted maximizer, oracle walks every family, and both print the same
    # rows
    args = ("kr-table", "--ell", "2", "--m", "8", "--r", "9..10")
    auto = run(capsys, *args)
    assert auto == run(capsys, *args, "--mode", "oracle")
    assert auto[0] == 0 and auto[2] == ""


def test_kr_table_auto_above_the_count_cap_charges_every_family(capsys):
    # the budget counts all C(28, 14) candidate families, though auto mode
    # builds only the shifted ones
    code, out, err = run(
        capsys, "kr-table", "--ell", "2", "--m", "8", "--r", "14",
        "--budget-families", "10",
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: 40116600 candidate families for (ell=2, m=8, r=14) "
        "exceed budget 10\n"
    )


@pytest.mark.parametrize("mode", ["oracle", "auto"])
def test_kr_table_refuses_a_count_too_long_to_print(capsys, mode):
    # C(C(40, 20), 500) has 4436 digits, more than int-to-str conversion
    # allows by default
    code, out, err = run(
        capsys, "kr-table", "--ell", "20", "--m", "40", "--r", "500", "--mode", mode,
    )
    assert (code, out) == (1, "")
    assert "candidate families for (ell=20, m=40, r=500)" in err
    assert err.endswith("exceed budget 100000000\n")


def test_kr_table_count_does_not_depend_on_the_budget(capsys):
    # auto and oracle refuse the same C(10, 5) = 252 candidates, so a
    # budget that admits them changes nothing, the maximizer count included
    args = ("kr-table", "--ell", "2", "--m", "5", "--r", "5", "--format", "json")
    default = run(capsys, *args)
    capped = run(capsys, *args, "--budget-families", "1000")
    assert capped == default
    assert json.loads(default[1])["maximizer_count"] == 60


@pytest.mark.parametrize("m", range(4))
def test_kr_table_ell_0_answers_in_every_mode(capsys, m):
    for mode in ("auto", "closed", "oracle", "both"):
        code, out, err = run(
            capsys, "kr-table", "--ell", "0", "--m", str(m), "--mode", mode,
            "--format", "json",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        validate_doc(doc)
        assert (doc["r"], doc["value"], doc["maximizer"]) == (1, 0, [[]])


def test_verify_ell_0_exits_0(capsys):
    code, out, err = run(capsys, "verify", "--ell", "0", "--m", "2", "--q", "2")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    validate_doc(doc)
    assert (doc["d_r"], doc["verdict"], doc["witness_lambda"]) == (1, "equal", [[]])


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


def test_empty_out_is_a_parse_error_before_any_work(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise RuntimeError("the table was computed before --out was checked")

    monkeypatch.setattr(cli, "_cmd_kr_table", refused)
    with pytest.raises(SystemExit) as exc:
        cli.main(["kr-table", "--ell", "2", "--m", "4", "--out", ""])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --out: needs a file name, got ''\n")


class FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_unwritable_exits_2(capsys, monkeypatch):
    full = FullStdout()
    monkeypatch.setattr(sys, "stdout", full)
    code = cli.main(["kr-table", "--ell", "2", "--m", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cannot write stdout: No space left on device\n"
    # closed, so the interpreter does not flush the dropped text at exit
    assert full.closed


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_exits_2_without_a_traceback():
    # buffered stdout, as outside a test run: the failed text would be
    # flushed again at exit, reported as "Exception ignored" and exit 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "subclose.cli", "kr-table", "--ell", "2",
             "--m", "5"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert (proc.returncode, proc.stderr) == (
        2,
        "error: cannot write stdout: No space left on device\n",
    )


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


def test_verify_proven_failure_exits_1(capsys, monkeypatch, replace):
    sane = cli.verify_conjecture

    def doctored(*a, **kw):
        return replace(sane(*a, **kw), verdict="lhs_less")

    monkeypatch.setattr(cli, "verify_conjecture", doctored)
    code, out, _ = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "2", "--r", "1",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "lhs_less"


def test_verify_open_regime_verdicts_are_informational(capsys, monkeypatch, replace):
    # a non-equal verdict outside the proven range must not flip the exit
    sane = cli.verify_conjecture

    def doctored(*a, **kw):
        rep = sane(*a, **kw)
        if not rep.proven:
            rep = replace(rep, verdict="lhs_greater")
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


@pytest.mark.parametrize(
    "argv, what",
    [
        (("kr-table", "--ell", "2", "--m", "5", "--r", ""), "r"),
        (("verify", "--ell", "2", "--m", "4", "--q", "2", "--r", ""), "r"),
        (("verify", "--ell", "2", "--m", "4", "--q", "2", "--alpha", ""), "alpha"),
    ],
)
def test_empty_option_values_exit_2(capsys, argv, what):
    # an empty value is a parse error like a blank one, not a default
    for value in ("", " "):
        code, out, err = run(capsys, *argv[:-1], value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot parse {what} ")


def test_verify_budget_exits_1(capsys):
    code, _, err = run(
        capsys, "verify", "--ell", "2", "--m", "5", "--q", "2",
        "--budget-subspaces", "100",
    )
    assert code == 1
    assert "budget 100" in err


def test_verify_refuses_a_support_table_over_budget(capsys):
    # 4745 points and 37449 rank-1 subcodes pass their walls, but the
    # table of 37449 codewords of length 4745 does not
    code, out, err = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "8", "--r", "1",
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: 177695505 support-table entries (37449 codewords of length "
        "4745) exceed budget 10000000\n"
    )


def test_verify_internal_check_failure_exits_1(capsys, monkeypatch):
    # a failed internal check is an error line and exit 1, not a traceback
    monkeypatch.setattr(codes, "mat_rank", lambda F, rows: 0)
    code, out, err = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "2", "--r", "1",
    )
    assert code == 1 and out == ""
    assert err == "error: generator rank 0 below row count 6\n"


def test_verify_all_zero_minors_exit_1(capsys, monkeypatch):
    # a point with no nonzero minor fails the normalization check, not
    # next() on an empty generator with a bare StopIteration
    monkeypatch.setattr(codes, "det", lambda F, rows: 0)
    code, out, err = run(
        capsys, "verify", "--ell", "2", "--m", "4", "--q", "2", "--r", "1",
    )
    assert code == 1 and out == ""
    assert err == "error: echelon representative not normalized\n"


# ---------------------------------------------------------------- selftest

def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0 and err == ""
    assert out.endswith("\n18/18 checks passed\n")
    assert "FAIL" not in out


def test_selftest_json_document(capsys):
    code, out, _ = run(capsys, "selftest", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    validate_doc(doc)
    assert doc["ok"] is True and "mode" not in doc
    assert len(doc["checks"]) == 18


def test_selftest_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(
        selftest,
        "run_selftest",
        lambda: [("boom", False, "KeyError: 3"), ("fine", True, None)],
    )
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL boom: KeyError: 3\nok   fine\n" in out
    assert "1/2 checks passed" in out


@pytest.mark.parametrize("option", ["--fast", "--full"])
def test_selftest_has_one_suite(capsys, option):
    # the suite options are gone, so they are invalid parameters
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", option])
    assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------------ shared

def test_parse_r_spec():
    assert list(cli._parse_r_spec("3", 10)) == [3]
    assert list(cli._parse_r_spec("2..5", 10)) == [2, 3, 4, 5]
    assert list(cli._parse_r_spec("1..1", 10, lower=1)) == [1]
    assert list(cli._parse_r_spec(None, 3)) == [1, 2, 3]
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


@pytest.mark.parametrize(
    "argv",
    [
        ("kr-table", "--ell", "2", "--m", "49", "--r", "1174", "--mode", "oracle"),
        ("optimal", "--m", "49", "--r", "1174"),
    ],
)
def test_deep_walk_is_refused_without_a_traceback(argv):
    # C(1176, 1174) = 690900 candidates pass the default budget, but a walk
    # 1174 members deep would exceed the interpreter's recursion limit
    proc = subprocess.run(
        [sys.executable, "-m", "subclose.cli", *argv], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: 1174 walk levels for (ell=2, m=49, r=1174) exceed budget 900\n"
    )
    assert "Traceback" not in proc.stderr


def test_huge_r_meets_the_depth_cap_before_the_count():
    # C(C(62, 31), r) alone takes seconds to compute at r = 10^5, so the
    # depth cap must refuse the row before the candidate count is formed
    proc = subprocess.run(
        [sys.executable, "-m", "subclose.cli", "kr-table", "--ell", "31",
         "--m", "62", "--r", "1000000"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: 1000000 walk levels for (ell=31, m=62, r=1000000) exceed budget 900\n"
    )


def test_default_r_range_of_a_huge_lattice_meets_the_budget():
    # r runs to C(62, 31), about 4.7e17 values, which no list of them could
    # hold; the rows are taken one by one until the budget refuses one
    proc = subprocess.run(
        [sys.executable, "-m", "subclose.cli", "kr-table", "--ell", "31",
         "--m", "62"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "candidate families for (ell=31, m=62, r=33)" in proc.stderr


def test_closed_form_row_of_a_large_lattice_answers_quickly():
    # the high-range witness here is all C(40, 4) = 91390 subsets; its K
    # must be checked by point degrees, not over its 4e9 pairs
    proc = subprocess.run(
        [sys.executable, "-m", "subclose.cli", "kr-table", "--ell", "4",
         "--m", "40", "--r", "91390", "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "ell,m,r,value,method\n4,40,91390,1670243640,closed_form_high\n"
    )


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "subclose.cli", "kr-table", "--ell", "2", "--m", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_TABLE_2_5
