"""The built-in consistency suite must be green and catch broken answers."""

from subclose import codes, families, selftest
from subclose.serialize import selftest_report_doc, selftest_text, validate_doc
from subclose.selftest import CHECKS, run_selftest


def test_suite_all_green():
    results = run_selftest()
    assert [name for name, _, _ in results] == [name for name, _ in CHECKS]
    assert len(results) == 18
    assert all(ok for _, ok, _ in results), [r for r in results if not r[1]]
    assert all(reason is None for _, _, reason in results)


def test_suite_catches_a_wrong_closed_form(monkeypatch, replace):
    sane = families._closed_record

    def doctored(ell, m, r):
        rec = sane(ell, m, r)
        if rec is not None and r == 3:
            return replace(rec, value=rec.value + 1, maximizer=None)
        return rec

    monkeypatch.setattr(families, "_closed_record", doctored)
    failed = {name for name, ok, _ in run_selftest() if not ok}
    assert {"golden-kr-2-5", "closed-vs-search"} <= failed


def test_suite_catches_a_wrong_shifted_value(monkeypatch):
    # every auto middle row, every optimal graph and every maximizer listing,
    # the conjecture scan's included, reads the shifted families, so one
    # below K_r fails each check that takes one: the recount of the
    # witness, a true maximizer, refutes it
    check = dict(CHECKS)["shifted-vs-oracle-3-7"]
    assert check()
    sane = families._shifted_maximizers

    def doctored(masks, m, r):
        value, shifted = sane(masks, m, r)
        return value - 1, shifted

    monkeypatch.setattr(families, "_shifted_maximizers", doctored)
    failed = {name for name, ok, _ in run_selftest() if not ok}
    assert failed == {
        "golden-kr-2-5",
        "closed-vs-search",
        "dualities-2-5",
        "graphs-m5",
        "dualities-3-5-and-2-6",
        "graph-bounds-m6",
        "close-families",
        "shifted-vs-oracle-3-7",
        "serialization",
        "conjecture-proven-cases",
    }


def test_full_suite_catches_a_wrong_close_witness(monkeypatch, replace):
    sane = families.classify_close

    def doctored(fam):
        w = sane(fam)
        return replace(w, tail=w.tail[:-1]) if fam.size == 3 else w

    check = dict(CHECKS)["close-families"]
    assert check()
    monkeypatch.setattr(families, "classify_close", doctored)
    assert not check()
    monkeypatch.setattr(
        families,
        "classify_close",
        lambda fam: families.CloseFamilyWitness(families.CloseKind.NOT_CLOSE),
    )
    assert not check()


def test_schubert_check_catches_a_wrong_flag_or_basis_order(monkeypatch):
    # the check pairs each point with the basis rref_span_matrices yields
    # at the same position; a doctored flag or a shuffled basis list fails
    check = dict(CHECKS)["schubert-f2-alpha-2-4"]
    assert check()
    with monkeypatch.context() as patch:
        sane = codes.schubert_membership_flag
        patch.setattr(
            codes,
            "schubert_membership_flag",
            lambda F, matrix, alpha: not sane(F, matrix, alpha),
        )
        assert not check()
    sane_bases = selftest.linalg.rref_span_matrices
    monkeypatch.setattr(
        selftest.linalg,
        "rref_span_matrices",
        lambda F, r, n: reversed(list(sane_bases(F, r, n))),
    )
    assert not check()


def test_failed_checks_say_why(monkeypatch):
    def raises():
        raise ValueError("no\n  such   point")

    def raises_bare():
        raise ArithmeticError

    checks = (
        ("raises", raises),
        ("raises-bare", raises_bare),
        ("false", lambda: 0),
        ("passes", lambda: True),
    )
    monkeypatch.setattr(selftest, "CHECKS", checks)
    results = run_selftest()
    assert results == [
        ("raises", False, "ValueError: no such point"),
        ("raises-bare", False, "ArithmeticError"),
        ("false", False, "returned False"),
        ("passes", True, None),
    ]
    doc = selftest_report_doc(results)
    validate_doc(doc)
    assert doc["ok"] is False
    assert doc["checks"][2] == {"name": "false", "ok": False, "reason": "returned False"}
    assert doc["checks"][3] == {"name": "passes", "ok": True}
    assert selftest_text(doc) == (
        "FAIL raises: ValueError: no such point\n"
        "FAIL raises-bare: ArithmeticError\n"
        "FAIL false: returned False\n"
        "ok   passes\n"
        "1/4 checks passed\n"
    )
