"""The built-in consistency suite must be green in both modes."""

import dataclasses

from subclose import families
from subclose.selftest import run_selftest


def test_fast_suite_all_green():
    results = run_selftest("fast", 0)
    assert results, "fast suite ran no checks"
    assert all(ok for _, ok in results), [n for n, ok in results if not ok]


def test_full_suite_extends_fast_and_is_green():
    fast = run_selftest("fast", 0)
    full = run_selftest("full", 0)
    fast_names = [name for name, _ in fast]
    full_names = [name for name, _ in full]
    assert set(fast_names) < set(full_names)
    assert all(ok for _, ok in full), [n for n, ok in full if not ok]


def test_seed_changes_are_harmless():
    for seed in (0, 1, 12345):
        assert all(ok for _, ok in run_selftest("fast", seed))


def test_fast_suite_catches_a_wrong_closed_form(monkeypatch):
    sane = families._closed_record

    def doctored(ell, m, r):
        rec = sane(ell, m, r)
        if rec is not None and r == 3:
            return dataclasses.replace(rec, value=rec.value + 1, maximizer=None)
        return rec

    monkeypatch.setattr(families, "_closed_record", doctored)
    failed = {name for name, ok in run_selftest("fast", 0) if not ok}
    assert {"golden-kr-2-5", "closed-vs-search"} <= failed
