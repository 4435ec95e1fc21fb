"""Tests of the benchmark itself: its declared names, goldens and seeding.

They run no workload; the tests that start children run small commands.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import trace_child  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMALL = "verify --ell 2 --m 4 --q 2"


def spec() -> dict:
    with open(bench.SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_follows_the_benchmark_format():
    s = spec()
    assert set(s) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert s["paths"] == ["perfbench"]
    assert s["command"][1] == "perfbench/run.py"
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert 2 <= len(s["workloads"]) <= 8
    names = [w["name"] for w in s["workloads"]]
    for w in s["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


def test_spec_matches_the_harness():
    s = spec()
    assert {w["name"]: w["why"] for w in s["workloads"]} == {
        name: why for name, (why, _) in bench.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == bench.PER_LAYER


def test_layer_metrics_cover_every_per_layer_name():
    empty = {"spans": {}, "counts": dict.fromkeys(trace_child.COUNT_NAMES, 0)}
    names = set(bench.layer_metrics([empty])) | {"trace.wall_s", "trace.overhead_s"}
    assert names == set(bench.PER_LAYER)


def test_every_command_has_a_golden():
    goldens = bench.load_goldens()
    commands = {c for _, cmds in bench.WORKLOADS.values() for c in cmds}
    assert commands == set(goldens)
    for golden in goldens.values():
        assert golden["exit"] == 0
        assert re.fullmatch(r"[0-9a-f]{64}", golden["sha256"])


def test_seed_changes_only_command_order():
    for _, commands in bench.WORKLOADS.values():
        seen = set()
        for seed in range(10):
            orders = bench.rep_orders(commands, seed)
            again = bench.rep_orders(commands, seed)
            for _ in range(5):
                order = next(orders)
                assert order == next(again)
                assert sorted(order) == sorted(commands)
                seen.add(tuple(order))
        assert len(seen) > 1


def test_traced_command_prints_the_same_bytes(tmp_path):
    plain = bench.run_child(bench.command_args(SMALL, None), tmp_path)
    doc_path = tmp_path / "trace.json"
    traced = bench.run_child(bench.command_args(SMALL, doc_path), tmp_path)
    assert plain.exit_code == traced.exit_code == 0
    assert traced.stdout == plain.stdout
    with open(doc_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = bench.layer_metrics([doc])
    # G(2,4) over F2: 35 points, a 6-dimensional code, every rank 1..6
    assert metrics["codes.enumerate_grassmannian.points"] == 35
    assert metrics["codes.higher_weight.subcodes"] == 63 + 651 + 1395 + 651 + 63 + 1
    assert (
        metrics["linalg.rref_span_matrices.yielded.subcodes"]
        == metrics["codes.higher_weight.subcodes"]
    )
    assert metrics["linalg.det.calls"] == 35 * 6
    assert metrics["families.closed_share"] == 1.0
    assert 0 < metrics["codes.higher_weight.s"] <= metrics["cli.main.s"]


def test_peak_rss_is_the_childs_own(tmp_path):
    # a child spawned straight from a large process would report at least
    # that process's resident size
    ballast = bytearray(64 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    out = bench.run_child([sys.executable, "-c", "pass"], tmp_path)
    assert out.exit_code == 0
    assert 0 < out.peak_rss_mb < 48
    del ballast


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hierarchy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_killed_traced_command_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "COMMAND_TIMEOUT_S", 0.5)
    command = bench.WORKLOADS["lattice_sweep"][1][0]
    # a document left by an earlier command must not be counted again
    (tmp_path / "trace.json").write_text('{"spans": {}, "counts": {}}')
    rep = bench.run_rep([command], bench.load_goldens(), tmp_path, traced=True)
    assert (rep.attempted, rep.failed, rep.docs) == (1, 1, [])


def test_rescale_uses_the_reference_samples_taken_while_the_child_ran():
    probe = bench.SpeedProbe(0)
    slow = 2 * bench.REF_LOOP_S
    # samples far outside the child's run, taken at another speed, do not count
    probe.samples = [(0.0, 9.0), (1.0, slow), (1.5, slow), (2.0, 3 * slow), (2.03, slow), (9.0, 9.0)]
    assert abs(probe.rescale(3.0, 1.0, 2.0) - 1.5) < 1e-12


def test_schubert_kept_ratio_counts_the_points_enumerated_for_it(tmp_path):
    doc_path = tmp_path / "trace.json"
    out = bench.run_child(
        bench.command_args("verify --ell 2 --m 4 --q 2 --alpha 2,4", doc_path), tmp_path
    )
    assert out.exit_code == 0
    with open(doc_path, encoding="utf-8") as fh:
        metrics = bench.layer_metrics([json.load(fh)])
    # 19 of the 35 points of G(2,4) over F2 lie on the Schubert variety
    assert metrics["codes.schubert.kept_ratio"] == 19 / 35
