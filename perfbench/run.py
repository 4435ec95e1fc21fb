"""Benchmark for the subclose command line.

    python3 perfbench/run.py --workload hierarchy --seed 1 --seconds 28 --trace 0

A workload is a fixed list of CLI commands.  A run repeats the list in reps
until --seconds is spent, one fresh child process per command and one child
at a time, because users run the CLI one process per command and so pay for
every module cache again.  The seed only shuffles command order within a
rep.  Every command's stdout bytes and exit status are checked against
goldens.json, pinned from the program as it was when the benchmark was
defined.

--trace 0 reports the end-to-end metrics: wall_s, the time of the command
list as the sum of each command's median over the reps; setup_s, the
median time a fresh interpreter takes to import subclose.cli
and build its parser; and peak_rss_mb, the largest peak RSS of any child.
The children run on one CPU, and while they run a thread times a fixed
reference loop on that CPU.  Both times are wall-clock seconds rescaled to
a fixed speed of that CPU: each child's wall time is multiplied by
REF_LOOP_S over the median reference time taken while it ran, so that the
host's changing speed cancels out.
--trace 1 alternates untraced reps with reps run under trace_child.py and
reports the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object with the keys correct, attempted (commands run),
failed (commands that exited otherwise or printed other bytes than their
golden) and metrics.

Other modes:
    --workload all           every workload in turn, one table of metrics
    --steadiness             two sets of ten seeded runs per workload, with
                             spread and drift against BENCHMARK.json bounds
    --write-goldens          pin goldens.json from the current program
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = {
    "lattice_sweep": (
        "full-lattice K_r sweeps over 2^21 and 2^20 subfamilies plus the "
        "degree-side sigma sweep; the ell=3 table is the control no ell=2 "
        "closed form reaches",
        ("optimal --m 7 --r 0..21", "kr-table --ell 3 --m 6"),
    ),
    "lattice_bnb": (
        "lattices above the sweep cap, so the time goes to the per-r branch "
        "and bound in families.k_r_oracle and no sweep runs",
        (
            "kr-table --ell 3 --m 7 --r 6..9 --format json",
            "kr-table --ell 2 --m 8 --r 9..12",
        ),
    ),
    "hierarchy": (
        "Grassmann code higher weights: almost all time is the subcode "
        "search in codes.higher_weight, subspace enumeration under 1%",
        (
            "verify --ell 2 --m 4 --q 4 --r 1..3",
            "verify --ell 2 --m 5 --q 2 --r 1..2",
            "verify --ell 2 --m 4 --q 3 --format table",
        ),
    ),
    "schubert_enum": (
        "Schubert codes: almost all time enumerates the whole Grassmannian "
        "(linalg.det per point) and filters it to the Schubert points; the "
        "subcode search is trivial",
        (
            "verify --ell 3 --m 6 --q 3 --alpha 1,2,6",
            "verify --ell 2 --m 6 --q 3 --alpha 1,6",
        ),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "families.k_r_sweep.s": "s",
    "families.k_r_sweep.subfamilies": "count",
    "graphs.sigma_exhaustive.s": "s",
    "graphs.optimal_graphs.self_s": "s",
    "families.k_r_oracle.s": "s",
    "families.k_r_oracle.candidates": "count",
    "families.closed_share": "ratio",
    "codes.higher_weight.s": "s",
    "codes.higher_weight.subcodes": "count",
    "linalg.rref_span_matrices.yielded.enumeration": "count",
    "linalg.rref_span_matrices.yielded.subcodes": "count",
    "linalg.vec_mat.calls": "count",
    "linalg.vec_mat.s": "s",
    "codes.support_cache.miss_ratio": "ratio",
    "codes.enumerate_grassmannian.s": "s",
    "codes.enumerate_grassmannian.points": "count",
    "linalg.det.calls": "count",
    "linalg.det.s": "s",
    "codes.schubert.kept_ratio": "ratio",
    "codes.build_code.s": "s",
    "codes.verify_conjecture.self_s": "s",
    "gf.field_from_order.s": "s",
    "serialize.s": "s",
    "cli.main.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

CLI_ENTRY = "import sys; from subclose.cli import main; sys.exit(main())"
SETUP_ENTRY = "import subclose.cli; subclose.cli.build_parser()"
SETUP_PER_REP = 3
COMMAND_TIMEOUT_S = 60
STEADINESS_SETS = 2
STEADINESS_RUNS = 10

# The reference loop takes about 1 ms, short enough to run within one
# scheduler slice when it wakes on the children's CPU, and is taken every
# REF_PERIOD_S (about 5% of that CPU).  The baseline machine's host switches
# between a fast state, where the loop takes about 0.6 ms, and slow ones;
# REF_LOOP_S is the fast time, so rescaled times read as seconds on that
# machine at its fastest.  It is a fixed unit: changing it rescales every
# time the benchmark reports.
REF_LOOP_ITERATIONS = 6000
REF_PERIOD_S = 0.02
REF_LOOP_S = 0.0006
# reference samples taken this long before or after a child still count
# for it, so that even a short child has a few
REF_PAD_S = 0.05


def child_env() -> dict:
    """The caller's environment without its PYTHON* settings, so children
    behave the same wherever the benchmark runs.  Bytecode goes to a cache
    inside the checkout, as an installed package would have it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def rep_orders(commands, seed: int):
    """Command order of each rep: the same commands, shuffled by the seed."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(list(commands), len(commands))


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def reference_loop() -> None:
    """A fixed piece of pure-Python work, of the kind the CLI does."""
    table = {}
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += (i * i) % 7
        table[i & 255] = total


class SpeedProbe:
    """Times reference_loop every REF_PERIOD_S on one CPU, the CPU the
    children run on, from a thread of the benchmark process.

    The host this runs on is shared, and its speed moves by a third or
    more within seconds and over minutes; a pure-Python loop on the same CPU
    slows down with the children.  A sampler on another CPU, or reference
    runs between children, followed the children's speed about half as well.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(REF_PERIOD_S):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """A child's wall time at the reference speed, from the samples
        taken while it ran; call once sampling has stopped."""
        window = [
            dt for t, dt in self.samples if start - REF_PAD_S <= t <= end + REF_PAD_S
        ]
        if not window:
            raise RuntimeError("no reference samples while a child ran")
        return seconds * REF_LOOP_S / statistics.median(window)


@dataclass
class Outcome:
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float
    start: float  # perf_counter of the benchmark around the child
    end: float


def run_child(args, tmp: Path) -> Outcome:
    """Run one child to completion through launch.py, which times it and
    reads its own peak RSS.  The launcher leads a new process group, so a
    timeout or an interrupt kills the child with it."""
    result = tmp / "result"
    result.unlink(missing_ok=True)
    start = time.perf_counter()
    with open(tmp / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(result), *args],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
            env=child_env(),
            cwd=ROOT,
            start_new_session=True,
        )

        def kill():
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.wait()
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        end = time.perf_counter()
        err.seek(0)
        stderr = err.read()
    if not result.exists():
        return Outcome(COMMAND_TIMEOUT_S, proc.returncode, out, stderr, 0.0, start, end)
    seconds, exit_code, maxrss_kb = result.read_text().split()
    return Outcome(
        float(seconds), int(exit_code), out, stderr, int(maxrss_kb) / 1024, start, end
    )


def command_args(command: str, doc_path: Path | None) -> list[str]:
    if doc_path is None:
        return [sys.executable, "-c", CLI_ENTRY, *command.split()]
    return [sys.executable, str(HERE / "trace_child.py"), str(doc_path), *command.split()]


@dataclass
class Rep:
    timings: dict = field(default_factory=dict)  # command -> (seconds, start, end)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    docs: list = field(default_factory=list)


def run_rep(order, goldens: dict, tmp: Path, traced: bool) -> Rep:
    rep = Rep()
    doc_path = tmp / "trace.json" if traced else None
    for command in order:
        if traced:
            # a killed child writes no document; none of an earlier one may
            # stand in for it
            doc_path.unlink(missing_ok=True)
        out = run_child(command_args(command, doc_path), tmp)
        golden = goldens[command]
        rep.timings[command] = (out.seconds, out.start, out.end)
        rep.attempted += 1
        ok = (
            out.exit_code == golden["exit"]
            and hashlib.sha256(out.stdout).hexdigest() == golden["sha256"]
        )
        if ok and traced:
            if doc_path.exists():
                with open(doc_path, encoding="utf-8") as fh:
                    rep.docs.append(json.load(fh))
            else:
                ok = False
        if not ok:
            rep.failed += 1
            print(
                f"FAILED {command}: exit {out.exit_code}, "
                f"stderr {out.stderr.decode(errors='replace').strip()[-300:]!r}",
                file=sys.stderr,
            )
        rep.peak_rss_mb = max(rep.peak_rss_mb, out.peak_rss_mb)
    return rep


def raw_seconds(seconds: float, start: float, end: float) -> float:
    return seconds


def list_seconds(reps, rescale=raw_seconds) -> float:
    """Time of the command list: each command's median over the reps,
    summed.  Per-command medians shed more of the machine's noise than the
    median of whole-rep times."""
    return sum(
        statistics.median(rescale(*r.timings[c]) for r in reps)
        for c in reps[0].timings
    )


def measure_setup(tmp: Path, samples: int) -> list[tuple]:
    """(seconds, start, end) of fresh interpreters that import subclose.cli
    and build its parser."""
    timings = []
    for _ in range(samples):
        out = run_child([sys.executable, "-c", SETUP_ENTRY], tmp)
        if out.exit_code != 0:
            raise RuntimeError(f"import failed: {out.stderr.decode(errors='replace')}")
        timings.append((out.seconds, out.start, out.end))
    return timings


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sum_spans(docs) -> dict:
    """Span aggregates of one traced rep, summed over its commands."""
    spans: dict[str, dict] = {}
    for doc in docs:
        for name, agg in doc["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
    return spans


def layer_metrics(docs) -> dict:
    """Per-layer numbers of one traced rep, summed over its commands."""
    spans = sum_spans(docs)
    counts: Counter = Counter()
    for doc in docs:
        counts.update(doc["counts"])

    def span(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    return {
        "families.k_r_sweep.s": span("families.k_r_sweep"),
        "families.k_r_sweep.subfamilies": counts["sweep_subfamilies"],
        "graphs.sigma_exhaustive.s": span("graphs.sigma_exhaustive"),
        "graphs.optimal_graphs.self_s": span("graphs.optimal_graphs", "self_s"),
        "families.k_r_oracle.s": span("families.k_r_oracle"),
        "families.k_r_oracle.candidates": counts["oracle_candidates"],
        "families.closed_share": ratio(counts["k_r_closed_rows"], counts["k_r_rows"]),
        "codes.higher_weight.s": span("codes.higher_weight"),
        "codes.higher_weight.subcodes": counts["subcodes"],
        "linalg.rref_span_matrices.yielded.enumeration": counts[
            "rref_yielded_enumeration"
        ],
        "linalg.rref_span_matrices.yielded.subcodes": counts["rref_yielded_subcodes"],
        "linalg.vec_mat.calls": span("linalg.vec_mat", "calls"),
        "linalg.vec_mat.s": span("linalg.vec_mat"),
        "codes.support_cache.miss_ratio": ratio(
            span("linalg.vec_mat", "calls"), counts["basis_rows_looked_up"]
        ),
        "codes.enumerate_grassmannian.s": span("codes.enumerate_grassmannian"),
        "codes.enumerate_grassmannian.points": counts["grassmannian_points"],
        "linalg.det.calls": span("linalg.det", "calls"),
        "linalg.det.s": span("linalg.det"),
        "codes.schubert.kept_ratio": ratio(
            counts["schubert_points"], counts["schubert_enumerated"]
        ),
        "codes.build_code.s": span("codes.build_code"),
        "codes.verify_conjecture.self_s": span("codes.verify_conjecture", "self_s"),
        "gf.field_from_order.s": span("gf.field_from_order"),
        # serialize spans nest only in each other, so their self times add
        # up to the time spent inside the layer
        "serialize.s": sum(
            agg["self_s"] for name, agg in spans.items() if name.startswith("serialize.")
        ),
        "cli.main.s": span("cli.main"),
    }


def span_table(docs) -> list[str]:
    """Span aggregates of one traced rep as text lines, largest first."""
    spans = sum_spans(docs)
    total = spans.get("cli.main", {}).get("s") or 1.0
    lines = [f"  {'span':32} {'calls':>9} {'s':>9} {'self_s':>9} {'share':>6}"]
    for name, agg in sorted(spans.items(), key=lambda kv: -kv[1]["s"]):
        lines.append(
            f"  {name:32} {agg['calls']:9d} {agg['s']:9.4f} {agg['self_s']:9.4f}"
            f" {agg['s'] / total:6.1%}"
        )
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result object."""
    commands = WORKLOADS[name][1]
    goldens = load_goldens()
    missing = [c for c in commands if c not in goldens]
    if missing:
        raise RuntimeError(f"no golden for {missing}")
    orders = rep_orders(commands, seed)
    # the children inherit the CPU the main thread is bound to, and the
    # probe samples that CPU
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with tempfile.TemporaryDirectory(
            prefix=".perfbench-tmp-", dir=ROOT
        ) as tmp_name, SpeedProbe(min(cpus)) as probe:
            tmp = Path(tmp_name)
            measure_setup(tmp, 1)  # fills the bytecode cache
            setup: list[tuple] = []
            plain: list[Rep] = []
            traced: list[Rep] = []
            start = time.perf_counter()
            longest = 0.0
            # start a rep (or, traced, an untraced and traced pair) only
            # while it is expected to end within the time; set-up samples
            # are spread over the run so they meet the same machine as the
            # reps
            while not plain or time.perf_counter() - start + longest <= seconds:
                t0 = time.perf_counter()
                if not trace:
                    setup += measure_setup(tmp, SETUP_PER_REP)
                order = next(orders)
                plain.append(run_rep(order, goldens, tmp, traced=False))
                if trace:
                    traced.append(run_rep(order, goldens, tmp, traced=True))
                longest = max(longest, time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    wall = list_seconds(plain, probe.rescale)
    rep_seconds = [round(sum(t[0] for t in r.timings.values()), 3) for r in plain]
    ref_ms = statistics.median(dt for _, dt in probe.samples) * 1e3
    print(
        f"{name}: seed {seed}, {len(plain)} reps of {len(commands)} commands, "
        f"rep wall seconds {rep_seconds}, unscaled wall_s {list_seconds(plain):.4f}, "
        f"{len(probe.samples)} reference samples of median {ref_ms:.4f} ms, "
        f"ops {attempted}, failed_ops {failed}"
    )
    if trace:
        per_rep = [layer_metrics(r.docs) for r in traced]
        values = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        traced_wall = list_seconds(traced, probe.rescale)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - wall
        print("\n".join(span_table(traced[0].docs)))
        units = PER_LAYER
    else:
        setup_s = [probe.rescale(*t) for t in setup]
        print(f"  setup_s samples {[round(x, 4) for x in setup_s]}")
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": max(r.peak_rss_mb for r in plain),
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in turn, then one table of every metric."""
    results = {name: run_workload(name, seed, seconds, trace) for name in WORKLOADS}
    print(f"\n{'workload':15} {'metric':46} {'value':>14} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:15} {metric:46} {m['value']:14.6g} {m['unit']}")
        print(f"{name:15} {'ops':46} {res['attempted']:14d} count")
        print(f"{name:15} {'failed_ops':46} {res['failed']:14d} count")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": m
            for name, res in results.items()
            for metric, m in res["metrics"].items()
        },
    }


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def steadiness(workloads, seconds: float) -> dict:
    """Run each workload in two sets of ten runs, each run a fresh benchmark
    process with its own seed, and hold every end-to-end metric against its
    bound: the spread of each set, and the drift of the second set's median
    from the first either way, must stay within the bound."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    summary = {}
    ok = True
    for name in workloads:
        sets_values = []
        for s in range(STEADINESS_SETS):
            values: dict[str, list] = {m: [] for m in END_TO_END}
            for i in range(STEADINESS_RUNS):
                seed = 1000 * s + i + 1
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True, cwd=ROOT,
                )
                try:
                    out, _ = proc.communicate()
                except BaseException:
                    # SIGTERM lets the run stop its own child and clean up
                    proc.terminate()
                    proc.wait()
                    raise
                if proc.returncode != 0:
                    raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}")
                res = json.loads(out.strip().splitlines()[-1])
                ok = ok and res["correct"]
                for m in END_TO_END:
                    values[m].append(res["metrics"][m]["value"])
                print(f"{name} set {s + 1} seed {seed}: "
                      + ", ".join(f"{m}={v[-1]:.4f}" for m, v in values.items()),
                      file=sys.stderr)
            sets_values.append(values)
        summary[name] = {}
        for m in END_TO_END:
            bound = spec[m]["bound"]
            sign = 1 if spec[m]["better"] == "lower" else -1
            medians = [statistics.median(v[m]) for v in sets_values]
            spreads = [spread(v[m]) for v in sets_values]
            drifts = [sign * (med - medians[0]) / medians[0] for med in medians[1:]]
            within = all(abs(d) <= bound for d in drifts + spreads)
            ok = ok and within
            summary[name][m] = {
                "bound": bound,
                "medians": medians,
                "spreads": spreads,
                "drifts": drifts,
                "within_bound": within,
                "steady": all(s < bound / 3 for s in spreads),
                "values": [v[m] for v in sets_values],
            }
            print(
                f"{name:14} {m:12} bound {bound:.2f} medians "
                + " ".join(f"{x:.4f}" for x in medians)
                + " spreads " + " ".join(f"{x:.3f}" for x in spreads)
                + " drifts " + " ".join(f"{x:+.3f}" for x in drifts)
                + (" ok" if within else " OUT OF BOUND")
                + (" steady" if summary[name][m]["steady"] else "")
            )
    return {"within_bounds": ok, "workloads": summary}


def write_goldens() -> None:
    """Pin stdout sha256 and exit status of every workload command."""
    goldens = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp_name:
        for _, commands in WORKLOADS.values():
            for command in commands:
                out = run_child(command_args(command, None), Path(tmp_name))
                goldens[command] = {
                    "exit": out.exit_code,
                    "sha256": hashlib.sha256(out.stdout).hexdigest(),
                    "bytes": len(out.stdout),
                }
                print(f"{out.exit_code} {goldens[command]['sha256'][:16]} {command}")
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def default_seconds() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args(argv)
    # a terminated run kills its current child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "subclose" / "cli.py").is_file():
        print(f"error: no subclose sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_goldens:
        write_goldens()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else default_seconds()
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.steadiness:
        result = steadiness(chosen, seconds)
    elif args.workload == "all":
        result = run_all(args.seed, seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
