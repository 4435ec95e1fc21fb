"""Run one subclose CLI command with spans around the calls into each layer.

    python3 perfbench/trace_child.py DOC_PATH ARG...

The CLI runs in this process on ARG and writes to stdout as it always does,
so its output can still be checked against the goldens.  Before it starts,
each public function a layer is entered through is wrapped in the namespace
its caller resolves it from: ``subclose.codes.det``, not
``subclose.linalg.det``, because ``codes`` imported the name.  Nothing under
``src/`` changes.

Open spans sit on a stack.  A span that ends charges its duration to its
parent, so a span's self time is its duration minus the time of the spans
it caused.  Spans are aggregated in memory per name (calls, seconds, self
seconds) and written with the work counts to DOC_PATH as one JSON document
when the command ends.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb

from subclose import cli, codes, families, gf, graphs, serialize

clock = time.perf_counter

# every count a document carries; the harness sums them over a workload
COUNT_NAMES = (
    "sweep_subfamilies",
    "oracle_candidates",
    "k_r_rows",
    "k_r_closed_rows",
    "subcodes",
    "rref_yielded_enumeration",
    "rref_yielded_subcodes",
    "basis_rows_looked_up",
    "grassmannian_points",
    "schubert_enumerated",
    "schubert_points",
)

# (module, attribute, span name) for each wrapped entry point
SPANS = (
    (cli, "main", "cli.main"),
    (cli, "verify_conjecture", "codes.verify_conjecture"),
    (cli, "grassmann_code", "codes.grassmann_code"),
    (cli, "schubert_code", "codes.schubert_code"),
    (gf, "field_from_order", "gf.field_from_order"),
    (families, "k_r", "families.k_r"),
    (families, "k_r_sweep", "families.k_r_sweep"),
    (families, "k_r_oracle", "families.k_r_oracle"),
    (graphs, "optimal_graphs", "graphs.optimal_graphs"),
    (graphs, "sigma_exhaustive", "graphs.sigma_exhaustive"),
    (graphs, "k_r_value", "graphs.k_r_value"),
    (codes, "k_r_value", "codes.k_r_value"),
    (codes, "higher_weight", "codes.higher_weight"),
    (codes, "enumerate_grassmannian", "codes.enumerate_grassmannian"),
    (codes, "build_code", "codes.build_code"),
    (codes, "det", "linalg.det"),
    (codes, "vec_mat", "linalg.vec_mat"),
) + tuple(
    (serialize, name, f"serialize.{name}")
    for name in (
        "canonical_json",
        "conjecture_report_doc",
        "kr_record_doc",
        "kr_table_csv",
        "kr_table_text",
        "selftest_report_doc",
        "sigma_record_doc",
        "to_jsonl",
    )
)


def gaussian_binom(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class Tracer:
    """Span stack, per-name span aggregates and work counts for one command."""

    def __init__(self):
        self.stack: list[list] = []  # open spans as [name, child seconds]
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def span(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace module.attr with a wrapper that records a span per call.

        before(args, kwargs) runs as the call starts and after(args, kwargs,
        result) once it has returned; both add to the counts.  A name the
        program no longer has is left alone, and its span reads 0.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return
        stack = self.stack
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def count_yields(self) -> None:
        """Count RREF matrices yielded, split by the span enumerating them;
        inside the subcode search also count the basis rows looked up."""
        fn = getattr(codes, "rref_span_matrices", None)
        if fn is None:
            return
        counts = self.counts

        def counted(gen, key):
            yielded = rows = 0
            try:
                for basis in gen:
                    yielded += 1
                    rows += len(basis)
                    yield basis
            finally:
                counts[key] += yielded
                if key == "rref_yielded_subcodes":
                    counts["basis_rows_looked_up"] += rows

        def wrapper(*args, **kwargs):
            if self.inside("codes.higher_weight"):
                key = "rref_yielded_subcodes"
            elif self.inside("codes.enumerate_grassmannian"):
                key = "rref_yielded_enumeration"
            else:
                return fn(*args, **kwargs)
            return counted(fn(*args, **kwargs), key)

        codes.rref_span_matrices = wrapper

    def install(self) -> None:
        counts = self.counts

        def sweep_before(args, kwargs):
            ell, m = args[:2]
            # a cached (ell, m) returns without sweeping
            if (ell, m) not in getattr(families, "_sweep_cache", ()):
                counts["sweep_subfamilies"] += 1 << comb(m, ell)

        def oracle_before(args, kwargs):
            ell, m, r = args[:3]
            counts["oracle_candidates"] += comb(comb(m, ell), r)

        def k_r_after(args, kwargs, rec):
            if rec is not None:
                counts["k_r_rows"] += 1
                counts["k_r_closed_rows"] += rec.method.startswith("closed_form")

        def higher_weight_before(args, kwargs):
            code, r = args[:2]
            counts["subcodes"] += gaussian_binom(code.kdim, r, code.F.q)

        def enumerate_after(args, kwargs, points):
            counts["grassmannian_points"] += len(points)
            if self.inside("codes.schubert_code"):
                counts["schubert_enumerated"] += len(points)

        def schubert_after(args, kwargs, code):
            counts["schubert_points"] += len(code.points)

        hooks = {
            "families.k_r_sweep": (sweep_before, None),
            "families.k_r_oracle": (oracle_before, None),
            "families.k_r": (None, k_r_after),
            "codes.higher_weight": (higher_weight_before, None),
            "codes.enumerate_grassmannian": (None, enumerate_after),
            "codes.schubert_code": (None, schubert_after),
        }
        for module, attr, name in SPANS:
            self.span(module, attr, name, *hooks.get(name, (None, None)))
        self.count_yields()

    def document(self, argv, exit_code) -> dict:
        return {
            "argv": list(argv),
            "exit": exit_code,
            "spans": {
                name: {"calls": calls, "s": s, "self_s": self_s}
                for name, (calls, s, self_s) in sorted(self.spans.items())
                if calls
            },
            "counts": self.counts,
        }


def main() -> int:
    doc_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    exit_code = None
    try:
        exit_code = cli.main(argv)
        return exit_code
    finally:
        sys.stdout.flush()
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.document(argv, exit_code), fh)


if __name__ == "__main__":
    sys.exit(main())
