"""Batch command line front end.

Every subcommand is deterministic given its parameters: repeated runs
produce identical bytes.  Exit status 0 means success (for verify:
every instance inside a proven regime checks out; open-regime verdicts are
informational), 1 means a check failed or a budget was exceeded, 2 means
the parameters were invalid.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import families, gf, graphs, serialize
from .codes import (
    DEFAULT_SUBSPACE_BUDGET,
    grassmann_code,
    schubert_code,
    verify_conjecture,
)
from .families import BudgetError
from .graphs import is_threshold
from .selftest import run_selftest


class CLIError(Exception):
    """Bad parameters; the command exits with status 2."""


def _parse_r_spec(spec: str, upper: int, lower: int = 0) -> list[int]:
    s = spec.strip()
    try:
        if ".." in s:
            a, _, b = s.partition("..")
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(s)
    except ValueError:
        raise CLIError(f"cannot parse r {spec!r}; use N or A..B") from None
    if lo > hi:
        raise CLIError(f"empty r range {spec!r}")
    if lo < lower or hi > upper:
        raise CLIError(f"r range {spec!r} outside {lower}..{upper}")
    return list(range(lo, hi + 1))


def _parse_alpha(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in spec.replace(" ", "").split(","))
    except ValueError:
        raise CLIError(
            f"cannot parse alpha {spec!r}; use comma-separated integers"
        ) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise CLIError(f"cannot write {out}: {e.strerror or e}") from None


def _cmd_kr_table(args) -> int:
    if not 0 <= args.ell <= args.m:
        raise CLIError(f"need 0 <= ell <= m, got ell={args.ell}, m={args.m}")
    k = math.comb(args.m, args.ell)
    rs = _parse_r_spec(args.r, k) if args.r is not None else list(range(1, k + 1))
    records = []
    for r in rs:
        rec = families.k_r(
            args.ell, args.m, r, args.mode, budget=args.budget_families
        )
        if rec is None:
            raise CLIError(
                f"no closed form applies at (ell={args.ell}, m={args.m}, "
                f"r={r}); use --mode oracle"
            )
        records.append(rec)
    if args.format == "table":
        text = serialize.kr_table_text(records)
    elif args.format == "csv":
        text = serialize.kr_table_csv(records)
    else:
        text = serialize.to_jsonl(serialize.kr_record_doc(rec) for rec in records)
    _emit(text, args.out)
    return 0


def _fmt_bound(value, tight: bool | None) -> str:
    return f"{value}{' (tight)' if tight else ''}"


def _sigma_line(rec) -> str:
    edges = ",".join(f"{u}-{v}" for u, v in rec.maximizer.edge_pairs) or "-"
    th = is_threshold(rec.maximizer).is_threshold
    parts = [
        f"m={rec.m}",
        f"r={rec.r}",
        f"sigma_max={rec.sigma_max}",
        f"edges={edges}",
        f"threshold={'yes' if th else 'NO'}",
        f"de_caen={_fmt_bound(rec.de_caen_bound, rec.de_caen_bound == rec.sigma_max)}",
    ]
    if rec.trivial_bound is not None:
        parts.append(
            f"trivial={_fmt_bound(rec.trivial_bound, rec.trivial_bound == rec.sigma_max)}"
        )
    if rec.dual_bound is not None:
        parts.append(
            f"dual={_fmt_bound(rec.dual_bound, rec.dual_bound == rec.sigma_max)}"
        )
    return " ".join(parts) + "\n"


def _cmd_optimal(args) -> int:
    if args.m < 2:
        raise CLIError(f"need m >= 2, got m={args.m}")
    k = math.comb(args.m, 2)
    rs = _parse_r_spec(args.r, k)
    records = [
        graphs.optimal_graphs(args.m, r, budget=args.budget_families) for r in rs
    ]
    if args.format == "json":
        text = serialize.to_jsonl(serialize.sigma_record_doc(rec) for rec in records)
    else:
        text = "".join(_sigma_line(rec) for rec in records)
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    F = gf.field_from_order(args.q)
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha)
        code = schubert_code(F, alpha, args.ell, args.m, budget=args.budget_subspaces)
    else:
        code = grassmann_code(F, args.ell, args.m, budget=args.budget_subspaces)
    rs = (
        _parse_r_spec(args.r, code.kdim, lower=1)
        if args.r is not None
        else list(range(1, code.kdim + 1))
    )
    reports = [
        verify_conjecture(
            code,
            r,
            family_budget=args.budget_families,
            subcode_budget=args.budget_subspaces,
        )
        for r in rs
    ]
    if args.format == "json":
        text = serialize.to_jsonl(
            serialize.conjecture_report_doc(rep) for rep in reports
        )
    else:
        lines = []
        for rep in reports:
            rhs = "-" if rep.rhs_subclose is None else str(rep.rhs_subclose)
            tag = "proven" if rep.proven else "open"
            lines.append(
                f"r={rep.r} d_r={rep.d_r} rhs_subclose={rhs} "
                f"rhs_all_coordinate={rep.rhs_all_coordinate} "
                f"verdict={rep.verdict} [{tag}]\n"
            )
        text = "".join(lines)
    _emit(text, args.out)
    return 0 if all(rep.verdict == "equal" for rep in reports if rep.proven) else 1


def _cmd_selftest(args) -> int:
    results = run_selftest()
    if args.format == "json":
        text = serialize.canonical_json(serialize.selftest_report_doc(results))
        text += "\n"
    else:
        lines = [f"{'ok  ' if ok else 'FAIL'} {name}\n" for name, ok in results]
        passed = sum(1 for _, ok in results if ok)
        lines.append(f"{passed}/{len(results)} checks passed\n")
        text = "".join(lines)
    _emit(text, args.out)
    return 0 if all(ok for _, ok in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="subclose",
        description=(
            "Exact workbench for intersection-maximal set families, degree "
            "square sums of graphs, and codes built from subspace systems."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    kr = sub.add_parser(
        "kr-table", help="tabulate the maximum pairwise intersection sum K_r"
    )
    kr.add_argument("--ell", type=int, required=True, help="member subset size")
    kr.add_argument("--m", type=int, required=True, help="ground set size")
    kr.add_argument(
        "--r",
        "--r-range",
        dest="r",
        metavar="R",
        help="single value N or inclusive range A..B (default 1..C(m,ell))",
    )
    kr.add_argument(
        "--mode",
        choices=("auto", "closed", "oracle", "both"),
        default="auto",
        help="closed forms only, exhaustive search only, cross-checked, or automatic",
    )
    kr.add_argument("--format", choices=("table", "json", "csv"), default="table")
    kr.add_argument(
        "--budget-families",
        type=int,
        default=families.DEFAULT_FAMILY_BUDGET,
        metavar="N",
        help="largest candidate-family count the search may enumerate",
    )
    kr.add_argument("--out", metavar="FILE", help="write to FILE instead of stdout")
    kr.set_defaults(func=_cmd_kr_table)

    opt = sub.add_parser(
        "optimal", help="maximum degree square sum with witness graph and bounds"
    )
    opt.add_argument("--m", type=int, required=True, help="vertex count")
    opt.add_argument(
        "--r",
        "--r-range",
        dest="r",
        required=True,
        metavar="R",
        help="edge count N or inclusive range A..B",
    )
    opt.add_argument("--format", choices=("table", "json"), default="table")
    opt.add_argument(
        "--budget-families",
        type=int,
        default=families.DEFAULT_FAMILY_BUDGET,
        metavar="N",
    )
    opt.add_argument("--out", metavar="FILE")
    opt.set_defaults(func=_cmd_optimal)

    ver = sub.add_parser(
        "verify",
        help="compare higher code weights against intersection-maximal sections",
    )
    ver.add_argument("--ell", type=int, required=True, help="subspace dimension")
    ver.add_argument("--m", type=int, required=True, help="ambient dimension")
    ver.add_argument("--q", type=int, required=True, help="field order (prime power <= 16)")
    ver.add_argument(
        "--r",
        "--r-range",
        dest="r",
        metavar="R",
        help="subcode rank N or inclusive range A..B (default 1..k)",
    )
    ver.add_argument(
        "--alpha",
        metavar="A1,A2,...",
        help="strictly increasing column bounds restricting to a subvariety",
    )
    ver.add_argument("--format", choices=("table", "json"), default="json")
    ver.add_argument(
        "--budget-families",
        type=int,
        default=families.DEFAULT_FAMILY_BUDGET,
        metavar="N",
    )
    ver.add_argument(
        "--budget-subspaces",
        type=int,
        default=DEFAULT_SUBSPACE_BUDGET,
        metavar="N",
        help="largest subspace/subcode count an enumeration may visit",
    )
    ver.add_argument("--out", metavar="FILE")
    ver.set_defaults(func=_cmd_verify)

    st = sub.add_parser("selftest", help="run the built-in consistency checks")
    st.add_argument("--format", choices=("table", "json"), default="table")
    st.add_argument("--out", metavar="FILE")
    st.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
