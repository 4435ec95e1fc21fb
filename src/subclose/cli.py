"""Batch command line front end: parse, compute, and emit once.

Each handler returns its text, laid out by serialize, and whether its
checks held; main writes the text and maps that verdict to the exit
status.  Every subcommand is deterministic given its parameters: repeated
runs produce identical bytes.  Exit status 0 means success (for verify:
every instance inside a proven regime checks out; open-regime verdicts are
informational), 1 means a check failed or a budget was exceeded, 2 means
the parameters were invalid, or the output could not be written.

Every command is a process of its own and pays for what this module
loads, so graphs and selftest are imported by the one handler each that
uses them.  The codes entry points stay names in this module, where
perfbench's tracer wraps them.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import families, gf, serialize
from .codes import (
    DEFAULT_SUBSPACE_BUDGET,
    grassmann_code,
    schubert_code,
    verify_conjecture,
)
from .families import BudgetError


class CLIError(Exception):
    """Bad parameters; the command exits with status 2."""


def _parse_r_spec(spec: str | None, upper: int, lower: int = 0) -> range:
    """The r values of N or A..B within lower..upper; 1..upper when absent.

    A range, not a list: the default range of a large lattice has more
    values than memory holds, and a budget refuses a row long before.
    """
    if spec is None:
        return range(1, upper + 1)
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
    return range(lo, hi + 1)


def _parse_alpha(spec: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in spec.replace(" ", "").split(","))
    except ValueError:
        raise CLIError(
            f"cannot parse alpha {spec!r}; use comma-separated integers"
        ) from None


def _check_budgets(args) -> None:
    """Refuse a negative budget; 0 is valid and refuses all work."""
    for option in ("budget_families", "budget_subspaces"):
        budget = getattr(args, option, 0)
        if budget < 0:
            flag = "--" + option.replace("_", "-")
            raise CLIError(f"{flag} must be at least 0, got {budget}")


def _emit(text: str, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as e:
        if out is None:
            _drop_stdout()
        target = "stdout" if out is None else out
        raise CLIError(f"cannot write {target}: {e.strerror or e}") from None


def _drop_stdout() -> None:
    """Close stdout, dropping the text it could not take; the interpreter
    would otherwise flush it again at exit and report that failure too."""
    try:
        sys.stdout.close()
    except OSError:
        # closing flushes first, and that flush fails the same way
        pass


def _cmd_kr_table(args) -> tuple[str, bool]:
    if not 0 <= args.ell <= args.m:
        raise CLIError(f"need 0 <= ell <= m, got ell={args.ell}, m={args.m}")
    records = []
    for r in _parse_r_spec(args.r, math.comb(args.m, args.ell)):
        rec = families.k_r(
            args.ell, args.m, r, args.mode, budget=args.budget_families
        )
        if rec is None:
            raise CLIError(
                f"no closed form applies at (ell={args.ell}, m={args.m}, "
                f"r={r}); use --mode oracle"
            )
        records.append(rec)
    return serialize.kr_table_output(records, args.format), True


def _cmd_optimal(args) -> tuple[str, bool]:
    from . import graphs

    if args.m < 2:
        raise CLIError(f"need m >= 2, got m={args.m}")
    docs = [
        serialize.sigma_record_doc(
            graphs.optimal_graphs(args.m, r, budget=args.budget_families)
        )
        for r in _parse_r_spec(args.r, math.comb(args.m, 2))
    ]
    return serialize.docs_output(docs, args.format, serialize.sigma_text), True


def _cmd_verify(args) -> tuple[str, bool]:
    F = gf.field_from_order(args.q)
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha)
        code = schubert_code(F, alpha, args.ell, args.m, budget=args.budget_subspaces)
    else:
        code = grassmann_code(F, args.ell, args.m, budget=args.budget_subspaces)
    docs = [
        serialize.conjecture_report_doc(
            verify_conjecture(
                code,
                r,
                family_budget=args.budget_families,
                subcode_budget=args.budget_subspaces,
            )
        )
        for r in _parse_r_spec(args.r, code.kdim, lower=1)
    ]
    # open-regime verdicts are informational
    ok = all(doc["verdict"] == "equal" for doc in docs if doc["proven"])
    return serialize.docs_output(docs, args.format, serialize.verify_text), ok


def _cmd_selftest(args) -> tuple[str, bool]:
    from . import selftest

    doc = serialize.selftest_report_doc(selftest.run_selftest())
    return serialize.docs_output([doc], args.format, serialize.selftest_text), doc["ok"]


def _add_shared(parser, func, formats, default="table", search=True) -> None:
    """The options every command declares alike, and its handler."""
    parser.add_argument("--format", choices=formats, default=default)
    if search:
        parser.add_argument(
            "--budget-families",
            type=int,
            default=families.DEFAULT_FAMILY_BUDGET,
            metavar="N",
            help="largest candidate-family count the search may enumerate",
        )
    parser.add_argument("--out", metavar="FILE", help="write to FILE instead of stdout")
    parser.set_defaults(func=func)


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
        metavar="R",
        help="single value N or inclusive range A..B (default 1..C(m,ell))",
    )
    kr.add_argument(
        "--mode",
        choices=("auto", "closed", "oracle", "both"),
        default="auto",
        help="closed forms only, exhaustive search only, cross-checked, or automatic",
    )
    _add_shared(kr, _cmd_kr_table, ("table", "json", "csv"))

    opt = sub.add_parser(
        "optimal", help="maximum degree square sum with witness graph and bounds"
    )
    opt.add_argument("--m", type=int, required=True, help="vertex count")
    opt.add_argument(
        "--r",
        required=True,
        metavar="R",
        help="edge count N or inclusive range A..B",
    )
    _add_shared(opt, _cmd_optimal, ("table", "json"))

    ver = sub.add_parser(
        "verify",
        help="compare higher code weights against intersection-maximal sections",
    )
    ver.add_argument("--ell", type=int, required=True, help="subspace dimension")
    ver.add_argument("--m", type=int, required=True, help="ambient dimension")
    ver.add_argument("--q", type=int, required=True, help="field order (prime power <= 16)")
    ver.add_argument(
        "--r",
        metavar="R",
        help="subcode rank N or inclusive range A..B (default 1..k)",
    )
    ver.add_argument(
        "--alpha",
        metavar="A1,A2,...",
        help="strictly increasing column bounds restricting to a subvariety",
    )
    ver.add_argument(
        "--budget-subspaces",
        type=int,
        default=DEFAULT_SUBSPACE_BUDGET,
        metavar="N",
        help="largest subspace/subcode count an enumeration may visit",
    )
    _add_shared(ver, _cmd_verify, ("table", "json"), default="json")

    st = sub.add_parser("selftest", help="run the built-in consistency checks")
    _add_shared(st, _cmd_selftest, ("table", "json"), search=False)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_budgets(args)
        text, ok = args.func(args)
        _emit(text, args.out)
        return 0 if ok else 1
    except (CLIError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
