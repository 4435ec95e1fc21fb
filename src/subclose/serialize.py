"""Stable output formats: JSON documents, JSONL streams, text tables, CSV.

Every JSON document carries schema_version and a type discriminator and is
emitted in canonical form (sorted keys, compact separators), so identical
inputs serialize to identical bytes.  The bundled JSON Schema describing
all document types ships as package data; validate_doc performs the same
structural checks without external dependencies.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from importlib.resources import files

from .codes import CodeSystem, ConjectureReport
from .families import KrRecord, SubsetFamily
from .graphs import Graph, SigmaRecord, is_threshold

SCHEMA_VERSION = "1"


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def to_jsonl(docs) -> str:
    return "".join(canonical_json(d) + "\n" for d in docs)


def family_json(fam: SubsetFamily | None) -> list[list[int]] | None:
    """A family as sorted 1-based member lists, colex member order."""
    if fam is None:
        return None
    return [list(s) for s in fam.sets]


def graph_json(g: Graph) -> dict:
    return {"m": g.m, "edges": [list(e) for e in g.edge_pairs]}


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def kr_record_doc(rec: KrRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "kr_record",
        "ell": rec.ell,
        "m": rec.m,
        "r": rec.r,
        "value": rec.value,
        "method": rec.method,
        "maximizer": family_json(rec.maximizer),
        "maximizer_count": rec.maximizer_count,
    }


def sigma_record_doc(rec: SigmaRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "sigma_record",
        "m": rec.m,
        "r": rec.r,
        "sigma_max": rec.sigma_max,
        "maximizer": graph_json(rec.maximizer),
        "maximizer_is_threshold": is_threshold(rec.maximizer).is_threshold,
        "de_caen_bound": fraction_json(rec.de_caen_bound),
        "de_caen_tight": rec.de_caen_bound == rec.sigma_max,
        "trivial_bound": rec.trivial_bound,
        "trivial_tight": (
            None if rec.trivial_bound is None else rec.trivial_bound == rec.sigma_max
        ),
        "dual_bound": rec.dual_bound,
        "dual_tight": (
            None if rec.dual_bound is None else rec.dual_bound == rec.sigma_max
        ),
    }


def conjecture_report_doc(rep: ConjectureReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "conjecture_report",
        "ell": rep.ell,
        "m": rep.m,
        "q": rep.q,
        "alpha": list(rep.alpha) if rep.alpha is not None else None,
        "r": rep.r,
        "n": rep.n,
        "code_dimension": rep.code_dimension,
        "d_r": rep.d_r,
        "k_r_target": rep.k_r_target,
        "rhs_subclose": rep.rhs_subclose,
        "rhs_all_coordinate": rep.rhs_all_coordinate,
        "verdict": rep.verdict,
        "witness_lambda": (
            [list(s) for s in rep.witness_lambda]
            if rep.witness_lambda is not None
            else None
        ),
        "proven": rep.proven,
    }


def selftest_report_doc(mode: str, checks: list[tuple[str, bool]]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "selftest_report",
        "mode": mode,
        "ok": all(ok for _, ok in checks),
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
    }


def generator_matrix_doc(code: CodeSystem) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "generator_matrix",
        "q": code.F.q,
        "n": code.n,
        "dimension": code.kdim,
        "rows": [list(row) for row in code.generator],
        "row_labels": [list(lab) for lab in code.row_labels],
    }


def kr_table_text(records) -> str:
    """Two aligned rows, r values over K_r values."""
    records = list(records)
    cells = [("r", "K_r")] + [(str(rec.r), str(rec.value)) for rec in records]
    widths = [max(len(a), len(b)) for a, b in cells]
    top = "  ".join(a.rjust(w) for (a, _), w in zip(cells, widths))
    bot = "  ".join(b.rjust(w) for (_, b), w in zip(cells, widths))
    return top + "\n" + bot + "\n"


def kr_table_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ell", "m", "r", "value", "method"])
    for rec in records:
        writer.writerow([rec.ell, rec.m, rec.r, rec.value, rec.method])
    return buf.getvalue()


def load_schema() -> dict:
    text = (files("subclose") / "schema" / "output.schema.json").read_text()
    return json.loads(text)


def _is_family(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(s, list) and all(isinstance(x, int) for x in s) for s in v
    )


def _fail(msg: str):
    raise ValueError(f"document does not conform: {msg}")


def validate_doc(doc: dict) -> None:
    """Structural validation mirroring the bundled schema.  Raises
    ValueError on the first problem found."""
    if not isinstance(doc, dict):
        _fail("not an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        _fail(f"schema_version must be {SCHEMA_VERSION!r}")
    kind = doc.get("type")
    specs: dict[str, dict] = {
        "kr_record": {
            "ell": lambda v: isinstance(v, int),
            "m": lambda v: isinstance(v, int),
            "r": lambda v: isinstance(v, int),
            "value": lambda v: isinstance(v, int),
            "method": lambda v: v
            in ("closed_form_low", "closed_form_high", "brute_force"),
            "maximizer": lambda v: v is None or _is_family(v),
            "maximizer_count": lambda v: v is None or isinstance(v, int),
        },
        "sigma_record": {
            "m": lambda v: isinstance(v, int),
            "r": lambda v: isinstance(v, int),
            "sigma_max": lambda v: isinstance(v, int),
            "maximizer": lambda v: isinstance(v, dict)
            and isinstance(v.get("m"), int)
            and _is_family(v.get("edges")),
            "maximizer_is_threshold": lambda v: isinstance(v, bool),
            "de_caen_bound": lambda v: isinstance(v, dict)
            and isinstance(v.get("num"), int)
            and isinstance(v.get("den"), int),
            "de_caen_tight": lambda v: isinstance(v, bool),
            "trivial_bound": lambda v: v is None or isinstance(v, int),
            "trivial_tight": lambda v: v is None or isinstance(v, bool),
            "dual_bound": lambda v: v is None or isinstance(v, int),
            "dual_tight": lambda v: v is None or isinstance(v, bool),
        },
        "conjecture_report": {
            "ell": lambda v: isinstance(v, int),
            "m": lambda v: isinstance(v, int),
            "q": lambda v: isinstance(v, int),
            "alpha": lambda v: v is None
            or (isinstance(v, list) and all(isinstance(x, int) for x in v)),
            "r": lambda v: isinstance(v, int),
            "n": lambda v: isinstance(v, int),
            "code_dimension": lambda v: isinstance(v, int),
            "d_r": lambda v: isinstance(v, int),
            "k_r_target": lambda v: isinstance(v, int),
            "rhs_subclose": lambda v: v is None or isinstance(v, int),
            "rhs_all_coordinate": lambda v: isinstance(v, int),
            "verdict": lambda v: v
            in ("equal", "lhs_less", "lhs_greater", "no_subclose"),
            "witness_lambda": lambda v: v is None or _is_family(v),
            "proven": lambda v: isinstance(v, bool),
        },
        "selftest_report": {
            "mode": lambda v: v in ("fast", "full"),
            "ok": lambda v: isinstance(v, bool),
            "checks": lambda v: isinstance(v, list)
            and all(
                isinstance(c, dict)
                and isinstance(c.get("name"), str)
                and isinstance(c.get("ok"), bool)
                for c in v
            ),
        },
        "generator_matrix": {
            "q": lambda v: isinstance(v, int),
            "n": lambda v: isinstance(v, int),
            "dimension": lambda v: isinstance(v, int),
            "rows": lambda v: _is_family(v),
            "row_labels": lambda v: _is_family(v),
        },
    }
    if kind not in specs:
        _fail(f"unknown type {kind!r}")
    spec = specs[kind]
    for key, check in spec.items():
        if key not in doc:
            _fail(f"{kind} missing field {key!r}")
        if not check(doc[key]):
            _fail(f"{kind} field {key!r} has invalid value {doc[key]!r}")
    extra = set(doc) - set(spec) - {"schema_version", "type"}
    if extra:
        _fail(f"{kind} has unexpected fields {sorted(extra)}")
