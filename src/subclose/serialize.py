"""Stable output formats: JSON documents, JSONL streams, text tables, CSV.

Every JSON document carries schema_version and a type discriminator and is
emitted in canonical form (sorted keys, compact separators), so identical
inputs serialize to identical bytes.  The bundled JSON Schema, shipped as
package data, is the one description of every document type: validate_doc
interprets it directly, without external dependencies.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from importlib.resources import files

from .codes import ConjectureReport
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


_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    # JSON Schema integers: true is not one, 6.0 is
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _json_equal(a, b) -> bool:
    # booleans are not numbers in JSON, so true != 1
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _mismatch(v, node: dict, defs: dict, path: str):
    """The first way v fails the schema node, or None.

    A mismatch is (weight, path, reason).  When no oneOf alternative
    matches, the heaviest mismatch is reported: a failed const says the
    value is another alternative, a failed type that it is the wrong kind,
    anything else that it is this alternative with a fault in it.  Deeper
    paths weigh more within each class.
    """
    depth = path.count(".") + path.count("[")
    if "$ref" in node:
        found = _mismatch(v, defs[node["$ref"].removeprefix("#/$defs/")], defs, path)
        if found:
            return found
    if "oneOf" in node:
        found = [_mismatch(v, alt, defs, path) for alt in node["oneOf"]]
        matched = found.count(None)
        if matched == 0:
            return max(found, key=lambda f: f[0])
        if matched > 1:
            return (2, depth), path, f"{v!r} matches {matched} oneOf alternatives"
    if "type" in node and not _TYPES[node["type"]](v):
        return (1, depth), path, f"{v!r} is not of type {node['type']}"
    if "const" in node and not _json_equal(v, node["const"]):
        return (0, depth), path, f"{v!r} is not {node['const']!r}"
    if "enum" in node and not any(_json_equal(v, e) for e in node["enum"]):
        return (2, depth), path, f"{v!r} is not one of {node['enum']}"
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if "minimum" in node and number and v < node["minimum"]:
        return (2, depth), path, f"{v!r} is below {node['minimum']}"
    if isinstance(v, dict):
        props = node.get("properties", {})
        for key, sub in props.items():
            found = key in v and _mismatch(v[key], sub, defs, f"{path}.{key}")
            if found:
                return found
        for key in node.get("required", ()):
            if key not in v:
                return (2, depth), path, f"missing required property {key!r}"
        if node.get("additionalProperties") is False:
            for key in v:
                if key not in props:
                    return (2, depth), path, f"unexpected property {key!r}"
    if isinstance(v, list) and "items" in node:
        for i, x in enumerate(v):
            found = _mismatch(x, node["items"], defs, f"{path}[{i}]")
            if found:
                return found
    return None


def validate_doc(doc: dict) -> None:
    """Check a document against the bundled schema, read on each call.

    Raises ValueError naming the first mismatch and its JSON path, for
    example ``$.maximizer[0][0]: 0 is below 1``.
    """
    schema = load_schema()
    found = _mismatch(doc, schema, schema.get("$defs", {}), "$")
    if found:
        _, path, reason = found
        raise ValueError(f"document does not conform: {path}: {reason}")
