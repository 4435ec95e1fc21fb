"""Every output layout: JSON documents, JSONL streams, text rows, CSV.

Every JSON document carries schema_version and a type discriminator and is
emitted in canonical form (sorted keys, compact separators), so identical
inputs serialize to identical bytes.  The bundled JSON Schema, shipped as
package data, is the one description of every document type: validate_doc
interprets it directly, without external dependencies.  A record's
document is its fields, laid out by to_json, plus the keys derived from
them, so no field list is written out here.  The optimal,
verify and selftest text rows read the same documents, so every fact they
print has one source; kr-table's rows and CSV read its records.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib.resources import files

from .codes import ConjectureReport
from .combinat import Record
from .families import KrRecord, SubsetFamily
from .graphs import SigmaRecord, is_threshold

SCHEMA_VERSION = "1"


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def to_jsonl(docs) -> str:
    return "".join(canonical_json(d) + "\n" for d in docs)


def to_json(value):
    """One value as JSON data: a family as its sorted 1-based member lists
    in colex member order, any other record as an object of its fields, a
    fraction as {num, den}, a tuple as a list, anything else unchanged."""
    # a family is a record too, so it is matched first
    if isinstance(value, SubsetFamily):
        return [list(s) for s in value.sets]
    if isinstance(value, Record):
        return {name: to_json(getattr(value, name)) for name in value._fields}
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, tuple):
        return [to_json(x) for x in value]
    return value


def record_doc(kind: str, rec: Record, **derived) -> dict:
    """The document of type kind laying out rec: its fields, then the keys
    derived from them."""
    return {"schema_version": SCHEMA_VERSION, "type": kind, **to_json(rec), **derived}


def kr_record_doc(rec: KrRecord) -> dict:
    return record_doc("kr_record", rec)


def sigma_record_doc(rec: SigmaRecord) -> dict:
    """A sigma_record, with the maximizer's threshold flag and whether each
    bound is tight (None where the bound does not apply)."""
    top = rec.sigma_max
    return record_doc(
        "sigma_record",
        rec,
        maximizer_is_threshold=is_threshold(rec.maximizer).is_threshold,
        de_caen_tight=rec.de_caen_bound == top,
        trivial_tight=None if rec.trivial_bound is None else rec.trivial_bound == top,
        dual_tight=None if rec.dual_bound is None else rec.dual_bound == top,
    )


def conjecture_report_doc(rep: ConjectureReport) -> dict:
    return record_doc("conjecture_report", rep)


def selftest_report_doc(checks: list[tuple[str, bool, str | None]]) -> dict:
    """A selftest_report from (name, ok, reason) triples; a check's item
    has a reason only when it failed with one."""
    items = []
    for name, ok, reason in checks:
        item = {"name": name, "ok": ok}
        if reason is not None:
            item["reason"] = reason
        items.append(item)
    return {
        "schema_version": SCHEMA_VERSION,
        "type": "selftest_report",
        "ok": all(ok for _, ok, _ in checks),
        "checks": items,
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
    """A header and one row per record; the cells are ints and method
    names, which never need quoting."""
    rows = [("ell", "m", "r", "value", "method")]
    rows += [(rec.ell, rec.m, rec.r, rec.value, rec.method) for rec in records]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def kr_table_output(records, fmt: str) -> str:
    """kr-table's output: aligned rows, CSV, or one kr_record per line.

    The row and CSV layouts read the records, so they never build a
    document for a witness they do not print.
    """
    if fmt == "table":
        return kr_table_text(records)
    if fmt == "csv":
        return kr_table_csv(records)
    return to_jsonl(kr_record_doc(rec) for rec in records)


def docs_output(docs, fmt: str, text) -> str:
    """One canonical JSON line per document, or text(doc) for each."""
    if fmt == "json":
        return to_jsonl(docs)
    return "".join(map(text, docs))


def sigma_text(doc: dict) -> str:
    """An optimal row: the maximum, its witness graph and the bounds that
    apply, each marked where it is tight."""
    edges = ",".join(f"{u}-{v}" for u, v in doc["maximizer"]["edges"]) or "-"
    de_caen = doc["de_caen_bound"]
    bounds = {
        "de_caen": Fraction(de_caen["num"], de_caen["den"]),
        "trivial": doc["trivial_bound"],
        "dual": doc["dual_bound"],
    }
    parts = [
        f"m={doc['m']} r={doc['r']} sigma_max={doc['sigma_max']} edges={edges}",
        f"threshold={'yes' if doc['maximizer_is_threshold'] else 'NO'}",
    ]
    parts += [
        f"{name}={bound}{' (tight)' if doc[name + '_tight'] else ''}"
        for name, bound in bounds.items()
        if bound is not None
    ]
    return " ".join(parts) + "\n"


def verify_text(doc: dict) -> str:
    """A verify row: d_r against both sections, and its verdict's regime."""
    rhs = "-" if doc["rhs_subclose"] is None else doc["rhs_subclose"]
    regime = "proven" if doc["proven"] else "open"
    return (
        f"r={doc['r']} d_r={doc['d_r']} rhs_subclose={rhs} "
        f"rhs_all_coordinate={doc['rhs_all_coordinate']} "
        f"verdict={doc['verdict']} [{regime}]\n"
    )


def selftest_text(doc: dict) -> str:
    """One row per check, a failed one followed by its reason, then the
    tally."""
    checks = doc["checks"]
    rows = [
        f"{'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
        + (f": {c['reason']}" if "reason" in c else "")
        + "\n"
        for c in checks
    ]
    passed = sum(c["ok"] for c in checks)
    return "".join(rows) + f"{passed}/{len(checks)} checks passed\n"


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
