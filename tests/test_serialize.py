"""Tests for the stable output formats and their schema."""

import json
from fractions import Fraction

import pytest

from subclose.codes import grassmann_code, schubert_code, verify_conjecture
from subclose.combinat import mask_of
from subclose.families import SubsetFamily, k_r
from subclose.gf import field_from_order
from subclose.graphs import Graph, optimal_graphs
from subclose.serialize import (
    SCHEMA_VERSION,
    canonical_json,
    conjecture_report_doc,
    kr_record_doc,
    kr_table_csv,
    kr_table_text,
    load_schema,
    selftest_report_doc,
    selftest_text,
    sigma_record_doc,
    sigma_text,
    to_json,
    to_jsonl,
    validate_doc,
    verify_text,
)

F2 = field_from_order(2)


def family(ell, m, sets):
    return SubsetFamily(ell, m, tuple(mask_of(s) for s in sets))


def all_example_docs():
    recs = [k_r(2, 5, r) for r in (0, 3, 5, 9)]
    code = grassmann_code(F2, 2, 4)
    return [
        *(kr_record_doc(rec) for rec in recs),
        sigma_record_doc(optimal_graphs(5, 4)),
        sigma_record_doc(optimal_graphs(5, 8)),  # dual-range bound present
        conjecture_report_doc(verify_conjecture(code, 2)),
        conjecture_report_doc(
            verify_conjecture(schubert_code(F2, (2, 4), 2, 4), 1)
        ),
        selftest_report_doc([("a", True, None), ("b", False, "returned False")]),
    ]


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'


def test_to_jsonl_round_trips():
    docs = [{"x": 1}, {"y": [2, 3]}]
    lines = to_jsonl(docs).splitlines()
    assert [json.loads(line) for line in lines] == docs


def test_leaf_converters():
    assert to_json(Fraction(20, 3)) == {"num": 20, "den": 3}
    assert to_json(None) is None
    fam = family(2, 5, [(4, 5), (1, 2)])
    assert to_json(fam) == [[1, 2], [4, 5]]
    g = Graph(4, family(2, 4, [(1, 2), (3, 4)]))
    assert to_json(g) == {"m": 4, "edges": [[1, 2], [3, 4]]}


def test_documents_are_their_records_fields():
    # a document's keys are its record's fields plus the envelope and the
    # keys derived from the fields, and its schema alternative requires and
    # allows exactly those
    alternatives = {
        alt["properties"]["type"]["const"]: alt for alt in load_schema()["oneOf"]
    }
    tightness = ("maximizer_is_threshold", "de_caen_tight", "trivial_tight",
                 "dual_tight")
    for rec, build, derived in (
        (k_r(2, 5, 5), kr_record_doc, ()),
        (optimal_graphs(5, 4), sigma_record_doc, tightness),
        (verify_conjecture(grassmann_code(F2, 2, 4), 2), conjecture_report_doc, ()),
    ):
        doc = build(rec)
        keys = {*rec._fields, "schema_version", "type", *derived}
        alt = alternatives[doc["type"]]
        assert set(doc) == keys
        assert set(alt["required"]) == keys
        assert set(alt["properties"]) == keys


def test_kr_record_doc_shape():
    doc = kr_record_doc(k_r(2, 5, 4))
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["type"] == "kr_record"
    assert doc["value"] == 6
    assert doc["method"] == "closed_form_low"
    assert doc["maximizer"] == [[1, 2], [1, 3], [1, 4], [1, 5]]


def test_sigma_record_doc_tightness_fields():
    doc = sigma_record_doc(optimal_graphs(5, 4))
    assert doc["sigma_max"] == 20
    assert doc["maximizer_is_threshold"] is True
    assert doc["de_caen_bound"] == {"num": 20, "den": 1}
    assert doc["de_caen_tight"] is True
    assert doc["trivial_bound"] == 20 and doc["trivial_tight"] is True
    assert doc["dual_bound"] is None and doc["dual_tight"] is None
    dense = sigma_record_doc(optimal_graphs(5, 8))
    assert dense["trivial_bound"] is None and dense["trivial_tight"] is None
    assert dense["dual_bound"] == 54 and dense["dual_tight"] is True


def test_all_documents_validate():
    for doc in all_example_docs():
        validate_doc(doc)


# values each top-level field of each example document is set to
MUTATIONS = (
    None, True, 0, 1, -1, 6.0, 6.5, "x", "1", "kr_record", [], [[0, 1]],
    [[1, 2]], {}, {"num": 1, "den": 0}, {"num": 1, "den": 1},
    {"m": 4, "edges": [[1, 2]]}, {"m": 4, "edges": [[1, 2]], "x": 1},
    [{"name": "a", "ok": True}],
)


def mutated_docs():
    for doc in all_example_docs():
        yield doc
        yield doc | {"extra_field": 1}
        for key in doc:
            yield {k: v for k, v in doc.items() if k != key}
            for value in MUTATIONS:
                yield doc | {key: value}


def conforms(doc) -> bool:
    try:
        validate_doc(doc)
    except ValueError:
        return False
    return True


def test_documents_validate_against_bundled_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = load_schema()
    for doc in all_example_docs():
        jsonschema.validate(doc, schema)
    # the interpreter and a full JSON Schema implementation agree
    reference = jsonschema.Draft202012Validator(schema)
    disagree = [
        doc for doc in mutated_docs() if conforms(doc) != reference.is_valid(doc)
    ]
    assert not disagree, f"{len(disagree)} disagreements, e.g. {disagree[0]}"


# the keywords validate_doc interprets, and those it reads as annotations
INTERPRETED = {
    "$ref", "oneOf", "type", "const", "enum", "minimum",
    "required", "properties", "additionalProperties", "items",
}
ANNOTATIONS = {"$schema", "$id", "title", "$defs"}
TYPES = {"null", "boolean", "integer", "string", "array", "object"}


def test_schema_uses_only_interpreted_keywords():
    schema = load_schema()
    found = []

    def walk(node, path):
        for key in sorted(set(node) - INTERPRETED - ANNOTATIONS):
            found.append(f"{path}: keyword {key!r}")
        if node.get("type", "null") not in TYPES:
            found.append(f"{path}: type {node['type']!r}")
        if node.get("additionalProperties", False) is not False:
            found.append(f"{path}: additionalProperties other than false")
        ref = node.get("$ref", "#/$defs/family")
        if ref.removeprefix("#/$defs/") not in schema["$defs"]:
            found.append(f"{path}: $ref {ref!r}")
        for name, sub in {**node.get("$defs", {}), **node.get("properties", {})}.items():
            walk(sub, f"{path}.{name}")
        for i, sub in enumerate(node.get("oneOf", ())):
            walk(sub, f"{path}.oneOf[{i}]")
        if "items" in node:
            walk(node["items"], f"{path}.items")

    walk(schema, "$")
    assert not found, "; ".join(found)


def test_validate_doc_rejects_bad_documents():
    good = kr_record_doc(k_r(2, 5, 4))
    for breakage in (
        {"schema_version": "2"},
        {"type": "mystery"},
        {"value": "six"},
        {"method": "guesswork"},
        {"extra_field": 1},
        {"value": True},
        {"maximizer_count": 0},
        {"maximizer": [[0, 1]]},
        {"ell": -1},
    ):
        doc = dict(good) | breakage
        with pytest.raises(ValueError, match="does not conform"):
            validate_doc(doc)
    with pytest.raises(ValueError):
        validate_doc({k: v for k, v in good.items() if k != "value"})
    rep = conjecture_report_doc(verify_conjecture(grassmann_code(F2, 2, 4), 1))
    with pytest.raises(ValueError):
        validate_doc(dict(rep) | {"verdict": "maybe"})
    sig = sigma_record_doc(optimal_graphs(5, 4))
    for breakage in (
        {"de_caen_bound": {"num": 1, "den": 0}},
        {"maximizer": sig["maximizer"] | {"extra": 1}},
    ):
        with pytest.raises(ValueError, match="does not conform"):
            validate_doc(sig | breakage)


def test_schema_lists_all_document_types():
    schema = load_schema()
    types = set()
    for variant in schema["oneOf"]:
        types.add(variant["properties"]["type"]["const"])
    assert types == {
        "kr_record",
        "sigma_record",
        "conjecture_report",
        "selftest_report",
    }


def test_kr_table_text_layout():
    records = [k_r(2, 5, r) for r in range(1, 5)]
    assert kr_table_text(records) == (
        "  r  1  2  3  4\n"
        "K_r  0  1  3  6\n"
    )


def test_kr_table_text_aligns_wide_values():
    records = [k_r(2, 6, r) for r in (14, 15)]
    assert kr_table_text(records) == (
        "  r  14  15\n"
        "K_r  52  60\n"
    )


def test_kr_table_csv():
    records = [k_r(2, 5, r) for r in (4, 5)]
    assert kr_table_csv(records) == (
        "ell,m,r,value,method\n"
        "2,5,4,6,closed_form_low\n"
        "2,5,5,8,brute_force\n"
    )


# The text layouts of optimal, verify and selftest read the documents that
# --format json prints; these are built by hand, so no search runs.

SIGMA_DOC = {
    "schema_version": SCHEMA_VERSION,
    "type": "sigma_record",
    "m": 4,
    "r": 0,
    "sigma_max": 0,
    "maximizer": {"m": 4, "edges": []},
    "maximizer_is_threshold": False,
    "de_caen_bound": {"num": 7, "den": 2},
    "de_caen_tight": False,
    "trivial_bound": None,
    "trivial_tight": None,
    "dual_bound": None,
    "dual_tight": None,
}


def test_sigma_text_reads_the_document():
    validate_doc(SIGMA_DOC)
    assert sigma_text(SIGMA_DOC) == (
        "m=4 r=0 sigma_max=0 edges=- threshold=NO de_caen=7/2\n"
    )
    doc = dict(
        SIGMA_DOC,
        r=2,
        sigma_max=6,
        maximizer={"m": 4, "edges": [[1, 2], [1, 3]]},
        maximizer_is_threshold=True,
        de_caen_bound={"num": 6, "den": 1},
        de_caen_tight=True,
        trivial_bound=6,
        trivial_tight=True,
        dual_bound=8,
        dual_tight=False,
    )
    validate_doc(doc)
    assert sigma_text(doc) == (
        "m=4 r=2 sigma_max=6 edges=1-2,1-3 threshold=yes de_caen=6 (tight) "
        "trivial=6 (tight) dual=8\n"
    )


def test_verify_text_reads_the_document():
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type": "conjecture_report",
        "ell": 2,
        "m": 4,
        "q": 2,
        "alpha": [2, 4],
        "r": 3,
        "n": 7,
        "code_dimension": 5,
        "d_r": 6,
        "k_r_target": 2,
        "rhs_subclose": None,
        "rhs_all_coordinate": 5,
        "verdict": "no_subclose",
        "witness_lambda": None,
        "proven": False,
    }
    validate_doc(doc)
    assert verify_text(doc) == (
        "r=3 d_r=6 rhs_subclose=- rhs_all_coordinate=5 verdict=no_subclose [open]\n"
    )
    proven = dict(doc, rhs_subclose=6, verdict="equal", proven=True)
    assert verify_text(proven) == (
        "r=3 d_r=6 rhs_subclose=6 rhs_all_coordinate=5 verdict=equal [proven]\n"
    )


def test_selftest_text_reads_the_document():
    doc = {
        "schema_version": SCHEMA_VERSION,
        "type": "selftest_report",
        "ok": False,
        "checks": [{"name": "boom", "ok": False}, {"name": "fine", "ok": True}],
    }
    validate_doc(doc)
    assert selftest_text(doc) == "FAIL boom\nok   fine\n1/2 checks passed\n"


def test_serialization_is_deterministic():
    a = to_jsonl(all_example_docs())
    b = to_jsonl(all_example_docs())
    assert a == b
