"""The package's immutable records behave as frozen dataclasses did:
fields are read-only, equal fields give equal objects with equal hashes,
defaults and validation hold, and the repr format is unchanged."""

import pytest

from subclose.codes import grassmann_code, verify_conjecture
from subclose.families import (
    CloseFamilyWitness,
    CloseKind,
    KrRecord,
    SubsetFamily,
    k_r,
)
from subclose.gf import build_field, field_from_order
from subclose.graphs import (
    Graph,
    ThresholdCertificate,
    dual_bound_check,
    is_threshold,
    optimal_graphs,
    trivial_bound_check,
)


def small_code():
    return grassmann_code(field_from_order(2), 2, 4)


# each factory builds an equal record afresh on every call
RECORDS = {
    "CloseFamilyWitness": lambda: CloseFamilyWitness(CloseKind.TYPE_I, (1,), (2, 3)),
    "SubsetFamily": lambda: SubsetFamily(2, 4, (5, 3)),
    "KrRecord": lambda: k_r(2, 5, 5),
    "FieldTable": lambda: build_field(2, 2),
    "Graph": lambda: Graph(4, SubsetFamily(2, 4, (3, 5))),
    "ThresholdCertificate": lambda: is_threshold(Graph(4, SubsetFamily(2, 4, (3,)))),
    "SigmaRecord": lambda: optimal_graphs(4, 2),
    "TrivialBoundReport": lambda: trivial_bound_check(4, 2),
    "DualBoundReport": lambda: dual_bound_check(4, 5),
    "CodeSystem": small_code,
    "ConjectureReport": lambda: verify_conjecture(small_code(), 1),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_frozen(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name
    first = next(iter(type(rec).__annotations__))
    with pytest.raises(AttributeError):
        setattr(rec, first, getattr(rec, first))
    with pytest.raises(AttributeError):
        delattr(rec, first)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object()


def test_unequal_fields_give_unequal_records():
    assert SubsetFamily(2, 4, (3,)) != SubsetFamily(2, 4, (5,))
    assert CloseFamilyWitness(CloseKind.TYPE_I) != CloseFamilyWitness(CloseKind.BOTH)
    assert k_r(2, 5, 5) != k_r(2, 5, 6)
    assert len({SubsetFamily(2, 4, (3,)), SubsetFamily(2, 4, (3,))}) == 1


def test_code_system_equality_compares_every_field():
    code = small_code()
    fields = (code.F, code.ell, code.m, code.alpha, code.points, code.row_positions)
    same = type(code)(*fields)
    assert same == code and hash(same) == hash(code)
    # a field of another order, an alpha, or one point fewer: each differs
    assert type(code)(field_from_order(3), *fields[1:]) != code
    assert type(code)(*fields[:3], (1, 4), *fields[4:]) != code
    assert type(code)(*fields[:4], code.points[1:], code.row_positions) != code


def test_code_system_keeps_cached_properties():
    # the support table is built on first use; the row masks are not a
    # probe here, since construction reads them for its vanishing check
    code = small_code()
    assert "support_table" not in vars(code)
    assert code.support_table is code.support_table
    assert "support_table" in vars(code)


def test_defaults_hold():
    w = CloseFamilyWitness(CloseKind.NOT_CLOSE)
    assert (w.core, w.tail) == (None, None)
    assert ThresholdCertificate(False).build_sequence is None
    fam = SubsetFamily(2, 4, (3,))
    assert KrRecord(2, 4, 1, 0, "closed_form_low", fam).maximizer_count is None
    F = build_field(2, 1)
    assert F.modulus is None
    assert type(F)(F.p, F.e, F.q, F.add, F.mul, F.neg, F.inv) == F


def test_positional_and_keyword_construction_agree():
    fam = SubsetFamily(2, 4, (5, 3))
    assert SubsetFamily(ell=2, m=4, members=(5, 3)) == fam
    assert SubsetFamily(2, m=4, members=(3, 5)) == fam
    w = CloseFamilyWitness(CloseKind.TYPE_II, tail=(1, 2))
    assert (w.kind, w.core, w.tail) == (CloseKind.TYPE_II, None, (1, 2))
    with pytest.raises(TypeError):
        SubsetFamily(2, 4)
    with pytest.raises(TypeError):
        SubsetFamily(2, 4, (3,), ell=2)
    with pytest.raises(TypeError):
        SubsetFamily(2, 4, (3,), size=1)
    with pytest.raises(TypeError):
        SubsetFamily(2, 4, (3,), (5,))


def test_subset_family_validates_and_sorts():
    assert SubsetFamily(2, 4, (10, 3, 5)).members == (3, 5, 10)
    with pytest.raises(ValueError, match="duplicate member"):
        SubsetFamily(2, 4, (3, 3))
    with pytest.raises(ValueError, match="is not an 2-subset"):
        SubsetFamily(2, 4, (7,))
    with pytest.raises(ValueError, match="leaves the ground set"):
        SubsetFamily(2, 3, (9,))
    with pytest.raises(ValueError, match="need 0 <= ell <= m"):
        SubsetFamily(3, 2, ())


def test_graph_refuses_other_edge_sizes():
    with pytest.raises(ValueError, match="edge family must have ell=2"):
        Graph(4, SubsetFamily(3, 4, (7,)))
    with pytest.raises(ValueError, match="different ground set"):
        Graph(5, SubsetFamily(2, 4, (3,)))


def test_repr_keeps_the_dataclass_format():
    assert repr(SubsetFamily(2, 4, (10, 3))) == (
        "SubsetFamily(ell=2, m=4, members=(3, 10))"
    )
    assert repr(k_r(2, 5, 5)) == (
        "KrRecord(ell=2, m=5, r=5, value=8, method='brute_force', "
        "maximizer=SubsetFamily(ell=2, m=5, members=(3, 5, 6, 9, 10)), "
        "maximizer_count=60)"
    )
