"""Tests for subspace enumeration, the codes it spans, and their weights."""

import pytest

from subclose import codes
from subclose.combinat import gaussian_binom
from subclose.families import BudgetError, SubsetFamily, k_lambda, k_r_value
from subclose.gf import field_from_order
from subclose.linalg import mat_rank
from subclose.codes import (
    PluckerPoint,
    build_code,
    check_plucker_relations,
    enumerate_grassmannian,
    enumerate_schubert,
    grassmann_code,
    higher_weight,
    schubert_code,
    schubert_coordinate_count,
    schubert_membership_flag,
    schubert_support,
    section_count,
    validate_alpha,
    verify_conjecture,
    weight_hierarchy,
)

F2 = field_from_order(2)
F3 = field_from_order(3)
F4 = field_from_order(4)

# hierarchies frozen from the first exhaustive computation
HIERARCHY_G24_F2 = (16, 24, 28, 32, 34, 35)
HIERARCHY_SCHUBERT_24_F2 = (8, 12, 16, 18, 19)


def simplex_weights(q, k):
    # (q^k - q^(k-r)) / (q - 1) for r = 1..k
    return tuple((q**k - q ** (k - r)) // (q - 1) for r in range(1, k + 1))


# ------------------------------------------------------------- enumeration

def test_grassmannian_counts():
    assert len(enumerate_grassmannian(F2, 2, 4)) == 35
    assert len(enumerate_grassmannian(F3, 2, 4)) == 130
    assert len(enumerate_grassmannian(F2, 2, 5)) == 155
    for q in (2, 3, 4):
        F = field_from_order(q)
        for m in range(1, 5):
            pts = enumerate_grassmannian(F, 1, m)
            assert len(pts) == (q**m - 1) // (q - 1) == gaussian_binom(m, 1, q)


def test_points_are_normalized_with_witness_bases():
    for pt in enumerate_grassmannian(F3, 2, 4):
        first = next(c for c in pt.coords if c)
        assert first == 1
        assert len(pt.coords) == 6
        assert mat_rank(F3, pt.matrix) == 2


def test_point_equality_ignores_matrix():
    a = PluckerPoint((1, 0, 1), ((1, 2),))
    b = PluckerPoint((1, 0, 1), ((2, 1),))
    assert a == b
    assert a.support_mask == 0b101


def test_enumeration_checks_survive_optimization(monkeypatch):
    # an ArithmeticError, not an assert that python -O would strip
    sane = codes.det
    monkeypatch.setattr(codes, "det", lambda F, mat: F.mul[sane(F, mat)][2])
    with pytest.raises(ArithmeticError, match="not normalized"):
        enumerate_grassmannian(F3, 1, 2)


def test_budget_error_on_enumeration():
    with pytest.raises(BudgetError, match="155"):
        enumerate_grassmannian(F2, 2, 5, budget=100)


# ---------------------------------------------------------------- plucker

def test_plucker_relations_hold_everywhere():
    for F, ell, m in ((F2, 2, 4), (F3, 2, 4), (F2, 2, 5), (F2, 3, 5)):
        for pt in enumerate_grassmannian(F, ell, m):
            assert check_plucker_relations(F, pt, ell, m)


def test_plucker_relations_reject_corruption():
    # support {12, 34} alone violates p12*p34 - p13*p24 + p14*p23 = 0
    fake = PluckerPoint((1, 0, 0, 0, 0, 1), ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert not check_plucker_relations(F2, fake, 2, 4)


def test_plucker_relations_vacuous_for_lines():
    for pt in enumerate_grassmannian(F3, 1, 3):
        assert check_plucker_relations(F3, pt, 1, 3)


# ---------------------------------------------------------------- schubert

def test_validate_alpha():
    assert validate_alpha((2, 4), 2, 4) == (2, 4)
    assert validate_alpha([3, 4], 2, 4) == (3, 4)
    with pytest.raises(ValueError):
        validate_alpha((2,), 2, 4)
    with pytest.raises(ValueError):
        validate_alpha((0, 4), 2, 4)
    with pytest.raises(ValueError):
        validate_alpha((4, 4), 2, 4)
    with pytest.raises(ValueError):
        validate_alpha((4, 2), 2, 4)
    with pytest.raises(ValueError):
        validate_alpha((2, 5), 2, 4)


def test_schubert_support_and_counts():
    assert schubert_support((2, 4), 2, 4) == (0, 1, 2, 3, 4)
    assert schubert_coordinate_count((2, 4), 2, 4) == 5
    assert schubert_coordinate_count((3, 4), 2, 4) == 6  # whole system
    assert schubert_coordinate_count((1, 2), 2, 4) == 1
    assert schubert_coordinate_count((2, 3), 2, 4) == 3


def test_schubert_point_counts():
    assert len(enumerate_schubert(F2, (2, 4), 2, 4)) == 19
    assert len(enumerate_schubert(F2, (3, 4), 2, 4)) == 35
    assert len(enumerate_schubert(F2, (1, 2), 2, 4)) == 1


def test_membership_flag_agrees_with_vanishing():
    # rank conditions against the standard flag vs coordinate support
    for alpha in ((1, 2), (1, 3), (2, 3), (2, 4), (1, 4), (3, 4)):
        allowed = 0
        for pos in schubert_support(alpha, 2, 4):
            allowed |= 1 << pos
        for pt in enumerate_grassmannian(F2, 2, 4):
            by_support = pt.support_mask & ~allowed == 0
            by_flag = schubert_membership_flag(F2, pt.matrix, alpha)
            assert by_support == by_flag, (alpha, pt.coords)


def test_membership_flag_agrees_over_f3():
    for alpha in ((1, 3), (2, 4), (2, 3)):
        allowed = 0
        for pos in schubert_support(alpha, 2, 4):
            allowed |= 1 << pos
        for pt in enumerate_grassmannian(F3, 2, 4):
            assert (pt.support_mask & ~allowed == 0) == schubert_membership_flag(
                F3, pt.matrix, alpha
            )


# ------------------------------------------------------------------- codes

def test_grassmann_code_shape():
    code = grassmann_code(F2, 2, 4)
    assert (code.n, code.kdim) == (35, 6)
    assert code.row_labels == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    assert code.row_positions == (0, 1, 2, 3, 4, 5)
    assert mat_rank(F2, code.generator) == 6


def test_schubert_code_shape():
    code = schubert_code(F2, (2, 4), 2, 4)
    assert (code.n, code.kdim) == (19, 5)
    assert code.row_labels == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4))
    # all 19 points carried over with full coordinate vectors
    assert all(len(pt.coords) == 6 for pt in code.points)


def test_build_code_rejects_zero_position():
    pts = enumerate_grassmannian(F2, 2, 4)
    with pytest.raises(ArithmeticError, match="vanishes on every chosen row"):
        build_code(F2, 2, 4, None, pts, (5,))


def test_build_code_rejects_rank_deficiency():
    pts = enumerate_grassmannian(F2, 2, 4)
    # every minor position once, then position 0 again: no point vanishes
    # on every row, so the rank check is the one that fires
    positions = (0, 1, 2, 3, 4, 5, 0)
    with pytest.raises(ArithmeticError, match="generator rank 6 below row count 7"):
        build_code(F2, 2, 4, None, pts, positions)


def test_build_code_rejects_empty():
    with pytest.raises(ValueError):
        build_code(F2, 2, 4, None, (), (0,))


# ----------------------------------------------------------------- weights

def test_simplex_hierarchies_match_formula():
    for q, m in ((2, 3), (3, 3), (2, 4)):
        F = field_from_order(q)
        code = grassmann_code(F, 1, m)
        assert weight_hierarchy(code) == simplex_weights(q, m)


def test_dual_line_system_has_simplex_hierarchy():
    # ell = m-1 gives the same projective system as ell = 1
    assert weight_hierarchy(grassmann_code(F2, 2, 3)) == simplex_weights(2, 3)
    assert weight_hierarchy(grassmann_code(F2, 3, 4)) == simplex_weights(2, 4)


def test_grassmann_2_4_hierarchy_frozen():
    code = grassmann_code(F2, 2, 4)
    assert weight_hierarchy(code) == HIERARCHY_G24_F2


def test_schubert_2_4_hierarchy_frozen():
    code = schubert_code(F2, (2, 4), 2, 4)
    assert weight_hierarchy(code) == HIERARCHY_SCHUBERT_24_F2


def test_first_weight_via_largest_hyperplane_section():
    code = grassmann_code(F2, 2, 4)
    secs = [section_count(code.points, (pos,)) for pos in code.row_positions]
    assert max(secs) == 19
    assert higher_weight(code, 1) == 35 - 19 == 16


def test_higher_weight_validation_and_budget():
    code = grassmann_code(F2, 2, 4)
    with pytest.raises(ValueError):
        higher_weight(code, 0)
    with pytest.raises(ValueError):
        higher_weight(code, 7)
    with pytest.raises(BudgetError, match="651"):
        higher_weight(code, 2, budget=100)
    with pytest.raises(BudgetError):
        weight_hierarchy(code, budget=100)


def test_hierarchy_checks_survive_optimization(monkeypatch):
    code = grassmann_code(F2, 2, 3)
    monkeypatch.setattr(codes, "higher_weight", lambda code, r, budget: 5)
    with pytest.raises(ArithmeticError, match="not strictly increasing"):
        weight_hierarchy(code)


def test_section_count_edges():
    code = grassmann_code(F2, 2, 4)
    assert section_count(code.points, ()) == 35
    assert section_count(code.points, tuple(range(6))) == 0
    assert section_count(code.points, (0,)) == 35 - 16


# ------------------------------------------------------------- conjecture

def test_conjecture_grassmann_2_4():
    code = grassmann_code(F2, 2, 4)
    for r in range(1, 7):
        rep = verify_conjecture(code, r)
        assert (rep.n, rep.code_dimension) == (35, 6)
        assert rep.d_r == HIERARCHY_G24_F2[r - 1]
        assert rep.k_r_target == k_r_value(2, 4, r)
        assert rep.verdict == "equal"
        assert rep.proven == (r <= 3)
        assert rep.rhs_all_coordinate <= rep.rhs_subclose
        # the witness really is a family attaining the global maximum
        fam = SubsetFamily.from_sets(2, 4, rep.witness_lambda)
        assert k_lambda(fam) == rep.k_r_target


def test_conjecture_schubert_2_4():
    code = schubert_code(F2, (2, 4), 2, 4)
    rep = verify_conjecture(code, 1)
    assert rep.alpha == (2, 4)
    assert (rep.n, rep.code_dimension) == (19, 5)
    assert rep.d_r == 8
    assert rep.verdict == "equal" and rep.proven
    rep2 = verify_conjecture(code, 2)
    assert not rep2.proven
    assert rep2.verdict == "equal"


def test_conjecture_reuses_prebuilt_code():
    # the report names the system of the code it measured
    rep = verify_conjecture(grassmann_code(F3, 2, 4), 1)
    assert (rep.q, rep.ell, rep.m, rep.alpha) == (3, 2, 4, None)
    assert rep.n == 130
    assert rep.verdict == "equal" and rep.proven
    rep = verify_conjecture(schubert_code(F2, [2, 4], 2, 4), 1)
    assert (rep.q, rep.ell, rep.m, rep.alpha) == (2, 2, 4, (2, 4))
    assert rep.n == 19


def test_conjecture_no_subclose_verdict():
    # a hand-built system on the rows (1,2) and (3,4), whose labels are
    # disjoint: no pair of rows can attain K_2(2,4) = 1
    pts = (
        PluckerPoint((1, 0, 0, 0, 0, 0), ()),
        PluckerPoint((0, 0, 0, 0, 0, 1), ()),
        PluckerPoint((1, 0, 0, 0, 0, 1), ()),
    )
    code = build_code(F2, 2, 4, None, pts, (0, 5))
    assert code.row_labels == ((1, 2), (3, 4))
    rep = verify_conjecture(code, 2)
    assert rep.verdict == "no_subclose"
    assert rep.rhs_subclose is None and rep.witness_lambda is None
    assert rep.d_r == 3
    assert rep.rhs_all_coordinate == 3


def test_conjecture_validation_and_budget():
    code = grassmann_code(F2, 2, 4)
    with pytest.raises(ValueError):
        verify_conjecture(code, 0)
    with pytest.raises(ValueError, match="outside 1..6"):
        verify_conjecture(code, 7)
    with pytest.raises(BudgetError):
        verify_conjecture(code, 3, family_budget=10)
