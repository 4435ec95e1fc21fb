"""Tests for subspace enumeration, the codes it spans, and their weights."""

import inspect
import math
import random
import sys
import tracemalloc
from functools import cached_property
from itertools import combinations, product

import pytest

import subclose.cli as cli
from subclose import codes
from subclose.combinat import colex_masks, gaussian_binom, mask_of
from subclose.families import BudgetError, SubsetFamily, k_lambda, k_r
from subclose.gf import field_from_order
from subclose.linalg import det, mat_rank, rref_span_count, rref_span_matrices
from subclose.codes import (
    CodeSystem,
    check_plucker_relations,
    enumerate_grassmannian,
    grassmann_code,
    higher_weight,
    schubert_code,
    schubert_membership_flag,
    schubert_support,
    validate_alpha,
    verify_conjecture,
    weight_hierarchy,
)

F2 = field_from_order(2)
F3 = field_from_order(3)
F4 = field_from_order(4)


def family(ell, m, sets):
    return SubsetFamily(ell, m, tuple(mask_of(s) for s in sets))


# hierarchies frozen from the first exhaustive computation
HIERARCHY_G24_F2 = (16, 24, 28, 32, 34, 35)
HIERARCHY_SCHUBERT_24_F2 = (8, 12, 16, 18, 19)


def simplex_weights(q, k):
    # (q^k - q^(k-r)) / (q - 1) for r = 1..k
    return tuple((q**k - q ** (k - r)) // (q - 1) for r in range(1, k + 1))


def word_support(F, message, generator):
    mask = 0
    for j, column in enumerate(zip(*generator)):
        x = 0
        for a, b in zip(message, column):
            x = F.add[x][F.mul[a][b]]
        if x:
            mask |= 1 << j
    return mask


def higher_weight_reference(code, r, supports):
    # exhaustive reference: every RREF basis, each row's support computed
    # from the generator on first sight
    best = None
    for basis in rref_span_matrices(code.F, r, code.kdim):
        mask = 0
        for row in basis:
            if row not in supports:
                supports[row] = word_support(code.F, row, code.generator)
            mask |= supports[row]
        if best is None or mask.bit_count() < best:
            best = mask.bit_count()
    return best


def assert_weights_match_reference(code, rs):
    supports = {}
    for r in rs:
        assert higher_weight(code, r) == higher_weight_reference(
            code, r, supports
        ), (code.F.q, code.alpha, code.generator, r)


def nonzero_mask(word):
    # bit j for each nonzero entry j
    return sum(1 << j for j, x in enumerate(word) if x)


def section_count(points, coordinate_positions):
    # reference: how many points vanish on every listed coordinate position,
    # one point at a time
    return sum(
        1 for pt in points if all(pt[pos] == 0 for pos in coordinate_positions)
    )


def random_code(F, rng, k, n):
    # a code refuses a zero column or a rank below k; draw again
    while True:
        points = tuple(
            tuple(rng.randrange(F.q) for _ in range(k)) for _ in range(n)
        )
        try:
            return CodeSystem(F, 1, k, None, points, tuple(range(k)))
        except ArithmeticError:
            continue


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
    # the points come in the order of their echelon bases, and each
    # basis's 2 x 2 minors, in colex column order, are its point
    pairs = zip(
        rref_span_matrices(F3, 2, 4), enumerate_grassmannian(F3, 2, 4), strict=True
    )
    for basis, pt in pairs:
        first = next(c for c in pt if c)
        assert first == 1
        assert len(pt) == 6
        assert mat_rank(F3, basis) == 2
        minors = bytes(
            det(F3, [[row[a], row[b]] for row in basis])
            for b in range(4)
            for a in range(b)
        )
        assert pt == minors


def minor_vectors_reference(F, ell, m):
    # every minor taken straight from the basis rows, one comprehension
    # per minor, column sets in colex order
    col_sets = [
        tuple(t for t in range(m) if mask >> t & 1)
        for mask in colex_masks(ell, m)
    ]
    return [
        bytes(det(F, [[row[c] for c in cols] for row in basis]) for cols in col_sets)
        for basis in rref_span_matrices(F, ell, m)
    ]


def test_enumeration_matches_the_minor_by_minor_reference(monkeypatch):
    calls = [0]
    sane = codes.det

    def counted(F, rows):
        calls[0] += 1
        return sane(F, rows)

    monkeypatch.setattr(codes, "det", counted)
    cases = [
        (q, ell, m) for q in (2, 3, 4) for m in range(6) for ell in range(m + 1)
    ] + [(q, ell, m) for q in (5, 8, 9) for m in range(5) for ell in range(m + 1)]
    for q, ell, m in cases + [(2, 3, 6), (3, 3, 6)]:
        F = field_from_order(q)
        calls[0] = 0
        got = list(enumerate_grassmannian(F, ell, m))
        # one det call per point and column set
        assert calls[0] == len(got) * math.comb(m, ell), (q, ell, m)
        assert got == minor_vectors_reference(F, ell, m), (q, ell, m)


def keyed(bases):
    # a stand-in for rref_span_matrices yielding the given bases, each row
    # mapped through the key as the real one maps it
    def spans(F, r, n, key):
        return [tuple(map(key, basis)) for basis in bases]

    return spans


def test_enumeration_checks_survive_optimization(monkeypatch):
    # an ArithmeticError, not an assert that python -O would strip
    sane = codes.det
    monkeypatch.setattr(codes, "det", lambda F, mat: F.mul[sane(F, mat)][2])
    with pytest.raises(ArithmeticError, match="not normalized"):
        enumerate_grassmannian(F3, 1, 2)
    monkeypatch.undo()
    bases = list(codes.rref_span_matrices(F3, 2, 4))
    monkeypatch.setattr(codes, "rref_span_matrices", keyed(bases[:-1]))
    with pytest.raises(
        ArithmeticError, match="^129 subspaces enumerated, expected 130$"
    ):
        enumerate_grassmannian(F3, 2, 4)
    repeated = bases[:-1] + bases[:1]
    monkeypatch.setattr(codes, "rref_span_matrices", keyed(repeated))
    with pytest.raises(ArithmeticError, match="^coordinate vectors collide$"):
        enumerate_grassmannian(F3, 2, 4)


def test_enumeration_refuses_one_short_column_set(monkeypatch):
    # each column set has its own stream of bases; zip would cut every
    # point's minors to the shortest one, so one short stream must raise
    bases = list(codes.rref_span_matrices(F3, 2, 4))
    streams = []

    def spans(F, r, n, key):
        streams.append(key)
        kept = bases[:-1] if len(streams) == 3 else bases
        return [tuple(map(key, basis)) for basis in kept]

    monkeypatch.setattr(codes, "rref_span_matrices", spans)
    with pytest.raises(
        ArithmeticError, match="^129 subspaces enumerated, expected 130$"
    ):
        enumerate_grassmannian(F3, 2, 4)
    assert len(streams) == 6


def test_budget_error_on_enumeration():
    with pytest.raises(BudgetError, match="155"):
        enumerate_grassmannian(F2, 2, 5, budget=100)


def test_one_subspace_budget_default():
    # the library and the CLI refuse the same subspace and subcode counts
    defaults = {
        fn.__name__: inspect.signature(fn).parameters[param].default
        for fn, param in (
            (enumerate_grassmannian, "budget"),
            (grassmann_code, "budget"),
            (schubert_code, "budget"),
            (higher_weight, "budget"),
            (weight_hierarchy, "budget"),
            (verify_conjecture, "subcode_budget"),
        )
    }
    args = cli.build_parser().parse_args("verify --ell 2 --m 4 --q 2".split())
    defaults["verify --budget-subspaces"] = args.budget_subspaces
    assert codes.DEFAULT_SUBSPACE_BUDGET == 10**7
    assert set(defaults.values()) == {codes.DEFAULT_SUBSPACE_BUDGET}, defaults


# ---------------------------------------------------------------- plucker

def test_plucker_relations_hold_everywhere():
    for F, ell, m in ((F2, 2, 4), (F3, 2, 4), (F2, 2, 5), (F2, 3, 5)):
        for pt in enumerate_grassmannian(F, ell, m):
            assert check_plucker_relations(F, pt, ell, m)


def test_every_point_is_the_bytes_of_its_minors():
    # a Grassmannian holds one point per subspace, each just its minors,
    # one byte per minor
    for F, ell, m in ((F2, 2, 4), (F3, 1, 3), (F4, 2, 4)):
        for pt in enumerate_grassmannian(F, ell, m):
            assert type(pt) is bytes and len(pt) == math.comb(m, ell)
            assert max(pt) < F.q and any(pt)


def test_a_point_costs_under_64_bytes():
    # a tuple of the 15 minors of a G(2, 6) point takes 160 bytes
    for pt in enumerate_grassmannian(F3, 2, 6):
        assert sys.getsizeof(pt) < 64


def test_schubert_code_peak_memory():
    # alpha = (2, 6) neither opens with 1 nor stops short of m, so the whole
    # of G(2, 6) is held while it is filtered; as tuples of ints this
    # peaked at 2.37 MB
    tracemalloc.start()
    try:
        schubert_code(F3, (2, 6), 2, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8e6


def test_plucker_relations_reject_corruption():
    # support {12, 34} alone violates p12*p34 - p13*p24 + p14*p23 = 0
    fake = (1, 0, 0, 0, 0, 1)
    assert not check_plucker_relations(F2, fake, 2, 4)


def test_plucker_relations_vacuous_for_lines():
    # ell = 0 has one point, b"\x01", and no relation at all
    for F, ell, m in ((F3, 1, 3), (F2, 0, 3)):
        for pt in enumerate_grassmannian(F, ell, m):
            assert check_plucker_relations(F, pt, ell, m)


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


def test_validate_alpha_accepts_exactly_the_increasing_tuples():
    # alpha_1 >= 1 and strict increase give alpha_i >= i, so no accepted
    # tuple cuts out an empty variety
    def accepts(alpha, ell, m):
        try:
            return validate_alpha(alpha, ell, m) == alpha
        except ValueError:
            return False

    for m in range(7):
        for ell in range(m + 1):
            accepted = {
                alpha
                for alpha in product(range(m + 2), repeat=ell)
                if accepts(alpha, ell, m)
            }
            assert accepted == set(combinations(range(1, m + 1), ell))


def test_schubert_support_and_counts():
    assert schubert_support((2, 4), 2, 4) == (0, 1, 2, 3, 4)
    assert len(schubert_support((2, 4), 2, 4)) == 5
    assert len(schubert_support((3, 4), 2, 4)) == 6  # whole system
    assert len(schubert_support((1, 2), 2, 4)) == 1
    assert len(schubert_support((2, 3), 2, 4)) == 3


def test_schubert_point_counts():
    assert len(schubert_code(F2, (2, 4), 2, 4).points) == 19
    assert len(schubert_code(F2, (3, 4), 2, 4).points) == 35
    assert len(schubert_code(F2, (1, 2), 2, 4).points) == 1


@pytest.mark.parametrize(
    "q, ell, m",
    [
        (2, 2, 4),
        (3, 2, 4),
        (4, 2, 4),
        (2, 2, 5),
        (3, 2, 5),
        (2, 3, 5),
        (3, 3, 5),
        (2, 3, 6),
        (3, 1, 4),
        (2, 0, 3),
        (3, 2, 2),
    ],
)
def test_membership_flag_agrees_with_vanishing(q, ell, m):
    # rank conditions against the standard flag vs coordinate support, for
    # every alpha; the Schubert code keeps exactly the flag's points, in
    # enumeration order.  The alphas cover a leading run 1..j (j > 0), a
    # last entry below m, alpha = (1..ell) with its one point, and the
    # empty alpha at ell = 0
    F = field_from_order(q)
    pairs = list(
        zip(
            rref_span_matrices(F, ell, m),
            enumerate_grassmannian(F, ell, m),
            strict=True,
        )
    )
    for alpha in combinations(range(1, m + 1), ell):
        allowed = 0
        for pos in schubert_support(alpha, ell, m):
            allowed |= 1 << pos
        kept = []
        for basis, pt in pairs:
            by_support = nonzero_mask(pt) & ~allowed == 0
            by_flag = schubert_membership_flag(F, basis, alpha)
            assert by_support == by_flag, (alpha, pt)
            if by_flag:
                kept.append(pt)
        assert schubert_code(F, alpha, ell, m).points == tuple(kept), alpha


@pytest.mark.parametrize(
    "alpha, ell, m, small",
    [
        ((1, 2, 5), 3, 6, (1, 3)),
        ((1, 3, 5), 3, 6, (2, 4)),
        ((2, 4), 2, 5, (2, 4)),
        ((2, 5), 2, 5, (2, 5)),
        ((1, 2), 2, 4, (0, 0)),
        ((), 0, 3, (0, 0)),
    ],
)
def test_schubert_code_enumerates_one_smaller_grassmannian(
    monkeypatch, alpha, ell, m, small
):
    # G(ell - j, top - j): j the leading run 1..j of alpha, top its last
    # entry
    calls = []
    sane = codes.enumerate_grassmannian

    def counted(F, ell, m, **kwargs):
        calls.append((ell, m))
        return sane(F, ell, m, **kwargs)

    monkeypatch.setattr(codes, "enumerate_grassmannian", counted)
    schubert_code(F3, alpha, ell, m)
    assert calls == [small]


def test_schubert_budget_counts_the_smaller_grassmannian():
    # alpha = (1, 3, 5) in G(3, 6) is enumerated in G(2, 4): [4, 2]_3 = 130
    assert gaussian_binom(4, 2, 3) == 130
    assert schubert_code(F3, (1, 3, 5), 3, 6, budget=130).n == 49
    with pytest.raises(
        BudgetError, match=r"^130 subspaces for \(ell=2, m=4, q=3\) exceed budget 129$"
    ):
        schubert_code(F3, (1, 3, 5), 3, 6, budget=129)


def test_a_reducible_alpha_past_the_budget_still_refuses(capsys):
    # alpha opens with 1 and ends at m, so only E_1 is split off: G(5, 29)
    # over F2 is still far past the default budget
    argv = "verify --ell 6 --m 30 --q 2 --alpha 1,26,27,28,29,30".split()
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "subspaces for (ell=5, m=29, q=2) exceed budget" in err


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
    assert all(len(pt) == 6 for pt in code.points)


def test_code_system_rejects_a_point_vanishing_on_every_row():
    pts = enumerate_grassmannian(F2, 2, 4)
    with pytest.raises(ArithmeticError, match="vanishes on every chosen row"):
        CodeSystem(F2, 2, 4, None, pts, (5,))
    # points 0 and 2 are nonzero on row 0; point 1 is the first off it
    pts = ((1, 0), (0, 1), (1, 1), (0, 1))
    with pytest.raises(ArithmeticError, match="^point 1 vanishes on every chosen row$"):
        CodeSystem(F2, 1, 2, None, pts, (0,))
    # with no rows at all, every point vanishes on every one of them
    with pytest.raises(ArithmeticError, match="^point 0 vanishes on every chosen row$"):
        CodeSystem(F2, 1, 2, None, pts, ())
    # the first vanishing point past one 64-bit word of the support mask
    pts = ((1, 0),) * 64 + ((0, 1), (1, 1))
    with pytest.raises(ArithmeticError, match="^point 64 vanishes on every chosen row$"):
        CodeSystem(F2, 1, 2, None, pts, (0,))


def test_code_system_rejects_rank_deficiency():
    pts = enumerate_grassmannian(F2, 2, 4)
    # every minor position once, then position 0 again: no point vanishes
    # on every row, so the rank check is the one that fires
    positions = (0, 1, 2, 3, 4, 5, 0)
    with pytest.raises(ArithmeticError, match="generator rank 6 below row count 7"):
        CodeSystem(F2, 2, 4, None, pts, positions)


def test_code_system_keeps_bytes_points_without_a_copy():
    pts = enumerate_grassmannian(F2, 2, 4)
    code = CodeSystem(F2, 2, 4, None, pts, range(6))
    assert all(a is b for a, b in zip(code.points, pts, strict=True))


def test_code_system_refuses_a_coordinate_outside_the_field():
    # 5 is a byte but not an element of GF(2); 256 and -1 are neither
    for bad, where in (
        (((1, 5), (0, 1)), "^point 0 coordinate 1 is 5, outside 0..1$"),
        (((1, 0), (0, 1), (256, 1)), "^point 2 coordinate 0 is 256, outside 0..1$"),
        (((1, 0), (-1, 1)), "^point 1 coordinate 0 is -1, outside 0..1$"),
    ):
        with pytest.raises(ValueError, match=where):
            CodeSystem(F2, 1, 2, None, bad, (0, 1))
    with pytest.raises(ValueError, match="^point 0 coordinate 0 is 3, outside 0..2$"):
        CodeSystem(F3, 1, 2, None, (b"\3\1",), (0, 1))


def test_code_system_refuses_a_point_of_the_wrong_length():
    # G(2, 4) has C(4, 2) = 6 minors per point; a shorter point was once
    # accepted, or failed with a bare IndexError on a row past its end
    with pytest.raises(ValueError, match=r"^point 0 has 2 coordinates, not C\(4, 2\) = 6$"):
        CodeSystem(F2, 2, 4, None, ((1, 0), (0, 1)), (0, 1))
    with pytest.raises(ValueError, match=r"^point 0 has 1 coordinates, not C\(4, 2\) = 6$"):
        CodeSystem(F2, 2, 4, None, ((1,),), (0, 5))
    pts = ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1, 0))
    with pytest.raises(ValueError, match=r"^point 2 has 7 coordinates, not C\(4, 2\) = 6$"):
        CodeSystem(F2, 2, 4, None, pts, (0, 5))


def test_code_system_refuses_a_row_position_past_the_minors():
    pts = ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))
    for bad in (6, -1):
        with pytest.raises(ValueError, match=f"^row position {bad} outside 0..5$"):
            CodeSystem(F2, 2, 4, None, pts, (0, bad))


def test_code_system_caches_its_row_masks_during_construction():
    # the vanishing check reads row_masks, so later scans reuse its masks
    code = grassmann_code(F2, 2, 4)
    assert "row_masks" in vars(code)
    assert code.row_masks == tuple(
        sum(1 << j for j, x in enumerate(row) if x) for row in code.generator
    )


def test_code_system_rejects_empty():
    with pytest.raises(ValueError, match="^a code needs at least one point$"):
        CodeSystem(F2, 2, 4, None, (), (0,))


def test_code_system_derives_its_generator_and_sizes():
    pts = ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1))
    code = CodeSystem(F2, 2, 4, None, list(pts), [0, 5])
    assert (code.points, code.row_positions) == (tuple(map(bytes, pts)), (0, 5))
    assert code.generator == (bytes([1, 0, 1]), bytes([0, 1, 1]))
    assert code.generator is code.generator
    assert (code.n, code.kdim) == (3, 2)
    assert code.row_labels == ((1, 2), (3, 4))
    # a row read off a position that skips one: alpha = (1, 4) drops (2, 3)
    code = schubert_code(F3, (1, 4), 2, 4)
    assert code.row_positions == (0, 1, 3)
    for row, pos in zip(code.generator, code.row_positions, strict=True):
        assert row == bytes(pt[pos] for pt in code.points)


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


def test_wide_folds_match_the_closed_forms():
    # G(2, 5) over GF(2): n = 155, k = 10, delta = 6.  Nogin (1996) gives
    # d_1 = q^delta and d_2 = q^delta + q^(delta - 1); the top range is
    # d_(k - j) = n - (q^j - 1)/(q - 1) (Ghorpade-Patil-Pillai 2009).  r = 10
    # folds ten row streams of the generator-row masks.
    code = grassmann_code(F2, 2, 5)
    assert (code.n, code.kdim) == (155, 10)
    for r, d_r in ((1, 64), (2, 96), (9, 154), (10, 155)):
        assert higher_weight(code, r) == d_r, r


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


def test_support_table_is_charged_against_the_budget():
    # [6, 1]_4 = 1365 codewords of length 357: 487305 table entries, far
    # more than the 1365 rank-1 subcodes the search itself walks
    code = grassmann_code(F4, 2, 4)
    with pytest.raises(
        BudgetError,
        match=r"^487305 support-table entries \(1365 codewords of length 357\) "
        r"exceed budget 487304$",
    ):
        higher_weight(code, 1, budget=487304)
    assert "support_table" not in vars(code)
    assert higher_weight(code, 1, budget=487305) == 256
    # r = k reads the generator rows and builds no table
    assert higher_weight(grassmann_code(F2, 2, 4), 6, budget=1) == 35


def test_schubert_code_refuses_before_any_per_subset_work(monkeypatch):
    calls = []
    sane = codes.schubert_support

    def counted(*args):
        calls.append(args)
        return sane(*args)

    monkeypatch.setattr(codes, "schubert_support", counted)
    code = schubert_code(F2, (2, 4), 2, 4)
    assert len(calls) == 1
    assert code.row_positions == sane((2, 4), 2, 4)

    def refused(*args):
        raise RuntimeError("the Schubert support ran before the subspace budget")

    monkeypatch.setattr(codes, "schubert_support", refused)
    with pytest.raises(BudgetError, match="subspaces for"):
        schubert_code(F2, (25, 26, 27, 28, 29, 30), 6, 30)
    # alpha = (1..8) enumerates G(0, 0), one subspace, but the support
    # and the lift still run over all C(62, 8) coordinates
    with pytest.raises(
        BudgetError,
        match=r"^3381098545 minor coordinates for \(ell=8, m=62\) exceed budget",
    ):
        schubert_code(F2, tuple(range(1, 9)), 8, 62)


def test_higher_weight_matches_reference_on_grassmann_2_4():
    for q in (2, 3, 4):
        code = grassmann_code(field_from_order(q), 2, 4)
        assert_weights_match_reference(code, range(1, code.kdim + 1))


def test_higher_weight_matches_reference_on_schubert_codes():
    # every r whose search keeps the reference under about a second
    for ell, m in ((2, 4), (3, 5)):
        for q in (2, 3):
            F = field_from_order(q)
            for alpha in combinations(range(1, m + 1), ell):
                code = schubert_code(F, alpha, ell, m)
                k = code.kdim
                rs = [
                    r
                    for r in range(1, k + 1)
                    if gaussian_binom(k, r, q) * k * code.n <= 3 * 10**6
                ]
                assert rs
                assert_weights_match_reference(code, rs)


def test_higher_weight_matches_reference_on_random_codes():
    rng = random.Random(31)
    fields = [field_from_order(q) for q in (2, 3, 4, 5, 7, 8, 9)]
    for _ in range(200):
        F = rng.choice(fields)
        k = rng.randint(1, 4 if F.q <= 5 else 3)
        code = random_code(F, rng, k, rng.randint(k, 8))
        assert_weights_match_reference(code, range(1, k + 1))


def test_hierarchy_builds_one_support_table(monkeypatch):
    builds = []
    build = CodeSystem.support_table.func

    def counted(code):
        builds.append(code)
        return build(code)

    table = cached_property(counted)
    table.__set_name__(CodeSystem, "support_table")
    monkeypatch.setattr(CodeSystem, "support_table", table)
    code = grassmann_code(F3, 2, 4)
    weights = weight_hierarchy(code)
    assert builds == [code]
    assert tuple(higher_weight(code, r) for r in range(1, 7)) == weights
    assert builds == [code]
    other = grassmann_code(F2, 2, 4)
    assert weight_hierarchy(other) == HIERARCHY_G24_F2
    assert len(builds) == 2 and builds[1] is other
    # r = k alone reads the generator rows: the table would cost [k, 1]_q
    top = grassmann_code(F2, 2, 5)
    assert higher_weight(top, top.kdim) == top.n == 155
    assert len(builds) == 2


def test_support_table_covers_every_normalized_message():
    code = grassmann_code(F3, 2, 4)
    table = code.support_table
    assert len(table) == gaussian_binom(code.kdim, 1, 3)
    for msg, mask in table.items():
        assert next(x for x in msg if x) == 1
        assert mask == word_support(F3, msg, code.generator)


def test_support_table_matches_word_support_on_every_field():
    # the packed table adds digits in lanes of 8 // e bits: every field, a
    # one-point code, and lengths that are not a multiple of 8
    rng = random.Random(37)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        F = field_from_order(q)
        codes_q = [random_code(F, rng, min(n, 3), n) for n in (1, 5, 8, 13)]
        if q == 13:
            # message (1, 1) adds 12 + 12 at point 0: the widest digit sum
            codes_q.append(
                CodeSystem(F, 1, 2, None, ((12, 12), (12, 1), (1, 12)), (0, 1))
            )
        for code in codes_q:
            table = code.support_table
            assert len(table) == gaussian_binom(code.kdim, 1, q)
            for msg, mask in table.items():
                assert mask == word_support(F, msg, code.generator), (
                    q,
                    code.generator,
                    msg,
                )


def count_draws(monkeypatch):
    """Patch codes.rref_span_matrices to count the bases each call yields;
    the list of counts, one per call, fills as the calls are drained."""
    drawn = []
    sane = codes.rref_span_matrices

    def counted(*args, **kwargs):
        drawn.append(0)
        for basis in sane(*args, **kwargs):
            drawn[-1] += 1
            yield basis

    monkeypatch.setattr(codes, "rref_span_matrices", counted)
    return drawn


def test_higher_weight_visits_every_subcode(monkeypatch):
    # The visited-count contract (ROADMAP items 1 and 4): over GF(2) the
    # torus is trivial and higher_weight draws every rank-r subcode,
    # [k, r]_2 bases, from codes.rref_span_matrices, and the benchmark's
    # counts pin the same number.  Over larger fields it draws the bases
    # whose first row the torus of G(2, 4) has normalized, as many as
    # linalg.rref_span_count counts: 10,389 of [6, 3]_3 = 33,880 at r = 3
    # over GF(3), 48,871 of 376,805 over GF(4).  A search that prunes or
    # uses more symmetry must restate this.
    # the enumeration of the points draws from it too, so it comes first
    built = [grassmann_code(field_from_order(q), 2, 4) for q in (2, 3, 4)]
    drawn = count_draws(monkeypatch)
    for code in built:
        drawn.clear()
        for r in range(1, 7):
            higher_weight(code, r)
        q = code.F.q
        if q == 2:
            assert code.torus is None
            assert drawn == [gaussian_binom(6, r, 2) for r in range(1, 7)]
        else:
            counts = [rref_span_count(code.F, r, 6, code.torus) for r in range(1, 7)]
            assert drawn == counts
        assert drawn[2] == {2: 1395, 3: 10389, 4: 48871}[q]


def test_subcode_gate_charges_the_bases_drawn(monkeypatch):
    # The gate charges what the search draws, not [k, r]_q: on G(2, 4)
    # over every field, each rank's charge, read off its refusal, is the
    # count of bases drawn, by the search where its budgets admit it and
    # from codes.rref_span_matrices straight otherwise; weight_hierarchy
    # charges the sum.  Over GF(2), whose torus is trivial, that is still
    # [6, r]_2.
    compared = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        code = grassmann_code(field_from_order(q), 2, 4)
        table_fits = gaussian_binom(6, 1, q) * code.n <= codes.DEFAULT_SUBSPACE_BUDGET
        charges = []
        for r in range(1, 7):
            with pytest.raises(BudgetError) as caught:
                higher_weight(code, r, budget=0)
            charge, unit = str(caught.value).split(" ", 1)
            assert unit == f"rank-{r} subcode bases of a dimension-6 code exceed budget 0"
            charges.append(int(charge))
            if code.torus is None:
                assert int(charge) == gaussian_binom(6, r, q), (q, r)
        with pytest.raises(
            BudgetError,
            match=rf"^{sum(charges)} subcode bases across all ranks exceed budget 0$",
        ):
            weight_hierarchy(code, budget=0)
        drawn = count_draws(monkeypatch)
        for r, charge in enumerate(charges, start=1):
            if charge <= 2 * 10**5 and (r == 6 or table_fits):
                higher_weight(code, r)
            elif charge <= 5 * 10**5:
                bases = codes.rref_span_matrices(code.F, r, 6, torus=code.torus)
                sum(1 for _ in bases)
            else:
                continue
            assert drawn.pop() == charge, (q, r)
            compared += 1
        monkeypatch.undo()
    # every rank of F2 to F5; r = 1, 2, 5 and 6 of F7, F8 and F9; r = 1,
    # 5 and 6 of F11, F13 and F16
    assert compared == 4 * 6 + 3 * 4 + 3 * 3
    # over GF(8) a rank-2 search draws 136,059 of the 19,477,641 subcodes,
    # so verify is refused at the support-table gate, not the subcode gate
    code = grassmann_code(field_from_order(8), 2, 4)
    with pytest.raises(BudgetError, match=r"^177695505 support-table entries"):
        higher_weight(code, 2)


def test_subcode_gate_refuses_exactly_past_the_draws():
    # the gate charges the torus's draws, 48,871 at r = 3 on G(2, 4)/F4,
    # and refuses them one budget unit below that
    code = grassmann_code(F4, 2, 4)
    what = "rank-3 subcode bases of a dimension-6 code"
    codes._check_subcode_budget(code, (3,), what, 48871)
    with pytest.raises(BudgetError, match=rf"^48871 {what} exceed budget 48870$"):
        codes._check_subcode_budget(code, (3,), what, 48870)


def test_orbit_search_holds_no_row_tuples():
    # the rank-1 search over G(2, 4)/F4 keeps its row options as the masks
    # of the support table, 89 with the torus, and peaks at about 9 KB; a
    # search that held the 1024 row tuples of pivot set {1} peaked at
    # 121 KB
    code = grassmann_code(F4, 2, 4)
    code.support_table
    tracemalloc.start()
    try:
        higher_weight(code, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_folded_search_holds_one_half_per_product():
    # at r = 3 on G(2, 4)/F4 the largest product, of pivot set {1, 2, 3},
    # is 8 x 64 x 64 bases; its first two rows are listed as 512 unions
    # and the third stays the table's 64 masks, and the search peaks at
    # about 52 KB.  Listing the unions of all 32768 bases would take over
    # 2 MB
    code = grassmann_code(F4, 2, 4)
    code.support_table
    tracemalloc.start()
    try:
        higher_weight(code, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def torus_stable_codes():
    """Every code the differential test reaches: G(1, 3) and G(2, 4) over
    GF(4), 8, 9 and 16, G(2, 4) over GF(3) and 5, every alpha of (2, 4)
    over the fields from 3 to 9, every alpha of (2, 5) over GF(3) and 4,
    and one seeded random alpha of (3, 6) over GF(3)."""
    for q in (4, 8, 9, 16):
        F = field_from_order(q)
        yield grassmann_code(F, 1, 3)
        yield grassmann_code(F, 2, 4)
    for q in (3, 5):
        yield grassmann_code(field_from_order(q), 2, 4)
    for q in (3, 4, 5, 7, 8, 9):
        for alpha in combinations(range(1, 5), 2):
            yield schubert_code(field_from_order(q), alpha, 2, 4)
    for q in (3, 4):
        for alpha in combinations(range(1, 6), 2):
            yield schubert_code(field_from_order(q), alpha, 2, 5)
    alpha = sorted(random.Random(42).sample(range(1, 7), 3))
    yield schubert_code(F3, alpha, 3, 6)


def test_orbit_search_matches_the_full_search(monkeypatch):
    # every r with at most 1.5 * 10^5 subcodes that the default budgets
    # admit, the support table's included
    budget = codes.DEFAULT_SUBSPACE_BUDGET
    sane = codes.rref_span_matrices

    def full(*args, torus=None, **kwargs):
        return sane(*args, **kwargs)

    compared = 0
    for code in torus_stable_codes():
        assert code.torus is not None
        k, q = code.kdim, code.F.q
        table = gaussian_binom(k, 1, q) * code.n <= budget
        rs = [
            r
            for r in range(1, k + 1)
            if gaussian_binom(k, r, q) <= 1.5e5 and (r == k or table)
        ]
        orbits = [higher_weight(code, r) for r in rs]
        monkeypatch.setattr(codes, "rref_span_matrices", full)
        assert [higher_weight(code, r) for r in rs] == orbits, (q, code.alpha)
        monkeypatch.setattr(codes, "rref_span_matrices", sane)
        compared += len(rs)
    assert compared == 188


def test_torus_search_answers_alpha_2_5_over_gf4(monkeypatch):
    # the full search draws [7, 3]_4 = [7, 4]_4 = 24,208,613 bases at
    # r = 3 and 4, past the default budget; the torus search draws at most
    # 3,037,799, at r = 4, and gives what the full search gives once the
    # budget is lifted
    code = schubert_code(F4, (2, 5), 2, 5)
    counts = [rref_span_count(F4, r, 7, code.torus) for r in range(1, 8)]
    assert max(counts) == counts[3] == 3037799
    assert gaussian_binom(7, 3, 4) == 24208613
    weights = weight_hierarchy(code)
    assert weights == (256, 320, 336, 400, 416, 420, 421)
    sane = codes.rref_span_matrices

    def full(*args, torus=None, **kwargs):
        return sane(*args, **kwargs)

    monkeypatch.setattr(codes, "rref_span_matrices", full)
    assert weight_hierarchy(code, budget=10**8) == weights


def test_torus_stability_compares_multisets(monkeypatch):
    # over GF(3) the generator that doubles coordinate 1 sends the point
    # (1, 1) to (2, 1) ~ (1, 2) and back: the point set {(1, 1), (1, 2)} is
    # stable, but (1, 1) comes twice and (1, 2) once.  The message (1, 2)
    # vanishes on both copies of (1, 1), so d_1 = 1, while its orbit
    # representative (1, 1) vanishes on (1, 2) alone and would give 2
    code = CodeSystem(F3, 1, 2, None, ((1, 1), (1, 1), (1, 2)), (0, 1))
    assert code.torus is None
    assert higher_weight(code, 1) == 1
    # a repeated point gets no torus even where the torus keeps the
    # multiset: the check takes distinct points alone
    twice = CodeSystem(F3, 1, 2, None, ((1, 1), (1, 2)) * 2, (0, 1))
    assert twice.torus is None
    assert higher_weight(twice, 1) == 2
    stable = CodeSystem(F3, 1, 2, None, ((1, 1), (1, 2)), (0, 1))
    assert stable.torus == ((1, 0), (0, 1))
    assert list(rref_span_matrices(F3, 1, 2, torus=stable.torus)) == [
        ((1, 0),),
        ((1, 1),),
        ((0, 1),),
    ]
    # points scaled by a unit are the same points
    assert CodeSystem(F3, 1, 2, None, ((2, 2), (1, 2)), (0, 1)).torus
    # columns 1 and 2 lie in every row of alpha = (1, 2, 6), so their
    # generators scale every message alike and are left out
    unit = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert schubert_code(F3, (1, 2, 6), 3, 6).torus == unit
    assert grassmann_code(F2, 2, 4).torus is None
    # a code that the torus does not keep draws every subcode
    rng = random.Random(41)
    drawn = count_draws(monkeypatch)
    for q in (3, 4, 5, 8, 9):
        F = field_from_order(q)
        code = random_code(F, rng, 3, 6)
        assert code.torus is None
        drawn.clear()
        for r in range(1, 4):
            higher_weight(code, r)
        assert drawn == [gaussian_binom(3, r, q) for r in range(1, 4)]


def test_hierarchy_checks_survive_optimization(monkeypatch):
    code = grassmann_code(F2, 2, 3)
    monkeypatch.setattr(codes, "higher_weight", lambda code, r, budget: 5)
    with pytest.raises(ArithmeticError, match="not strictly increasing"):
        weight_hierarchy(code)
    # growing, but short of n = 7
    monkeypatch.setattr(codes, "higher_weight", lambda code, r, budget: r)
    with pytest.raises(
        ArithmeticError, match=r"^hierarchy must end at n=7: \(1, 2, 3\)$"
    ):
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
        assert rep.k_r_target == k_r(2, 4, r).value
        assert rep.verdict == "equal"
        assert rep.proven == (r <= 3)
        assert rep.rhs_all_coordinate <= rep.rhs_subclose
        # the witness really is a family attaining the global maximum
        fam = family(2, 4, rep.witness_lambda)
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


def test_conjecture_verdicts_compare_d_r_with_the_subclose_bound(
    monkeypatch, capsys
):
    # on G(2, 4)/F2 at r = 1 the bound is 16, and the row is proven, so a
    # d_r on either side of it is a failed check and exit 1
    code = grassmann_code(F2, 2, 4)
    assert verify_conjecture(code, 1).rhs_subclose == 16
    argv = ["verify", "--ell", "2", "--m", "4", "--q", "2", "--r", "1"]
    for d_r, verdict in ((15, "lhs_less"), (17, "lhs_greater")):
        monkeypatch.setattr(codes, "higher_weight", lambda code, r, budget: d_r)
        rep = verify_conjecture(code, 1)
        assert (rep.d_r, rep.verdict, rep.proven) == (d_r, verdict, True)
        assert cli.main(argv) == 1
        assert f'"verdict":"{verdict}"' in capsys.readouterr().out


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
    pts = ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1))
    code = CodeSystem(F2, 2, 4, None, pts, (0, 5))
    assert code.row_labels == ((1, 2), (3, 4))
    rep = verify_conjecture(code, 2)
    assert rep.verdict == "no_subclose"
    assert rep.rhs_subclose is None and rep.witness_lambda is None
    assert rep.d_r == 3
    assert rep.rhs_all_coordinate == 3


def conjecture_reference(code, r, d_r):
    # the scan point by point: each family's section counted by
    # section_count, the largest kept with a strict >, so the witness is the
    # lex-first family of rows reaching it
    target = k_r(code.ell, code.m, r).value
    best_any = best_sub = -1
    witness = None
    for combo in combinations(range(code.kdim), r):
        labels = tuple(code.row_labels[i] for i in combo)
        fam = family(code.ell, code.m, labels)
        sec = section_count(code.points, [code.row_positions[i] for i in combo])
        best_any = max(best_any, sec)
        if k_lambda(fam) == target and sec > best_sub:
            best_sub, witness = sec, labels
    if witness is None:
        return code.n - best_any, None, "no_subclose", None
    rhs_sub = code.n - best_sub
    verdict = (
        "equal" if d_r == rhs_sub else "lhs_less" if d_r < rhs_sub else "lhs_greater"
    )
    return code.n - best_any, rhs_sub, verdict, witness


@pytest.mark.parametrize(
    "q, ell, m, alpha, top",
    # top is the largest r compared; None compares every r up to k
    [
        (2, 1, 3, None, None),
        (2, 2, 4, None, None),
        (3, 2, 4, None, 3),
        (2, 2, 5, None, 2),
        (2, 2, 4, (1, 3), None),
        (2, 2, 4, (1, 4), None),
        (2, 2, 4, (2, 3), None),
        (2, 2, 4, (2, 4), None),
        (3, 2, 5, (2, 5), 2),
        (2, 3, 5, (1, 4, 5), None),
        (2, 3, 6, (2, 3, 6), 3),
        # the rows in reverse colex order: the witness is still the family
        # whose row indices come first, not the colex-first listed family
        pytest.param(2, 2, 4, "reversed", None, id="2-2-4-reversed-None"),
    ],
)
def test_conjecture_scan_matches_the_point_by_point_reference(q, ell, m, alpha, top):
    F = field_from_order(q)
    if alpha is None:
        code = grassmann_code(F, ell, m)
    elif alpha == "reversed":
        code = grassmann_code(F, ell, m)
        code = CodeSystem(F, ell, m, None, code.points, code.row_positions[::-1])
    else:
        code = schubert_code(F, alpha, ell, m)
    for r in range(1, (top or code.kdim) + 1):
        rep = verify_conjecture(code, r)
        got = (
            rep.rhs_all_coordinate,
            rep.rhs_subclose,
            rep.verdict,
            rep.witness_lambda,
        )
        assert got == conjecture_reference(code, r, rep.d_r), (q, alpha, r)


def test_conjecture_listing_is_not_charged_to_the_row_family_budget():
    # C(3, 2) = 3 row families fit the budget; the 12 maximizers of K_2(2, 4)
    # that the listing holds are not charged to it
    code = schubert_code(F2, (1, 4), 2, 4)
    rep = verify_conjecture(code, 2, family_budget=3)
    assert (rep.witness_lambda, rep.rhs_subclose) == (((1, 2), (1, 3)), 6)


def test_conjecture_validation_and_budget():
    code = grassmann_code(F2, 2, 4)
    with pytest.raises(ValueError):
        verify_conjecture(code, 0)
    with pytest.raises(ValueError, match="outside 1..6"):
        verify_conjecture(code, 7)
    with pytest.raises(BudgetError):
        verify_conjecture(code, 3, family_budget=10)


def test_row_family_gate_refuses_before_the_subcode_search(monkeypatch):
    # the d_r search of G(2, 5)/F2 at r = 3 takes seconds; the gate on the
    # C(10, 3) row families must not wait for it, nor mask a bad r
    code = grassmann_code(F2, 2, 5)

    def refused(*args, **kwargs):
        raise RuntimeError("the subcode search ran before the row-family gate")

    monkeypatch.setattr(codes, "higher_weight", refused)
    with pytest.raises(
        BudgetError, match=r"120 candidate families of 3 rows exceed budget 10$"
    ):
        verify_conjecture(code, 3, family_budget=10)
    for r in (-1, 0, 11):
        with pytest.raises(ValueError, match=rf"^r={r} outside 1\.\.10$"):
            verify_conjecture(code, r, family_budget=10)
