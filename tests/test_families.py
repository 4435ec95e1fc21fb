"""Tests for intersection sums, close families, and the K_r machinery."""

import dataclasses
import functools
import math
import random
from itertools import combinations

import pytest

from subclose import families
from subclose.combinat import SubsetIndexer
from subclose.families import (
    BudgetError,
    CloseKind,
    SubsetFamily,
    canonical_close_family,
    classify_close,
    close_size_cap,
    complement_family,
    dual_star,
    first_duality_check,
    k_lambda,
    k_r,
    k_r_closed,
    k_r_exhaustive,
    k_r_oracle,
    k_r_value,
    maximizer_families,
    second_duality_check,
    sum_intersections_fixed,
    through_point_count,
    total_intersection_sum,
)

# r=0 entries prepended to the published r>=1 rows
GOLDEN_2_5 = (0, 0, 1, 3, 6, 8, 12, 15, 19, 24, 30)
GOLDEN_2_6 = (0, 0, 1, 3, 6, 10, 12, 15, 19, 24, 30, 34, 39, 45, 52, 60)

# maximizer counts for r = 0..k from a walk over every subfamily, on
# lattices the reference below is too slow to reach
COUNTS_3_6 = (
    1, 20, 90, 120, 30, 540, 30, 360, 360, 120, 12,
    120, 360, 360, 30, 540, 30, 120, 90, 20, 1,
)
COUNTS_2_7 = (
    1, 21, 105, 175, 105, 42, 7, 105, 420, 875, 21,
    21, 875, 420, 105, 7, 42, 105, 175, 105, 21, 1,
)


def fam(ell, m, *sets):
    return SubsetFamily.from_sets(ell, m, sets)


def all_families(ell, m, size):
    idx = SubsetIndexer(ell, m)
    for chosen in combinations(idx.masks, size):
        yield SubsetFamily(ell, m, chosen)


# ---------------------------------------------------------------- k_lambda

def test_k_lambda_goldens():
    assert k_lambda(fam(2, 5)) == 0
    assert k_lambda(fam(2, 5, (1, 2))) == 0
    assert k_lambda(fam(2, 5, (1, 2), (3, 4))) == 0
    assert k_lambda(fam(2, 4, (1, 2), (1, 3), (1, 4))) == 3
    assert k_lambda(fam(2, 4, (1, 2), (1, 3), (2, 3))) == 3
    assert k_lambda(fam(3, 5, (1, 2, 3), (1, 2, 4), (1, 2, 5))) == 6


def test_k_lambda_against_set_arithmetic():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(2, 9)
        ell = rng.randint(1, m)
        idx = SubsetIndexer(ell, m)
        size = rng.randint(0, min(idx.size, 6))
        chosen = rng.sample(range(idx.size), size)
        f = SubsetFamily(ell, m, tuple(idx.mask_at(i) for i in chosen))
        expected = sum(
            len(set(a) & set(b)) for a, b in combinations(f.sets, 2)
        )
        assert k_lambda(f) == expected


def test_subset_family_validation():
    with pytest.raises(ValueError):
        fam(2, 5, (1, 2), (1, 2))
    with pytest.raises(ValueError):
        fam(2, 5, (1, 2, 3))
    with pytest.raises(ValueError):
        fam(2, 5, (5, 6))
    with pytest.raises(ValueError):
        SubsetFamily(3, 2, ())


def test_family_members_are_colex_sorted():
    f = fam(2, 5, (4, 5), (1, 2), (1, 3))
    assert f.sets == ((1, 2), (1, 3), (4, 5))


# ---------------------------------------------------- close classification

def test_classify_star_is_type1():
    w = classify_close(fam(2, 5, (1, 2), (1, 3), (1, 4), (1, 5)))
    assert w.kind is CloseKind.TYPE_I
    assert w.core == (1,)
    assert set(w.tail) == {2, 3, 4, 5}


def test_classify_triangle_is_type2():
    w = classify_close(fam(2, 5, (1, 2), (1, 3), (2, 3)))
    assert w.kind is CloseKind.TYPE_II
    assert w.core == ()
    assert set(w.tail) == {1, 2, 3}


def test_classify_small_families_are_both():
    assert classify_close(fam(2, 5, (1, 2))).kind is CloseKind.BOTH
    assert classify_close(fam(2, 5, (1, 2), (1, 3))).kind is CloseKind.BOTH
    assert classify_close(fam(3, 6, (1, 2, 3), (1, 2, 4))).kind is CloseKind.BOTH


def test_classify_not_close():
    assert classify_close(fam(2, 5, (1, 2), (3, 4))).kind is CloseKind.NOT_CLOSE
    assert (
        classify_close(fam(3, 6, (1, 2, 3), (1, 4, 5))).kind is CloseKind.NOT_CLOSE
    )


def test_classify_full_ground_set():
    # ell = m leaves no room for a TypeII tail
    assert classify_close(fam(2, 2, (1, 2))).kind is CloseKind.TYPE_I


def test_classify_witness_rebuilds_family_exhaustively():
    # every family of size <= 4 on small parameters: the witness, when one
    # exists, must reproduce the family, and closeness must match the
    # direct pairwise test
    for ell, m in ((1, 4), (2, 4), (2, 5), (3, 4), (3, 5)):
        idx = SubsetIndexer(ell, m)
        for size in range(min(idx.size, 4) + 1):
            for f in all_families(ell, m, size):
                w = classify_close(f)
                pairwise = all(
                    len(set(a) & set(b)) == ell - 1
                    for a, b in combinations(f.sets, 2)
                )
                assert (w.kind is not CloseKind.NOT_CLOSE) == pairwise
                if w.kind is CloseKind.NOT_CLOSE:
                    continue
                core, tail = set(w.core), list(w.tail)
                if w.kind in (CloseKind.TYPE_I, CloseKind.BOTH):
                    rebuilt = {
                        tuple(sorted(core | {t})) for t in tail
                    }
                else:
                    union = core | set(tail)
                    rebuilt = {
                        tuple(sorted(union - {t})) for t in tail
                    }
                assert rebuilt == set(f.sets), (f.sets, w)


def test_close_sizes_never_exceed_cap():
    for ell, m in ((2, 4), (2, 5), (3, 5)):
        cap = close_size_cap(ell, m)
        idx = SubsetIndexer(ell, m)
        for size in range(min(idx.size, cap + 2) + 1):
            for f in all_families(ell, m, size):
                if classify_close(f).kind is not CloseKind.NOT_CLOSE:
                    assert f.size <= cap


def test_canonical_close_family():
    for ell, m in ((2, 5), (3, 5), (2, 6), (4, 6)):
        cap = close_size_cap(ell, m)
        for r in range(cap + 1):
            f = canonical_close_family(ell, m, r)
            assert f.size == r
            assert k_lambda(f) == (ell - 1) * math.comb(r, 2)
            if r >= 1:
                assert classify_close(f).kind is not CloseKind.NOT_CLOSE
        with pytest.raises(ValueError):
            canonical_close_family(ell, m, cap + 1)


def test_dual_star_swaps_types():
    star = fam(2, 5, (1, 2), (1, 3), (1, 4), (1, 5))
    d = dual_star(star)
    assert d.ell == 3 and d.m == 5
    assert classify_close(d).kind is CloseKind.TYPE_II
    assert dual_star(d) == star


# ----------------------------------------------------------- sum identities

def test_sum_identities_by_direct_summation():
    for ell in range(1, 4):
        for m in range(ell, 9):
            idx = SubsetIndexer(ell, m)
            if idx.size > 60:
                continue
            nu = through_point_count(ell, m)
            subsets = [idx.subset_at(i) for i in range(idx.size)]
            # ordered pairs, diagonal included
            total = sum(
                len(set(a) & set(b)) for a in subsets for b in subsets
            )
            assert total == total_intersection_sum(ell, m) == m * nu * nu
            for a in subsets[:5]:
                by_hand = sum(
                    len(set(a) & set(b)) for b in subsets if b != a
                )
                assert by_hand == sum_intersections_fixed(ell, m, a) == ell * (nu - 1)


def test_through_point_count():
    assert through_point_count(2, 5) == 4
    assert through_point_count(3, 5) == 6
    assert through_point_count(1, 5) == 1


# ------------------------------------------------------------- closed form

def test_k_r_closed_low_range():
    # (ell-1) * C(r,2) up to the close-family cap
    for ell, m in ((2, 5), (3, 5), (2, 6)):
        mu = close_size_cap(ell, m)
        for r in range(mu + 1):
            assert k_r_closed(ell, m, r) == (ell - 1) * math.comb(r, 2)


def test_k_r_closed_middle_range_is_none():
    assert k_r_closed(2, 5, 5) is None
    for r in range(6, 10):
        assert k_r_closed(2, 6, r) is None


def test_k_r_closed_high_range_matches_duality():
    for ell, m in ((2, 5), (2, 6), (3, 5)):
        k = math.comb(m, ell)
        nu = through_point_count(ell, m)
        mu = close_size_cap(ell, m)
        for c in range(mu + 1):  # c = k - r members removed
            r = k - c
            expected = (
                m * math.comb(nu, 2) - ell * (nu - 1) * c + (ell - 1) * math.comb(c, 2)
            )
            assert k_r_closed(ell, m, r) == expected


def test_k_r_closed_ranges_overlap_consistently():
    # on C(m,ell) <= 15 lattices both formulas can cover the same r
    for ell, m in ((2, 4), (3, 4), (1, 5), (4, 5)):
        k = math.comb(m, ell)
        for r in range(k + 1):
            v = k_r_closed(ell, m, r)
            assert v is not None  # no middle range this small
            assert v == k_r_oracle(ell, m, r).value


def test_golden_table_2_5():
    for r in range(11):
        assert k_r_value(2, 5, r) == GOLDEN_2_5[r]
        assert k_r_oracle(2, 5, r).value == GOLDEN_2_5[r]


def test_golden_table_2_6():
    for r in range(16):
        assert k_r_value(2, 6, r) == GOLDEN_2_6[r]


def test_golden_3_5_via_first_duality():
    assert k_r_value(3, 5, 4) == 12
    assert k_r_value(3, 5, 4) == math.comb(4, 2) * (2 * 3 - 5) + k_r_value(2, 5, 4)


# ------------------------------------------------------------------ oracle

LATTICES = ((1, 4), (2, 4), (3, 4), (2, 5), (3, 5), (2, 6))


@functools.cache
def reference_maximizers(ell, m, r):
    # every r-family in colex order, with no bound and no shortcut
    fams = list(all_families(ell, m, r))
    value = max(k_lambda(f) for f in fams)
    return value, tuple(f for f in fams if k_lambda(f) == value)


def test_oracle_prune_audit():
    # the pruned per-r search must agree with the unpruned reference
    for ell, m in LATTICES:
        for r in range(math.comb(m, ell) + 1):
            value, attainers = reference_maximizers(ell, m, r)
            rec = k_r_oracle(ell, m, r)
            assert (rec.value, rec.maximizer) == (value, attainers[0])
            assert rec.maximizer_count is None


def test_sweep_matches_oracle_with_counts():
    # value, colex-least witness and maximizer count of the counted search
    for ell, m in LATTICES:
        for r in range(math.comb(m, ell) + 1):
            value, attainers = reference_maximizers(ell, m, r)
            rec = k_r_exhaustive(ell, m, r)
            assert (rec.value, rec.maximizer) == (value, attainers[0])
            assert rec.maximizer_count == len(attainers)
            assert rec.method == "brute_force"
            assert tuple(maximizer_families(ell, m, r)) == attainers


@pytest.mark.parametrize("ell, m, counts", [(3, 6, COUNTS_3_6), (2, 7, COUNTS_2_7)])
def test_maximizer_counts_pinned(ell, m, counts):
    assert tuple(
        k_r_exhaustive(ell, m, r).maximizer_count for r in range(len(counts))
    ) == counts


def test_oracle_record_fields():
    rec = k_r_oracle(2, 5, 4)
    assert rec.value == 6
    assert rec.method == "brute_force"
    assert k_lambda(rec.maximizer) == 6
    assert rec.maximizer_count is None
    assert len(maximizer_families(2, 5, 4)) >= 1
    # colex-least maximizer is the star at point 1... which is also the
    # canonical close family
    assert rec.maximizer == canonical_close_family(2, 5, 4)


def test_exhaustive_routes_agree():
    # 2^10 subfamilies fit budget 1024 (counted) but not 1023 (per-r search)
    for r in range(11):
        swept = k_r_exhaustive(2, 5, r, budget=1024)
        searched = k_r_exhaustive(2, 5, r, budget=1023)
        assert swept.maximizer_count is not None
        assert searched.maximizer_count is None
        assert swept.value == searched.value == GOLDEN_2_5[r]
        assert swept.maximizer == searched.maximizer


def test_witness_check_survives_optimization(monkeypatch):
    # an ArithmeticError, not an assert that python -O would strip
    sane = families.k_lambda
    monkeypatch.setattr(families, "k_lambda", lambda fam: sane(fam) + 1)
    with pytest.raises(ArithmeticError, match="witness"):
        k_r_oracle(2, 5, 4)
    with pytest.raises(ArithmeticError):
        k_r_exhaustive(2, 3, 2)
    with pytest.raises(ArithmeticError):
        k_r(2, 5, 2, mode="closed")


def test_maximizer_families_all_attain():
    fams = maximizer_families(2, 4, 2)
    assert len(fams) == 12  # pairs of intersecting edges on 4 points
    assert all(k_lambda(f) == 1 for f in fams)
    assert list(fams) == sorted(fams, key=lambda f: f.members)


def test_low_range_maximizers_are_close():
    # below the cap every maximizer is a close family
    for ell, m in ((2, 5), (3, 5)):
        mu = close_size_cap(ell, m)
        for r in range(2, mu + 1):
            for f in maximizer_families(ell, m, r):
                assert classify_close(f).kind is not CloseKind.NOT_CLOSE


def test_barrier_strict_above_cap():
    # at r = mu + 1 no family reaches the close-family value
    for ell, m in ((2, 5), (3, 5), (2, 6)):
        mu = close_size_cap(ell, m)
        assert k_r_value(ell, m, mu + 1) < (ell - 1) * math.comb(mu + 1, 2)


def test_k_r_modes():
    assert k_r(2, 6, 7, mode="closed") is None
    assert k_r(2, 6, 7, mode="oracle").value == 15
    assert k_r(2, 6, 7).value == 15
    assert k_r(2, 5, 3, mode="closed").method == "closed_form_low"
    assert k_r(2, 5, 9, mode="closed").method == "closed_form_high"
    with pytest.raises(ValueError):
        k_r(2, 5, 3, mode="fast")
    with pytest.raises(ValueError):
        k_r(2, 5, 11)


def test_both_mode_returns_closed_record_else_oracle():
    for ell, m in ((2, 5), (3, 5)):
        for r in range(math.comb(m, ell) + 1):
            rec = k_r(ell, m, r, "both")
            closed = k_r(ell, m, r, "closed")
            if closed is not None:
                assert rec == closed
            else:
                assert rec == k_r_oracle(ell, m, r)
                assert rec.maximizer_count is None


def test_both_mode_raises_on_disagreement(monkeypatch):
    sane = families._closed_record

    def doctored(ell, m, r):
        rec = sane(ell, m, r)
        if rec is not None and r == 9:
            return dataclasses.replace(rec, value=rec.value - 1)
        return rec

    monkeypatch.setattr(families, "_closed_record", doctored)
    assert k_r(2, 5, 8, "both").value == 19
    with pytest.raises(
        ArithmeticError,
        match=r"closed form 23 disagrees with exhaustive search 24 "
        r"at \(ell=2, m=5, r=9\)",
    ):
        k_r(2, 5, 9, "both")


def test_closed_record_carries_witness():
    rec = k_r(2, 6, 12, mode="closed")
    assert rec.value == GOLDEN_2_6[12]
    assert k_lambda(rec.maximizer) == rec.value
    assert rec.maximizer_count is None


# --------------------------------------------------------------- dualities

def test_first_duality_all_r():
    for ell, m in ((2, 5), (3, 5), (2, 4)):
        k = math.comb(m, ell)
        for r in range(k + 1):
            assert first_duality_check(ell, m, r)


def test_second_duality_all_r():
    for ell, m in ((2, 5), (3, 5)):
        k = math.comb(m, ell)
        for r in range(k + 1):
            assert second_duality_check(ell, m, r)


def test_second_duality_pointwise_any_family():
    # the identity behind the K_r-level statement holds for every family,
    # maximizer or not
    rng = random.Random(23)
    for ell, m in ((2, 5), (3, 5), (2, 6)):
        idx = SubsetIndexer(ell, m)
        k = idx.size
        nu = through_point_count(ell, m)
        for _ in range(300):
            size = rng.randint(0, k)
            chosen = rng.sample(range(k), size)
            f = SubsetFamily(ell, m, tuple(idx.mask_at(i) for i in chosen))
            co = complement_family(f)
            assert co.size == k - size
            assert k_lambda(co) == (
                m * math.comb(nu, 2) - size * ell * (nu - 1) + k_lambda(f)
            )


def test_complement_family_edges():
    f = fam(2, 4)
    assert complement_family(f).size == 6
    full = complement_family(f)
    assert complement_family(full).size == 0


# ------------------------------------------------------------------ budget

def test_oracle_budget_error_names_count():
    with pytest.raises(BudgetError, match="6435"):
        k_r_oracle(2, 6, 7, budget=100)


def test_budget_is_checked_before_the_caches():
    k_r(2, 6, 7)
    with pytest.raises(BudgetError):
        k_r(2, 6, 7, budget=1)


def test_out_of_range_r():
    with pytest.raises(ValueError):
        k_r_oracle(2, 5, 11)
    with pytest.raises(ValueError):
        k_r_exhaustive(2, 5, 11)
    with pytest.raises(ValueError):
        maximizer_families(2, 5, -1)
