"""Acceptance suite: thirteen go/no-go checks over the whole package.

Each test prints exactly one [criterion NN] PASS/FAIL line (visible in the
captured output, and mirrored by the pytest -v result line) and enforces
the stated runtime limit where one applies.  Criterion 08 is expected to
fail: its equality clause for the sparse-range bound excludes triangles,
which genuinely attain it at r = 3.  See the FAIL message for the
counterexample; the corrected characterization is asserted in
tests/test_graphs.py.
"""

import math
import random
import time
from functools import lru_cache
from itertools import combinations

from subclose.combinat import colex_masks, gaussian_binom, set_of
from subclose.families import (
    SubsetFamily,
    complement_family,
    first_duality_check,
    k_lambda,
    k_r_closed,
    k_r_oracle,
    second_duality_check,
    sum_intersections_fixed,
    through_point_count,
    total_intersection_sum,
)
from subclose.gf import field_from_order
from subclose.graphs import (
    Graph,
    de_caen_bound,
    dual_bound_check,
    is_star,
    is_threshold,
    is_triangle,
    sigma,
    sigma_exhaustive,
    sigma_maximizers,
    trivial_bound_check,
)
from subclose.linalg import mat_rank
from subclose.codes import (
    check_plucker_relations,
    enumerate_grassmannian,
    grassmann_code,
    schubert_code,
    schubert_support,
    verify_conjecture,
    weight_hierarchy,
)

GOLDEN_2_5 = (0, 1, 3, 6, 8, 12, 15, 19, 24, 30)  # r = 1..10
GOLDEN_2_6 = (0, 1, 3, 6, 10, 12, 15, 19, 24, 30, 34, 39, 45, 52, 60)  # r = 1..15
HIERARCHY_G24_F2 = (16, 24, 28, 32, 34, 35)  # frozen from first computation
HIERARCHY_SCHUBERT_24_F2 = (8, 12, 16, 18, 19)

F2 = field_from_order(2)
F3 = field_from_order(3)


def note(problems, cond, msg):
    if not cond and len(problems) < 6:
        problems.append(msg)
    return cond


def finish(num, slug, t0, problems, limit=None):
    elapsed = time.perf_counter() - t0
    if limit is not None and elapsed > limit:
        problems.append(f"runtime {elapsed:.2f}s over the {limit}s limit")
    ok = not problems
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {slug} ({elapsed:.2f}s)"
    if not ok:
        line += ": " + "; ".join(problems)
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def code_g24():
    return grassmann_code(F2, 2, 4)


@lru_cache(maxsize=None)
def code_schubert(alpha):
    return schubert_code(F2, alpha, 2, 4)


def test_criterion_01_golden_table_2_5():
    t0 = time.perf_counter()
    problems = []
    for r in range(1, 11):
        got = k_r_oracle(2, 5, r).value
        note(problems, got == GOLDEN_2_5[r - 1],
             f"r={r}: oracle {got} != {GOLDEN_2_5[r - 1]}")
    finish(1, "golden-table-2-5", t0, problems, limit=1.0)


def test_criterion_02_golden_table_2_6():
    t0 = time.perf_counter()
    problems = []
    for r in range(1, 16):
        got = k_r_oracle(2, 6, r).value
        note(problems, got == GOLDEN_2_6[r - 1],
             f"r={r}: oracle {got} != {GOLDEN_2_6[r - 1]}")
    finish(2, "golden-table-2-6", t0, problems, limit=30.0)


def test_criterion_03_closed_form_oracle_agreement():
    # every lattice with at most 15 members (so every m <= 15; beyond that
    # only the one-member ell = m column remains and it carries no content)
    t0 = time.perf_counter()
    problems = []
    pairs = [
        (ell, m)
        for m in range(1, 16)
        for ell in range(1, m + 1)
        if math.comb(m, ell) <= 15
    ]
    for ell, m in pairs:
        k = math.comb(m, ell)
        for r in range(k + 1):
            closed = k_r_closed(ell, m, r)
            if closed is None:
                continue
            direct = k_r_oracle(ell, m, r).value
            note(problems, closed == direct,
                 f"(ell={ell}, m={m}, r={r}): closed {closed} != oracle {direct}")
    finish(3, "closed-form-vs-oracle", t0, problems, limit=120.0)


def test_criterion_04_first_duality():
    t0 = time.perf_counter()
    problems = []
    for ell, m in ((2, 5), (3, 5), (2, 6), (4, 6)):
        k = math.comb(m, ell)
        for r in range(k + 1):
            note(problems, first_duality_check(ell, m, r),
                 f"first duality fails at (ell={ell}, m={m}, r={r})")
    finish(4, "first-duality", t0, problems)


def test_criterion_05_second_duality():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(20260819)
    for ell, m in ((2, 5), (2, 6)):
        masks = colex_masks(ell, m)
        k = len(masks)
        nu = through_point_count(ell, m)
        base = m * math.comb(nu, 2)
        for _ in range(1000):
            r = rng.randint(0, k)
            fam = SubsetFamily(
                ell, m, tuple(masks[i] for i in rng.sample(range(k), r))
            )
            lhs = k_lambda(complement_family(fam))
            rhs = base - r * ell * (nu - 1) + k_lambda(fam)
            note(problems, lhs == rhs,
                 f"pointwise identity fails for a size-{r} family on (ell={ell}, m={m})")
        for r in range(k + 1):
            note(problems, second_duality_check(ell, m, r),
                 f"K_r-level identity fails at (ell={ell}, m={m}, r={r})")
    finish(5, "second-duality", t0, problems)


def test_criterion_06_sum_identities():
    t0 = time.perf_counter()
    problems = []
    pairs = [
        (ell, m)
        for m in range(1, 21)
        for ell in range(1, m + 1)
        if math.comb(m, ell) <= 20
    ]
    for ell, m in pairs:
        nu = through_point_count(ell, m)
        note(problems, total_intersection_sum(ell, m) == m * nu * nu,
             f"total sum wrong at (ell={ell}, m={m})")
        masks = colex_masks(ell, m)
        for i in range(len(masks)):
            got = sum_intersections_fixed(ell, m, set_of(masks[i]))
            note(problems, got == ell * (nu - 1),
                 f"fixed-member sum wrong at (ell={ell}, m={m}, A={set_of(masks[i])})")
    finish(6, "sum-identities", t0, problems)


def test_criterion_07_degree_square_identity():
    t0 = time.perf_counter()
    problems = []
    for m in range(2, 6):
        masks = colex_masks(2, m)
        for size in range(len(masks) + 1):
            for chosen in combinations(masks, size):
                fam = SubsetFamily(2, m, chosen)
                note(problems,
                     sigma(Graph(m, fam)) == 2 * k_lambda(fam) + 2 * size,
                     f"identity fails on a {size}-edge graph, m={m}")
    rng = random.Random(97)
    for _ in range(10**4):
        m = rng.randint(2, 12)
        masks = colex_masks(2, m)
        r = rng.randint(0, len(masks))
        fam = SubsetFamily(
            2, m, tuple(masks[i] for i in rng.sample(range(len(masks)), r))
        )
        note(problems, sigma(Graph(m, fam)) == 2 * k_lambda(fam) + 2 * r,
             f"identity fails on a random {r}-edge graph, m={m}")
    finish(7, "degree-square-identity", t0, problems)


def test_criterion_08_bounds_suite():
    t0 = time.perf_counter()
    problems = []
    # upper bound by average-degree argument, all graphs on up to 7 points
    for m in range(2, 8):
        for r in range(math.comb(m, 2) + 1):
            best, _ = sigma_exhaustive(m, r)
            note(problems, best <= de_caen_bound(m, r),
                 f"de Caen bound broken at (m={m}, r={r})")
    # dense-range bound, exhaustive, tight at the complete graph
    for m in range(4, 7):
        k = math.comb(m, 2)
        for r in range(math.comb(m - 1, 2), k + 1):
            rep = dual_bound_check(m, r)
            note(problems, rep.sigma_max <= rep.bound,
                 f"dense bound broken at (m={m}, r={r})")
        note(problems, dual_bound_check(m, k).tight,
             f"dense bound not tight at r=k for m={m}")
    # sparse-range bound r*(r+1) with equality exactly at stars: the bound
    # and its attainment hold, but the stars-only equality clause is false
    # as stated, because triangles also attain r*(r+1) = 12 at r = 3
    for m in range(4, 7):
        for r in range(m):
            rep = trivial_bound_check(m, r)
            note(problems, rep.sigma_max <= rep.bound,
                 f"sparse bound broken at (m={m}, r={r})")
            note(problems, rep.attained,
                 f"sparse bound unattained at (m={m}, r={r})")
            if not rep.all_stars:
                extra = [g for g in rep.maximizers if not is_star(g)]
                shapes = "triangles" if all(
                    is_triangle(g) for g in extra
                ) else "non-star graphs"
                note(problems, rep.all_stars,
                     f"equality not stars-only at (m={m}, r={r}): "
                     f"{len(extra)} of {len(rep.maximizers)} maximizers are "
                     f"{shapes}, e.g. edges {extra[0].edges.sets}")
    finish(8, "bounds-suite", t0, problems)


def test_criterion_09_maximizers_are_threshold():
    t0 = time.perf_counter()
    problems = []
    for m in range(2, 8):
        for r in range(math.comb(m, 2) + 1):
            for g in sigma_maximizers(m, r):
                note(problems, is_threshold(g).is_threshold,
                     f"non-threshold maximizer at (m={m}, r={r}): {g.edges.sets}")
    finish(9, "maximizers-threshold", t0, problems)


def test_criterion_10_subspace_counts_and_relations():
    t0 = time.perf_counter()
    problems = []
    cases = [(2, 4, 2), (2, 4, 3), (2, 5, 2)]
    cases += [(1, m, q) for m in range(1, 6) for q in (2, 3, 4)]
    for ell, m, q in cases:
        pts = enumerate_grassmannian(field_from_order(q), ell, m)
        note(problems, len(pts) == gaussian_binom(m, ell, q),
             f"count wrong for (ell={ell}, m={m}, q={q})")
    for ell, m, q in ((2, 4, 2), (2, 4, 3), (2, 5, 2)):
        F = field_from_order(q)
        for pt in enumerate_grassmannian(F, ell, m):
            note(problems, check_plucker_relations(F, pt, ell, m),
                 f"quadratic relation fails over GF({q}), (ell={ell}, m={m})")
    finish(10, "subspace-counts-relations", t0, problems, limit=60.0)


def test_criterion_11_weight_hierarchy_2_4():
    t0 = time.perf_counter()
    problems = []
    code = code_g24()
    weights = weight_hierarchy(code)
    note(problems, weights == HIERARCHY_G24_F2,
         f"hierarchy {weights} != frozen {HIERARCHY_G24_F2}")
    note(problems, all(a < b for a, b in zip(weights, weights[1:])),
         "hierarchy not strictly increasing")
    note(problems, weights[-1] == 35, f"d_6 = {weights[-1]} != 35")
    for r in (1, 2, 3):  # the regime where the section formula is settled
        rep = verify_conjecture(code, r)
        note(problems, rep.proven, f"r={r} unexpectedly outside the settled regime")
        note(problems, rep.verdict == "equal" and rep.d_r == weights[r - 1],
             f"r={r}: d_r={rep.d_r} but sections give {rep.rhs_subclose}")
    finish(11, "weight-hierarchy-2-4", t0, problems, limit=300.0)


def test_criterion_12_schubert_instances():
    t0 = time.perf_counter()
    problems = []
    for alpha, expected_dim in (((3, 4), 6), ((2, 4), 5)):
        code = code_schubert(alpha)
        counted = len(schubert_support(alpha, 2, 4))
        note(problems, counted == expected_dim,
             f"alpha={alpha}: coordinate count {counted} != {expected_dim}")
        note(problems, code.kdim == counted,
             f"alpha={alpha}: built dimension {code.kdim} != {counted}")
        note(problems, mat_rank(F2, code.generator) == code.kdim,
             f"alpha={alpha}: generator rank deficient")
        degenerate = any(
            all(row[j] == 0 for row in code.generator) for j in range(code.n)
        )
        note(problems, not degenerate, f"alpha={alpha}: zero position")
        rep = verify_conjecture(code, 1)
        note(problems, rep.proven and rep.verdict == "equal",
             f"alpha={alpha}: r=1 verdict {rep.verdict}")
    finish(12, "schubert-instances", t0, problems, limit=60.0)


def test_criterion_13_hierarchies_strictly_increasing():
    t0 = time.perf_counter()
    problems = []
    built = [
        ("subspace system (2,4)/GF(2)", code_g24()),
        ("subvariety (2,4) alpha=(2,4)/GF(2)", code_schubert((2, 4))),
        ("subvariety (2,4) alpha=(3,4)/GF(2)", code_schubert((3, 4))),
        ("point system (1,3)/GF(2)", grassmann_code(F2, 1, 3)),
        ("point system (1,3)/GF(3)", grassmann_code(F3, 1, 3)),
        ("point system (1,4)/GF(2)", grassmann_code(F2, 1, 4)),
        ("dual system (2,3)/GF(2)", grassmann_code(F2, 2, 3)),
    ]
    expected = {
        "subspace system (2,4)/GF(2)": HIERARCHY_G24_F2,
        "subvariety (2,4) alpha=(2,4)/GF(2)": HIERARCHY_SCHUBERT_24_F2,
    }
    for name, code in built:
        weights = weight_hierarchy(code)
        note(problems, all(a < b for a, b in zip(weights, weights[1:])),
             f"{name}: hierarchy {weights} not strictly increasing")
        note(problems, weights[-1] == code.n,
             f"{name}: hierarchy ends at {weights[-1]}, n = {code.n}")
        if name in expected:
            note(problems, weights == expected[name],
                 f"{name}: {weights} != frozen {expected[name]}")
    finish(13, "hierarchies-increasing", t0, problems)
