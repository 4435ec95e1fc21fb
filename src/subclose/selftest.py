"""Built-in consistency checks behind the selftest subcommand.

One suite touches every module, including the exhaustions behind the
paper's dualities, close-family certificates, proven cases and the
shifted-family K_r route, in under a second.  Each check is a named
zero-argument callable returning a bool; an exception counts as failure,
and a failed check carries its reason.
"""

from __future__ import annotations

import math
from typing import Callable

from . import codes, combinat, families, gf, graphs, linalg, serialize

# K_r for ell=2 on 5 and 6 points, r = 0..C(m,2)
GOLDEN_KR_2_5 = (0, 0, 1, 3, 6, 8, 12, 15, 19, 24, 30)
GOLDEN_KR_2_6 = (0, 0, 1, 3, 6, 10, 12, 15, 19, 24, 30, 34, 39, 45, 52, 60)

Check = tuple[str, Callable[[], bool]]


def _binomial_identities() -> bool:
    rep = combinat.check_binomial_identities(
        range(-4, 5), range(-4, 5), range(-3, 4), range(-2, 3), range(-2, 3)
    )
    return rep.ok


def _golden_kr_2_5() -> bool:
    # mode "both" also checks every closed form against the search
    values = tuple(families.k_r(2, 5, r, "both").value for r in range(11))
    return values == GOLDEN_KR_2_5


def _golden_kr_2_6() -> bool:
    values = tuple(families.k_r_oracle(2, 6, r).value for r in range(16))
    return values == GOLDEN_KR_2_6


def _closed_vs_search() -> bool:
    for ell, m in ((2, 4), (3, 5)):
        for r in range(math.comb(m, ell) + 1):
            families.k_r(ell, m, r, "both")  # raises on a disagreement
    return True


def _shifted_vs_oracle() -> bool:
    # auto mode takes K_r and its witness, the least shifted maximizer, from
    # the shifted families; mode "both" checks both against the unreduced
    # search, here on rows above the count cap
    for r in range(6, 10):
        families.k_r(3, 7, r, "both")  # raises on a disagreement
    return True


def _close_families() -> bool:
    # up to the cap every maximizer is close, and its witness rebuilds it
    for ell, m in ((2, 5), (3, 5)):
        for r in range(2, families.close_size_cap(ell, m) + 1):
            for fam in families.maximizer_families(ell, m, r):
                w = families.classify_close(fam)
                if w.kind is families.CloseKind.NOT_CLOSE:
                    return False
                # TypeI adds each tail point to the core, TypeII drops each
                # one from core + tail
                union = w.kind is families.CloseKind.TYPE_II
                base = combinat.mask_of(w.core + (w.tail if union else ()))
                rebuilt = sorted(base ^ (1 << (t - 1)) for t in w.tail)
                if tuple(rebuilt) != fam.members:
                    return False
    return True


def _dualities(*lattices: tuple[int, int]) -> bool:
    return all(
        families.first_duality_check(ell, m, r)
        and families.second_duality_check(ell, m, r)
        for ell, m in lattices
        for r in range(math.comb(m, ell) + 1)
    )


def _graphs_small() -> bool:
    k = math.comb(5, 2)
    for r in range(k + 1):
        rec = graphs.optimal_graphs(5, r)
        if rec.de_caen_bound < rec.sigma_max:
            return False
        for g in graphs.sigma_maximizers(5, r):
            if not graphs.is_threshold(g).is_threshold:
                return False
            if not graphs.complement_sigma_check(g):
                return False
    return True


def _graph_bounds_m6() -> bool:
    # equality case: stars always attain; at r = 3 (and only there) the
    # triangle attains too, so "stars only" holds away from r = 3
    for r in range(6):
        rep = graphs.trivial_bound_check(6, r)
        if not (rep.attained and rep.gap_identity_ok):
            return False
        if rep.gap_positive is False:
            return False
        if r != 3 and not rep.all_stars:
            return False
        if r == 3 and not all(
            graphs.is_star(g) or graphs.is_triangle(g) for g in rep.maximizers
        ):
            return False
    k = math.comb(6, 2)
    for r in range(math.comb(5, 2), k + 1):
        if not graphs.dual_bound_check(6, r).tight:
            return False
    return True


def _field_tables() -> bool:
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        gf.field_from_order(q)  # exhaustive axiom check happens inside
    F4 = gf.field_from_order(4)
    return F4.mul[2][2] == 3 and F4.mul[2][3] == 1 and F4.add[2][3] == 1


def _grassmannian_f2() -> bool:
    F = gf.field_from_order(2)
    pts = codes.enumerate_grassmannian(F, 2, 4)
    if len(pts) != 35:
        return False
    return all(codes.check_plucker_relations(F, pt, 2, 4) for pt in pts)


def _schubert_f2() -> bool:
    F = gf.field_from_order(2)
    alpha = (2, 4)
    sub = set(codes.schubert_code(F, alpha, 2, 4).points)
    if len(sub) != 19:
        return False
    # enumerate_grassmannian lists the points in rref_span_matrices order
    pairs = zip(
        linalg.rref_span_matrices(F, 2, 4),
        codes.enumerate_grassmannian(F, 2, 4),
        strict=True,
    )
    return all(
        codes.schubert_membership_flag(F, basis, alpha) == (pt in sub)
        for basis, pt in pairs
    )


def _simplex_code() -> bool:
    F = gf.field_from_order(2)
    code = codes.grassmann_code(F, 1, 3)
    return (
        (code.n, code.kdim) == (7, 3)
        and codes.weight_hierarchy(code) == (4, 6, 7)
    )


def _serialization() -> bool:
    rec = families.k_r(2, 4, 2)
    doc = serialize.kr_record_doc(rec)
    serialize.validate_doc(doc)
    a = serialize.canonical_json(doc)
    b = serialize.canonical_json(dict(reversed(list(doc.items()))))
    grec = graphs.optimal_graphs(4, 3)
    gdoc = serialize.sigma_record_doc(grec)
    serialize.validate_doc(gdoc)
    return a == b


def _weight_hierarchy_f2() -> bool:
    F = gf.field_from_order(2)
    code = codes.grassmann_code(F, 2, 4)
    if (code.n, code.kdim) != (35, 6):
        return False
    weights = codes.weight_hierarchy(code)  # checks strict growth, d_k = n
    return len(weights) == 6 and weights[-1] == 35


def _conjecture_proven_cases() -> bool:
    F = gf.field_from_order(2)
    code = codes.grassmann_code(F, 2, 4)
    for r in (1, 2, 3):
        rep = codes.verify_conjecture(code, r)
        if not (rep.proven and rep.verdict == "equal"):
            return False
    rep = codes.verify_conjecture(codes.schubert_code(F, (2, 4), 2, 4), 1)
    return rep.proven and rep.verdict == "equal"


def _sum_identities() -> bool:
    for ell, m in ((1, 4), (2, 4), (2, 5), (3, 5), (2, 6), (5, 6), (1, 7), (3, 6)):
        nu = families.through_point_count(ell, m)
        if families.total_intersection_sum(ell, m) != m * nu * nu:
            return False
        for a in combinat.colex_masks(ell, m):
            if families.sum_intersections_fixed(ell, m, a) != ell * (nu - 1):
                return False
    return True


CHECKS: tuple[Check, ...] = (
    ("binomial-identities", _binomial_identities),
    ("golden-kr-2-5", _golden_kr_2_5),
    ("closed-vs-search", _closed_vs_search),
    ("dualities-2-5", lambda: _dualities((2, 5))),
    ("graphs-m5", _graphs_small),
    ("field-tables", _field_tables),
    ("grassmannian-f2-2-4", _grassmannian_f2),
    ("schubert-f2-alpha-2-4", _schubert_f2),
    ("simplex-code", _simplex_code),
    ("serialization", _serialization),
    ("sum-identities", _sum_identities),
    ("golden-kr-2-6", _golden_kr_2_6),
    ("dualities-3-5-and-2-6", lambda: _dualities((3, 5), (2, 6))),
    ("graph-bounds-m6", _graph_bounds_m6),
    ("weight-hierarchy-f2-2-4", _weight_hierarchy_f2),
    ("conjecture-proven-cases", _conjecture_proven_cases),
    ("close-families", _close_families),
    ("shifted-vs-oracle-3-7", _shifted_vs_oracle),
)


def run_selftest() -> list[tuple[str, bool, str | None]]:
    """Run every check and give its name, whether it passed and, if it
    failed, why.

    The reason is "ExceptionType: message" for a check that raised, with
    the message on one line, or "returned False".
    """
    results = []
    for name, fn in CHECKS:
        try:
            ok = bool(fn())
        except Exception as exc:
            message = " ".join(str(exc).split())
            reason = type(exc).__name__ + (f": {message}" if message else "")
            results.append((name, False, reason))
        else:
            results.append((name, ok, None if ok else "returned False"))
    return results
