"""Tests for the degree-square-sum machinery on small graphs."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from subclose.combinat import colex_masks, mask_of
from subclose.families import BudgetError, SubsetFamily, k_lambda, k_r
from subclose.graphs import (
    Graph,
    de_caen_bound,
    complement_sigma_check,
    dual_bound_check,
    dual_bound_value,
    is_star,
    is_threshold,
    is_triangle,
    optimal_graphs,
    sigma,
    sigma_exhaustive,
    sigma_max_closed,
    sigma_maximizers,
    trivial_bound_check,
)


def family(ell, m, sets):
    return SubsetFamily(ell, m, tuple(mask_of(s) for s in sets))


def graph(m, *pairs):
    return Graph(m, family(2, m, pairs))


def all_graphs(m):
    masks = colex_masks(2, m)
    for size in range(len(masks) + 1):
        for chosen in combinations(masks, size):
            yield Graph(m, SubsetFamily(2, m, chosen))


STAR_5 = graph(5, (1, 2), (1, 3), (1, 4), (1, 5))
TRIANGLE_4 = graph(4, (1, 2), (1, 3), (2, 3))
P4 = graph(4, (1, 2), (2, 3), (3, 4))


# ------------------------------------------------------------------- sigma

def test_sigma_goldens():
    assert sigma(STAR_5) == 20
    assert sigma(TRIANGLE_4) == 12
    assert sigma(graph(3)) == 0
    assert sigma(P4) == 1 + 4 + 4 + 1


def test_degrees_and_complement():
    assert STAR_5.degrees == (4, 1, 1, 1, 1)
    assert STAR_5.r == 4
    co = STAR_5.complement()
    assert co.r == 10 - 4
    assert co.degrees == (0, 3, 3, 3, 3)
    assert co.complement() == STAR_5


def test_sigma_from_k_exhaustive_m4():
    # degree route vs intersection route on every graph
    for g in all_graphs(4):
        assert sigma(g) == 2 * k_lambda(g.edges) + 2 * g.r


def test_sigma_from_k_random_m12():
    rng = random.Random(31)
    masks = colex_masks(2, 12)
    for _ in range(500):
        size = rng.randint(0, 20)
        chosen = rng.sample(range(len(masks)), size)
        f = SubsetFamily(2, 12, tuple(masks[i] for i in chosen))
        assert 2 * k_lambda(f) + 2 * f.size == sigma(Graph(12, f))


# ------------------------------------------------------------------ shapes

def test_is_star():
    assert is_star(STAR_5)
    assert is_star(graph(4, (2, 3)))
    assert is_star(graph(4))  # no edges
    assert not is_star(TRIANGLE_4)
    assert not is_star(P4)
    assert not is_star(graph(4, (1, 2), (3, 4)))


def test_is_triangle():
    assert is_triangle(TRIANGLE_4)
    assert is_triangle(graph(6, (2, 4), (2, 6), (4, 6)))
    assert not is_triangle(STAR_5)
    assert not is_triangle(P4)
    assert not is_triangle(graph(5, (1, 2), (1, 3), (1, 4)))


def test_pairwise_incident_edges_mean_star_or_triangle():
    # the ell = 2 close families, exhaustively for m <= 5
    for m in (3, 4, 5):
        for g in all_graphs(m):
            if g.r == 0:
                continue
            pairwise = all(
                len(set(a) & set(b)) == 1
                for a, b in combinations(g.edges.sets, 2)
            )
            assert pairwise == (is_star(g) or is_triangle(g))


# --------------------------------------------------------------- threshold

def replay(m, steps):
    edges = []
    added = []
    for tag, v in steps:
        if tag == "universal":
            edges.extend((u, v) for u in added)
        else:
            assert tag == "isolated"
        added.append(v)
    return graph(m, *edges)


def test_threshold_goldens():
    assert is_threshold(STAR_5).is_threshold
    assert is_threshold(graph(4, (1, 2), (1, 3), (2, 3), (1, 4))).is_threshold
    assert is_threshold(graph(3)).is_threshold
    for bad in (
        P4,
        graph(4, (1, 2), (2, 3), (3, 4), (1, 4)),  # 4-cycle
        graph(4, (1, 2), (3, 4)),  # perfect matching
    ):
        cert = is_threshold(bad)
        assert not cert.is_threshold
        assert cert.build_sequence is None


def threshold_by_forbidden(g):
    # independent recognizer: no induced P4, C4, or 2K2; the three shapes
    # are pinned down inside a 4-set by (edge count, degree multiset)
    edges = set(g.edges.sets)
    for quad in combinations(range(1, g.m + 1), 4):
        inside = [e for e in edges if e[0] in quad and e[1] in quad]
        degs = sorted(
            sum(v in e for e in inside) for v in quad
        )
        if (len(inside), tuple(degs)) in (
            (2, (1, 1, 1, 1)),
            (3, (1, 1, 2, 2)),
            (4, (2, 2, 2, 2)),
        ):
            return False
    return True


def test_threshold_replay_exhaustive_m5():
    found = 0
    for g in all_graphs(5):
        cert = is_threshold(g)
        assert cert.is_threshold == threshold_by_forbidden(g)
        if cert.is_threshold:
            found += 1
            assert replay(5, cert.build_sequence) == g
    # labeled threshold graphs on 5 vertices
    assert found == 332


def test_threshold_closed_under_complement():
    for g in all_graphs(4):
        assert is_threshold(g).is_threshold == is_threshold(g.complement()).is_threshold


# ------------------------------------------------------------------ bounds

def test_de_caen_bound_values():
    assert de_caen_bound(4, 2) == Fraction(20, 3)
    assert de_caen_bound(5, 4) == 20
    assert isinstance(de_caen_bound(4, 2), Fraction)
    with pytest.raises(ValueError):
        de_caen_bound(1, 0)
    with pytest.raises(ValueError):
        de_caen_bound(5, -1)


def test_de_caen_holds_exhaustively_m6():
    for m in (2, 3, 4, 5, 6):
        k = math.comb(m, 2)
        for r in range(k + 1):
            best, _ = sigma_exhaustive(m, r)
            assert best <= de_caen_bound(m, r)


def test_optimal_graphs_examples():
    rec = optimal_graphs(5, 4)
    assert rec.sigma_max == 20
    assert is_star(rec.maximizer)
    assert rec.de_caen_bound == 20  # tight here
    assert rec.trivial_bound == 20
    assert optimal_graphs(6, 5).sigma_max == 30
    assert optimal_graphs(4, 3).sigma_max == 12
    assert optimal_graphs(2, 1).sigma_max == 2
    with pytest.raises(ValueError):
        optimal_graphs(1, 0)


def test_optimal_routes_agree_everywhere_m5():
    # ArithmeticError would mean the search and the closed form disagree
    for m in (2, 3, 4, 5, 6, 7):
        for r in range(math.comb(m, 2) + 1):
            rec = optimal_graphs(m, r)
            assert rec.sigma_max == 2 * k_r(2, m, r).value + 2 * r
            assert sigma_max_closed(m, r) == rec.sigma_max


def test_optimal_matches_the_exhaustive_oracle_m7():
    # the shifted-family route gives the oracle's maximum and its colex-
    # least witness on every (m, r) the oracle reaches quickly
    for m in range(2, 8):
        for r in range(math.comb(m, 2) + 1):
            rec = optimal_graphs(m, r)
            assert (rec.sigma_max, rec.maximizer) == sigma_exhaustive(m, r)


def test_optimal_answers_without_the_exhaustive_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("optimal_graphs ran the exhaustive search")

    monkeypatch.setattr("subclose.families.k_r_oracle", refuse)
    monkeypatch.setattr("subclose.graphs.k_r_oracle", refuse)
    for r in range(math.comb(7, 2) + 1):
        assert optimal_graphs(7, r).sigma_max == sigma_max_closed(7, r)


def test_optimal_refuses_what_the_oracle_refuses():
    # the candidate budget, and the depth cap of 900 walk levels
    for m, r, budget in ((8, 14, 1000), (6, 7, 5004), (43, 901, 10**9)):
        with pytest.raises(BudgetError) as oracle:
            sigma_exhaustive(m, r, budget=budget)
        with pytest.raises(BudgetError) as shifted:
            optimal_graphs(m, r, budget=budget)
        assert str(shifted.value) == str(oracle.value)
    # C(15, 7) = 6435 candidates fit a budget of exactly that many
    assert optimal_graphs(6, 7, budget=6435).sigma_max == sigma_max_closed(6, 7)


def test_sigma_max_closed_beyond_the_sweep():
    # K_r(2, 8) for r = 9..12 from the exhaustive kr-table
    for r, k in zip(range(9, 13), (26, 30, 35, 41)):
        assert sigma_max_closed(8, r) == 2 * k + 2 * r
    with pytest.raises(ValueError):
        sigma_max_closed(5, 11)


def test_degree_side_oracle_m5():
    # independent of the family search: Sigma from degrees on every graph
    for m in (2, 3, 4, 5):
        best = {}
        for g in all_graphs(m):
            s = sigma(g)
            if s > best.get(g.r, (-1, []))[0]:
                best[g.r] = (s, [g])
            elif s == best[g.r][0]:
                best[g.r][1].append(g)
        for r, (value, graphs) in best.items():
            assert sigma_exhaustive(m, r) == (value, graphs[0])
            assert sigma_maximizers(m, r) == tuple(graphs)


def test_sigma_maximizer_counts():
    assert len(sigma_maximizers(5, 1)) == 10
    assert len(sigma_maximizers(4, 2)) == 12
    for g in sigma_maximizers(4, 2):
        assert sigma(g) == 6


def test_trivial_bound_star_range():
    rep = trivial_bound_check(5, 4)
    assert rep.bound == 20 and rep.attained and rep.all_stars
    assert rep.gap_identity_ok
    assert rep.gap_positive is None  # r = m-1: de Caen gap closes
    rep = trivial_bound_check(6, 2)
    assert rep.bound == 6 and rep.attained and rep.all_stars
    assert rep.gap_positive
    with pytest.raises(ValueError):
        trivial_bound_check(3, 2)
    with pytest.raises(ValueError):
        trivial_bound_check(6, 6)


def test_trivial_bound_equality_cases_corrected():
    # at r = 3 the bound r*(r+1) = 12 is shared by stars and triangles;
    # every other r in the sparse range is stars only
    for m in (4, 5, 6):
        for r in range(m):
            rep = trivial_bound_check(m, r)
            assert rep.attained
            assert rep.gap_identity_ok
            if r == 3:
                assert not rep.all_stars
                assert all(is_star(g) or is_triangle(g) for g in rep.maximizers)
                assert any(is_triangle(g) for g in rep.maximizers)
                assert any(is_star(g) for g in rep.maximizers)
            else:
                assert rep.all_stars


def test_triangle_attains_trivial_bound():
    # the non-star equality case the sparse bound has to live with
    assert sigma(TRIANGLE_4) == 3 * (3 + 1) == 12


def test_dual_bound_dense_range():
    assert dual_bound_value(5, 7) == 44
    rep = dual_bound_check(5, 7)
    assert rep.tight
    for m in (4, 5, 6):
        k = math.comb(m, 2)
        for r in range(math.comb(m - 1, 2), k + 1):
            rep = dual_bound_check(m, r)
            assert rep.sigma_max <= rep.bound
            assert rep.tight  # holds with equality throughout at this size
    with pytest.raises(ValueError):
        dual_bound_value(5, 5)
    with pytest.raises(ValueError):
        dual_bound_value(5, 11)


def test_dual_bound_at_complete_graph():
    # r = C(m,2): the bound must equal m*(m-1)^2 exactly
    for m in (3, 4, 5, 6):
        k = math.comb(m, 2)
        assert dual_bound_value(m, k) == m * (m - 1) ** 2


def test_complement_sigma_identity():
    rng = random.Random(5)
    for g in all_graphs(4):
        assert complement_sigma_check(g)
    for _ in range(200):
        m = rng.randint(2, 10)
        masks = colex_masks(2, m)
        size = rng.randint(0, len(masks))
        chosen = rng.sample(range(len(masks)), size)
        g = Graph(m, SubsetFamily(2, m, tuple(masks[i] for i in chosen)))
        assert complement_sigma_check(g)


# ------------------------------------------------------------ optimality

def test_every_maximizer_is_threshold_m6():
    for m in (2, 3, 4, 5, 6):
        for r in range(math.comb(m, 2) + 1):
            for g in sigma_maximizers(m, r):
                assert is_threshold(g).is_threshold


def test_budget_error_names_count():
    with pytest.raises(BudgetError):
        sigma_exhaustive(8, 14, budget=1000)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(5, family(3, 5, [(1, 2, 3)]))
    with pytest.raises(ValueError):
        Graph(4, family(2, 5, [(1, 2)]))
    with pytest.raises(ValueError):
        sigma_exhaustive(4, 7)
