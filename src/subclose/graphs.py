"""Graphs on {1..m} whose edge sets are families of 2-subsets.

The degree square sum Sigma(G) = sum of deg(v)^2 links straight back to the
intersection machinery: Sigma = 2*K + 2r for a graph with r edges, where K
is the pairwise intersection sum of the edge family.  Maximizing Sigma over
r-edge graphs is therefore the ell = 2 case of the K_r problem: the maximum
and its witnesses come from the one exhaustive search in ``families``, and
the Ahlswede-Katona closed form checks every maximum.  Exhaustion is over
labeled edge subsets, never isomorphism classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .families import (
    DEFAULT_FAMILY_BUDGET,
    SubsetFamily,
    complement_family,
    k_r_oracle,
    maximizer_families,
)


@dataclass(frozen=True)
class Graph:
    """Simple graph: ground set {1..m} plus an edge family with ell = 2."""

    m: int
    edges: SubsetFamily

    def __post_init__(self):
        if self.edges.ell != 2:
            raise ValueError(f"edge family must have ell=2, got {self.edges.ell}")
        if self.edges.m != self.m:
            raise ValueError("edge family lives on a different ground set")

    @classmethod
    def from_edges(cls, m: int, pairs) -> "Graph":
        return cls(m, SubsetFamily.from_sets(2, m, pairs))

    @property
    def r(self) -> int:
        return self.edges.size

    @property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.m
        for mask in self.edges.members:
            u = (mask & -mask).bit_length() - 1
            v = mask.bit_length() - 1
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def complement(self) -> "Graph":
        return Graph(self.m, complement_family(self.edges))

    @property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return self.edges.sets


def sigma(g: Graph) -> int:
    """Sum of squared vertex degrees."""
    return sum(d * d for d in g.degrees)


def is_star(g: Graph) -> bool:
    """One center of degree r, r leaves of degree 1, the rest isolated."""
    r = g.r
    if g.m < r + 1:
        return False
    expected = [r] + [1] * r + [0] * (g.m - r - 1)
    return sorted(g.degrees, reverse=True) == sorted(expected, reverse=True)


def is_triangle(g: Graph) -> bool:
    """Three mutually incident edges; the only non-star whose edges
    pairwise intersect."""
    if g.r != 3 or g.m < 3:
        return False
    expected = [2, 2, 2] + [0] * (g.m - 3)
    return sorted(g.degrees, reverse=True) == expected


@dataclass(frozen=True)
class ThresholdCertificate:
    """Outcome of threshold recognition.

    When the graph is threshold, build_sequence lists (tag, vertex) steps
    that reconstruct it from nothing: each step adds the vertex either with
    no edges ("isolated") or joined to everything added before ("universal").
    """

    is_threshold: bool
    build_sequence: tuple[tuple[str, int], ...] | None = None


def is_threshold(g: Graph) -> ThresholdCertificate:
    """Greedy peeling: repeatedly delete an isolated or universal vertex.

    A graph empties under this peeling exactly when it is threshold, and
    deleting any eligible vertex first is safe, so the smallest label wins
    for determinism.
    """
    adj = [0] * g.m
    for mask in g.edges.members:
        u = (mask & -mask).bit_length() - 1
        v = mask.bit_length() - 1
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    alive = (1 << g.m) - 1
    n = g.m
    peel: list[tuple[str, int]] = []
    while n:
        pick = None
        rest = alive
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            d = (adj[v] & alive).bit_count()
            if d == 0:
                pick = ("isolated", v)
                break
            if d == n - 1:
                pick = ("universal", v)
                break
            rest ^= bit
        if pick is None:
            return ThresholdCertificate(False)
        tag, v = pick
        peel.append((tag, v + 1))
        alive ^= 1 << v
        n -= 1
    return ThresholdCertificate(True, tuple(reversed(peel)))


def de_caen_bound(m: int, r: int) -> Fraction:
    """Upper bound r*(2r/(m-1) + m - 2) on Sigma over r-edge graphs, exact."""
    if m < 2:
        raise ValueError(f"bound needs m >= 2, got m={m}")
    if r < 0:
        raise ValueError(f"negative edge count r={r}")
    return Fraction(2 * r * r, m - 1) + r * (m - 2)


def sigma_exhaustive(
    m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> tuple[int, Graph]:
    """Max Sigma over all r-edge graphs on {1..m} plus the colex-least
    maximizer, from the exhaustive K_r search on edge families."""
    rec = k_r_oracle(2, m, r, budget=budget)
    return 2 * rec.value + 2 * r, Graph(m, rec.maximizer)


def sigma_maximizers(
    m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> tuple[Graph, ...]:
    """Every r-edge graph attaining the Sigma maximum, in colex order."""
    return tuple(
        Graph(m, fam) for fam in maximizer_families(2, m, r, budget=budget)
    )


def _quasi_complete_k(r: int) -> int:
    # K_a plus one vertex joined to b of its vertices, r = C(a,2) + b, b < a
    a = (1 + math.isqrt(1 + 8 * r)) // 2
    b = r - math.comb(a, 2)
    return b * math.comb(a, 2) + (a - b) * math.comb(a - 1, 2) + math.comb(b, 2)


def sigma_max_closed(m: int, r: int) -> int:
    """Max Sigma over r-edge graphs on {1..m} by Ahlswede-Katona.

    The maximum of K (adjacent edge pairs) is attained by the quasi-complete
    graph or by the quasi-star, the complement of the quasi-complete graph
    with C(m,2) - r edges; Sigma = 2*K + 2r, and complementing maps Sigma to
    m*(m-1)^2 - 4*c*(m-1) + Sigma for a graph with c edges.
    """
    k = math.comb(m, 2)
    if not 0 <= r <= k:
        raise ValueError(f"r={r} outside 0..{k} for m={m}")
    c = k - r
    quasi_complete = 2 * _quasi_complete_k(r) + 2 * r
    quasi_star = m * (m - 1) ** 2 - 4 * c * (m - 1) + 2 * _quasi_complete_k(c) + 2 * c
    return max(quasi_complete, quasi_star)


@dataclass(frozen=True)
class SigmaRecord:
    """Maximum Sigma for (m, r) with witness and the applicable bounds."""

    m: int
    r: int
    sigma_max: int
    maximizer: Graph
    de_caen_bound: Fraction
    trivial_bound: int | None
    dual_bound: int | None


def dual_bound_value(m: int, r: int) -> int:
    """Upper bound on Sigma for dense graphs, C(m-1,2) <= r <= C(m,2)."""
    k = math.comb(m, 2)
    if not math.comb(m - 1, 2) <= r <= k:
        raise ValueError(f"r={r} outside the dense range for m={m}")
    c = k - r
    return m * (m - 1) * (m - 2) + c * (c - 1) - 4 * c * (m - 2) + 2 * r


def optimal_graphs(
    m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> SigmaRecord:
    """Maximum Sigma computed two independent ways, which must agree.

    Search route: 2*K_r(2, m) + 2r from the exhaustive family search, which
    also gives the colex-least witness graph.
    Closed route: the Ahlswede-Katona maximum, sigma_max_closed.
    Disagreement means a bug in one of them and raises ArithmeticError.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    direct, maximizer = sigma_exhaustive(m, r, budget=budget)
    closed = sigma_max_closed(m, r)
    if direct != closed:
        raise ArithmeticError(
            f"exhaustive search gives {direct} but the Ahlswede-Katona closed "
            f"form gives {closed} for (m={m}, r={r})"
        )
    trivial = r * (r + 1) if (m >= 4 and r <= m - 1) else None
    k = math.comb(m, 2)
    dual = dual_bound_value(m, r) if math.comb(m - 1, 2) <= r <= k else None
    return SigmaRecord(m, r, direct, maximizer, de_caen_bound(m, r), trivial, dual)


@dataclass(frozen=True)
class TrivialBoundReport:
    """Exhaustive audit of the sparse-range bound Sigma <= r*(r+1)."""

    m: int
    r: int
    bound: int
    sigma_max: int
    attained: bool
    maximizers: tuple[Graph, ...]
    all_stars: bool
    gap_identity_ok: bool
    gap_positive: bool | None


def trivial_bound_check(
    m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> TrivialBoundReport:
    """Check Sigma <= r*(r+1) for r <= m-1, m >= 4, equality only at stars.

    Also confirms the exact gap to the de Caen bound,
    de_caen - r*(r+1) = r*(m-3)*(m-1-r)/(m-1), strictly positive for
    1 <= r < m-1.
    """
    if m < 4:
        raise ValueError(f"sparse-range bound needs m >= 4, got m={m}")
    if not 0 <= r <= m - 1:
        raise ValueError(f"sparse-range bound needs r <= m-1, got r={r}")
    bound = r * (r + 1)
    maxs = sigma_maximizers(m, r, budget=budget)
    sigma_max = sigma(maxs[0])
    gap = de_caen_bound(m, r) - bound
    gap_ok = gap == Fraction(r * (m - 3) * (m - 1 - r), m - 1)
    gap_pos = gap > 0 if 1 <= r < m - 1 else None
    return TrivialBoundReport(
        m,
        r,
        bound,
        sigma_max,
        sigma_max == bound,
        maxs,
        all(is_star(g) for g in maxs),
        gap_ok,
        gap_pos,
    )


def complement_sigma_check(g: Graph) -> bool:
    """Sigma of the complement from Sigma of the graph:
    Sigma(comp) = m*(m-1)^2 - 4*r*(m-1) + Sigma(g)."""
    m, r = g.m, g.r
    return sigma(g.complement()) == m * (m - 1) ** 2 - 4 * r * (m - 1) + sigma(g)


@dataclass(frozen=True)
class DualBoundReport:
    """Exhaustive audit of the dense-range bound."""

    m: int
    r: int
    bound: int
    sigma_max: int
    tight: bool


def dual_bound_check(
    m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> DualBoundReport:
    """Check the dense-range bound by exhaustion over all (m, r)-graphs."""
    bound = dual_bound_value(m, r)
    sigma_max, _ = sigma_exhaustive(m, r, budget=budget)
    if sigma_max > bound:
        raise ArithmeticError(
            f"dense-range bound violated at (m={m}, r={r}): {sigma_max} > {bound}"
        )
    return DualBoundReport(m, r, bound, sigma_max, sigma_max == bound)
