"""Exact workbench for intersection-maximal set families and their uses.

Three connected layers: combinatorics of families of ell-subsets whose
pairwise intersection sum is maximal (combinat, families), the ell = 2
specialization to degree square sums of graphs (graphs), and linear codes
built from subspace systems over small finite fields, where those maximal
families conjecturally govern the higher weights (gf, linalg, codes).
"""

from .combinat import (
    IdentityReport,
    binom_ext,
    check_binomial_identities,
    colex_masks,
    gaussian_binom,
    mask_of,
    set_of,
)
from .families import (
    BudgetError,
    CloseFamilyWitness,
    CloseKind,
    KrRecord,
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
    k_r_oracle,
    k_r_shifted,
    maximizer_families,
    second_duality_check,
    sum_intersections_fixed,
    through_point_count,
    total_intersection_sum,
)
from .graphs import (
    DualBoundReport,
    Graph,
    SigmaRecord,
    ThresholdCertificate,
    TrivialBoundReport,
    complement_sigma_check,
    de_caen_bound,
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
from .gf import FieldTable, build_field, field_from_order
from .linalg import det, mat_rank, rref, rref_span_matrices
from .codes import (
    CodeSystem,
    ConjectureReport,
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

__version__ = "0.1.0"
