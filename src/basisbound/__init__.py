"""Exact-arithmetic bounds, constructions, searches and certificates for
extremal set families, constant-distance codes and spherical two-distance
sets."""

from .bounds import (
    ModDistanceHypotheses,
    check_mod_distance_hypotheses,
    delsarte_bound,
    msd_bound,
    two_distance_max,
    uniform_two_intersection_conjecture,
)
from .certifier import (
    Certificate,
    certify_independence,
    hamming_tight_certificate,
    indicator_polys,
    mod_design_certificate,
    neumaier_check,
    ryser_decompose,
    two_distance_certificate,
)
from .constructions import (
    GramTwoDistance,
    fano_plane,
    hadamard_design,
    hadamard_plus_full,
    johnson_pairs,
    lambda_design_type1,
    near_pencil,
    pentagon,
    projective_plane,
    schlafli27,
)
from .exactfield import (
    QQ,
    ExactMatrix,
    PrimeFieldCtx,
    QuadExt,
    QuadExtField,
    determinant,
    inertia_psd_rank,
    invert,
    rank,
    solve_linear,
)
from .families import (
    SetFamily,
    VectorSystem,
    constant_vector_distance_sum,
    degrees,
    distance_set,
    hamming_distance,
    intersection_set,
)
from .search import SearchProblem, SearchResult, search_max

__version__ = "0.1.0"
