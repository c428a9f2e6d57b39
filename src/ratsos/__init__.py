"""Exact computations over the rationals for real-root counting,
quadratic-form signatures, sums-of-squares certificates and moment
relaxations."""

from .arith import Mat, affine_solution_set, charpoly, det, rat, solve_linear
from .conic import (
    ConicCombination,
    EmptyFeasibleSet,
    LinearCertificate,
    LinearWitness,
    SeparatingFunctional,
    cone_contains,
    conic_representation,
    convex_membership,
    linear_nns,
    newton_halved_lattice,
)
from .lasserre import (
    BisectResult,
    LasserreRelaxation,
    build_relaxation,
    emit_sdpa,
    lower_bound_bisect,
    module_cert_search,
    monomials_upto,
    verify_module_membership,
)
from .poly import (
    MPoly,
    NEG_INF,
    PolyParseError,
    UPoly,
    gcd_upoly,
    parse_poly,
    parse_upoly,
    poly_text,
    sign_changes,
)
from .quadforms import (
    DiagCongruence,
    SosCert,
    SymMat,
    diagonalize,
    gram_product,
    inertia,
    is_psd,
    rank,
    signature,
    signature_via_descartes,
    weighted_square_decomposition,
)
from .rootcount import (
    HermiteData,
    count_complex_distinct,
    count_real_roots,
    count_real_with_signs,
    count_roots,
    decide_strict_system,
    hermite_form,
    is_real_rooted,
    positive_root_count_bound,
)
from .sos import (
    GramFamily,
    Search,
    VerifyResult,
    cassels_descent,
    find_gram,
    gram_family,
    search,
    verify_sos,
)

__version__ = "0.1.0"
