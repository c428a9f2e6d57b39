"""Exact computations over the rationals for real-root counting,
quadratic-form signatures, sums-of-squares certificates and moment
relaxations.

The exact core (``arith``, ``poly``, ``quadforms``, ``rootcount``) is
imported here.  The search layers ``conic``, ``lasserre``, ``numeric`` and
``sos`` are in ``sys.modules`` from the start, but their code runs at their
first attribute read, so a command that only counts roots or checks a matrix
never compiles or runs them.  Their public names resolve through the module
``__getattr__`` (``from ratsos import find_gram`` loads ``sos``).
"""

import importlib.util
import sys

from .arith import Mat, affine_solution_set, charpoly, det, rat, solve_linear
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

__version__ = "0.1.0"


def _lazy_import(name: str):
    """The module ``name`` from sys.modules, or one whose code runs at its first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


conic, lasserre, numeric, sos = (_lazy_import(f"{__name__}.{m}")
                                 for m in ("conic", "lasserre", "numeric", "sos"))

#: the public names of the search layers, each read from its module when first asked for
_LAZY_NAMES = {name: module for module, names in [
    (conic, "ConicCombination EmptyFeasibleSet LinearCertificate LinearWitness SeparatingFunctional"
            " cone_contains conic_representation convex_membership linear_nns newton_halved_lattice"),
    (lasserre, "BisectResult LasserreRelaxation build_relaxation emit_sdpa lower_bound_bisect"
               " module_cert_search monomials_upto verify_module_membership"),
    (sos, "GramFamily Search VerifyResult cassels_descent find_gram gram_family search verify_sos"),
] for name in names.split()}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), *_LAZY_NAMES]
