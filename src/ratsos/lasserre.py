"""Moment relaxations of polynomial inequality systems.

A degree-d relaxation replaces every monomial of degree at most d by a
moment variable y_alpha (y_0 pinned to 1) and demands that the moment block
and one localizing block per constraint be positive semidefinite.  The
blocks read their entries off :func:`ratsos.sos.incidence`, the map whose
rows are the Gram system of the certificates below.  The module also
searches and verifies exact weighted-SOS membership certificates for the
degree-d truncated module sum_i sigma_i g_i (one :func:`ratsos.sos.search`,
one block per generator, restricted exactly to the face its forced zeros
define); a certificate is the list of weighted-square multipliers sigma_i,
aligned with [1] + gs.  It also computes certified lower bounds by
bisection on those exact searches: a level counts as feasible only when its
certificate is found.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .arith import rat, record
from .poly import MPoly, _grlex_key, poly_text
from .quadforms import SosCert, SymMat, weighted_square_decomposition
from .sos import Search, VerifyResult, _blocks, _slots, incidence, json_field, search, terms_from_json, terms_to_json


def monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree <= degree, graded-lex ordered."""
    if degree < 0:
        return []
    out = [()]
    for _ in range(nvars):
        out = [t + (k,) for t in out for k in range(degree - sum(t) + 1)]
    return sorted(out, key=_grlex_key)


class LasserreRelaxation(record("LasserreRelaxation", "nvars degree monomials generators bases")):
    """The degree-d relaxation over the generators the degree-d module keeps:
    block k is the localizing block of generators[k] (the moment block for
    the constant 1) over the monomials bases[k], its entries read off
    :func:`ratsos.sos.incidence`.  ``monomials`` starts with the constant one."""

    __slots__ = ()

    @property
    def num_moment_vars(self) -> int:
        return len(self.monomials) - 1

    @property
    def block_sizes(self) -> list[int]:
        return [len(b) for b in self.bases]


def _module(gs, d: int, nvars: int) -> tuple[list[MPoly], list[int]]:
    """[1] + gs and the cap of each generator in the degree-d module.

    The monomials of a generator's Gram block have degree at most the cap
    r = floor((d - deg g) / 2); a generator that is zero or of degree above d
    has cap -1, no block.  Relaxation blocks, the certificate search and its
    verification all read this one rule.
    """
    generators = [MPoly.constant(nvars, 1)] + list(gs)
    return generators, [-1 if g.is_zero or g.degree() > d else (d - int(g.degree())) // 2 for g in generators]


def build_relaxation(gs, degree: int, nvars: int) -> LasserreRelaxation:
    """Moment and localizing blocks for the degree-d relaxation of gs >= 0.

    Constraints that are zero or of degree above d contribute nothing and are
    skipped.  Block i has size dim R[x]_{r_i} with r_i = floor((d - deg g_i)/2).
    """
    if degree < 1:
        raise ValueError("relaxation degree must be at least 1")
    generators, caps = _module(gs, degree, nvars)
    kept = [k for k, r in enumerate(caps) if r >= 0]
    return LasserreRelaxation(nvars, degree, monomials_upto(nvars, degree), [generators[k] for k in kept],
                              [monomials_upto(nvars, caps[k]) for k in kept])


def blocks_at_point(rel: LasserreRelaxation, point) -> list[SymMat]:
    """Instantiate every block with the moment vector y_alpha = point^alpha."""
    point = [rat(x) for x in point]
    if len(point) != rel.nvars:
        raise ValueError(f"point has length {len(point)}, expected {rel.nvars}")
    y = {alpha: prod(t**e for t, e in zip(point, alpha)) for alpha in rel.monomials}
    upper = [Fraction(0)] * len(_slots(rel.bases))
    for u, gamma, c in incidence(rel.bases, rel.generators):
        upper[u] += c * y[gamma]
    return _blocks(rel.bases, upper)


# --- SDPA sparse output ----------------------------------------------------

MAX_SDPA_DENOMINATOR = 10**6


def _sdpa_value(v: Fraction) -> str:
    if v.denominator > MAX_SDPA_DENOMINATOR:
        raise ValueError(f"rational {v} exceeds the emit denominator bound {MAX_SDPA_DENOMINATOR}")
    try:
        return repr(float(v))
    except OverflowError:
        raise ValueError("a relaxation coefficient exceeds the float range of SDPA output") from None


def emit_sdpa(rel: LasserreRelaxation, objective: MPoly) -> str:
    """Serialize as SDPA sparse (.dat-s), minimizing the objective's moments.

    Convention: sum_k y_k F_k - F_0 >= 0, entries "matno blockno i j value"
    with 1-based upper-triangle indices; the objective's constant term only
    shifts the optimum and is dropped.
    """
    if objective.nvars != rel.nvars:
        raise ValueError("objective variable count mismatch")
    if objective.degree() > rel.degree:
        raise ValueError("objective degree exceeds the relaxation degree")
    index = {alpha: k for k, alpha in enumerate(rel.monomials)}
    m = rel.num_moment_vars
    cvec = [Fraction(0)] * m
    for alpha, c in objective.terms.items():
        k = index[alpha]
        if k > 0:
            cvec[k - 1] = c
    lines = [str(m), str(len(rel.bases)), " ".join(map(str, rel.block_sizes))]
    lines.append(" ".join(_sdpa_value(c) for c in cvec))
    slots = _slots(rel.bases)
    entries = []  # (moment index, block, i, j, value), unique in their first four fields
    for u, gamma, c in incidence(rel.bases, rel.generators):
        k, i, j = slots[u]
        entries.append((index[gamma], k + 1, i + 1, j + 1, c if index[gamma] else -c))
    for matno, bno, i, j, v in sorted(entries):
        lines.append(f"{matno} {bno} {i} {j} {_sdpa_value(v)}")
    return "\n".join(lines) + "\n"


# --- module membership certificates ----------------------------------------

def verify_module_membership(f: MPoly, gs, d: int, sigmas: list[SosCert]) -> VerifyResult:
    """Exact check that f = sum sigma_i g_i with the degree-d caps honored.

    A generator the degree-d module does not keep admits no nonzero term.
    """
    generators, caps = _module(gs, d, f.nvars)
    if len(sigmas) != len(generators):
        return VerifyResult(False, "arity")
    total = MPoly.zero(f.nvars)
    for g, cap, sigma in zip(generators, caps, sigmas):
        for w, p in sigma.terms:
            if w < 0:
                return VerifyResult(False, "negative-weight")
            if p.degree() > cap:
                return VerifyResult(False, "degree-cap")
        total = total + sigma.expand(MPoly.zero(f.nvars)) * g
    if total != f:
        return VerifyResult(False, "sum-mismatch")
    return VerifyResult(True, "ok")


def module_cert_search(f: MPoly, gs, d: int) -> Search:
    """Search an exact certificate f = sum sigma_i g_i of degree d.

    One :func:`~ratsos.sos.search` with one Gram block per generator of
    [1] + gs, over the monomials up to its degree-d cap (none for a generator
    the module does not keep), at the numeric budget ``sos find`` runs at
    too.  An accepted member is turned into weighted squares over the kept
    monomials, one ``SosCert`` per generator, and re-verified exactly.
    ``found`` is the only verdict that puts f in the module; ``unknown`` (a
    separated, stalled or unrounded numeric run) proves nothing either way.
    ``infeasible`` is exact: an inconsistent or non-psd face, or a rational
    point where every generator is >= 0 and f < 0, read off the moments of
    the float run, whose detail names the point and the value of f there.
    """
    if f.degree() > d:
        raise ValueError("target degree exceeds the relaxation degree")
    generators, caps = _module(gs, d, f.nvars)
    res = search(f, [monomials_upto(f.nvars, r) for r in caps], generators)
    if res.status == "found":
        res = res._replace(cert=[weighted_square_decomposition(block, basis) for block, basis in res.cert])
        check = verify_module_membership(f, generators[1:], d, res.cert)
        if not check:
            raise AssertionError(f"reconstructed certificate failed verification: {check.reason}")
    return res


class BisectResult(record("BisectResult", "lo hi cert")):
    """The bisection's final bracket: lo is a certified level and hi the last
    level without a certificate, which proves nothing (the relaxation or the
    numeric phase may have failed there).  All three are None when the
    doubling walk never found a bracket; else cert is lo's list of SosCerts."""

    __slots__ = ()

    @property
    def certified(self) -> bool:
        """A bound exists; lo is always a level whose certificate was found."""
        return self.lo is not None


def lower_bound_bisect(f: MPoly, gs, d: int, iterations: int = 12) -> BisectResult:
    """Certified bisection lower bound for f over the constraint set at relaxation degree d.

    A level lambda counts as feasible only when :func:`module_cert_search`
    finds an exact certificate for f - lambda, so every feasible verdict is
    one, and lo, always such a level, is returned with its certificate.  hi
    is a level where no certificate was found; it proves nothing.  Each run
    makes 1 + (walk steps) + ``iterations`` searches.  A negative
    ``iterations`` raises ValueError.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, not {iterations}")
    gs = list(gs)
    cert: list[SosCert] | None = None  # the last feasible level's, which is always lo's

    def feasible(lam: Fraction) -> bool:
        nonlocal cert
        found = module_cert_search(f - lam, gs, d).cert
        if found is not None:
            cert = found
        return found is not None

    # walk away from 0 with doubling steps, upward while feasible, downward
    # while infeasible, until the verdict flips
    up = feasible(Fraction(0))
    edge, step = Fraction(0), Fraction(1 if up else -1)
    for _ in range(24):
        if feasible(edge + step) != up:
            lo, hi = (edge, edge + step) if up else (edge + step, edge)
            break
        edge += step
        step *= 2
    else:
        return BisectResult(None, None, None)

    for _ in range(iterations):
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return BisectResult(lo, hi, cert)


# --- module certificate JSON -----------------------------------------------

def module_cert_to_json(sigmas: list[SosCert], target: MPoly, degree: int) -> dict:
    return {"sigmas": [{"terms": terms_to_json(sigma.terms)} for sigma in sigmas],
            "target": poly_text(target), "degree": degree}


def module_cert_from_json(doc: dict, nvars: int) -> list[SosCert]:
    return [SosCert(terms_from_json(json_field(item, "terms", list), nvars))
            for item in json_field(doc, "sigmas", list)]
