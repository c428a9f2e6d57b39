"""Moment relaxations of polynomial inequality systems.

A degree-d relaxation replaces every monomial of degree at most d by a
moment variable y_alpha (y_0 pinned to 1) and demands that the moment block
and one localizing block per constraint be positive semidefinite.  The
module also searches and verifies exact weighted-SOS membership certificates
for the degree-d truncated module sum_i sigma_i g_i (the search runs on the
Gram-system core of :mod:`ratsos.sos`, one block per kept generator,
restricted exactly to the face its forced zeros define) and computes
certified lower bounds by bisection on those exact searches: a level counts
as feasible only when its certificate is found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import rat
from .poly import MPoly, _grlex_key, poly_text
from .quadforms import SosCert, SymMat, weighted_square_decomposition
from .sos import (
    GramInfeasibleError,
    VerifyResult,
    gram_system,
    json_field,
    restrict_to_face,
    search_family,
    terms_from_json,
    terms_to_json,
)


def monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree <= degree, graded-lex ordered."""
    if degree < 0:
        return []
    out = [()]
    for _ in range(nvars):
        out = [t + (k,) for t in out for k in range(degree + 1)]
    return sorted((t for t in out if sum(t) <= degree), key=_grlex_key)


@dataclass
class MomentExpr:
    """Affine expression const + sum coeffs[k] * y_k in the moment variables."""

    const: Fraction
    coeffs: dict[int, Fraction]

    def evaluate(self, y: list[Fraction]) -> Fraction:
        total = self.const
        for k, c in self.coeffs.items():
            total += c * y[k - 1]
        return total


@dataclass
class Block:
    """One localizing block: entry (i,j) is sum_delta g_delta * y_(b_i+b_j+delta)."""

    generator_index: int  # 0 for the moment block, 1-based into gs otherwise
    generator: MPoly
    basis: list[tuple[int, ...]]
    entries: list[list[MomentExpr]]

    @property
    def size(self) -> int:
        return len(self.basis)


@dataclass
class LasserreRelaxation:
    nvars: int
    degree: int
    gs: list[MPoly]
    monomials: list[tuple[int, ...]]  # index 0 is the constant monomial
    blocks: list[Block] = field(default_factory=list)

    @property
    def num_moment_vars(self) -> int:
        return len(self.monomials) - 1

    @property
    def block_sizes(self) -> list[int]:
        return [b.size for b in self.blocks]


def _kept_generators(gs, d: int, nvars: int) -> list[tuple[int, MPoly, int]]:
    """(index into [1] + gs, generator, cap) for every generator the degree-d module keeps.

    A generator is kept when it is nonzero and of degree at most d; the
    monomials of its Gram block have degree at most the cap
    r = floor((d - deg g) / 2).  Relaxation blocks, the certificate search and
    its verification all read this one rule.
    """
    generators = enumerate([MPoly.constant(nvars, 1)] + list(gs))
    return [(k, g, (d - int(g.degree())) // 2) for k, g in generators if not g.is_zero and g.degree() <= d]


def build_relaxation(gs, degree: int, nvars: int) -> LasserreRelaxation:
    """Moment and localizing blocks for the degree-d relaxation of gs >= 0.

    Constraints that are zero or of degree above d contribute nothing and are
    skipped.  Block i has size dim R[x]_{r_i} with r_i = floor((d - deg g_i)/2).
    """
    if degree < 1:
        raise ValueError("relaxation degree must be at least 1")
    gs = list(gs)
    monomials = monomials_upto(nvars, degree)
    index = {alpha: k for k, alpha in enumerate(monomials)}
    rel = LasserreRelaxation(nvars, degree, gs, monomials)
    for gen_index, g, r in _kept_generators(gs, degree, nvars):
        basis = monomials_upto(nvars, r)
        entries = []
        for beta in basis:
            row = []
            for gamma in basis:
                const = Fraction(0)
                coeffs: dict[int, Fraction] = {}
                for delta, c in g.terms.items():
                    alpha = tuple(b + cc + dd for b, cc, dd in zip(beta, gamma, delta))
                    k = index[alpha]
                    if k == 0:
                        const += c
                    else:
                        coeffs[k] = coeffs.get(k, Fraction(0)) + c
                row.append(MomentExpr(const, coeffs))
            entries.append(row)
        rel.blocks.append(Block(gen_index, g, basis, entries))
    return rel


def blocks_at_point(rel: LasserreRelaxation, point) -> list[SymMat]:
    """Instantiate every block with the moment vector y_alpha = point^alpha."""
    point = [rat(x) for x in point]
    y = [MPoly.monomial(alpha).eval(point) for alpha in rel.monomials[1:]]
    out = []
    for block in rel.blocks:
        rows = [[e.evaluate(y) for e in row] for row in block.entries]
        out.append(SymMat.from_rows(rows))
    return out


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
    lines = [str(m), str(len(rel.blocks)), " ".join(str(b.size) for b in rel.blocks)]
    lines.append(" ".join(_sdpa_value(c) for c in cvec))
    entry_lines: list[list] = []
    for bno, block in enumerate(rel.blocks, start=1):
        for i in range(block.size):
            for j in range(i, block.size):
                expr = block.entries[i][j]
                if expr.const != 0:
                    entry_lines.append([0, bno, i + 1, j + 1, -expr.const])
                for k, c in expr.coeffs.items():
                    if c != 0:
                        entry_lines.append([k, bno, i + 1, j + 1, c])
    entry_lines.sort(key=lambda e: e[:4])
    for matno, bno, i, j, v in entry_lines:
        lines.append(f"{matno} {bno} {i} {j} {_sdpa_value(v)}")
    return "\n".join(lines) + "\n"


@dataclass
class SdpaProblem:
    nvars: int
    block_sizes: list[int]
    objective: list[float]
    entries: dict  # (matno, blockno, i, j) -> float


def parse_sdpa(text: str) -> SdpaProblem:
    """Parse SDPA sparse text (as produced by :func:`emit_sdpa`)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith(("*", '"'))]
    nvars = int(lines[0].split()[0])
    nblocks = int(lines[1].split()[0])
    sizes = [abs(int(tok)) for tok in lines[2].split()]
    if len(sizes) != nblocks:
        raise ValueError("block size line does not match the block count")
    objective = [float(tok) for tok in lines[3].split()]
    entries = {}
    for ln in lines[4:]:
        matno, bno, i, j, val = ln.split()
        entries[(int(matno), int(bno), int(i), int(j))] = float(val)
    return SdpaProblem(nvars, sizes, objective, entries)


# --- module membership certificates ----------------------------------------

@dataclass
class ModuleCert:
    """Weighted-square multipliers sigma_i, aligned with [1] + gs."""

    sigmas: list[SosCert]


def verify_module_membership(f: MPoly, gs, d: int, cert: ModuleCert) -> VerifyResult:
    """Exact check that f = sum sigma_i g_i with the degree-d caps honored.

    A generator the degree-d module does not keep admits no nonzero term.
    """
    gs = list(gs)
    generators = [MPoly.constant(f.nvars, 1)] + gs
    if len(cert.sigmas) != len(generators):
        return VerifyResult(False, "arity")
    caps = {k: cap for k, _, cap in _kept_generators(gs, d, f.nvars)}
    total = MPoly.zero(f.nvars)
    for k, (g, sigma) in enumerate(zip(generators, cert.sigmas)):
        for w, p in sigma.terms:
            if w < 0:
                return VerifyResult(False, "negative-weight")
            if p.degree() > caps.get(k, -1):
                return VerifyResult(False, "degree-cap")
        total = total + sigma.expand(MPoly.zero(f.nvars)) * g
    if total != f:
        return VerifyResult(False, "sum-mismatch")
    return VerifyResult(True, "ok")


@dataclass
class ModuleSearch:
    status: str  # found / infeasible / unknown
    cert: ModuleCert | None
    detail: str
    #: index into [1] + gs -> the monomials facial reduction cut off that sigma's basis
    dropped: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)


def module_cert_search(f: MPoly, gs, d: int) -> ModuleSearch:
    """Search an exact certificate f = sum sigma_i g_i of degree d.

    One Gram block per kept generator, on the Gram-system core of
    :mod:`ratsos.sos`, restricted to its face by
    :func:`~ratsos.sos.restrict_to_face` and searched by
    :func:`~ratsos.sos.search_family` at the numeric budget ``sos find`` runs
    at too; an accepted member is turned into weighted squares over the kept
    monomials and the certificate is re-verified exactly before return.  ``found`` is the only verdict that
    puts f in the module; ``unknown`` (a separated, stalled or unrounded
    numeric run) proves nothing either way.
    """
    gs = list(gs)
    if f.degree() > d:
        raise ValueError("target degree exceeds the relaxation degree")
    kept = _kept_generators(gs, d, f.nvars)
    bases = [monomials_upto(f.nvars, cap) for _, _, cap in kept]
    generators = [g for _, g, _ in kept]
    try:
        family, face_dropped = restrict_to_face(f, gram_system(f, bases, generators), generators)
    except GramInfeasibleError as exc:
        return ModuleSearch("infeasible", None, str(exc))
    dropped = {k: monomials for (k, _, _), monomials in zip(kept, face_dropped) if monomials}
    status, blocks, detail = search_family(family)
    if status != "found":
        return ModuleSearch(status, None, detail, dropped)
    sigmas = [SosCert(()) for _ in range(len(gs) + 1)]
    for (k, _, _), basis, block in zip(kept, family.bases, blocks):
        sigmas[k] = weighted_square_decomposition(block, basis)
    cert = ModuleCert(sigmas)
    check = verify_module_membership(f, gs, d, cert)
    if not check:
        raise AssertionError(f"reconstructed certificate failed verification: {check.reason}")
    return ModuleSearch("found", cert, detail, dropped)


@dataclass
class BisectResult:
    """lo and hi are None when the doubling walk never found a bracket."""

    lo: Fraction | None
    hi: Fraction | None
    cert: ModuleCert | None

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
    certs: dict[Fraction, ModuleCert | None] = {}

    def feasible(lam: Fraction) -> bool:
        certs[lam] = module_cert_search(f - lam, gs, d).cert
        return certs[lam] is not None

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
    return BisectResult(lo, hi, certs[lo])


# --- module certificate JSON -----------------------------------------------

def module_cert_to_json(cert: ModuleCert, target: MPoly | None = None, degree: int | None = None) -> dict:
    doc = {"sigmas": [{"terms": terms_to_json(sigma.terms)} for sigma in cert.sigmas]}
    if target is not None:
        doc["target"] = poly_text(target)
    if degree is not None:
        doc["degree"] = degree
    return doc


def module_cert_from_json(doc: dict, nvars: int) -> ModuleCert:
    return ModuleCert([
        SosCert(terms_from_json(json_field(item, "terms", list), nvars))
        for item in json_field(doc, "sigmas", list)
    ])
