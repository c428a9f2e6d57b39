"""Gram-matrix sums-of-squares pipeline and constructive denominator removal.

A polynomial is a sum of squares exactly when some positive semidefinite
rational matrix G satisfies f = v^T G v for the vector v of candidate
monomials (the lattice points of half the Newton polytope).  The same system,
with one psd block per generator, gives the truncated-module certificates of
:mod:`ratsos.lasserre`, so both searches run on one Gram-system core here:
:func:`gram_system` writes the affine family of coefficient-matching blocks
down once, exactly, as its reduced equations (closed form for single-term
generators, Bareiss elimination otherwise), and the numeric search projects
with the same rows; :func:`restrict_to_face` drops the monomials whose
diagonal entries are forced to 0 before any float is used, and
:func:`search_family` excludes forced negative diagonals, then lets a numeric
search plus continued-fraction rounding propose members that are accepted
only after an exact psd check.  Infeasibility is certified only from exact
linear consequences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import _reduced, rat
from .conic import newton_halved_lattice
from .numeric import AffineFamily, alternating_projection
from .poly import MPoly, UPoly, parse_poly, poly_text
from .quadforms import SosCert, SymMat, gram_product, is_psd

#: continued-fraction rounding bounds tried during rationalization
DENOMINATOR_LADDER = [10**k for k in range(1, 9)]

#: least eigenvalue a converged point the ladder cannot round is pushed to
_FLOOR = 1e-3


class GramInfeasibleError(ValueError):
    pass


@dataclass
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class GramFamily:
    """Affine set of coefficient-matching block tuples, in constraint form.

    The unknowns are the upper triangles of the blocks, block after block
    (``bases[k]`` is the monomial vector of block k).  The reduced equations
    solve each unknown p from the ``free`` ones (increasing) as
    x_p = particular[p] - sum c * x_j over rows[p] = {j: c}; ``particular``
    is the member with every free unknown 0.  ``forced`` maps (block, i) to
    diagonal entry (i, i) when its row is empty, so it is the same across the
    family; a negative one rules out any psd member.
    """

    bases: list[list[tuple[int, ...]]]
    particular: list[Fraction]
    free: list[int]
    rows: dict[int, dict[int, Fraction]]
    forced: dict[tuple[int, int], Fraction]

    def at(self, params) -> list[SymMat]:
        vec = list(self.particular)
        for u, x in zip(self.free, params):
            vec[u] = x
        for p, row in self.rows.items():
            vec[p] -= sum(c * vec[j] for j, c in row.items())
        blocks, start = [], 0
        for b in self.bases:
            n = len(b) * (len(b) + 1) // 2
            blocks.append(SymMat(len(b), vec[start : start + n]))
            start += n
        return blocks

    def positions(self) -> np.ndarray:
        """The float positions (i, j) and (j, i) of every unknown in full s*s block coordinates."""
        sizes = [len(b) for b in self.bases]
        starts = np.cumsum([0] + [s * s for s in sizes])
        return np.array([(starts[k] + i * sizes[k] + j, starts[k] + j * sizes[k] + i)
                         for k, i, j in _slots(self.bases)]).reshape(-1, 2)

    def numeric(self) -> AffineFamily:
        """The float family {X : A X = b}: one row of A per solved unknown, each
        off-diagonal coefficient split in halves at (i, j) and (j, i)."""
        pos = self.positions()
        particular = np.zeros(sum(len(b) ** 2 for b in self.bases))
        particular[pos] = np.array([float(x) for x in self.particular])[:, None]
        a = np.zeros((len(self.rows), particular.size))
        for r, (p, row) in enumerate(self.rows.items()):
            for u, c in [(p, 1), *row.items()]:
                np.add.at(a[r], pos[u], float(c) / 2)  # (i, i) twice on the diagonal
        return AffineFamily(particular, a, [len(b) for b in self.bases])


def _slots(bases) -> list[tuple[int, int, int]]:
    """(block, i, j) of every unknown, in order."""
    return [(k, i, j) for k, b in enumerate(bases) for i in range(len(b)) for j in range(i, len(b))]


def gram_system(f: MPoly, bases, generators) -> GramFamily:
    """All blocks G_k with sum_k g_k * (v_k^T G_k v_k) = f, one per generator g_k.

    Unknown G_ij of block k enters the coefficient of gamma = b_i + b_j + delta
    for each term c x^delta of g_k, with multiplier c on the diagonal and 2c
    off it.  With single-term generators every unknown enters one equation,
    and the reduced equations are written down in closed form: each gamma
    class solves its first unknown as (f_gamma - sum mult_u x_u) / mult_first
    over its other, free, members u.  The reduced echelon form (pivots greedy
    by column) that solves every other system gives the same rows.  An
    unreachable target monomial or an inconsistent system raises GramInfeasibleError.
    """
    bases = [[tuple(a) for a in b] for b in bases]
    slots = _slots(bases)
    # gamma -> {unknown: multiplier}, unknowns in increasing order
    classes: dict[tuple, dict] = {}
    for u, (k, i, j) in enumerate(slots):
        for delta, c in generators[k].terms.items():
            gamma = tuple(a + b + e for a, b, e in zip(bases[k][i], bases[k][j], delta))
            classes.setdefault(gamma, {})[u] = c if i == j else 2 * c
    missing = [g for g in f.terms if g not in classes]
    if missing:
        raise GramInfeasibleError(
            f"monomial {missing[0]} of the target is not a sum of two candidate exponents"
        )
    particular, rows = [Fraction(0)] * len(slots), {}
    if all(len(g.terms) == 1 for g in generators):  # classes come in order of their first unknown
        for gamma, members in classes.items():
            (first, first_mult), *others = members.items()
            particular[first] = f.coeff(gamma) / first_mult
            rows[first] = {u: mult / first_mult for u, mult in others}
    else:
        system = [[members.get(u, 0) for u in range(len(slots))] + [f.coeff(gamma)]
                  for gamma, members in classes.items()]
        pivots, reduced, den = _reduced(system)
        if pivots and pivots[-1] == len(slots):
            raise GramInfeasibleError("coefficient-match system is inconsistent")
        for p, row in zip(pivots, reduced):
            particular[p] = Fraction(row[-1], den)
            rows[p] = {j: Fraction(x, den) for j, x in enumerate(row[:-1]) if x and j != p}
    free = [u for u in range(len(slots)) if u not in rows]
    forced = {(k, i): particular[u] for u, (k, i, j) in enumerate(slots) if i == j and rows.get(u) == {}}
    return GramFamily(bases, particular, free, rows, forced)


def gram_family(f: MPoly, monomials) -> GramFamily:
    """All G with v^T G v = f: the one-block :func:`gram_system`, in closed form.

    With no monomials at all every target monomial is unreachable.
    """
    return gram_system(f, [monomials], [MPoly.constant(f.nvars, 1)])


def restrict_to_face(f: MPoly, family: GramFamily, generators):
    """Exact facial reduction: returns (face, dropped monomials per block).

    A psd member has a zero row and column at a diagonal entry forced to 0,
    so that monomial leaves its block's basis and :func:`gram_system`
    rebuilds the system, until no diagonal entry is forced to 0.  The psd
    members of the face, padded with zeros, are those of ``family``; a
    GramInfeasibleError from a rebuild refutes them all.
    """
    dropped = [[] for _ in family.bases]
    while zeros := {key for key, value in family.forced.items() if value == 0}:
        for k, b in enumerate(family.bases):
            dropped[k] += [a for i, a in enumerate(b) if (k, i) in zeros]
        bases = [[a for i, a in enumerate(b) if (k, i) not in zeros] for k, b in enumerate(family.bases)]
        family = gram_system(f, bases, generators)
    return family, dropped


def _round(family: GramFamily, t):
    """(blocks, detail) of the first ladder rounding of the free values t with psd blocks, else None."""
    for bound in DENOMINATOR_LADDER if np.isfinite(t).all() else ():
        blocks = family.at([Fraction(float(v)).limit_denominator(bound) for v in t])
        if all(is_psd(b) for b in blocks):
            return blocks, f"denominator bound {bound}"
    return None


def search_family(family: GramFamily):
    """Look for a member whose blocks are all psd; returns (status, blocks, detail).

    Callers pass the face of :func:`restrict_to_face`.  A negative forced
    diagonal proves infeasibility, and a family with one member is decided by
    that member.  Otherwise alternating projections, at the one budget of
    :func:`~ratsos.numeric.alternating_projection`, propose a point, whose
    free unknowns are rounded down the denominator ladder; a converged point
    it cannot round is pushed off the psd boundary to {X >= _FLOOR * I} by a
    second run at the same budget, and the ladder runs once more.  A member
    is accepted only when every block passes the exact psd test.  A run that
    separated (a float stopping rule) is not rounded, and neither is a family
    whose coefficients or iterates floats cannot hold: both end ``unknown``,
    as does a run that stalled at the sweep cap and did not round.
    """
    for (k, i), value in family.forced.items():
        if value < 0:
            return "infeasible", None, f"diagonal entry for {family.bases[k][i]} forced to {value}"
    if not family.free:  # the one member decides
        blocks = family.at([])
        if all(is_psd(b) for b in blocks):
            return "found", blocks, "unique Gram matrix"
        return "infeasible", None, "unique Gram matrix is not psd"
    free = family.positions()[family.free, 0]
    try:
        with np.errstate(over="raise"):
            numeric = family.numeric()
            x, gap, converged, separated = alternating_projection(numeric)
            if separated:
                return "unknown", None, f"numeric phase separated at gap {gap:.2e}"
            rounded = _round(family, x[free])
            if rounded is None and converged:
                x = alternating_projection(numeric, start=x, floor=_FLOOR)[0]
                rounded = _round(family, x[free])
    except (OverflowError, FloatingPointError):
        return "unknown", None, "a coefficient of the Gram system exceeds the float range"
    if rounded is not None:
        return "found", *rounded
    if not converged:
        return "unknown", None, f"numeric phase stalled at gap {gap:.2e}"
    return "unknown", None, "rationalization failed"


@dataclass
class GramSearch:
    """Outcome of the sums-of-squares search: found / infeasible / unknown."""

    status: str
    gram: SymMat | None
    monomials: list[tuple[int, ...]] | None
    detail: str
    dropped: list[tuple[int, ...]] = field(default_factory=list)  # cut off by facial reduction

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def infeasible(self) -> bool:
        return self.status == "infeasible"


def find_gram(f: MPoly) -> GramSearch:
    """Search for an exact psd Gram matrix of f over the halved Newton lattice.

    Order of play: odd degree is refuted at once; then the Gram family over
    the lattice is restricted to its face by :func:`restrict_to_face` and
    either refutes f exactly (a monomial of f that is no sum of two kept
    lattice points, or a diagonal entry forced negative) or goes to
    :func:`search_family`, and a member it accepts is re-checked against f.
    ``monomials`` of a found result are the kept ones, and ``dropped`` lists
    those facial reduction cut off.
    The Newton-polytope vertex rule needs no pass of its own: a vertex alpha
    is no midpoint of two points of the polytope, so its only Gram entry is
    the diagonal one of alpha/2.  An odd vertex is therefore unreachable, and
    a negative vertex coefficient forces that diagonal negative.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial needs no certificate")
    if f.degree() % 2 == 1:
        return GramSearch("infeasible", None, None, "odd degree")
    monomials = newton_halved_lattice(f)
    try:
        family, [dropped] = restrict_to_face(f, gram_family(f, monomials), [MPoly.constant(f.nvars, 1)])
    except GramInfeasibleError as exc:
        return GramSearch("infeasible", None, monomials, str(exc))
    status, blocks, detail = search_family(family)
    if status != "found":
        return GramSearch(status, None, monomials, detail, dropped)
    [gram], [kept] = blocks, family.bases
    if gram_product(gram, kept) != f:
        raise AssertionError("family member does not reproduce the target")
    return GramSearch("found", gram, kept, detail, dropped)


def verify_sos(f: MPoly, cert) -> VerifyResult:
    """Exact check of a certificate: an SosCert or a (gram, monomials) pair."""
    if isinstance(cert, SosCert):
        if not cert.weights_ok():
            return VerifyResult(False, "negative-weight")
        if cert.expand(MPoly.zero(f.nvars)) != f:
            return VerifyResult(False, "expansion-mismatch")
        return VerifyResult(True, "ok")
    gram, monomials = cert
    if not is_psd(gram):
        return VerifyResult(False, "gram-not-psd")
    if gram_product(gram, monomials) != f:
        return VerifyResult(False, "gram-product-mismatch")
    return VerifyResult(True, "ok")


def cassels_descent(weights, fs, g: UPoly, degree_trace: list | None = None) -> SosCert:
    """Remove the denominator from sum_i a_i (f_i / g)^2 when it is a polynomial.

    Iterates the descent f_i = q_i g + r_i, s = sum a_i q_i^2 - h,
    t = sum a_i f_i q_i - g h, F_i = s f_i - 2 t q_i, G = s g - 2 t, which
    strictly lowers deg g (checked) until the denominator is constant.
    ``degree_trace``, when given, records the denominator degree per step.
    """
    weights = [rat(w) for w in weights]
    fs = list(fs)
    if len(weights) != len(fs):
        raise ValueError("weights and polynomials differ in length")
    if any(w < 0 for w in weights):
        raise ValueError("negative weight")
    if g.is_zero:
        raise ZeroDivisionError("zero denominator")
    numerator = UPoly.zero()
    for w, fi in zip(weights, fs):
        numerator = numerator + fi * fi * w
    h, rem = divmod(numerator, g * g)
    if not rem.is_zero:
        raise ValueError("sum of weighted squares is not divisible by g^2")

    active = [(w, fi) for w, fi in zip(weights, fs) if w > 0]
    cur = [fi for _, fi in active]
    ws = [w for w, _ in active]
    cur_g = g
    if degree_trace is not None:
        degree_trace.append(cur_g.degree())
    while cur_g.degree() >= 1:
        pairs = [divmod(fi, cur_g) for fi in cur]
        if all(r.is_zero for _, r in pairs):
            new_f = [q for q, _ in pairs]
            new_g = UPoly.one()
        else:
            qs = [q for q, _ in pairs]
            s = -h
            t = -(cur_g * h)
            for w, fi, qi in zip(ws, cur, qs):
                s = s + qi * qi * w
                t = t + fi * qi * w
            new_f = [s * fi - (t * qi) * 2 for fi, qi in zip(cur, qs)]
            new_g = s * cur_g - t * 2
        if new_g.is_zero or not new_g.degree() < cur_g.degree():
            raise ArithmeticError("descent failed to lower the denominator degree")
        check = UPoly.zero()
        for w, fi in zip(ws, new_f):
            check = check + fi * fi * w
        if check != h * new_g * new_g:
            raise ArithmeticError("descent identity violated")
        cur, cur_g = new_f, new_g
        if degree_trace is not None:
            degree_trace.append(cur_g.degree())
    c = cur_g.coeffs[0]
    reduced = iter([fi * (1 / c) for fi in cur])
    terms = []
    for w in weights:
        terms.append((w, next(reduced) if w > 0 else UPoly.zero()))
    cert = SosCert(tuple(terms))
    if cert.expand(UPoly.zero()) != h:
        raise ArithmeticError("final descent identity violated")
    return cert


# --- certificate JSON ------------------------------------------------------

def cert_to_json(cert: SosCert, target=None) -> dict:
    doc = {"terms": terms_to_json(cert.terms)}
    if target is not None:
        doc["target"] = poly_text(target) if isinstance(target, MPoly) else str(target)
    return doc


def gram_to_json(gram: SymMat, monomials, target=None) -> dict:
    doc = {
        "monomials": [list(a) for a in monomials],
        "gram": [[str(x) for x in row] for row in gram.rows()],
    }
    if target is not None:
        doc["target"] = poly_text(target)
    return doc


_JSON_KINDS = {list: "a list", str: "a string", int: "an integer"}


def _json_typed(value, kind, what: str):
    """``value`` when it is a ``kind`` (a type or tuple of types, never bool); else ValueError."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise ValueError(f"{what} must be {expected}, not {type(value).__name__}")
    return value


def json_rationals(value, what: str, entry: str) -> list[Fraction]:
    """A JSON list ``what`` of integers and "p/q" strings (each an ``entry``), as rationals."""
    return [rat(_json_typed(x, (str, int), entry)) for x in _json_typed(value, list, what)]


def json_rows(value, what: str) -> list[list[Fraction]]:
    """A JSON list of lists of integers and "p/q" strings, as rows of rationals."""
    return [json_rationals(row, f"{what} row", f"{what} entry") for row in _json_typed(value, list, what)]


def json_field(doc, key: str, kind):
    """``doc[key]`` of a certificate document, checked to be a ``kind``.

    Raises ValueError naming the key when ``doc`` is not an object, lacks the
    key, or holds a value of another type.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"certificate document: expected an object holding {key!r}")
    if key not in doc:
        raise ValueError(f"certificate document is missing {key!r}")
    return _json_typed(doc[key], kind, f"certificate field {key!r}")


def terms_to_json(terms) -> list[dict]:
    """{"weight", "poly"} objects of (weight, polynomial) pairs; read back by :func:`terms_from_json`."""
    return [{"weight": str(w), "poly": poly_text(p) if isinstance(p, MPoly) else str(p)} for w, p in terms]


def terms_from_json(items, nvars: int | None) -> tuple:
    """(weight, polynomial) pairs from a list of {"weight", "poly"} objects."""
    return tuple(
        (rat(json_field(item, "weight", (str, int))), parse_poly(json_field(item, "poly", str), nvars))
        for item in items
    )


def _exponents(alpha) -> tuple[int, ...]:
    if not isinstance(alpha, list) or not all(
        isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in alpha
    ):
        raise ValueError(f"certificate monomial {alpha!r} is not a list of nonnegative integers")
    return tuple(alpha)


def cert_from_json(doc: dict, nvars: int | None = None):
    """Load a certificate document; returns (cert-or-gram-pair, target poly or None)."""
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be a JSON object")
    target = None
    if "target" in doc:
        target = parse_poly(json_field(doc, "target", str), nvars)
        nvars = target.nvars
    if "terms" in doc:
        return SosCert(terms_from_json(json_field(doc, "terms", list), nvars)), target
    if "gram" in doc:
        gram = SymMat.from_rows(json_rows(json_field(doc, "gram", list), "certificate field 'gram'"))
        monomials = [_exponents(a) for a in json_field(doc, "monomials", list)]
        return (gram, monomials), target
    raise ValueError("certificate document has neither 'terms' nor 'gram'")


def dump_cert(cert_doc: dict) -> str:
    return json.dumps(cert_doc, indent=2, sort_keys=True)
