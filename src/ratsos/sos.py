"""Gram-matrix sums-of-squares pipeline and constructive denominator removal.

A polynomial is a sum of squares exactly when some positive semidefinite
rational matrix G satisfies f = v^T G v for the vector v of candidate
monomials (the lattice points of half the Newton polytope).  The same system,
with one psd block per generator, gives the truncated-module certificates of
:mod:`ratsos.lasserre`, so both searches are one call of :func:`search` here:
:func:`gram_family` writes the affine family of coefficient-matching blocks
down once, exactly, as reduced equations, and every later step is a cut of
that family by :meth:`GramFamily.cut`, its one solver: :func:`restrict_to_face`
cuts off the monomials whose diagonal entries are forced to 0, and the search
excludes forced negative diagonals and cuts by G v(x) = 0 at the rational real
zeros x of the target that :func:`find_gram` scans (a scanned point where the
target is negative refutes it).  A numeric search on the same rows plus
continued-fraction rounding then proposes members, accepted only after an
exact psd check; a run that heads for separation proposes instead a point
read off its residual's moment block, where an exact negative value of the
target on the constraint set refutes it.  Infeasibility is certified only
from exact linear consequences and exact values of the target.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import prod
from operator import add

from .arith import _json_typed, _reduced, json_rows, rat, record
from .conic import newton_halved_lattice
from .numeric import AffineFamily, alternating_projection, np
from .poly import MPoly, UPoly, _integer_terms, infer_nvars, parse_poly, poly_text
from .quadforms import SosCert, SymMat, gram_product, is_psd

#: continued-fraction rounding bounds tried during rationalization
DENOMINATOR_LADDER = [10**k for k in range(1, 9)]

#: size of the step toward the identity that a converged point is nudged by
_NUDGE = 1e-6

#: least eigenvalue a converged point the ladder cannot round is pushed to
_FLOOR = 1e-3


class GramInfeasibleError(ValueError):
    pass


class VerifyResult(record("VerifyResult", "ok reason")):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class GramFamily:
    """Affine set of coefficient-matching block tuples, in constraint form.

    The unknowns are the upper triangles of the blocks, block after block
    (``bases[k]`` is the monomial vector of block k).  The reduced equations
    solve each unknown p in ``rows`` from the ``free`` ones (the others, in
    increasing order) as x_p = particular[p] - sum c * x_j over rows[p] = {j: c};
    ``particular`` is the member with every free unknown 0.  ``forced`` maps
    (block, i) to diagonal entry (i, i) when its row is empty, so it is the
    same across the family; a negative one rules out any psd member.  Only
    :meth:`cut` adds equations, and only :func:`restrict_to_face` removes
    unknowns: those its cut solves to 0.
    """

    __slots__ = ("bases", "particular", "rows")

    def __init__(self, bases: list[list[tuple[int, ...]]], particular: list[Fraction],
                 rows: dict[int, dict[int, Fraction]]):
        self.bases, self.particular, self.rows = bases, particular, rows

    @property
    def free(self) -> list[int]:
        return [u for u in range(len(self.particular)) if u not in self.rows]

    @property
    def forced(self) -> dict[tuple[int, int], Fraction]:
        return {(k, i): self.particular[u] for u, (k, i, j) in enumerate(_slots(self.bases))
                if i == j and self.rows.get(u) == {}}

    def cut(self, equations, reason: str) -> None:
        """Add the equations ({unknown: nonzero rational}, rhs), in place.

        Solved unknowns are replaced by their rows, equations linked by a
        shared unknown are reduced together (a lone equation as a group of
        one), and the new pivots are substituted into the earlier rows.  The
        reduced form with pivots greedy by column is the union of those of
        the groups, so the family is the one a single reduction gives.  An
        inconsistent equation raises GramInfeasibleError(reason).
        """
        groups, owner = {}, {}  # group id -> its equations; unknown -> id of its group
        for n, (eq, rhs) in enumerate(equations):
            eq = dict(eq)
            rhs = _substitute(eq, rhs, self.particular, self.rows)
            if eq:
                groups[n] = [(eq, rhs)]
                for g in {owner[u] for u in eq.keys() & owner.keys()}:
                    groups[n] += groups.pop(g)
                for e, _ in groups[n]:
                    owner.update(dict.fromkeys(e, n))
            elif rhs:
                raise GramInfeasibleError(reason)
        values, rows = {}, {}
        for group in groups.values():
            cols = sorted({u for eq, _ in group for u in eq})
            pivots, reduced, den = _reduced([[eq.get(u, 0) for u in cols] + [rhs] for eq, rhs in group])
            if pivots[-1] == len(cols):
                raise GramInfeasibleError(reason)
            for p, row in zip(pivots, reduced):
                values[cols[p]] = Fraction(row[-1], den)
                rows[cols[p]] = {cols[j]: Fraction(x, den) for j, x in enumerate(row[:-1]) if x and j != p}
        for p, row in self.rows.items():
            self.particular[p] = _substitute(row, self.particular[p], values, rows)
        for q in sorted(rows):
            self.particular[q], self.rows[q] = values[q], rows[q]

    def at(self, params) -> list[SymMat]:
        vec = list(self.particular)
        for u, x in zip(self.free, params):
            vec[u] = x
        for p, row in self.rows.items():
            vec[p] -= sum(c * vec[j] for j, c in row.items())
        return _blocks(self.bases, vec)

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


def _substitute(eq: dict, rhs, values, rows):
    """``rhs`` once each unknown u of ``rows`` in ``eq`` is replaced, in place, by
    values[u] - sum c * x_j over rows[u] = {j: c}; zero coefficients are dropped."""
    for u in [u for u in eq if u in rows]:
        c = eq.pop(u)
        rhs -= c * values[u]
        for j, d in rows[u].items():
            eq[j] = eq.get(j, 0) - c * d
            if not eq[j]:
                del eq[j]
    return rhs


def _slots(bases) -> list[tuple[int, int, int]]:
    """(block, i, j) of every unknown, in order."""
    return [(k, i, j) for k, b in enumerate(bases) for i in range(len(b)) for j in range(i, len(b))]


def _blocks(bases, upper) -> list[SymMat]:
    """The blocks whose upper triangles, in :func:`_slots` order, make up ``upper``."""
    blocks, start = [], 0
    for b in bases:
        n = len(b) * (len(b) + 1) // 2
        blocks.append(SymMat(len(b), upper[start : start + n]))
        start += n
    return blocks


def incidence(bases, generators):
    """The localizing map, as (unknown u, gamma, g_delta) triples.

    Unknown u is entry (i, j), i <= j, of block k in :func:`_slots` order; it
    meets the monomial x^gamma, gamma = b_i + b_j + delta with b = bases[k],
    once for each term g_delta x^delta of generators[k].  The Gram system
    reads this map row by row (one equation per gamma), and the localizing
    blocks of :mod:`ratsos.lasserre` read it column by column (one entry per u).
    Distinct terms of one generator give one unknown distinct gammas.
    """
    for u, (k, i, j) in enumerate(_slots(bases)):
        for delta, c in generators[k].terms.items():
            yield u, tuple(map(add, map(add, bases[k][i], bases[k][j]), delta)), c


def gram_family(f: MPoly, bases, generators) -> GramFamily:
    """All blocks G_k with sum_k g_k * (v_k^T G_k v_k) = f, one per generator g_k.

    Unknown G_ij of block k enters the coefficient of gamma = b_i + b_j + delta
    for each term c x^delta of g_k, with multiplier c on the diagonal and 2c
    off it.  The family is cut from all blocks by one equation per gamma
    class.  An unreachable target monomial or an inconsistent system raises
    GramInfeasibleError.
    """
    bases = [[tuple(a) for a in b] for b in bases]
    slots = _slots(bases)
    # gamma -> {unknown: multiplier}, unknowns in increasing order
    classes: dict[tuple, dict] = {}
    for u, gamma, c in incidence(bases, generators):
        _, i, j = slots[u]
        classes.setdefault(gamma, {})[u] = c if i == j else 2 * c
    if missing := [g for g in f.terms if g not in classes]:
        raise GramInfeasibleError(f"monomial {missing[0]} of the target is not a sum of two candidate exponents")
    family = GramFamily(bases, [Fraction(0)] * len(slots), {})
    family.cut(((members, f.coeff(gamma)) for gamma, members in classes.items()),
               "coefficient-match system is inconsistent")
    return family


_NO_ZERO_FACE = "no Gram matrix G has G v(x) = 0 at the real zeros x of the target"
_NO_FACE = "no Gram matrix has zero rows at its diagonal entries forced to 0"


def _zero_equations(bases, points):
    """G_k v_k(x) = 0 at each of ``points``, as equations ({unknown: coeff}, 0):
    row i sums G_ij v_j(x) over the monomials with v_j(x) != 0.  A psd member
    has them at real zeros of f where every generator is positive."""
    index = {slot: u for u, slot in enumerate(_slots(bases))}
    for x, (k, b) in product(points, enumerate(bases)):
        v = [(j, vj) for j, vj in enumerate(prod(t**e for t, e in zip(x, a)) for a in b) if vj]
        for i in range(len(b)) if v else ():
            yield {index[k, min(i, j), max(i, j)]: vj for j, vj in v}, 0


def restrict_to_face(family: GramFamily) -> list[list[tuple[int, ...]]]:
    """Exact facial reduction of ``family`` in place; returns the dropped monomials per block.

    A psd member has a zero row and column at a diagonal entry forced to 0.
    While there is one, the family is cut by G_k[i, j] = 0 for every j of each
    such (k, i); those unknowns, then solved to 0 with empty rows and in no
    other row, are deleted, the rows sorted by pivot and monomial i leaves
    basis k.  The reduced form is unique for a column order, so this is the
    family :func:`gram_family` builds on the smaller bases, with every earlier
    cut.  A GramInfeasibleError from the cut refutes every psd member.
    """
    dropped = [[] for _ in family.bases]
    while zeros := {key for key, value in family.forced.items() if value == 0}:
        gone = {u for u, (k, i, j) in enumerate(_slots(family.bases)) if {(k, i), (k, j)} & zeros}
        family.cut((({u: 1}, 0) for u in gone), _NO_FACE)
        number = {u: n for n, u in enumerate(u for u in range(len(family.particular)) if u not in gone)}
        family.particular = [family.particular[u] for u in number]
        family.rows = {number[p]: {number[j]: c for j, c in row.items()}
                       for p, row in sorted(family.rows.items()) if p in number}
        for k, b in enumerate(family.bases):
            dropped[k] += [a for i, a in enumerate(b) if (k, i) in zeros]
        family.bases = [[a for i, a in enumerate(b) if (k, i) not in zeros] for k, b in enumerate(family.bases)]
    return dropped


def _round(family: GramFamily, t):
    """(blocks, detail) of the first ladder rounding of the free values t with psd blocks, else None."""
    for bound in DENOMINATOR_LADDER if np.isfinite(t).all() else ():
        blocks = family.at([Fraction(float(v)).limit_denominator(bound) for v in t])
        if all(is_psd(b) for b in blocks):
            return blocks, f"denominator bound {bound}"
    return None


class Search(record("Search", "status cert detail dropped points")):
    """Outcome of a Gram search: status found / infeasible / unknown.

    ``cert`` is None unless found.  :func:`search` leaves there one
    (gram, monomials) pair per generator, and :func:`find_gram` and
    :func:`~ratsos.lasserre.module_cert_search` return a copy, made by
    ``_replace(cert=...)``, holding what their verifier takes instead.
    ``dropped`` maps a generator index to the monomials facial reduction cut
    off its basis, and ``points`` lists the real zeros whose equations
    G_k v_k(x) = 0 cut the family; each defaults to a new empty dict or list.
    """

    __slots__ = ()

    def __new__(cls, status: str, cert, detail: str, dropped=None, points=None):
        return super().__new__(cls, status, cert, detail, {} if dropped is None else dropped,
                               [] if points is None else points)


def search(f: MPoly, bases, generators, points=None) -> Search:
    """Look for f = sum_k g_k * (v_k^T G_k v_k) with every block G_k psd.

    ``points`` maps rational points at which every generator is positive to
    the exact value of f there (only values <= 0 matter).  The one family of
    :func:`gram_family` is restricted to its face by :func:`restrict_to_face`;
    a negative forced diagonal there proves infeasibility, and so does a
    point where f is negative.  The real zeros among ``points`` then cut the
    face (G_k v_k(x) = 0), it is restricted again, and the same refutations
    run, all in place.  A family with one member is decided by that member,
    and otherwise :func:`_numeric_search` proposes one, or refutes f at a
    rational point where every generator is >= 0 and f < 0, read off its
    float run and checked exactly.
    """
    points = points or {}
    zeros = [x for x, value in points.items() if value == 0]
    dropped, used = {}, []

    def face(family):
        """Restrict ``family`` to its face in place; the forced-negative refutation there."""
        for k, monomials in enumerate(restrict_to_face(family)):
            if monomials:
                dropped.setdefault(k, []).extend(monomials)
        return next((f"diagonal entry for {family.bases[k][i]} forced to {value}"
                     for (k, i), value in family.forced.items() if value < 0), None)

    try:
        family = gram_family(f, bases, generators)
        refuted = face(family) or next(
            (_negative_at(x, value) for x, value in points.items() if value < 0), None)
        if zeros and family.free and not refuted:  # one member is decided without them
            used = zeros
            family.cut(_zero_equations(family.bases, zeros), _NO_ZERO_FACE)
            refuted = face(family)
    except GramInfeasibleError as exc:
        refuted = str(exc)
    if refuted:
        return Search("infeasible", None, refuted, dropped, used)
    if not family.free:  # the one member decides
        blocks = family.at([])
        if all(is_psd(b) for b in blocks):
            return Search("found", list(zip(blocks, family.bases)), "unique Gram matrix", dropped, used)
        return Search("infeasible", None, "unique Gram matrix is not psd", dropped, used)
    return Search(*_numeric_search(family, f, generators), dropped, used)


def _negative_at(x, value) -> str:
    """The refutation text of a point x where the target has the value < 0, entries as p/q."""
    return f"the target is {value} at the point ({', '.join(map(str, x))}{',' * (len(x) == 1)})"


def _point_check(family: GramFamily, f: MPoly, generators, refutations: list):
    """The stopping rule of the first numeric run, or None where it does not apply.

    The residual r of :func:`~ratsos.numeric.alternating_projection` is
    A^T w, so its block 0, for the generator 1, is the pseudo-moment matrix
    [w_(b_i + b_j)]; as r nears the minimal displacement of an empty
    intersection, w is a functional that is nonnegative on the module and
    negative on f (Bauschke-Borwein 1993), and its first moments point at a
    violating point (single-atom extraction, Henrion-Lasserre 2005).  With 1
    and every x_i in basis 0, the rule reads m0 = r0[1, 1] and
    x_i = r0[1, x_i] / m0; when m0 > 0 and f(x) < 0 in floats it rounds x
    down the denominator ladder.  At the first rounding x0 with every
    generator >= 0 and f(x0) < 0, both exact, f is no sum of sigma_k g_k (each
    term is >= 0 at x0): the rule appends the refutation text to
    ``refutations`` and answers true.  A rounding once rejected is not
    evaluated again.
    """
    n, basis = f.nvars, family.bases[0]
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    if generators[0] != MPoly.constant(n, 1) or not {(0,) * n, *units} <= set(basis):
        return None
    start = basis.index((0,) * n) * len(basis)
    moments = [start + basis.index(a) for a in [(0,) * n, *units]]
    exponents = np.array(list(f.terms), dtype=float).reshape(len(f.terms), n)
    coeffs = np.array([float(c) for c in f.terms.values()])
    rejected = set()

    def check(r) -> bool:
        m0, *first = r[moments]
        with np.errstate(all="ignore"):
            x = np.array(first) / m0
            screen = coeffs @ np.prod(x**exponents, axis=1)
        if not (m0 > 0 and np.isfinite(x).all() and screen < 0):
            return False
        for bound in DENOMINATOR_LADDER:
            x0 = tuple(Fraction(float(t)).limit_denominator(bound) for t in x)
            if x0 not in rejected:
                if all(g.eval(x0) >= 0 for g in generators) and (value := f.eval(x0)) < 0:
                    refutations.append(_negative_at(x0, value))
                    return True
                rejected.add(x0)
        return False

    return check


def _numeric_search(family: GramFamily, f: MPoly, generators):
    """(status, cert, detail) of the numeric phase on a family with free unknowns.

    Alternating projections, at the one budget of
    :func:`~ratsos.numeric.alternating_projection`, propose a point.  Every
    _SEPARATION_EVERY sweeps the first run also reads a point off its
    residual's moment block and rounds it (:func:`_point_check`); a rounding
    x0 in the constraint set with f(x0) < 0, both checked exactly, ends the
    search ``infeasible``.  A converged point is nudged off the psd
    boundary, to the affine projection of x + _NUDGE * I, and its free
    unknowns are rounded down the denominator ladder; if none rounds, a
    second run at the same budget on the family shifted by -_FLOOR * I from
    that point pushes it to {X >= _FLOOR * I}
    (max(w - e, 0) + e = max(w, e)), and the ladder runs once more.  A member
    is accepted only when every block passes the exact psd test.  A run that
    separated (a float stopping rule) is not rounded, and neither is a family
    whose coefficients or iterates floats cannot hold, or whose float matrix
    does not fit in memory: each ends ``unknown``, as does a run that stalled
    at the sweep cap and did not round.
    """
    free = family.positions()[family.free, 0]
    try:
        with np.errstate(over="raise"):
            try:
                numeric = family.numeric()
            except MemoryError:
                return "unknown", None, "the float Gram system does not fit in memory"
            eye = numeric.eye_vector()
            refutations = []
            stop = _point_check(family, f, generators, refutations)
            x, gap, converged, separated = alternating_projection(numeric, stop=stop)
            if refutations:
                return "infeasible", None, refutations[0]
            if separated:
                return "unknown", None, f"numeric phase separated at gap {gap:.2e}"
            if converged:
                x = numeric.project(x + _NUDGE * eye)
            rounded = _round(family, x[free])
            if rounded is None and converged:
                x = alternating_projection(AffineFamily(x - _FLOOR * eye, numeric.a, numeric.sizes))[0]
                rounded = _round(family, (x + _FLOOR * eye)[free])
    except (OverflowError, FloatingPointError):
        return "unknown", None, "a coefficient of the Gram system exceeds the float range"
    if rounded is not None:
        blocks, detail = rounded
        return "found", list(zip(blocks, family.bases)), detail
    if not converged:
        return "unknown", None, f"numeric phase stalled at gap {gap:.2e}"
    return "unknown", None, "rationalization failed"


def _nonpositive_grid_values(f: MPoly, unknowns: int) -> dict:
    """{x: f(x)} over the points x of {-1, 0, 1}^n where f(x) <= 0; empty when 3^n > ``unknowns``.

    Each point is evaluated on the integer-scaled coefficients of f: a term
    c x^alpha is 0 when some x_i = 0 has alpha_i > 0, and otherwise c times
    the sign (-1)^(sum of alpha_i over the x_i = -1).  One Fraction is made
    per point returned.
    """
    if 3**f.nvars > unknowns:
        return {}
    scale, terms = _integer_terms(f)
    masks = [(_mask(a), _mask([e % 2 for e in a]), c) for a, c in terms]  # support, odd exponents, L * c
    out = {}
    for x in product((-1, 0, 1), repeat=f.nvars):
        zero, negative = _mask([t == 0 for t in x]), _mask([t < 0 for t in x])
        value = sum(-c if (odd & negative).bit_count() % 2 else c
                    for support, odd, c in masks if not support & zero)
        if value <= 0:
            out[x] = Fraction(value, scale)
    return out


def _mask(flags) -> int:
    """The bit set of the indices i with flags[i] true."""
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def find_gram(f: MPoly) -> Search:
    """Search for an exact psd Gram matrix of f over the halved Newton lattice.

    Odd degree is refuted at once; otherwise :func:`search` runs on the one
    block of the lattice, and a member it accepts is re-checked against f.
    A found result holds the (gram, monomials) pair :func:`verify_sos`
    takes, over the monomials left after facial reduction.
    The Newton-polytope vertex rule needs no pass of its own: a vertex alpha
    is no midpoint of two points of the polytope, so its only Gram entry is
    the diagonal one of alpha/2.  An odd vertex is therefore unreachable, and
    a negative vertex coefficient forces that diagonal negative.
    The search is handed the points of {-1, 0, 1}^n where f <= 0, scanned
    only while 3^n is at most the number of Gram unknowns (so the scan never
    costs more than the family): a negative value refutes f, and each real
    zero x puts the search on the exact face G v(x) = 0, where a boundary
    instance has a relative interior the numeric phase converges to.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial needs no certificate")
    if f.degree() % 2 == 1:
        return Search("infeasible", None, "odd degree")
    lattice = newton_halved_lattice(f)
    points = _nonpositive_grid_values(f, len(lattice) * (len(lattice) + 1) // 2)
    res = search(f, [lattice], [MPoly.constant(f.nvars, 1)], points)
    if res.status == "found":
        [cert] = res.cert
        res = res._replace(cert=cert)
        if gram_product(*res.cert, f.nvars) != f:
            raise AssertionError("family member does not reproduce the target")
    return res


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
    if gram_product(gram, monomials, f.nvars) != f:
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
    h, rem = divmod(SosCert(tuple(zip(weights, fs))).expand(UPoly.zero()), g * g)
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
            s = SosCert(tuple(zip(ws, qs))).expand(UPoly.zero()) - h
            t = -(cur_g * h)
            for w, fi, qi in zip(ws, cur, qs):
                t = t + fi * qi * w
            new_f = [s * fi - (t * qi) * 2 for fi, qi in zip(cur, qs)]
            new_g = s * cur_g - t * 2
        if new_g.is_zero or not new_g.degree() < cur_g.degree():
            raise ArithmeticError("descent failed to lower the denominator degree")
        if SosCert(tuple(zip(ws, new_f))).expand(UPoly.zero()) != h * new_g * new_g:
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

def cert_to_json(cert: SosCert) -> dict:
    return {"terms": terms_to_json(cert.terms)}


def gram_to_json(gram: SymMat, monomials, target: MPoly) -> dict:
    return {
        "monomials": [list(a) for a in monomials],
        "gram": [[str(x) for x in row] for row in gram.rows],
        "target": poly_text(target),
    }


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
    return [{"weight": str(w), "poly": poly_text(p)} for w, p in terms]


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
    """Load a certificate document; returns (cert-or-gram-pair, target poly or None).

    Without ``nvars``, the target is read in the variables it names, and in a
    Gram document in at least the length of its monomials (so x^4 + y - y
    keeps its y); a target naming a higher variable fails the length check.
    """
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be a JSON object")
    text = json_field(doc, "target", str) if "target" in doc else None
    gram = None
    if "gram" in doc and "terms" not in doc:
        gram = SymMat.from_rows(json_rows(json_field(doc, "gram", list), "certificate field 'gram'"))
        monomials = [_exponents(a) for a in json_field(doc, "monomials", list)]
        if nvars is None and monomials:
            nvars = max(len(monomials[0]), 0 if text is None else infer_nvars(text))
    target = None if text is None else parse_poly(text, nvars)
    nvars = nvars if target is None else target.nvars
    if "terms" in doc:
        return SosCert(terms_from_json(json_field(doc, "terms", list), nvars)), target
    if gram is None:
        raise ValueError("certificate document has neither 'terms' nor 'gram'")
    for alpha in monomials:
        if len(alpha) != nvars:
            raise ValueError(f"certificate monomial {list(alpha)} has length {len(alpha)}, expected {nvars}")
    if gram.dim != len(monomials):
        raise ValueError(
            f"certificate field 'gram' is {gram.dim}x{gram.dim} but 'monomials' lists {len(monomials)}"
        )
    return (gram, monomials), target


def dump_cert(cert_doc: dict) -> str:
    return json.dumps(cert_doc, indent=2, sort_keys=True)
