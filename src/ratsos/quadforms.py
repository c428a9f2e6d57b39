"""Exact quadratic-form algebra over the rationals.

A quadratic form is a :class:`SymMat`, a symmetric :class:`arith.Mat` built
from its upper triangle or validated from full rows.  Congruence
diagonalization M = P^T diag(D) P by square completion with a hyperbolic
split on zero diagonals, both run as one symmetric fraction-free step
(``_symmetric_step``) on the upper triangle of an integer matrix, row and
column k of M scaled by the same denominator lcm and the whole divided by
the gcd of its entries (on a Hankel trace form this strips the powers of
the denominator lcm that clearing puts in), with the rows of P built from
the kept pivot rows only when they are read; rank and signature (with
an independent second method: Descartes' rule on det(M + X*I)), psd tests
(``is_psd`` rejects a negative diagonal entry, or a zero one in a nonzero
row, before it runs Berkowitz), and weighted-square certificates extracted
from a diagonalization.  Both certificate expansions, w * p^2 summed over
the squares and v^T M v, are one fraction-free accumulation over the upper
triangle of each form (``_add_form_row``), with one ``Fraction`` per term
of the result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add

from .arith import Mat, charpoly, det, rat, record
from .poly import MPoly, _from_integers, _integer_terms, sign_changes


class CertificateError(ValueError):
    pass


class SymMat(Mat):
    """Symmetric rational matrix: a :class:`Mat` built from its upper triangle,
    read row by row, or checked from full rows by :meth:`from_rows`.  Each
    entry is coerced by ``rat`` once."""

    __slots__ = ()

    def __init__(self, dim: int, upper):
        upper = [rat(x) for x in upper]
        if len(upper) != dim * (dim + 1) // 2:
            raise ValueError("upper triangle has wrong length")
        rows, k = [], 0
        for i in range(dim):  # row i: column i of the rows above, then row i of the triangle
            rows.append([r[i] for r in rows] + upper[k : k + dim - i])
            k += dim - i
        self.rows, self.nrows, self.ncols = rows, dim, dim

    @classmethod
    def from_rows(cls, rows) -> "SymMat":
        rows = [[rat(x) for x in r] for r in rows]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix is not square")
        if any(list(col) != row for row, col in zip(rows, zip(*rows))):
            raise ValueError("matrix is not symmetric")
        return cls._wrap(rows)

    dim = property(lambda self: self.nrows)

    def __repr__(self) -> str:
        return f"SymMat.from_rows({[[str(x) for x in r] for r in self.rows]})"


class DiagCongruence:
    """Invertible P and diagonal D with M = P^T diag(D) P.

    The rows of P are the coefficient vectors of linearly independent linear
    forms; D lists the corresponding weights (zeros included).  P is a
    :class:`Mat`, or a function returning its rows that runs the first time
    ``p`` is read: :func:`diagonalize` passes one, so a reader of D alone
    (:func:`inertia`) builds no row of P.
    """

    __slots__ = ("_p", "d")

    def __init__(self, p, d: list[Fraction]):
        self._p, self.d = p, d

    @property
    def p(self) -> Mat:
        if not isinstance(self._p, Mat):
            self._p = Mat._wrap(self._p())
        return self._p


def diagonalize(m: SymMat) -> DiagCongruence:
    """Congruence-diagonalize a symmetric matrix as a quadratic form.

    Pivots on the first nonzero diagonal entry (completing the square); when
    every active diagonal entry is zero, the first nonzero off-diagonal pair
    (i, j) is handled by the hyperbolic split
    h1*h2 = ((h1+h2)/2)^2 - ((h1-h2)/2)^2, run as one symmetric step on the
    2x2 block (Bunch-Kaufman 1977).

    Row and column k of M are scaled by the same s_k, the lcm of row k's
    denominators, and the integer matrix is divided by the gcd g of its
    entries, so it stays symmetric and only its upper triangle is kept and
    eliminated (:func:`_symmetric_step`).  By Sylvester's identity its
    active entry (k, l) is prev * s_k * s_l * X_kl / g, X the current Schur
    complement and prev the last fraction-free pivot, so a pivot is
    d_k = a_kk * g / (prev * s_k^2), a split gives the pair
    +-a_ij * g / (2 * prev * s_i * s_j), and a row of P is
    a_rj * s_c / (a_rc * s_j).  Positive scalings keep the zero pattern of
    every Schur complement, so the pivots, P and D are those of the
    row-scaled elimination.  Each step keeps its full pivot rows, which no
    later step changes, for the rows of P (:func:`_p_rows`).
    """
    n = m.dim
    scales = [lcm(*(x.denominator for x in row)) for row in m.rows]
    tri = [[x.numerator * (s // x.denominator) * t for x, t in zip(row[i:], scales[i:])]
           for i, (row, s) in enumerate(zip(m.rows, scales))]
    g = gcd(*[gcd(*row) for row in tri]) or 1
    if g > 1:
        tri = [[x // g for x in row] for row in tri]
    active = list(range(n))
    prev = 1
    steps = []  # (active, [(pivot row, its column)]) per step
    d: list[Fraction] = []
    while active:
        k = next((k for k, row in enumerate(tri) if row[0]), None)
        if k is not None:
            i = j = k
            s = scales[active[k]]
            d.append(Fraction(tri[k][0] * g, prev * s * s))
        else:
            pair = next(((i, i + c) for i, row in enumerate(tri) for c, x in enumerate(row) if x), None)
            if pair is None:
                # remaining form is identically zero
                steps.append((active[:], []))
                d += [Fraction(0)] * len(active)
                break
            i, j = pair
            half = Fraction(tri[i][j - i] * g, 2 * prev * scales[active[i]] * scales[active[j]])
            d += [half, -half]
        prev, pivot_rows = _symmetric_step(tri, i, j, prev)
        steps.append((active[:], pivot_rows))
        del active[j]
        if i != j:
            del active[i]
    return DiagCongruence(lambda: _p_rows(n, scales, steps), d)


def _symmetric_step(tri, i: int, j: int, prev: int):
    """One fraction-free congruence step on the upper triangle ``tri`` of a
    symmetric integer matrix (row r holds the entries (r, s), s >= r), in
    place: rows and columns i and j leave, and every kept entry (r, s), r <= s,
    becomes a minor of the input again (Bareiss 1968, Sylvester's identity).

    For i == j it completes the square on p = a_ii:
    a_rs <- (p * a_rs - a_ri * a_is) // prev, and p is the next prev.  For
    i < j, with a_ii = a_jj = 0 and b = a_ij, it eliminates the 2x2 block:
    a_rs <- b * (a_ri * a_js + a_rj * a_is - b * a_rs) // prev^2, and the
    next prev is -b^2 / prev, the determinant of the block's leading minor.
    Returns the next prev and the full pivot rows, each with the column of
    its pivot entry, as :func:`_p_rows` reads them: [(row i, i)] for a square
    completion, [(row j, i), (row i, j)] for a split.  Taking the pivot rows
    out in place keeps the order of the other indices, so every later pivot
    is the one the row-scaled elimination chooses.
    """
    if i == j:
        row_i = _take(tri, i)
        p = row_i[i]
        u = row_i[:i] + row_i[i + 1 :]
        for r, row in enumerate(tri):
            f = u[r]
            tri[r] = [(p * x - f * y) // prev for x, y in zip(row, u[r:])]
        return p, [(row_i, i)]
    row_j = _take(tri, j)
    row_i = _take(tri, i)  # without column j, which holds b
    b = row_j[i]
    u = row_i[:i] + row_i[i + 1 :]
    v = row_j[:i] + row_j[i + 1 : j] + row_j[j + 1 :]
    pp = prev * prev
    for r, row in enumerate(tri):
        fu, fv = u[r], v[r]
        tri[r] = [b * (fu * y + fv * x - b * a) // pp for a, x, y in zip(row, u[r:], v[r:])]
    row_i.insert(j, b)
    return -(b * b) // prev, [(row_j, i), (row_i, j)]


def _take(tri, k: int) -> list[int]:
    """Remove row and column k from the upper triangle ``tri``, in place, and
    return the full row k."""
    return [r.pop(k - s) for s, r in enumerate(tri[:k])] + tri.pop(k)


def _p_rows(n: int, scales, steps) -> list[list[Fraction]]:
    """The rows of P from the steps of :func:`diagonalize`.  A full pivot
    row of the active block over its entry in column c, entry k times
    s_c / s_k, is a linear form; a square completion gives one, a
    hyperbolic split the sum and the difference of its two, and an
    identically zero remainder the unit forms of its indices."""
    rows = []
    for active, pivots in steps:
        forms = []
        for row, c in pivots:
            form = [Fraction(0)] * n
            num, den = scales[active[c]], row[c]
            for k, x in zip(active, row):
                form[k] = Fraction(x * num, den * scales[k])
            forms.append(form)
        if not forms:
            rows += [[Fraction(int(i == k)) for i in range(n)] for k in active]
        elif len(forms) == 1:
            rows += forms
        else:
            h1, h2 = forms
            rows += [[x + y for x, y in zip(h1, h2)], [x - y for x, y in zip(h1, h2)]]
    return rows


def inertia(m: SymMat) -> tuple[int, int, int]:
    """(#positive, #negative, #zero) entries of any congruence diagonal of m."""
    d = diagonalize(m).d
    pos = sum(1 for x in d if x > 0)
    neg = sum(1 for x in d if x < 0)
    return pos, neg, len(d) - pos - neg


def signature(m: SymMat) -> int:
    pos, neg, _ = inertia(m)
    return pos - neg


def rank(m: SymMat) -> int:
    pos, neg, _ = inertia(m)
    return pos + neg


def signature_via_descartes(m: SymMat) -> int:
    """Signature as sigma(h(-X)) - sigma(h) for h = det(M + X*I).

    h is real-rooted, its roots the negated eigenvalues, so by Descartes'
    rule sigma(h(-X)) and sigma(h) count the positive and the negative
    eigenvalues exactly.  Independent of :func:`diagonalize`.
    """
    h = charpoly(m)
    return sign_changes(h.compose_neg()) - sign_changes(h)


def is_psd(m: SymMat) -> bool:
    """Positive semidefiniteness: all coefficients of det(M + X*I) nonnegative.

    The diagonal is read first: a negative entry, or a zero entry in a row
    that is not zero, rules out psd (e_i^T M e_i = 0 for a psd M forces
    M e_i = 0; Horn-Johnson, Obs. 7.1.2), and every other matrix goes to
    the Berkowitz characteristic polynomial.
    """
    for i, row in enumerate(m.rows):
        x = row[i]
        if x < 0 or (not x and any(row)):
            return False
    return all(c >= 0 for c in charpoly(m).coeffs)


def is_psd_via_diagonal(m: SymMat) -> bool:
    """psd iff a congruence diagonal has no negative entry."""
    return all(x >= 0 for x in diagonalize(m).d)


def is_psd_via_minors(m: SymMat) -> bool:
    """psd iff every principal minor (all index subsets) is nonnegative."""
    subsets = (s for size in range(1, m.dim + 1) for s in combinations(range(m.dim), size))
    return all(det(Mat([[m[i, j] for j in s] for i in s])) >= 0 for s in subsets)


class SosCert(record("SosCert", "terms")):
    """Weighted-square certificate: a tuple of (nonnegative weight, polynomial)."""

    __slots__ = ()

    def weights_ok(self) -> bool:
        return all(w >= 0 for w, _ in self.terms)

    def expand(self, zero):
        """Sum of w * p^2 over the terms, as a polynomial of the type and
        variable count of ``zero`` (the zero MPoly or UPoly; a UPoly is the
        one-variable MPoly).

        Fraction-free: each p is scaled to integers over the lcm L of its
        coefficient denominators, and w * p^2 is added, by its upper
        triangle of products with doubled cross terms, into one integer sum
        over the common denominator lcm(w.den * L^2).  One ``Fraction`` is
        built per nonzero term of the result.
        """
        nvars = zero.nvars
        squares = []
        for w, p in self.terms:
            if p.nvars != nvars:
                raise ValueError("mixed variable counts")
            if w:
                scale, xs = _integer_terms(p)
                squares.append((w, scale * scale, [a for a, _ in xs], [c for _, c in xs]))
        den = lcm(*(w.denominator * s for w, s, _, _ in squares))
        acc: dict = {}
        for w, s, alphas, coeffs in squares:
            k = w.numerator * (den // (w.denominator * s))
            for i, c in enumerate(coeffs):
                _add_form_row(acc, alphas, i, k * c, coeffs[i:])
        return _from_integers(nvars, acc, den, type(zero))


def _add_form_row(acc: dict, alphas, i: int, scale: int, upper) -> None:
    """Add scale * x^a_i * (u_0 * x^a_i + 2 * sum_(j > i) u_(j-i) * x^a_j) to
    the integer sum ``acc``, u = ``upper``: row i of a symmetric form on the
    monomials x^a from its diagonal on, the cross terms doubled."""
    a = alphas[i]
    key = tuple(map(add, a, a))
    acc[key] = acc.get(key, 0) + scale * upper[0]
    scale *= 2
    for b, x in zip(alphas[i + 1 :], upper[1:]):
        if x:
            key = tuple(map(add, a, b))
            acc[key] = acc.get(key, 0) + scale * x


def weighted_square_decomposition(m: SymMat, monomials) -> SosCert:
    """Write v^T M v as a weighted sum of squares, v the given monomial vector.

    Requires m psd, read off the signs of the diagonal (Sylvester's law of
    inertia); the number of squares equals rank(m).  The k-th square is the
    k-th row of the diagonalizing P evaluated on the monomials.
    """
    monomials = [tuple(a) for a in monomials]
    if len(monomials) != m.dim:
        raise ValueError(f"monomial vector has length {len(monomials)}, expected {m.dim}")
    if m.dim == 0:
        return SosCert(())
    cong = diagonalize(m)
    if any(x < 0 for x in cong.d):
        raise CertificateError("matrix is not positive semidefinite")
    nvars = len(monomials[0])
    terms = []
    for k, weight in enumerate(cong.d):
        if weight == 0:
            continue
        poly_terms: dict = {}
        for alpha, c in zip(monomials, cong.p.rows[k]):
            if c:
                poly_terms[alpha] = poly_terms.get(alpha, Fraction(0)) + c
        terms.append((weight, MPoly(nvars, poly_terms)))
    return SosCert(tuple(terms))


def gram_product(m: SymMat, monomials, nvars: int) -> MPoly:
    """The polynomial v^T M v in nvars variables for the monomial vector v given by exponent tuples.

    Fraction-free: s_i is the lcm of the denominators of row i of M, only
    the entries j >= i of the row are scaled to integers by it, and that
    upper triangle, cross terms doubled, is summed per exponent vector in
    integers over the common denominator lcm(s_i).  One ``Fraction`` is
    built per nonzero term of the result.
    """
    monomials = [tuple(a) for a in monomials]
    if len(monomials) != m.dim:
        raise ValueError(f"monomial vector has length {len(monomials)}, expected {m.dim}")
    for alpha in monomials:
        if len(alpha) != nvars:
            raise ValueError(f"exponent vector {alpha} has wrong length for {nvars} variables")
    scales = [lcm(*(x.denominator for x in row)) for row in m.rows]
    den = lcm(*scales)
    acc: dict = {}
    for i, (row, s) in enumerate(zip(m.rows, scales)):
        _add_form_row(acc, monomials, i, den // s, [x.numerator * (s // x.denominator) for x in row[i:]])
    return _from_integers(nvars, acc, den)
