"""Exact rational matrices with fraction-free elimination kernels.

All row elimination runs through one integer kernel, ``_echelon``: Bareiss's
fraction-free row echelon reduction on denominator-cleared rows, with exact
integer division.  Determinants (its last pivot), linear solving and
nullspaces (back-substitution on its rows), span checks (its pivot
columns) and span coordinates (back-substitution on its pivot columns) are
read off it.  Characteristic polynomials use Berkowitz's
division-free algorithm on a denominator-cleared integer copy.  Everything is
exact.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from operator import mul

from .poly import UPoly

Rat = Fraction


class DimensionError(ValueError):
    pass


def rat(value) -> Fraction:
    """Coerce an int, Fraction or "p/q" text into a rational; decimals are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    s = str(value).strip()
    if "." in s:
        raise ValueError(f"decimal point forbidden in rational literal {s!r}")
    return Fraction(s)


class Mat:
    """Dense rational matrix stored as a list of rows."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows):
        self.rows = [[rat(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise DimensionError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, cols) -> "Mat":
        cols = [list(c) for c in cols]
        if not cols:
            return cls([])
        if any(len(c) != len(cols[0]) for c in cols):
            raise DimensionError("ragged columns")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def transpose(self) -> "Mat":
        return Mat([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise DimensionError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
            bt = other.transpose().rows
            return Mat([[_dot(r, c) for c in bt] for r in self.rows])
        if isinstance(other, (int, Fraction)):
            return Mat([[x * other for x in r] for r in self.rows])
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError("shape mismatch")
        return Mat([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (other * -1)

    def matvec(self, v) -> list[Fraction]:
        v = [rat(x) for x in v]
        if len(v) != self.ncols:
            raise DimensionError("vector length mismatch")
        return [_dot(r, v) for r in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Mat({[[str(x) for x in r] for r in self.rows]})"


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _integer_rows(rows):
    """Scale each rational row to integers; returns (rows of ints, product of the scalings)."""
    out = []
    scale = 1
    for row in rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def det(m: Mat) -> Fraction:
    """Exact determinant: the last Bareiss pivot of the denominator-cleared matrix."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a, scale = _integer_rows(m.rows)
    rows, pivots, sign = _echelon(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1], scale)


def charpoly(m: Mat, sign: str = "plus") -> UPoly:
    """det(M + X*I) for sign="plus", det(M - X*I) for sign="minus".

    Computed exactly by Berkowitz's division-free algorithm on the integer
    matrix B = -L*M ("plus") or L*M ("minus"), L the lcm of the entry
    denominators: the X^k coefficient of det(X*I - B), divided by L^(n-k),
    is the X^k coefficient of det(X*I + M) or det(X*I - M) respectively, and
    det(M - X*I) = (-1)^n det(X*I - M).  The result has degree exactly the
    dimension of M.
    """
    if not m.is_square:
        raise DimensionError("characteristic polynomial of a non-square matrix")
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    n = m.nrows
    scale = lcm(*(x.denominator for row in m.rows for x in row))
    s = -1 if sign == "plus" else 1
    b = [[s * x.numerator * (scale // x.denominator) for x in row] for row in m.rows]
    # p lists the coefficients of det(X*I - B_k), highest degree first, where
    # B_k is the leading k x k block.  Bordering B_(k-1) by column c, row r and
    # corner a multiplies p by the lower-triangular Toeplitz matrix whose first
    # column is 1, -a, -r.c, -r.B_(k-1).c, ..., -r.B_(k-1)^(k-2).c.
    p = [1]
    for k in range(n):
        lead = [row[:k] for row in b[:k]]
        r = b[k][:k]
        col = [row[k] for row in b[:k]]
        q = [1, -b[k][k]]
        for t in range(k):
            if t:
                col = [sum(map(mul, row, col)) for row in lead]
            q.append(-sum(map(mul, r, col)))
        p = [sum(q[i - j] * p[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    coeffs = [Fraction(c, scale**i) for i, c in enumerate(p)]
    coeffs.reverse()
    if sign == "minus" and n % 2 == 1:
        coeffs = [-c for c in coeffs]
    return UPoly(coeffs)


def _echelon(rows: list[list[int]]):
    """Fraction-free row echelon form of integer rows (Bareiss 1968).

    Returns (rows, pivot columns, sign of the row permutation).  Every entry
    stays an integer minor of the input, so each update divides exactly by
    the previous pivot; the last pivot of a square full-rank input is its
    determinant up to the sign.  Rows are only swapped and rescaled by
    nonzero factors, so the row space and the solution set of an augmented
    system are preserved, and the pivot columns are the greedy-by-index
    maximal independent set of columns.  ``rows`` is updated in place.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            fi = row[c]
            for j in range(c + 1, ncols):
                row[j] = (piv * row[j] - fi * top[j]) // prev
            row[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return rows, pivots, sign


def pivot_columns(m: Mat) -> list[int]:
    """Indices of the columns of M not in the span of the columns before them."""
    return _echelon(_integer_rows(m.rows)[0])[1]


def span_coordinates(vectors) -> tuple[list[int], list[list[Fraction]]]:
    """The greedy span basis of the vectors and every vector's coordinates in it.

    One ``_echelon`` pass over the matrix whose columns are the vectors.
    ``pivots`` are the indices of the vectors not in the span of the vectors
    before them, and ``coords[k]`` holds the c with
    sum_i c_i vectors[pivots[i]] = vectors[k] (a unit vector for a pivot).
    Row operations keep every linear relation among the columns, so each c
    is read by back-substitution on the pivot columns of the echelon form.
    """
    rows, pivots, _ = _echelon(_integer_rows(Mat.from_columns(vectors).rows)[0])
    coords = []
    for j in range(len(vectors)):
        c = [Fraction(0)] * len(pivots)
        # rows whose pivot lies right of column j are zero there
        top = bisect_right(pivots, j)
        for i in range(top - 1, -1, -1):
            row = rows[i]
            acc = row[j] - sum(row[pivots[k]] * c[k] for k in range(i + 1, top))
            c[i] = Fraction(acc) / row[pivots[i]]
        coords.append(c)
    return pivots, coords


def _back_substitute(rows, pivots, n, free=None):
    """Solve an echelonized [A|b] system, A with n columns; the free variables
    are zero, except the one at column ``free``, which is one."""
    x = [Fraction(0)] * n
    if free is not None:
        x[free] = Fraction(1)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row = rows[r]
        acc = row[n]
        for j in range(c + 1, n):
            if row[j] != 0:
                acc -= row[j] * x[j]
        x[c] = Fraction(acc) / row[c]
    return x


def _augmented(a: Mat, b) -> list[list[int]]:
    """Denominator-cleared rows of [A|b]."""
    b = [rat(v) for v in b]
    if len(b) != a.nrows:
        raise DimensionError(f"right-hand side has length {len(b)}, expected {a.nrows}")
    return _integer_rows([row + [val] for row, val in zip(a.rows, b)])[0]


def solve_linear(a: Mat, b) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when the system is inconsistent."""
    rows, pivots, _ = _echelon(_augmented(a, b))
    if pivots and pivots[-1] == a.ncols:
        return None
    # rows below the last pivot are entirely zero by construction
    return _back_substitute(rows, pivots, a.ncols)


def affine_solution_set(a: Mat, b):
    """Full solution set of A x = b as (particular, nullspace basis), or None.

    The particular solution sets every free variable to zero; the basis
    vectors each set one free variable to one.
    """
    n = a.ncols
    rows, pivots, _ = _echelon(_augmented(a, b))
    if pivots and pivots[-1] == n:
        return None
    particular = _back_substitute(rows, pivots, n)
    pivot_set = set(pivots)
    zero_rhs = [r[:n] + [0] for r in rows]
    basis = [_back_substitute(zero_rhs, pivots, n, free=j) for j in range(n) if j not in pivot_set]
    return particular, basis
