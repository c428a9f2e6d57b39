"""Exact rational matrices with fraction-free elimination kernels.

Row elimination runs through one integer step, ``_pivot``: the
fraction-free Gauss-Jordan update of Bareiss (1968), which keeps every entry
an integer minor of the input so each division by the previous pivot is
exact.  ``_echelon`` applies it at every pivot of denominator-cleared rows
and returns the reduced echelon form, whose pivot entries all equal the last
pivot.  Determinants (that last pivot), span checks (its pivot columns), and
linear solutions and nullspaces (one integer entry over the last pivot each,
read out by ``_reduced``) need no back-substitution.  ``conic`` reads its
tableau off ``_reduced`` and pivots it with the same step.  The congruence,
``quadforms.diagonalize``, has its own symmetric step on the upper triangle,
over rows and columns scaled by the multipliers ``_integer_rows`` returns.
Characteristic polynomials, det(M + X*I), of symmetric matrices use
Berkowitz's division-free algorithm on a denominator-cleared integer copy,
over the column powers alone; a non-symmetric matrix is an error.
Everything is exact.  The package's immutable results are ``record``
classes: namedtuples that equal only records of their own class.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm, prod
from operator import mul

from .poly import _COEF, MAX_DIGITS, UPoly


class DimensionError(ValueError):
    pass


def record(name: str, fields: str) -> type:
    """The namedtuple ``name`` of ``fields``, whose instances equal only
    instances of the same class (never a bare tuple) and hash as tuples.
    A subclass declares ``__slots__ = ()`` and adds its methods."""
    class Record(namedtuple(name, fields)):
        __slots__ = ()
        __hash__ = tuple.__hash__

        def __eq__(self, other):
            return type(other) is type(self) and tuple.__eq__(self, other)

        def __ne__(self, other):  # tuple's own != would compare the fields alone
            return not self == other

    return Record


def rat(value) -> Fraction:
    """Coerce an int, Fraction or text into a rational.  Text is an optional
    sign and a polynomial coefficient ``nat ('/' nat)?``, blanks stripped;
    its value is built from the matched digit runs, with the errors of
    ``Fraction(text)`` (an integer as ``Fraction(n)``, which needs no gcd);
    a zero denominator's ZeroDivisionError names the text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    s = str(value).strip()
    if "." in s:
        raise ValueError(f"decimal point forbidden in rational literal {s!r}")
    m = _COEF.fullmatch(s, 1 if s.startswith(("+", "-")) else 0)
    if m is None or m.group(2) == "":
        raise ValueError(f"Invalid literal for Fraction: {s!r}")
    num, den = m.groups()
    if max(len(num), len(den or "")) > MAX_DIGITS:
        raise ValueError(f"rational literal with a number longer than {MAX_DIGITS} digits")
    num = -int(num) if s.startswith("-") else int(num)
    if den is None:
        return Fraction(num)
    if not (den := int(den)):
        raise ZeroDivisionError(f"zero denominator in rational literal {s!r}")
    return Fraction(num, den)


_JSON_KINDS = {list: "a list", str: "a string", int: "an integer"}


def _json_typed(value, kind, what: str):
    """``value`` when it is a ``kind`` (a type or tuple of types, never bool); else ValueError."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise ValueError(f"{what} must be {expected}, not {type(value).__name__}")
    return value


def json_rationals(value, what: str, entry: str, seen=None) -> list[Fraction]:
    """A JSON list ``what`` of integers and "p/q" strings (each an ``entry``), as rationals; ``seen``
    maps each literal read, its type checked first, to its one ``Fraction`` (so ``true`` is no ``1``)."""
    seen = {} if seen is None else seen
    values = []
    for x in _json_typed(value, list, what):
        if (q := seen.get(_json_typed(x, (str, int), entry))) is None:
            q = seen[x] = rat(x)
        values.append(q)
    return values


def json_rows(value, what: str) -> list[list[Fraction]]:
    """A JSON list of lists of integers and "p/q" strings, as rows of rationals."""
    seen: dict = {}
    return [json_rationals(row, f"{what} row", f"{what} entry", seen) for row in _json_typed(value, list, what)]


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
    def _wrap(cls, rows) -> "Mat":
        """The matrix on ``rows``, equal-length lists of ``Fraction``s, taken
        as they are: no coercion and no copy."""
        m = cls.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), len(rows[0]) if rows else 0
        return m

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

    def __mul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise DimensionError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        bt = other.transpose().rows
        return Mat([[_dot(r, c) for c in bt] for r in self.rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Mat({[[str(x) for x in r] for r in self.rows]})"


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _integer_rows(rows):
    """Scale each rational row to integers; returns (rows of ints, each row's multiplier)."""
    out = []
    scales = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scales.append(mult)
    return out, scales


def det(m: Mat) -> Fraction:
    """Exact determinant: the last Bareiss pivot of the denominator-cleared matrix."""
    if not m.is_square:
        raise DimensionError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a, scales = _integer_rows(m.rows)
    rows, pivots, sign = _echelon(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1], prod(scales))


def charpoly(m: Mat) -> UPoly:
    """det(M + X*I) of a symmetric M, monic of degree exactly its dimension.

    Computed exactly by Berkowitz's division-free algorithm on the integer
    matrix B = -L*M, L the lcm of the entry denominators: the X^k coefficient
    of det(X*I - B), divided by L^(n-k), is the X^k coefficient of
    det(X*I + M).  det(X*I - M) is (-1)^n times this polynomial at -X.
    Each c.B^t.c a step reads is (B^i.c).(B^j.c), i = t // 2 and j = t - i,
    so only the column powers are made.  A non-square matrix raises
    DimensionError and a non-symmetric one ValueError.
    """
    if not m.is_square:
        raise DimensionError("characteristic polynomial of a non-square matrix")
    scale = lcm(*(x.denominator for row in m.rows for x in row))
    b = [[-x.numerator * (scale // x.denominator) for x in row] for row in m.rows]
    # p lists the coefficients of det(X*I - B_k), highest degree first, where
    # B_k is the leading k x k block.  Bordering B_(k-1) by column c, its
    # transpose as row and corner a multiplies p by the lower-triangular
    # Toeplitz matrix whose first column is 1, -a, -c.c, -c.B_(k-1).c, ...,
    # -c.B_(k-1)^(k-2).c.  u holds the powers B^j.c.
    p = [1]
    for k in range(m.nrows):
        u = [[row[k] for row in b[:k]]]
        if b[k][:k] != u[0]:
            raise ValueError("characteristic polynomial of a non-symmetric matrix")
        lead = [row[:k] for row in b[:k]]
        q = [1, -b[k][k]]
        for t in range(k):
            i, j = t // 2, (t + 1) // 2
            if j == len(u):
                u.append([sum(map(mul, row, u[-1])) for row in lead])
            q.append(-sum(map(mul, u[i], u[j])))
        p = [sum(q[i - j] * p[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    coeffs = [Fraction(c, scale**i) for i, c in enumerate(p)]
    coeffs.reverse()
    return UPoly(coeffs)


def _pivot(rows, r: int, c: int, prev: int) -> None:
    """One fraction-free Gauss-Jordan step on integer rows, in place: every
    row i != r becomes (p * row_i - row_i[c] * row_r) // prev, p = rows[r][c].

    When prev is the previous pivot (up to sign) the division is exact, row r
    is the only row nonzero in column c afterwards, and every earlier pivot
    entry moves from prev to p.
    """
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]


def _echelon(rows: list[list[int]]):
    """Fraction-free reduced row echelon form of integer rows (Bareiss 1968).

    Returns (rows, pivot columns, sign of the row permutation).  Every pivot
    entry ends equal to the last pivot, which for a square full-rank input
    is its determinant up to the sign, and each pivot column is zero outside
    its pivot row.  Rows are only swapped and rescaled by nonzero factors,
    so the row space and the solution set of an augmented system are
    preserved, and the pivot columns are the greedy-by-index maximal
    independent set of columns.  ``rows`` is updated in place.
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
        _pivot(rows, r, c, prev)
        prev = rows[r][c]
        pivots.append(c)
        r += 1
    return rows, pivots, sign


def _reduced(rows):
    """Reduced echelon form of rational rows as (pivots, nonzero rows, den).

    The rows are integers over the common denominator den > 0: row k holds
    den at column pivots[k], zero at every other pivot column, and den times
    the k-th coordinate of each column in the basis of the pivot columns.
    """
    rows, pivots, _ = _echelon(_integer_rows(rows)[0])
    rows = rows[: len(pivots)]
    den = rows[-1][pivots[-1]] if pivots else 1
    if den < 0:
        rows = [[-a for a in row] for row in rows]
    return pivots, rows, abs(den)


def pivot_columns(m: Mat) -> list[int]:
    """Indices of the columns of M not in the span of the columns before them."""
    return _echelon(_integer_rows(m.rows)[0])[1]


def solve_linear(a: Mat, b) -> list[Fraction] | None:
    """One exact solution of A x = b, or None when the system is inconsistent."""
    solution = affine_solution_set(a, b)
    return None if solution is None else solution[0]


def affine_solution_set(a: Mat, b):
    """Full solution set of A x = b as (particular, nullspace basis), or None.

    The particular solution sets every free variable to zero; the basis
    vectors each set one free variable to one.
    """
    b = [rat(v) for v in b]
    if len(b) != a.nrows:
        raise DimensionError(f"right-hand side has length {len(b)}, expected {a.nrows}")
    n = a.ncols
    pivots, rows, den = _reduced([row + [val] for row, val in zip(a.rows, b)])
    if pivots and pivots[-1] == n:
        return None

    def point(free, col, sign):
        x = [Fraction(int(j == free)) for j in range(n)]
        for c, row in zip(pivots, rows):
            x[c] = Fraction(sign * row[col], den)
        return x

    pivot_set = set(pivots)
    return point(None, n, 1), [point(j, j, -1) for j in range(n) if j not in pivot_set]
