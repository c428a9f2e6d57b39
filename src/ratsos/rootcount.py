"""Exact real and complex root counting for univariate rational polynomials.

The workhorse is the Hankel matrix of traces H(f, g), entry (i, j) equal to
tr(g(C_f) C_f^(i+j)) for the companion matrix C_f of f and computed from the
Newton power sums of the roots of f: its signature counts real roots of f
weighted by the sign of g, its rank counts distinct complex roots with g
nonzero.  The power sums are computed fraction-free: f is scaled to the
integer polynomial L^d f(X/L), L the lcm of its coefficient denominators,
Newton's identities run on integers, and only one ``Fraction`` is built per
trace.  Sign-change counting supplies Descartes bounds (exact positive root
counts when f is real-rooted), and counts with sign conditions decide strict
univariate sign conditions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .arith import _integer_rows, record
from .poly import UPoly, sign_changes  # noqa: F401  (sign_changes is part of this API)
from .quadforms import SymMat, inertia, signature


class HermiteData(record("HermiteData", "matrix traces")):
    """Hankel trace form of a monic f with respect to g: a ``SymMat`` and a tuple.

    ``traces[k]`` is tr(g(C_f) * C_f^k) for k = 0..2d-2 and the matrix entry
    (i, j) equals ``traces[i + j]``.
    """

    __slots__ = ()


def hermite_form(f: UPoly, g: UPoly | None = None) -> HermiteData:
    """Hankel matrix of traces tr(g(C_f) C_f^(i+j-2)) for monic f of degree >= 1.

    The trace of g(C_f) C_f^k depends only on the power sums p_m = tr(C_f^m)
    of the roots of f: with g reduced mod f to sum_j g_j X^j it equals
    sum_j g_j p_(j+k).  No matrix is formed; the cost is O(d^2).

    The power sums are run on integers.  With L the lcm of the coefficient
    denominators of f, f_L(X) = L^d f(X/L) has the integer coefficients
    A_i = a_i L^(d-i) and the power sums P_m = L^m p_m.  Writing g mod f as
    sum_j G_j X^j / D with integers G_j and J = max j, trace k is
    (sum_j G_j P_(j+k) L^(J-j)) / (D L^(J+k)): one ``Fraction`` per trace.
    """
    if g is None:
        g = UPoly.one()
    if f.is_zero or f.degree() == 0:
        raise ValueError("the Hankel trace form needs degree at least 1")
    if not f.is_monic():
        raise ValueError("the Hankel trace form requires a monic polynomial")
    d, fs = f.degree(), f.coeffs
    (g_num,), (den,) = _integer_rows([(g % f).coeffs])
    top = max(len(g_num) - 1, 0)
    scale = lcm(*(c.denominator for c in fs))
    powers = [scale**e for e in range(top + 2 * d)]
    a = [c.numerator * (powers[d - i] // c.denominator) for i, c in enumerate(fs)]
    # Newton's identities for P_1..P_(top+2d-2), the last one the traces read,
    # the first term only while m <= d:
    # P_m = -m A_(d-m) - sum_(i=1..min(m-1, d)) A_(d-i) P_(m-i)
    p = [d]
    for m in range(1, top + 2 * d - 1):
        s = m * a[d - m] if m <= d else 0
        for i in range(1, min(m - 1, d) + 1):
            s += a[d - i] * p[m - i]
        p.append(-s)
    traces = tuple(
        Fraction(sum(c * p[j + k] * powers[top - j] for j, c in enumerate(g_num)), den * powers[top + k])
        for k in range(2 * d - 1)
    )
    upper = [traces[i + j] for i in range(d) for j in range(i, d)]
    return HermiteData(SymMat(d, upper), traces)


def _checked_nonzero(f: UPoly) -> UPoly:
    if f.is_zero:
        raise ValueError("root counts of the zero polynomial are undefined")
    return f.monic()


def count_roots(f: UPoly) -> tuple[int, int]:
    """(distinct real roots, distinct complex roots): signature and rank of one inertia."""
    f = _checked_nonzero(f)
    if f.degree() == 0:
        return 0, 0
    pos, neg, _ = inertia(hermite_form(f).matrix)
    return pos - neg, pos + neg


def count_real_roots(f: UPoly) -> int:
    """Number of distinct real roots."""
    return count_roots(f)[0]


def count_complex_distinct(f: UPoly) -> int:
    """Number of distinct complex roots."""
    return count_roots(f)[1]


def count_real_with_signs(f: UPoly, gs) -> int:
    """Number of distinct real roots of f where every g in gs is positive.

    Averages signatures of the trace forms over all exponent patterns in
    {1,2}^m; the sum is exactly divisible by 2^m.
    """
    f = _checked_nonzero(f)
    gs = list(gs)
    if f.degree() == 0:
        return 0
    total = 0
    for pattern in product((1, 2), repeat=len(gs)):
        g = UPoly.one()
        for gi, e in zip(gs, pattern):
            g = g * (gi if e == 1 else gi * gi)
        total += signature(hermite_form(f, g).matrix)
    q, r = divmod(total, 2 ** len(gs))
    if r:
        raise ArithmeticError("signature sum is not divisible by 2^m")
    return q


def positive_root_count_bound(f: UPoly) -> tuple[int, int]:
    """Descartes data (sigma(f), sigma(f) mod 2).

    The number of positive roots counted with multiplicity is at most
    sigma(f) and has the same parity.
    """
    s = sign_changes(f)
    return s, s % 2


def is_real_rooted(f: UPoly) -> bool:
    """True iff f has no non-real complex roots (its trace form has no negative square)."""
    real, cplx = count_roots(f)
    return real == cplx


def decide_strict_system(gs) -> bool:
    """Decide whether some real x satisfies g(x) > 0 for every g in gs.

    Sets g := prod(gs) and f := (1 - g^2) * g'.  If f is the zero polynomial
    every g is constant and evaluation at 0 answers; otherwise the system is
    satisfiable exactly when f has a real root where all conditions hold.
    """
    gs = list(gs)
    if any(g.is_zero for g in gs):
        raise ValueError("zero polynomial in a strict system")
    g = UPoly.one()
    for gi in gs:
        g = g * gi
    f = (UPoly.one() - g * g) * g.derivative()
    if f.is_zero:
        return all(gi.eval(0) > 0 for gi in gs)
    return count_real_with_signs(f, gs) > 0
