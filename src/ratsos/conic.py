"""Conic combinations by a terminating pivot algorithm, exact convex
membership, Newton-polytope lattice pruning, and a linear nonnegativity
certificate with rational witnesses.

The pivot loop walks bases chosen from a finite generating set E, always
picking least-index elements (Bland's rule); it ends either with x written
as a nonnegative combination of a basis from E (variant A) or with a linear
functional that is nonnegative on E and negative on x (variant B).
``conic_representation`` re-verifies every result before it returns it.

Each question is one elimination of E with the targets and the unit
vectors appended (:func:`_conic`; E need not span).  Its reduced echelon
form, integers over one common denominator, is the tableau: row k holds the
values of the dual functional of basis element k on E and the targets, and
the functional itself on the unit columns.  A pivot step is the
elimination's own ``arith._pivot`` (:func:`_bland`, the only pivot loop).
A target with a pivot of its own lies outside span(E) and is separated by
its row, which vanishes on E.  Membership, the halved Newton lattice and
linear nonnegativity (its two targets, -1 and f, in one call) all read
their answers off this one elimination.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .arith import Mat, _dot, _pivot, _reduced, pivot_columns, rat
from .poly import MPoly, _grlex_key


class SpanError(ValueError):
    pass


@dataclass
class ConicCombination:
    """Variant A: x = sum of coefficients[k] * E[indices[k]], a basis of the space."""

    indices: list[int]
    coefficients: list[Fraction]


@dataclass
class SeparatingFunctional:
    """Variant B: functional >= 0 on E, < 0 on x; kernel_indices are a linearly
    independent subset of E inside its kernel: dim span(E) - 1 of them, or a
    basis of span(E) when x lies outside it."""

    functional: list[Fraction]
    kernel_indices: list[int]


ConicResult = ConicCombination | SeparatingFunctional


def _as_vectors(vectors) -> list[list[Fraction]]:
    return [[rat(x) for x in v] for v in vectors]


def _bland(rows, basis, ngen: int) -> int | None:
    """Bland's rule in place on the integer tableau ``rows``: generators are
    columns 0..ngen-1, x is column ngen, and row k over its entry at column
    basis[k] (the common denominator, kept positive) is the dual functional
    of generator ``basis[k]``.  Returns None when x has no negative
    coefficient (variant A), or the row of the separating functional
    (variant B).
    """
    for _ in range(comb(ngen, len(rows)) * max(ngen, 1) + 16):
        r = min((k for k, row in enumerate(rows) if row[ngen] < 0), key=basis.__getitem__, default=None)
        if r is None:
            return None
        w = next((j for j in range(ngen) if rows[r][j] < 0), None)
        if w is None:
            return r
        # the pivot entry is negative: dividing by minus the old denominator
        # and negating row r puts the tableau over the positive -rows[r][w]
        _pivot(rows, r, w, -rows[r][basis[r]])
        rows[r] = [-a for a in rows[r]]
        basis[r] = w
    raise RuntimeError("pivot loop failed to terminate")


def _conic(e, targets) -> tuple[int, list[ConicResult]]:
    """dim span(E) and the pivot algorithm's answer for each target, from one
    elimination of E + targets + the unit vectors (E need not span).

    Each row of the reduced form, read on the unit columns, is a functional
    whose values on E and the targets are the rest of the row.  A target
    with an entry on a row beyond span(E) is separated by that row, which
    vanishes on E.  Every other target runs :func:`_bland` on its own copy
    of the span tableau (the columns of E and of the target), and the row
    it may end on is >= 0 on E and a combination of the span rows, which
    gives its functional.
    """
    m, n = len(e), len(targets[0])
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots, rows, den = _reduced(Mat.from_columns(e + targets + units).rows)
    dim = bisect_left(pivots, m)
    span, outside = rows[:dim], rows[dim:]
    u = m + len(targets)
    results = []
    for t in range(m, u):
        sep = next((row for row in outside if row[t]), None)
        if sep is not None:
            sign = -1 if sep[t] > 0 else 1
            results.append(SeparatingFunctional([Fraction(sign * a, den) for a in sep[u:]], pivots[:dim]))
            continue
        tab = [row[:m] + [row[t]] for row in span]
        basis = pivots[:dim]
        r = _bland(tab, basis, m)
        if r is None:
            order = sorted(range(dim), key=basis.__getitem__)
            results.append(ConicCombination([basis[k] for k in order],
                                            [Fraction(tab[k][m], tab[k][basis[k]]) for k in order]))
            continue
        # the pivots only combine span rows, and span row k is den at column
        # pivots[k] and 0 at the other span pivots: row r is the sum of span
        # row k times its entry there over den, on the unit columns too
        weights = [tab[r][p] for p in pivots[:dim]]
        d = den * tab[r][basis[r]]
        functional = [Fraction(sum(map(mul, weights, col)), d) for col in zip(*(row[u:] for row in span))]
        results.append(SeparatingFunctional(functional, sorted(b for k, b in enumerate(basis) if k != r)))
    return dim, results


def conic_representation(vectors, x) -> ConicResult:
    """Run the pivot algorithm for x against the generating set E (input order).

    E must span the ambient space.  Steps: write x in the current basis B; if
    all coefficients are nonnegative stop with variant A; otherwise take the
    least-index basis element u with a negative coefficient and its dual
    functional; if that functional is nonnegative on all of E stop with
    variant B; otherwise swap u for the least-index element where the
    functional is negative and repeat.  The tableau is the one elimination
    of :func:`_conic`, and E spans exactly when dim span(E) is the length
    of x.
    """
    e = _as_vectors(vectors)
    x = [rat(v) for v in x]
    n = len(x)
    if any(len(v) != n for v in e):
        raise SpanError("generator length mismatch")
    if not e:
        if any(c != 0 for c in x):
            raise SpanError("empty generating set cannot span a nonzero vector")
        return ConicCombination([], [])
    dim, (result,) = _conic(e, [x])
    if dim < n:
        raise SpanError("generating set does not span the ambient space")
    if isinstance(result, ConicCombination):
        _verify_combination(e, x, result)
    else:
        _verify_functional(e, x, result, n)
    return result


def _verify_combination(e, x, result: ConicCombination):
    n = len(x)
    if len(result.indices) != n:
        raise AssertionError("variant A does not use a full basis")
    if any(c < 0 for c in result.coefficients):
        raise AssertionError("variant A produced a negative coefficient")
    combo = [Fraction(0)] * n
    for idx, c in zip(result.indices, result.coefficients):
        combo = [a + c * b for a, b in zip(combo, e[idx])]
    if combo != x:
        raise AssertionError("variant A combination does not reproduce x")


def _verify_functional(e, x, result: SeparatingFunctional, n: int):
    ell = result.functional
    if _dot(ell, x) >= 0:
        raise AssertionError("variant B functional is not negative on x")
    if any(_dot(ell, v) < 0 for v in e):
        raise AssertionError("variant B functional is negative somewhere on E")
    if len(result.kernel_indices) != n - 1:
        raise AssertionError("variant B kernel subset has the wrong size")
    if any(_dot(ell, e[i]) != 0 for i in result.kernel_indices):
        raise AssertionError("variant B kernel subset is not in the kernel")
    if len(pivot_columns(Mat.from_columns([e[i] for i in result.kernel_indices]))) != n - 1:
        raise AssertionError("variant B kernel subset is linearly dependent")


def cone_contains(vectors, x) -> bool:
    """Membership of x in the conic hull of the vectors (no spanning needed)."""
    return isinstance(_conic(_as_vectors(vectors), [[rat(v) for v in x]])[1][0], ConicCombination)


def convex_membership(points, alpha) -> bool:
    """Is alpha in the convex hull of the points?  Lift to the cone over height 1."""
    pts = _as_vectors(points)
    if not pts:
        raise ValueError("empty point set")
    a = [rat(v) for v in alpha]
    if any(len(p) != len(a) for p in pts):
        raise ValueError("point dimension mismatch")
    lifted = [p + [Fraction(1)] for p in pts]
    return cone_contains(lifted, a + [Fraction(1)])


def newton_halved_lattice(f: MPoly) -> list[tuple[int, ...]]:
    """Lattice points of half the Newton polytope of f.

    Enumerates the box 0..ceil(deg_i(f)/2) per variable and keeps the points
    whose double lies in the convex hull of the support: the cone test over
    height 1, with the lifted support and every lifted doubled box point
    eliminated together once.  Sorted graded-lex.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no Newton polytope")
    box = [()]
    for i in range(1, f.nvars + 1):
        box = [t + (k,) for t in box for k in range(-(-f.degree_in(i) // 2) + 1)]
    lifted = [list(alpha) + [1] for alpha in f.support()]
    _, results = _conic(lifted, [[2 * a for a in alpha] + [1] for alpha in box])
    return sorted((alpha for alpha, r in zip(box, results) if isinstance(r, ConicCombination)),
                  key=_grlex_key)


@dataclass
class LinearCertificate:
    """f = coefficients[0] * 1 + sum coefficients[i] * ls[i-1], all nonnegative."""

    coefficients: list[Fraction]


@dataclass
class LinearWitness:
    """A rational point satisfying every constraint with f negative there."""

    point: list[Fraction]


@dataclass
class EmptyFeasibleSet:
    """The constraint set is empty; farkas gives -1 as a nonnegative combination
    of 1 and the constraints."""

    farkas: list[Fraction]


LinearNnsResult = LinearCertificate | LinearWitness | EmptyFeasibleSet


def _affine_vec(p: MPoly) -> list[Fraction]:
    """Coefficient vector (constant, x1, .., xn) of an affine-linear polynomial."""
    n = p.nvars
    if p.degree() > 1:
        raise ValueError("input of total degree above 1")
    v = [p.coeff((0,) * n)]
    for i in range(n):
        alpha = [0] * n
        alpha[i] = 1
        v.append(p.coeff(alpha))
    return v


def linear_nns(f: MPoly, ls) -> LinearNnsResult:
    """Decide nonnegativity of an affine-linear f on {x : ls >= 0} with evidence.

    One :func:`_conic` run on the homogenized generators {1, ls...} with the
    targets -1 and f.  The first decides emptiness by the Farkas alternative
    (-1 in their conic hull); when the set is nonempty, its separating
    functional gives a feasible point, and the second gives either
    nonnegative certificate coefficients or a rational witness point where
    f is negative.
    """
    ls = list(ls)
    n = f.nvars
    if any(l.nvars != n for l in ls):
        raise ValueError("mixed variable counts")
    fv = _affine_vec(f)
    gens = [[Fraction(1)] + [Fraction(0)] * n] + [_affine_vec(l) for l in ls]
    _, (empty, res) = _conic(gens, [[-c for c in gens[0]], fv])
    if isinstance(empty, ConicCombination):
        farkas = _coefficients(empty, len(gens))
        _verify_certificate(MPoly.constant(n, -1), ls, farkas)
        return EmptyFeasibleSet(farkas)
    # feasible point: the functional is >= 0 on E and negative on -1
    psi = empty.functional
    if psi[0] <= 0:
        raise AssertionError("Farkas functional must be positive on 1")
    feasible = [c / psi[0] for c in psi[1:]]
    _check_point(ls, feasible)

    if isinstance(res, ConicCombination):
        coeffs = _coefficients(res, len(gens))
        _verify_certificate(f, ls, coeffs)
        return LinearCertificate(coeffs)
    # y >= 0 on E and negative on f, so y[0] = y(1) >= 0.  With y[0] > 0 it
    # gives a point; y[0] = 0 (f outside span(E), or a recession direction)
    # keeps every constraint from the feasible point along y and drives f
    # down at the slope y(f) < 0.
    y = res.functional
    if y[0] > 0:
        return _witness(f, ls, [c / y[0] for c in y[1:]])
    slope = _dot(y, fv)
    if slope >= 0:
        raise AssertionError("recession direction does not decrease f")
    value = f.eval(feasible)
    lam = Fraction(0) if value < 0 else (value + 1) / (-slope)
    return _witness(f, ls, [p + lam * d for p, d in zip(feasible, y[1:])])


def _coefficients(res: ConicCombination, ngen: int) -> list[Fraction]:
    """The combination's coefficient on every generator, zero off its basis."""
    coeffs = [Fraction(0)] * ngen
    for idx, c in zip(res.indices, res.coefficients):
        coeffs[idx] = c
    return coeffs


def _witness(f, ls, point) -> LinearWitness:
    _check_point(ls, point)
    if f.eval(point) >= 0:
        raise AssertionError("witness point failed to make f negative")
    return LinearWitness(point)


def _check_point(ls, point):
    if any(l.eval(point) < 0 for l in ls):
        raise AssertionError("candidate point violates a constraint")


def _verify_certificate(f, ls, coeffs):
    if any(c < 0 for c in coeffs):
        raise AssertionError("certificate has a negative coefficient")
    acc = MPoly.constant(f.nvars, coeffs[0])
    for c, l in zip(coeffs[1:], ls):
        acc = acc + l * c
    if acc != f:
        raise AssertionError("certificate does not expand to f")
