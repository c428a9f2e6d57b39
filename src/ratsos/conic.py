"""Conic combinations by a terminating pivot algorithm, exact convex
membership, Newton-polytope lattice pruning, and a linear nonnegativity
certificate with rational witnesses.

The pivot loop walks bases chosen from a finite generating set E, always
picking least-index elements (Bland's rule); it ends either with x written
as a nonnegative combination of a basis from E (variant A) or with a linear
functional that is nonnegative on E and negative on x (variant B).
``conic_representation`` re-verifies every result before it returns it.

Each question is one elimination of E with the targets appended.  Its
reduced echelon form, integers over one common denominator, is the tableau:
row k is the dual functional of basis element k on every column, and a pivot
step is the elimination's own ``arith._pivot`` (:func:`_bland`, the only
pivot loop).  Membership tests work in span(E), where a target with a pivot
of its own is never a member.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arith import Mat, _dot, _pivot, _reduced, pivot_columns, rat, solve_linear, span_coordinates
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
    independent subset of E inside its kernel of size dim - 1."""

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


def conic_representation(vectors, x) -> ConicResult:
    """Run the pivot algorithm for x against the generating set E (input order).

    E must span the ambient space.  Steps: write x in the current basis B; if
    all coefficients are nonnegative stop with variant A; otherwise take the
    least-index basis element u with a negative coefficient and its dual
    functional; if that functional is nonnegative on all of E stop with
    variant B; otherwise swap u for the least-index element where the
    functional is negative and repeat.  One elimination of E + [x] + the
    unit vectors gives the tableau, so the functional is a row read on the
    unit columns; E spans exactly when every pivot falls in E.
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
    units = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    basis, rows, _ = _reduced(Mat.from_columns(e + [x] + units).rows)
    if basis and basis[-1] >= len(e):
        raise SpanError("generating set does not span the ambient space")
    r = _bland(rows, basis, len(e))
    if r is None:
        order = sorted(range(n), key=basis.__getitem__)
        result = ConicCombination([basis[k] for k in order],
                                  [Fraction(rows[k][len(e)], rows[k][basis[k]]) for k in order])
        _verify_combination(e, x, result)
    else:
        kernel = sorted(b for k, b in enumerate(basis) if k != r)
        den = rows[r][basis[r]]
        result = SeparatingFunctional([Fraction(a, den) for a in rows[r][len(e) + 1 :]], kernel)
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


def _cone_members(vectors, targets) -> list[bool]:
    """Membership of each target in the conic hull of the vectors, from one
    elimination.  A target with a coordinate on a pivot beyond the vectors
    lies outside their span; every other runs the pivot loop on its own
    copy of the span tableau.
    """
    ngen = len(vectors)
    pivots, rows, _ = _reduced(Mat.from_columns(vectors + targets).rows)
    dim = bisect_left(pivots, ngen)
    span, outside = rows[:dim], rows[dim:]
    return [not any(row[t] for row in outside)
            and _bland([row[:ngen] + [row[t]] for row in span], pivots[:dim], ngen) is None
            for t in range(ngen, ngen + len(targets))]


def cone_contains(vectors, x) -> bool:
    """Membership of x in the conic hull of the vectors (no spanning needed)."""
    return _cone_members(_as_vectors(vectors), [[rat(v) for v in x]])[0]


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
    keep = _cone_members(lifted, [[2 * a for a in alpha] + [1] for alpha in box])
    return sorted((alpha for alpha, k in zip(box, keep) if k), key=_grlex_key)


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


def _extend_functional(basis: list[list[Fraction]], values: list[Fraction]) -> list[Fraction]:
    """A row vector Y with Y . b_k = values[k] for every span basis vector."""
    y = solve_linear(Mat(basis), values)
    if y is None:
        raise AssertionError("functional extension system is inconsistent")
    return y


def linear_nns(f: MPoly, ls) -> LinearNnsResult:
    """Decide nonnegativity of an affine-linear f on {x : ls >= 0} with evidence.

    First decides emptiness by the Farkas alternative (-1 in the conic hull of
    {1, ls...}); when the set is nonempty, runs the pivot algorithm on the
    homogenized generators to produce either nonnegative certificate
    coefficients or a rational witness point where f is negative.
    """
    ls = list(ls)
    n = f.nvars
    if any(l.nvars != n for l in ls):
        raise ValueError("mixed variable counts")
    fv = _affine_vec(f)
    gens = [[Fraction(1)] + [Fraction(0)] * n] + [_affine_vec(l) for l in ls]

    # one elimination of gens + [f]: f is outside span(gens) exactly when its
    # column is a pivot, and then it is the last basis vector
    pivots, coords = span_coordinates(gens + [fv])
    f_outside = len(gens) in pivots
    basis = [gens[i] for i in pivots if i < len(gens)]
    gens_r = [c[: len(basis)] for c in coords[:-1]]
    minus_one_r = [-c for c in gens_r[0]]  # 1 is generator 0
    res = conic_representation(gens_r, minus_one_r)
    if isinstance(res, ConicCombination):
        farkas = [Fraction(0)] * len(gens)
        for idx, c in zip(res.indices, res.coefficients):
            farkas[idx] = c
        return EmptyFeasibleSet(farkas)
    # feasible point: extend the functional, normalize its value on 1 to 1
    psi = _extend_functional(basis, res.functional)
    if psi[0] <= 0:
        raise AssertionError("Farkas functional must be positive on 1")
    feasible = [c / psi[0] for c in psi[1:]]
    _check_point(ls, feasible)

    if f_outside:
        # f* outside span(E): a functional vanishing on all generators and
        # negative on f gives a recession direction from a feasible point.
        phi = _extend_functional(basis + [fv], [Fraction(0)] * len(basis) + [Fraction(-1)])
        return _recession_witness(f, ls, feasible, phi[1:], _dot(phi, fv))
    res = conic_representation(gens_r, coords[-1])
    if isinstance(res, ConicCombination):
        coeffs = [Fraction(0)] * len(gens)
        for idx, c in zip(res.indices, res.coefficients):
            coeffs[idx] = c
        _verify_certificate(f, ls, coeffs)
        return LinearCertificate(coeffs)
    y = _extend_functional(basis, res.functional)
    if y[0] > 0:
        point = [c / y[0] for c in y[1:]]
        _check_point(ls, point)
        value = f.eval(point)
        if value >= 0:
            raise AssertionError("witness point failed to make f negative")
        return LinearWitness(point)
    return _recession_witness(f, ls, feasible, y[1:], _dot(y, fv))


def _recession_witness(f, ls, feasible, direction, slope) -> LinearWitness:
    # slope = lf(f)(direction) < 0; moving from the feasible point along the
    # direction keeps every constraint satisfied and drives f negative.
    if slope >= 0:
        raise AssertionError("recession direction does not decrease f")
    value = f.eval(feasible)
    lam = Fraction(0) if value < 0 else (value + 1) / (-slope)
    point = [p + lam * d for p, d in zip(feasible, direction)]
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
