"""Conic combinations by a terminating pivot algorithm, exact convex
membership, Newton-polytope lattice pruning, and a linear nonnegativity
certificate with rational witnesses.

The pivot loop walks bases chosen from a finite generating set E, always
picking least-index elements; it ends either with x written as a nonnegative
combination of a basis from E (variant A) or with a linear functional that is
nonnegative on E and negative on x (variant B).  Exactly one of the two
occurs, and every result is re-verified before it is returned.

Membership tests and the linear certificate work in span coordinates: one
elimination of the generators with the target appended (``span_coordinates``)
gives the span basis, every generator's coordinates in it, and whether the
target is in the span at all (its own column is then not a pivot).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arith import Mat, _dot, pivot_columns, rat, solve_linear, span_coordinates
from .poly import MPoly


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


def conic_representation(vectors, x) -> ConicResult:
    """Run the pivot algorithm for x against the generating set E (input order).

    E must span the ambient space.  Steps: write x in the current basis B; if
    all coefficients are nonnegative stop with variant A; otherwise take the
    least-index basis element u with a negative coefficient and its dual
    functional; if that functional is nonnegative on all of E stop with
    variant B; otherwise swap u for the least-index element where the
    functional is negative and repeat.
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
    basis_idx = pivot_columns(Mat.from_columns(e))
    if len(basis_idx) != n:
        raise SpanError("generating set does not span the ambient space")

    max_steps = comb(len(e), n) * max(len(e), 1) + 16
    for _ in range(max_steps):
        cols = [e[i] for i in basis_idx]
        lam = solve_linear(Mat.from_columns(cols), x)
        neg_pos = next((k for k, c in enumerate(lam) if c < 0), None)
        if neg_pos is None:
            result = ConicCombination(list(basis_idx), lam)
            _verify_combination(e, x, result)
            return result
        # dual functional of the offending basis element
        unit = [Fraction(0)] * n
        unit[neg_pos] = Fraction(1)
        ell = solve_linear(Mat(cols), unit)
        w = next((i for i, v in enumerate(e) if _dot(ell, v) < 0), None)
        if w is None:
            u = basis_idx[neg_pos]
            result = SeparatingFunctional(ell, [i for i in basis_idx if i != u])
            _verify_functional(e, x, result, n)
            return result
        basis_idx = sorted(set(basis_idx) - {basis_idx[neg_pos]} | {w})
    raise RuntimeError("pivot loop failed to terminate")


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
    """Membership of x in the conic hull of the vectors (no spanning needed).

    Works inside span(E): one elimination of E + [x] gives the span basis and
    every coordinate.  A point outside the span (its own column a pivot) is
    never a member, and a point inside is decided by the pivot algorithm in
    span coordinates.
    """
    e = _as_vectors(vectors)
    pivots, coords = span_coordinates(e + [[rat(v) for v in x]])
    if len(e) in pivots:
        return False
    return isinstance(conic_representation(coords[:-1], coords[-1]), ConicCombination)


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
    whose double lies in the convex hull of the support.  Sorted graded-lex.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no Newton polytope")
    support = f.support()
    n = f.nvars
    bounds = [-(-f.degree_in(i) // 2) for i in range(1, n + 1)]
    points = []
    stack = [()]
    for b in bounds:
        stack = [t + (k,) for t in stack for k in range(b + 1)]
    for alpha in stack:
        doubled = [2 * a for a in alpha]
        if convex_membership(support, doubled):
            points.append(alpha)
    points.sort(key=lambda a: (sum(a), tuple(-e for e in a)))
    return points


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
