import random
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from ratsos import arith, conic
from ratsos.arith import DimensionError, Mat, pivot_columns, solve_linear
from ratsos.conic import (
    ConicCombination,
    EmptyFeasibleSet,
    LinearCertificate,
    LinearWitness,
    SeparatingFunctional,
    SpanError,
    cone_contains,
    conic_representation,
    convex_membership,
    linear_nns,
    newton_halved_lattice,
)
from ratsos.poly import MPoly, parse_poly
from ratsos.quadforms import SymMat, gram_product

from helpers import gram_rank, planted_rows, rand_frac, rand_mpoly


def cone_membership_oracle(vectors, x):
    """Exhaustive search over linearly independent subsets (Caratheodory)."""
    n = len(x)
    for size in range(1, n + 1):
        for subset in combinations(range(len(vectors)), size):
            cols = Mat.from_columns([vectors[i] for i in subset])
            lam = solve_linear(cols, x)
            if lam is not None and all(c >= 0 for c in lam):
                return True
    return all(c == 0 for c in x)


def test_variant_a_standard_basis():
    res = conic_representation([[1, 0], [0, 1]], [1, 1])
    assert isinstance(res, ConicCombination)
    assert res.coefficients == [1, 1]


def test_variant_b_golden():
    res = conic_representation([[1, 0], [0, 1]], [-1, 0])
    assert isinstance(res, SeparatingFunctional)
    ell = res.functional
    assert sum(a * b for a, b in zip(ell, [-1, 0])) < 0
    assert all(sum(a * b for a, b in zip(ell, v)) >= 0 for v in ([1, 0], [0, 1]))
    assert res.kernel_indices == [1]


def test_span_errors():
    with pytest.raises(SpanError):
        conic_representation([[1, 0]], [0, 1])
    with pytest.raises(SpanError):
        conic_representation([], [1])
    with pytest.raises(SpanError):
        conic_representation([], [0, 0])
    assert isinstance(conic_representation([], []), ConicCombination)


def test_conic_random_oracle_agreement():
    """Integer generators in dimension 3, and generators with mixed
    denominators in dimensions 4-5, where Bland's rule takes several pivots."""
    rng = random.Random(97)
    integer = lambda lo, hi: Fraction(rng.randint(lo, hi))
    mixed = lambda lo, hi: rand_frac(rng, lo, hi, max_den=7)
    for dim, entry, runs in [(3, integer, 120), (4, mixed, 40), (5, mixed, 30)]:
        for _ in range(runs):
            while True:
                e = [[entry(-3, 3) for _ in range(dim)] for _ in range(rng.randint(dim, dim + 5))]
                try:
                    x = [entry(-4, 4) for _ in range(dim)]
                    res = conic_representation(e, x)
                    break
                except SpanError:
                    continue
            member = cone_membership_oracle(e, x)
            if isinstance(res, ConicCombination):
                assert member
            else:
                assert not member
            # internal verification already ran; double check the exclusivity claim
            assert isinstance(res, (ConicCombination, SeparatingFunctional))


def convex_oracle(points, alpha):
    """Barycentric brute force over subsets of at most dim+1 points."""
    n = len(alpha)
    for size in range(1, min(len(points), n + 1) + 1):
        for subset in combinations(points, size):
            rows = [[Fraction(p[i]) for p in subset] for i in range(n)]
            rows.append([Fraction(1)] * size)
            lam = solve_linear(Mat(rows), list(alpha) + [Fraction(1)])
            if lam is not None and all(c >= 0 for c in lam):
                return True
    return False


def test_convex_membership_goldens():
    assert convex_membership([(0,), (2,)], (1,))
    assert convex_membership([(4, 2), (2, 4), (0, 0)], (2, 2))
    assert not convex_membership([(4, 2), (2, 4), (0, 0)], (3, 0))


def test_convex_membership_against_barycentric_oracle():
    rng = random.Random(101)
    for _ in range(60):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert convex_membership(pts, alpha) == convex_oracle(pts, alpha)


def test_newton_halved_lattice_goldens():
    motzkin = parse_poly("x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1", 2)
    assert newton_halved_lattice(motzkin) == [(0, 0), (1, 1), (2, 1), (1, 2)]
    f = parse_poly("2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y", 2)
    assert newton_halved_lattice(f) == [(2, 0), (1, 1), (0, 2)]
    assert newton_halved_lattice(MPoly.constant(3, 7)) == [(0, 0, 0)]
    # lower-dimensional supports: some doubled box points lie outside their span
    assert newton_halved_lattice(parse_poly("x^2*y^2 + 1", 2)) == [(0, 0), (1, 1)]
    g = parse_poly("x^4*y^4*z^2 + x^2 + 1", 3)
    assert newton_halved_lattice(g) == [(0, 0, 0), (1, 0, 0), (2, 2, 1)]
    with pytest.raises(ValueError):
        newton_halved_lattice(MPoly.zero(2))


def test_newton_halved_lattice_against_barycentric_oracle():
    """The lattice is the box 0..ceil(deg_i/2) filtered by the barycentric
    oracle on the doubled point, in graded-lex order."""
    rng = random.Random(109)
    for _ in range(40):
        nvars = rng.randint(2, 3)
        f = rand_mpoly(rng, nvars=nvars, max_deg=4, max_terms=5)
        if f.is_zero:
            continue
        box = product(*(range(-(-f.degree_in(i) // 2) + 1) for i in range(1, nvars + 1)))
        expected = [a for a in box if convex_oracle(f.support(), [2 * e for e in a])]
        expected.sort(key=lambda a: (sum(a), [-e for e in a]))
        assert newton_halved_lattice(f) == expected, f


def _det(rows):
    """Exact determinant of a small integer matrix by Laplace expansion."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, a in enumerate(rows[0]) if a)


def facet_functionals(points):
    """The functionals on (alpha, 1) through d lifted points that are >= 0 on
    every lifted point: the generalized cross product of each d-subset, kept
    when the points lie on one side of it.  For a full-dimensional set they
    include the facets, so alpha is in the hull iff none is negative on it."""
    lifted = [list(p) + [1] for p in points]
    out = []
    for subset in combinations(lifted, len(lifted[0]) - 1):
        ell = [(-1) ** i * _det([q[:i] + q[i + 1 :] for q in subset]) for i in range(len(subset) + 1)]
        values = [sum(map(mul, ell, q)) for q in lifted]
        if all(v >= 0 for v in values):
            out.append(ell)
        elif all(v <= 0 for v in values):
            out.append([-a for a in ell])
    return out


def dense_gram_product(rng, nvars, half, zero_diagonals=0):
    """v^T G v over all monomials of degree <= half, G a random symmetric
    integer matrix with a positive diagonal, some of it set to 0."""
    monos = [a for a in product(range(half + 1), repeat=nvars) if sum(a) <= half]
    n = len(monos)
    upper = []
    for i in range(n):
        upper += [rng.randint(1, 5)] + [rng.randint(-2, 2) for _ in range(n - i - 1)]
    for i in rng.sample(range(n), zero_diagonals):
        upper[i * n - i * (i - 1) // 2] = 0
    return gram_product(SymMat(n, upper), monos, nvars)


@pytest.mark.parametrize("nvars, half, zeros", [(2, 2, 0), (2, 2, 2), (2, 3, 0), (2, 3, 3), (3, 2, 0), (3, 2, 3)])
def test_newton_halved_lattice_dense_against_barycentric_oracle(monkeypatch, nvars, half, zeros):
    """Dense supports, where both rules fire: the box points whose doubles
    are support exponents need no cone test, and a separating functional
    found once rules out later points with no pivot run.  A point no facet
    functional separates is confirmed by barycentric coordinates."""
    rng = random.Random(f"dense:{nvars}:{half}:{zeros}")
    f = dense_gram_product(rng, nvars, half, zeros)
    support = f.support()
    assert len(support) > 10
    facets = facet_functionals(support)
    box = list(product(*(range(-(-f.degree_in(i) // 2) + 1) for i in range(1, nvars + 1))))
    expected = []
    for a in box:
        doubled = [2 * e for e in a] + [1]
        if all(sum(map(mul, ell, doubled)) >= 0 for ell in facets):
            assert convex_oracle(support, doubled[:-1])
            expected.append(a)
    expected.sort(key=lambda a: (sum(a), [-e for e in a]))

    answers = []
    answer = conic._answer
    monkeypatch.setattr(conic, "_answer", lambda tab, j: answers.append(j) or answer(tab, j))
    assert newton_halved_lattice(f) == expected
    on_support = sum(1 for a in box if tuple(2 * e for e in a) in f.terms)
    assert on_support > 0 and len(answers) < len(box) - on_support


def test_newton_dense_quartic_runs_at_most_two_pivot_loops(monkeypatch):
    """The dense 3-variable quartic of the gram/n=3/k=2 shape: 10 of its 27
    box points have their doubles in the support, and the first separating
    functional the pivot loop finds rules out the other 17."""
    m = parse_poly("x^2 + y^2 + z^2 + x*y + y*z + z*x + x + y + z + 1", 3)
    calls = []
    bland = conic._bland
    monkeypatch.setattr(conic, "_bland", lambda *args: calls.append(args) or bland(*args))
    expected = sorted((a for a in product(range(3), repeat=3) if sum(a) <= 2),
                      key=lambda a: (sum(a), [-e for e in a]))
    assert newton_halved_lattice(m * m) == expected and len(expected) == 10
    assert len(calls) <= 2


def test_newton_square_support_property():
    # N(f^2) = 2 N(f): every support exponent of f lies in the halved lattice of f^2
    rng = random.Random(103)
    for _ in range(15):
        f = rand_mpoly(rng, nvars=2, max_deg=3, max_terms=4)
        if f.is_zero:
            continue
        lattice = set(newton_halved_lattice(f * f))
        assert set(f.support()) <= lattice


def test_linear_nns_goldens():
    x = parse_poly("x", 1)
    res = linear_nns(x, [x])
    assert isinstance(res, LinearCertificate)
    assert res.coefficients == [0, 1]

    res = linear_nns(parse_poly("1 + x", 1), [x, -x])
    assert isinstance(res, LinearCertificate)
    assert res.coefficients == [1, 1, 0]

    res = linear_nns(MPoly.constant(1, -1), [x])
    assert isinstance(res, LinearWitness)
    assert res.point == [0]


def test_linear_nns_empty_set():
    x = parse_poly("x", 1)
    res = linear_nns(x, [x - 1, -x])  # x >= 1 and x <= 0
    assert isinstance(res, EmptyFeasibleSet)
    # farkas: -1 = c0*1 + sum ci*li with ci >= 0
    acc = MPoly.constant(1, res.farkas[0])
    for c, l in zip(res.farkas[1:], [x - 1, -x]):
        acc = acc + l * c
    assert acc == MPoly.constant(1, -1)
    assert all(c >= 0 for c in res.farkas)


def test_linear_nns_unbounded_witness():
    # f = -x is unbounded below on x >= 0: needs the recession-direction case
    x = parse_poly("x", 1)
    res = linear_nns(-x, [x])
    assert isinstance(res, LinearWitness)
    assert (-x).eval(res.point) < 0
    assert x.eval(res.point) >= 0


def test_linear_nns_two_vars():
    f = parse_poly("x + y", 2)
    ls = [parse_poly("x", 2), parse_poly("y", 2)]
    res = linear_nns(f, ls)
    assert isinstance(res, LinearCertificate)
    res = linear_nns(parse_poly("x - y", 2), ls)
    assert isinstance(res, LinearWitness)


def test_linear_nns_no_constraints():
    one = MPoly.constant(2, 1)
    res = linear_nns(one, [])
    assert isinstance(res, LinearCertificate)
    res = linear_nns(parse_poly("x", 2), [])
    assert isinstance(res, LinearWitness)


def test_linear_nns_random_verified():
    """Up to 5 variables and 8 constraints, some repeated or scaled so that
    the homogenized constraints need not span; every answer is re-checked."""
    rng = random.Random(107)
    for _ in range(80):
        n = rng.randint(1, 5)
        def lin():
            return MPoly(
                n,
                {
                    tuple(1 if j == i else 0 for j in range(n)): rng.randint(-3, 3)
                    for i in range(n)
                },
            ) + MPoly.constant(n, rng.randint(-3, 3))
        f = lin()
        ls = [lin() for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 2) if ls else 0):
            ls.insert(rng.randint(0, len(ls)), rng.choice(ls) * rng.randint(1, 3))
        res = linear_nns(f, ls)
        if isinstance(res, LinearCertificate):
            acc = MPoly.constant(n, res.coefficients[0])
            for c, l in zip(res.coefficients[1:], ls):
                acc = acc + l * c
            assert acc == f
            assert all(c >= 0 for c in res.coefficients)
        elif isinstance(res, LinearWitness):
            assert all(l.eval(res.point) >= 0 for l in ls)
            assert f.eval(res.point) < 0
        else:
            acc = MPoly.constant(n, res.farkas[0])
            for c, l in zip(res.farkas[1:], ls):
                acc = acc + l * c
            assert acc == MPoly.constant(n, -1)
            assert all(c >= 0 for c in res.farkas)


@pytest.mark.parametrize(
    "nvars, f, ls, kind",
    [
        (1, "x", ["x - 1", "-x"], EmptyFeasibleSet),
        (2, "x + y", ["x", "y"], LinearCertificate),
        (2, "x + y - 1", ["x", "y"], LinearWitness),  # the functional's own point
        (2, "x - y", ["x", "y"], LinearWitness),  # a recession direction
        (1, "-x", ["x"], LinearWitness),  # a recession direction inside the span
        (2, "x", [], LinearWitness),  # f outside the span of the constraints
    ],
)
def test_linear_nns_runs_one_elimination(monkeypatch, nvars, f, ls, kind):
    """Both questions, -1 and f, are read off one elimination on every branch."""
    calls = []
    echelon = arith._echelon
    monkeypatch.setattr(arith, "_echelon", lambda rows: calls.append(rows) or echelon(rows))
    res = linear_nns(parse_poly(f, nvars), [parse_poly(l, nvars) for l in ls])
    assert isinstance(res, kind)
    assert len(calls) == 1


def test_linear_nns_rejects_nonlinear():
    with pytest.raises(ValueError):
        linear_nns(parse_poly("x^2", 1), [])


def test_cone_contains_outside_span():
    assert not cone_contains([[1, 0, 0], [0, 1, 0]], [0, 0, 1])
    assert cone_contains([[1, 0, 0], [0, 1, 0]], [2, 3, 0])


def test_cone_contains_rejects_length_mismatch():
    """One elimination of E + [x] must not truncate a longer target into a member."""
    with pytest.raises(DimensionError):
        cone_contains([[1, 0]], [1, 0, 5])
    with pytest.raises(DimensionError):
        cone_contains([[1, 0, 0]], [1, 0])
    with pytest.raises(DimensionError):
        cone_contains([[1, 0], [1]], [1, 1])


def test_span_basis_is_greedy_by_index():
    """conic's span basis, the pivot columns of the elimination kernel on
    Mat.from_columns(vectors), picks index k exactly when the rank of the
    Gram matrix of the vectors chosen so far rises."""
    rng = random.Random(43)
    for _ in range(40):
        dim = rng.randint(1, 5)
        vectors, _ = planted_rows(rng, rng.randint(0, 7), dim, rng.randint(0, dim))
        if vectors and rng.random() < 0.3:
            vectors.insert(rng.randint(0, len(vectors)), [Fraction(0)] * dim)
        chosen = []
        for k, v in enumerate(vectors):
            if gram_rank([vectors[i] for i in chosen] + [v]) > len(chosen):
                chosen.append(k)
        assert pivot_columns(Mat.from_columns(vectors)) == chosen
