import math
import random
from fractions import Fraction

import pytest

from ratsos.arith import Mat, det
from ratsos.poly import UPoly, gcd_upoly, parse_upoly
from ratsos.quadforms import SymMat, rank, signature
from ratsos.rootcount import (
    count_complex_distinct,
    count_real_roots,
    count_real_with_signs,
    decide_strict_system,
    hermite_form,
    is_real_rooted,
    positive_root_count_bound,
    sign_changes,
)

from helpers import companion, identity_rows, rand_frac, upoly_from_roots

X = UPoly.x()


def random_constructed(rng, max_deg=12):
    """f = lc * prod (X - r)^m * prod ((X-a)^2 + b^2); returns (f, real roots, #quad pairs)."""
    pool = sorted({Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)})
    roots = rng.sample(pool, rng.randint(0, 3))
    mults = [rng.randint(1, 3) for _ in roots]
    quads = []
    seen = set()
    for _ in range(rng.randint(0, 2)):
        a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 3))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        quads.append((a, b))
    f = UPoly([Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))])
    for r, m in zip(roots, mults):
        f = f * upoly_from_roots([r] * m)
    for a, b in quads:
        f = f * (UPoly([a * a + b * b, -2 * a, Fraction(1)]))
    if f.degree() > max_deg or f.degree() < 1:
        return random_constructed(rng, max_deg)
    return f, roots, len(quads)


def test_companion_goldens():
    assert companion(parse_upoly("x^2 + 1")).rows == [[0, -1], [1, 0]]
    c = Fraction(5, 2)
    assert companion(UPoly([-c, 1])).rows == [[c]]
    with pytest.raises(ValueError):
        companion(UPoly([1, 2]))  # not monic


def test_companion_charpoly_recovers_f():
    """det(t*I - C_f) = f(t) at d + 1 points, so the characteristic polynomial
    of the (non-symmetric) companion matrix is f."""
    rng = random.Random(61)
    for _ in range(20):
        d = rng.randint(1, 6)
        f = UPoly([Fraction(rng.randint(-4, 4)) for _ in range(d)] + [Fraction(1)])
        c = companion(f)
        for t in range(d + 1):
            shifted = Mat([[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(c.rows)])
            assert det(shifted) == f.eval(t)


def test_hermite_golden_x2_plus_1():
    data = hermite_form(parse_upoly("x^2 + 1"))
    assert data.matrix.rows == [[2, 0], [0, -2]]
    assert data.traces == (2, 0, -2)


def companion_traces(f, g):
    """tr(g(C_f) C_f^k) for k = 0..2d-2, by products with the companion matrix; g is not reduced.

    The first d-1 columns of C_f are the unit vectors e_2..e_d (checked), so
    A*C_f is A with its columns shifted left by one and A times the last
    column of C_f appended.
    """
    c = companion(f)
    d = f.degree()
    assert all(c[i, j] == (i == j + 1) for i in range(d) for j in range(d - 1))
    last = [c[i, d - 1] for i in range(d)]

    def times_c(a):
        return [row[1:] + [sum((x * y for x, y in zip(row, last)), Fraction(0))] for row in a]

    power = identity_rows(d)
    gc = [[Fraction(0)] * d for _ in range(d)]
    for coeff in g.coeffs:
        gc = [[x + coeff * y for x, y in zip(r, s)] for r, s in zip(gc, power)]
        power = times_c(power)
    traces = []
    for _ in range(2 * d - 1):
        traces.append(sum((gc[i][i] for i in range(d)), Fraction(0)))
        gc = times_c(gc)
    return tuple(traces)


def test_traces_match_companion_definition():
    rng = random.Random(97)
    for d in range(1, 13):
        mixed = UPoly([rand_frac(rng, max_den=12) for _ in range(d)] + [Fraction(1)])
        pool = [rand_frac(rng, max_den=5) for _ in range(max(1, d // 3))]
        repeated = upoly_from_roots([rng.choice(pool) for _ in range(d)])  # repeated roots
        gs = [
            UPoly.zero(),
            UPoly([rand_frac(rng, max_den=7) or Fraction(1)]),
            UPoly([rand_frac(rng, max_den=7) for _ in range(d)]),
            UPoly([rand_frac(rng, max_den=7) for _ in range(2 * d)] + [Fraction(rng.choice([-3, 2]), 5)]),
        ]
        for f in (mixed, repeated):
            for g in gs:
                assert hermite_form(f, g).traces == companion_traces(f, g), (f, g)


def test_power_sums_match_known_roots():
    # traces with g = 1 are p_0..p_(2d-2) and with g = X^(d-1) are p_(d-1)..p_(3d-3),
    # p_m the sum of the m-th powers of the roots with multiplicity
    rng = random.Random(101)
    cases = [[Fraction(3)], [0, 0, 0], [Fraction(1, 2)] * 3 + [-2, 0], [Fraction(-7, 3), Fraction(5, 4), 1, 1]]
    cases += [[rand_frac(rng, -9, 9, 6) for _ in range(rng.randint(2, 8))] for _ in range(6)]
    distinct = [Fraction(rng.randint(-300, 300), rng.randint(1, 40)) for _ in range(20)]
    cases.append(distinct + distinct[:4])  # degree 24, as in the benchmark
    for roots in cases:
        f = upoly_from_roots(roots)
        d = f.degree()
        p = [sum(Fraction(r) ** m for r in roots) for m in range(3 * d - 2)]
        assert hermite_form(f).traces == tuple(p[: 2 * d - 1])
        assert hermite_form(f, X ** (d - 1)).traces == tuple(p[d - 1 :])


def test_traces_and_counts_at_degree_24_with_large_coprime_denominators():
    # three roots over the pairwise coprime denominators 10^6, 7^5 and 11^3,
    # so that L^(3d), L the lcm of the denominators of f, has thousands of bits
    dens = [10**6, 7**5, 11**3]
    rng = random.Random(103)
    large = [Fraction(rng.randint(-9 * q, 9 * q) | 1, q) for q in dens]
    roots = sorted(large + [Fraction(n, 2) for n in rng.sample(range(-9, 10), 6)])
    quads = rng.sample([(Fraction(a), Fraction(b)) for a in range(-3, 4) for b in range(1, 4)], 6)
    f = upoly_from_roots(roots + roots[:3])
    for a, b in quads:
        f = f * UPoly([a * a + b * b, -2 * a, Fraction(1)])
    assert f.is_monic() and f.degree() == 24 and len(set(roots)) == 9
    scale = math.lcm(*(c.denominator for c in f.coeffs))
    assert scale % math.prod(dens) == 0 and (scale ** (3 * 24)).bit_length() > 4000
    g = UPoly([Fraction(rng.randint(-99, 99), rng.choice(dens + [13])) for _ in range(30)] + [Fraction(5, 11**3)])
    for h in (UPoly.one(), g):
        assert hermite_form(f, h).traces == companion_traces(f, h)
    g1 = upoly_from_roots([large[1]])  # positive right of the root over 7^5
    expected = sum(1 for r in roots if r > large[1])
    assert 0 < expected < len(roots)
    assert count_real_with_signs(f, [g1]) == expected


def test_hermite_three_real_roots():
    f = upoly_from_roots([0, 1, -3])
    h = hermite_form(f).matrix
    assert signature(h) == 3 and rank(h) == 3


def test_hermite_is_hankel():
    rng = random.Random(67)
    for _ in range(10):
        f, _, _ = random_constructed(rng, max_deg=8)
        f = f.monic()
        g = UPoly([Fraction(rng.randint(-3, 3)) for _ in range(3)] + [Fraction(1)])
        data = hermite_form(f, g)
        d = data.matrix.dim
        for i in range(d):
            for j in range(d):
                assert data.matrix[i, j] == data.traces[i + j]


def test_hermite_rational_root_expansion_identity():
    # for f = prod (X - x_k)^a_k the form equals sum a_k g(x_k) v_k v_k^T
    # with v_k the Vandermonde row of x_k
    rng = random.Random(71)
    for _ in range(15):
        pool = [Fraction(n, 2) for n in range(-6, 7)]
        roots = rng.sample(pool, rng.randint(1, 3))
        mults = [rng.randint(1, 2) for _ in roots]
        f = UPoly.one()
        for r, m in zip(roots, mults):
            f = f * upoly_from_roots([r] * m)
        g = UPoly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))] + [Fraction(1)])
        d = f.degree()
        expected = [[Fraction(0)] * d for _ in range(d)]
        for r, m in zip(roots, mults):
            gval = g.eval(r)
            v = [r**i for i in range(d)]
            for i in range(d):
                for j in range(d):
                    expected[i][j] += m * gval * v[i] * v[j]
        assert hermite_form(f, g).matrix == SymMat.from_rows(expected)


def test_count_real_roots_goldens():
    assert count_real_roots(parse_upoly("-x^3 - x^2 + 4*x + 1")) == 3
    assert count_real_roots(parse_upoly("x^2 + 1")) == 0
    assert count_complex_distinct(parse_upoly("x^2 + 1")) == 2
    f = upoly_from_roots([1, 1, -2])
    assert count_real_roots(f) == 2
    assert count_complex_distinct(f) == 2
    assert count_real_roots(UPoly([5])) == 0
    with pytest.raises(ValueError):
        count_real_roots(UPoly.zero())


def test_count_with_signs_goldens():
    f = upoly_from_roots([1, 2, -3])
    assert count_real_with_signs(f, [X]) == 2
    assert count_real_with_signs(f, []) == count_real_roots(f)
    assert count_real_with_signs(parse_upoly("x^2 + 1"), [X]) == 0


def test_descartes_goldens():
    f = parse_upoly("x^4 - 5*x^3 - 21*x^2 + 115*x - 150")
    assert sign_changes(f) == 3
    assert sign_changes(f.compose_neg()) == 1
    assert sign_changes((UPoly([1, 1]) ** 22) * f) == 1
    assert positive_root_count_bound(f) == (3, 1)


def test_positive_roots_realrooted():
    # a real-rooted f has exactly sigma(f) positive roots with multiplicity
    f = parse_upoly("-x^3 - x^2 + 4*x + 1")
    assert is_real_rooted(f) and sign_changes(f) == 1
    f = upoly_from_roots([1, 1, 2])
    assert is_real_rooted(f) and sign_changes(f) == 3
    assert is_real_rooted(UPoly([0, 0, 1])) and sign_changes(UPoly([0, 0, 1])) == 0  # X^2
    assert not is_real_rooted(parse_upoly("x^2 + 1"))


def test_real_rooted_flag():
    assert is_real_rooted(upoly_from_roots([0, 1, 2]))
    assert not is_real_rooted(parse_upoly("x^4 + 1"))


def test_rank_matches_gcd_formula():
    rng = random.Random(73)
    for _ in range(20):
        f, _, _ = random_constructed(rng, max_deg=10)
        fm = f.monic()
        h = hermite_form(fm).matrix
        g = gcd_upoly(fm, fm.derivative())
        assert rank(h) == fm.degree() - g.degree()


def test_construction_suite():
    rng = random.Random(79)
    for _ in range(30):
        f, roots, quads = random_constructed(rng)
        assert count_real_roots(f) == len(roots)
        assert count_complex_distinct(f) == len(roots) + 2 * quads
        g1 = upoly_from_roots([Fraction(rng.randint(-3, 3))], lc=Fraction(rng.choice([-1, 1])))
        g2 = UPoly([Fraction(rng.randint(-3, 3)), Fraction(0), Fraction(1)])
        for gs in ([g1], [g1, g2]):
            expected = sum(1 for r in roots if all(g.eval(r) > 0 for g in gs))
            assert count_real_with_signs(f, gs) == expected


def test_descartes_bound_and_parity_on_constructed():
    rng = random.Random(83)
    pool = [Fraction(n, 2) for n in range(-6, 7) if n]
    for _ in range(25):
        roots = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        lc = Fraction(rng.choice([-2, -1, 1, 2]))
        f = upoly_from_roots(roots, lc=lc)
        mu = sum(1 for r in roots if r > 0)
        sigma = sign_changes(f)
        assert mu <= sigma
        assert mu % 2 == sigma % 2
        # real-rooted by construction, so the bound is attained
        assert is_real_rooted(f) and mu == sigma


def grid_oracle(gs):
    """Dense rational sampling over a range beyond all roots of prod(gs)."""
    prod = UPoly.one()
    for g in gs:
        prod = prod * g
    if prod.degree() < 1:
        return all(g.eval(0) > 0 for g in gs)
    lead = abs(prod.coeffs[-1])
    bound = 1 + max(abs(c) for c in prod.coeffs) / lead
    step = Fraction(1, 16)
    x = -bound - 1
    while x <= bound + 1:
        if all(g.eval(x) > 0 for g in gs):
            return True
        x += step
    return False


def test_decide_strict_goldens():
    assert decide_strict_system([parse_upoly("x^2 + 1")])
    assert not decide_strict_system([UPoly([-1, 0, -1])])  # -1 - x^2
    assert decide_strict_system([X, parse_upoly("1 - x")])
    assert decide_strict_system([])  # empty conjunction
    assert decide_strict_system([UPoly([3]), UPoly([Fraction(1, 2)])])
    assert not decide_strict_system([UPoly([-1])])
    with pytest.raises(ValueError):
        decide_strict_system([UPoly.zero()])


def test_decide_strict_against_grid_oracle():
    # rational-rooted conditions with root gaps >= 1/8, grid step 1/16
    rng = random.Random(89)
    pool = [Fraction(n, 8) for n in range(-16, 17)]
    for _ in range(25):
        gs = []
        for _ in range(rng.randint(1, 3)):
            roots = rng.sample(pool, rng.randint(0, 2))
            gs.append(upoly_from_roots(roots, lc=Fraction(rng.choice([-2, -1, 1, 2]))))
        assert decide_strict_system(gs) == grid_oracle(gs)
