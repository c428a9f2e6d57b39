import random
from fractions import Fraction

import numpy as np
import pytest

from ratsos import numeric
from ratsos.arith import Mat, affine_solution_set, pivot_columns
from ratsos.conic import convex_membership, newton_halved_lattice
from ratsos.poly import MPoly, UPoly, parse_poly, parse_upoly
from ratsos.quadforms import SosCert, SymMat, gram_product, weighted_square_decomposition
from ratsos.sos import (
    GramInfeasibleError,
    cassels_descent,
    cert_from_json,
    cert_to_json,
    find_gram,
    gram_family,
    gram_system,
    gram_to_json,
    restrict_to_face,
    search_family,
    verify_sos,
)

from helpers import rand_frac, rand_mpoly, rand_upoly

SEC26 = "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y"
MOTZKIN = "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"


def test_gram_family_sec26_shape():
    f = parse_poly(SEC26, 2)
    fam = gram_family(f, [(2, 0), (1, 1), (0, 2)])
    assert len(fam.free) == 1
    assert fam.forced[(0, 0)] == 2 and fam.forced[(0, 2)] == 5
    # one-parameter family: entries (0,1) and (1,2) are fixed, and the
    # diagonal middle entry tracks the corner as G11 = -2*G02 - 1
    for t in (Fraction(0), Fraction(1), Fraction(-5, 2)):
        [g] = fam.at([t])
        assert g[0, 0] == 2 and g[2, 2] == 5
        assert g[0, 1] == 1 and g[1, 2] == 0
        assert g[1, 1] == -2 * g[0, 2] - 1
        assert gram_product(g, fam.bases[0]) == f


def test_gram_family_unique_square():
    f = parse_poly("x^2", 1)
    fam = gram_family(f, [(1,)])
    assert not fam.free
    assert fam.particular == [1]


def test_gram_family_motzkin_forced_diagonal():
    f = parse_poly(MOTZKIN, 2)
    monoms = [(0, 0), (1, 1), (2, 1), (1, 2)]
    fam = gram_family(f, monoms)
    xy = monoms.index((1, 1))
    assert fam.forced[(0, xy)] == -3


def test_gram_family_inexpressible_monomial():
    with pytest.raises(GramInfeasibleError):
        gram_family(parse_poly("x^3", 1), [(1,)])


def _dense_gram_family(f, bases, generators):
    """Reference: the coefficient-matching system of sum_k g_k v_k^T G_k v_k = f
    written out row by row (one equation per exponent gamma, in graded order)
    and solved by affine_solution_set; returns (particular, free unknowns,
    basis, forced), the free unknowns being the non-pivot columns."""
    slots = [(k, i, j) for k, b in enumerate(bases) for i in range(len(b)) for j in range(i, len(b))]
    entries = [
        (u, tuple(a + b + e for a, b, e in zip(bases[k][i], bases[k][j], delta)), (1 if i == j else 2) * c)
        for u, (k, i, j) in enumerate(slots)
        for delta, c in generators[k].terms.items()
    ]
    gammas = sorted({gamma for _, gamma, _ in entries}, key=lambda a: (sum(a), tuple(-e for e in a)))
    rows = [[Fraction(0)] * len(slots) for _ in gammas]
    for u, gamma, c in entries:
        rows[gammas.index(gamma)][u] += c
    solution = affine_solution_set(Mat(rows), [f.coeff(g) for g in gammas])
    assert solution is not None  # every equation has an unknown of its own
    particular, basis = solution
    pivots = pivot_columns(Mat(rows))
    free = [u for u in range(len(slots)) if u not in pivots]
    forced = {
        (k, i): particular[u]
        for u, (k, i, j) in enumerate(slots)
        if i == j and all(v[u] == 0 for v in basis)
    }
    return particular, free, basis, forced


def _assert_family_matches_dense_solve(f, bases, generators=None):
    if generators is None:  # the one-block Gram family
        fam = gram_family(f, bases[0])
        generators = [MPoly.constant(f.nvars, 1)]
    else:
        fam = gram_system(f, bases, generators)
    particular, free, basis, forced = _dense_gram_family(f, bases, generators)
    assert fam.particular == particular
    # the free unknowns are the non-pivot columns, one basis vector each, and
    # every solved unknown's row holds minus the basis vectors' entries there
    assert fam.free == free
    assert sorted(fam.rows) == [u for u in range(len(particular)) if u not in free]
    assert all(fam.rows[p].get(j, 0) == -b[p] for p in fam.rows for j, b in zip(free, basis))
    assert list(fam.forced.items()) == list(forced.items())
    for t in ([Fraction(0)] * len(basis), [Fraction(k + 1, 3) for k in range(len(basis))]):
        blocks = fam.at(t)
        member = [x + sum(tj * b[u] for tj, b in zip(t, basis)) for u, x in enumerate(particular)]
        assert [g[i, j] for g in blocks for i in range(g.dim) for j in range(i, g.dim)] == member
        assert sum(
            (g * gram_product(G, b) for g, G, b in zip(generators, blocks, fam.bases)), MPoly.zero(f.nvars)
        ) == f


def _random_families():
    """(f, bases, generators) of the Gram systems the family tests run on;
    generators None stands for the one-block Gram family."""
    for text in (SEC26, MOTZKIN):
        f = parse_poly(text, 2)
        yield f, [newton_halved_lattice(f)], None
    rng = random.Random(131)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        box = [tuple(rng.randint(0, 4 - nvars) for _ in range(nvars)) for _ in range(rng.randint(1, 9))]
        monomials = sorted(set(box), key=lambda a: (sum(a), tuple(-e for e in a)))
        if rng.random() < 0.5:  # any order of the monomial vector, not only graded
            rng.shuffle(monomials)
        n = len(monomials)
        # fractional entries, about a third of them zero
        upper = [rand_frac(rng, -3, 3, max_den=5) for _ in range(n * (n + 1) // 2)]
        f = gram_product(SymMat(n, upper), monomials)
        if not f.is_zero:
            yield f, [monomials], None
    # several blocks, one generator each: single-term generators (the closed
    # form) and, last, one multi-term generator (solved by elimination)
    for texts in (["1", "3*x", "1/2*y^2"], ["1", "-2*x*y"], ["1", "x", "1 - x^2 - y^2"]):
        generators = [parse_poly(t, 2) for t in texts]
        for _ in range(8):
            box = [(i, j) for i in range(3) for j in range(3 - i)]
            bases = [rng.sample(box, rng.randint(1, 4)) for _ in generators]
            f = MPoly.zero(2)
            for g, b in zip(generators, bases):
                upper = [rand_frac(rng, -3, 3, max_den=5) for _ in range(len(b) * (len(b) + 1) // 2)]
                f = f + g * gram_product(SymMat(len(b), upper), b)
            if not f.is_zero:
                yield f, bases, generators


def test_gram_family_matches_dense_solve():
    """The closed-form family is the one the dense elimination gives: the same
    particular solution, the same free unknowns and rows (the same basis in
    the same order), the same forced diagonal entries."""
    for f, bases, generators in _random_families():
        _assert_family_matches_dense_solve(f, bases, generators)


def test_numeric_family_agrees_with_exact_rows():
    """The float family of numeric() is the exact one: every exact member is a
    fixed point of its projection, A has one independent row per solved
    unknown, and a projected point solves each of them from its free entries."""
    rng = np.random.default_rng(13)
    for f, bases, generators in _random_families():
        fam = gram_system(f, bases, generators or [MPoly.constant(f.nvars, 1)])
        numeric, pos = fam.numeric(), fam.positions()
        assert numeric.a.shape[0] == len(fam.rows) == np.linalg.matrix_rank(numeric.a)
        for t in ([0] * len(fam.free), [Fraction(k + 1, 3) for k in range(len(fam.free))]):
            blocks = fam.at(t)
            x = np.zeros(numeric.particular.size)
            x[pos] = [[float(g[i, j])] for g in blocks for i in range(g.dim) for j in range(i, g.dim)]
            assert np.allclose(numeric.project(x), x, rtol=0, atol=1e-9)
        y = np.concatenate([(a + a.T).reshape(-1) for a in (rng.normal(size=(s, s)) for s in numeric.sizes)])
        x = numeric.project(y)
        for p, row in fam.rows.items():
            solved = float(fam.particular[p]) - sum(float(c) * x[pos[j, 0]] for j, c in row.items())
            assert abs(x[pos[p, 0]] - solved) < 1e-9 and abs(x[pos[p, 1]] - solved) < 1e-9


def test_search_family_checks_every_block():
    # f = y^2 * G0 + (1, x) G1 (1, x)^T has one member, G0 = [1] and
    # G1 = [[1, 2], [2, 1]], which is not psd though no diagonal entry is negative
    generators = [parse_poly("y^2", 2), parse_poly("1", 2)]
    bases = [[(0, 0)], [(0, 0), (1, 0)]]
    fam = gram_system(parse_poly("y^2 + 1 + 4*x + x^2", 2), bases, generators)
    assert not fam.free and fam.forced == {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    assert search_family(fam) == ("infeasible", None, "unique Gram matrix is not psd")
    fam = gram_system(parse_poly("y^2 + 1 + 4*x + x^2", 2), bases[::-1], generators[::-1])
    assert search_family(fam)[0] == "infeasible"
    fam = gram_system(parse_poly("y^2 + 1 + 4*x + 4*x^2", 2), bases, generators)
    status, blocks, detail = search_family(fam)
    assert (status, detail) == ("found", "unique Gram matrix")
    assert [b.rows() for b in blocks] == [[[1]], [[1, 2], [2, 4]]]


def test_restrict_to_face_drops_only_forced_zeros():
    """Replayed round by round from the unreduced gram_system, every dropped
    monomial has its diagonal entry forced to exactly 0 in the system it
    leaves, every such entry is dropped, and the last system is the face."""
    x = lambda t: parse_poly(t, 1)  # noqa: E731
    cases = [
        (x("1"), [[(0,), (1,), (2,)]], [x("1")], [[(2,), (1,)]]),
        (x("1"), [[(0,), (1,)], [(0,)]], [x("1"), x("x^3")], [[(1,)], [(0,)]]),
        (x("x"), [[(0,), (1,)], [(0,)], [(0,)]], [x("1"), x("x"), x("1 - x")], [[(1,)], [], []]),
        (parse_poly("x^4*y^2 + x^2*y^4 + 1", 2), [[(0, 0), (1, 1), (2, 1), (1, 2)]], [parse_poly("1", 2)],
         [[(1, 1)]]),
    ]
    for f, bases, generators, expected in cases:
        face, dropped = restrict_to_face(f, gram_system(f, bases, generators), generators)
        assert dropped == expected
        left = [list(d) for d in dropped]
        family = gram_system(f, bases, generators)
        while any(left):
            zeros = {(k, family.bases[k][i]) for (k, i), value in family.forced.items() if value == 0}
            assert zeros and all(a in left[k] for k, a in zeros)
            for k, a in zeros:
                left[k].remove(a)
            family = gram_system(f, [[a for a in b if (k, a) not in zeros] for k, b in enumerate(family.bases)],
                                 generators)
        assert family.bases == face.bases and family.particular == face.particular
        assert all(value != 0 for value in face.forced.values())


def test_find_gram_reports_dropped_monomials():
    # (2, 2) is only (1, 1) + (1, 1) and has coefficient 0: xy leaves the basis
    f = parse_poly("x^4*y^2 + x^2*y^4 + 1", 2)
    res = find_gram(f)
    assert res.found and res.dropped == [(1, 1)]
    assert (1, 1) not in res.monomials
    assert verify_sos(f, (res.gram, res.monomials))
    assert find_gram(parse_poly(SEC26, 2)).dropped == []


def test_find_gram_sec26():
    f = parse_poly(SEC26, 2)
    res = find_gram(f)
    assert res.found
    assert verify_sos(f, (res.gram, res.monomials))
    cert = weighted_square_decomposition(res.gram, res.monomials)
    assert verify_sos(f, cert)


def test_boundary_instance_rounds_at_the_one_sweep_budget(monkeypatch):
    """x^4 + y^4 - 4y + 3 has a real zero at (0, 1), so no Gram matrix is
    interior: the run stalls at its sweep cap and the ladder rounds its last,
    unconverged point (CHANGES.md, FOUND 29).  The cap is part of the
    outcome, so the one budget is pinned here by counting affine
    projections, one per sweep."""
    calls = []
    project = numeric.AffineFamily.project
    monkeypatch.setattr(numeric.AffineFamily, "project", lambda self, y: calls.append(1) or project(self, y))
    f = parse_poly("x^4 + y^4 - 4*y + 3", 2)
    res = find_gram(f)
    assert res.found and res.detail == "denominator bound 10"
    assert len(calls) == 3000
    assert verify_sos(f, (res.gram, res.monomials))


def test_sec26_paper_member_and_certificate():
    f = parse_poly(SEC26, 2)
    gram = SymMat.from_rows([[2, 1, -3], [1, 5, 0], [-3, 0, 5]])
    assert verify_sos(f, (gram, [(2, 0), (1, 1), (0, 2)]))
    two_squares = SosCert(
        (
            (Fraction(1, 2), parse_poly("2*x^2 + x*y - 3*y^2", 2)),
            (Fraction(1, 2), parse_poly("3*x*y + y^2", 2)),
        )
    )
    assert verify_sos(f, two_squares)


def test_find_gram_motzkin_infeasible():
    res = find_gram(parse_poly(MOTZKIN, 2))
    assert res.infeasible
    assert "forced" in res.detail


def test_find_gram_odd_degree_and_vertex_exclusions():
    assert find_gram(parse_poly("x^3 + x", 1)).infeasible  # odd degree
    # a negative vertex coefficient forces the diagonal entry of its half
    res = find_gram(parse_poly("0 - x^4", 1))
    assert res.infeasible and "forced to -1" in res.detail
    # an odd vertex is no sum of two lattice points
    res = find_gram(parse_poly("x^3*y + x^2*y^2", 2))
    assert res.infeasible and "not a sum of two candidate exponents" in res.detail


def _newton_vertices(f):
    """Vertices of the Newton polytope: support points outside the hull of the others."""
    support = f.support()
    return [a for a in support
            if len(support) == 1 or not convex_membership([b for b in support if b != a], a)]


def test_find_gram_refutes_every_bad_vertex():
    """The vertex rule needs no pass of its own in find_gram: whenever a vertex
    of the Newton polytope has a negative coefficient or an odd exponent, the
    Gram system refutes f exactly (an unreachable monomial or a diagonal entry
    forced negative)."""
    rng = random.Random(211)
    drawn = bad = 0
    while drawn < 100:
        nvars = rng.randint(1, 3)
        f = rand_mpoly(rng, nvars=nvars, max_deg=4 if nvars < 3 else 2, max_terms=4)
        if f.is_zero or f.degree() % 2:
            continue
        drawn += 1
        if not any(f.coeff(a) < 0 or any(e % 2 for e in a) for a in _newton_vertices(f)):
            continue
        bad += 1
        res = find_gram(f)
        assert res.infeasible, f
        assert "forced to -" in res.detail or "not a sum of two candidate exponents" in res.detail
    assert bad >= 50


def test_find_gram_unique_cases():
    res = find_gram(parse_poly("x^2", 1))
    assert res.found and res.gram.rows() == [[1]]
    res = find_gram(MPoly.constant(2, 4))
    assert res.found
    res = find_gram(MPoly.constant(1, -1))
    assert res.infeasible


def test_motzkin_multiplier_certificates():
    motzkin = parse_poly(MOTZKIN, 2)
    one_plus_x2 = parse_poly("1 + x^2", 2)
    target = one_plus_x2 * motzkin
    paper_cert = SosCert(
        (
            (Fraction(1), parse_poly("1 - x^2*y^2", 2)),
            (Fraction(1), parse_poly("x - x*y^2", 2)),
            (Fraction(1), parse_poly("x*y - x^3*y", 2)),
        )
    )
    assert verify_sos(target, paper_cert)
    res = find_gram(target)
    assert res.found
    assert verify_sos(target, (res.gram, res.monomials))


def test_motzkin_cubed_substitution_certificate():
    target = parse_poly("x^12*y^6 + x^6*y^12 - 3*x^6*y^6 + 1", 2)
    h = Fraction(1, 2)
    q = Fraction(3, 4)
    cert = SosCert(
        (
            (Fraction(1), parse_poly("x^2*y", 2) - parse_poly("x^4*y^5", 2) * h - parse_poly("x^6*y^3", 2) * h),
            (Fraction(1), parse_poly("x*y^2", 2) - parse_poly("x^3*y^6", 2) * h - parse_poly("x^5*y^4", 2) * h),
            (Fraction(1), MPoly.constant(2, 1) - parse_poly("x^2*y^4", 2) * h - parse_poly("x^4*y^2", 2) * h),
            (q, parse_poly("x^2*y^4", 2) - parse_poly("x^4*y^2", 2)),
            (q, parse_poly("x^3*y^6", 2) - parse_poly("x^5*y^4", 2)),
            (q, parse_poly("x^4*y^5", 2) - parse_poly("x^6*y^3", 2)),
        )
    )
    assert verify_sos(target, cert)


def test_verify_sos_rejects_negative_weight():
    f = parse_poly("x^2", 1)
    cert = SosCert(((Fraction(-1), parse_poly("x", 1)),))
    verdict = verify_sos(f, cert)
    assert not verdict and verdict.reason == "negative-weight"


def test_find_gram_soundness_on_random_sos():
    rng = random.Random(109)
    hits = 0
    for _ in range(8):
        parts = [rand_mpoly(rng, nvars=2, max_deg=2, max_terms=3) for _ in range(rng.randint(1, 3))]
        f = MPoly.zero(2)
        for p in parts:
            f = f + p * p
        if f.is_zero:
            continue
        res = find_gram(f)
        assert not res.infeasible  # an SOS input may stall but can never be excluded
        if res.found:
            hits += 1
            assert verify_sos(f, (res.gram, res.monomials))
    assert hits >= 6  # the numeric phase should succeed nearly always here


def test_cassels_trivial_and_pair():
    x = UPoly.x()
    cert = cassels_descent([1], [parse_upoly("x^2")], x)
    assert [p for _, p in cert.terms] == [x]
    cert = cassels_descent([1, 1], [parse_upoly("x^2 + x"), parse_upoly("x^2 - x")], x)
    assert cert.expand(UPoly.zero()) == parse_upoly("2*x^2 + 2")


def test_cassels_rejects_inexact_division():
    with pytest.raises(ValueError):
        cassels_descent([1], [UPoly.x()], parse_upoly("x^2 + 1"))
    with pytest.raises(ZeroDivisionError):
        cassels_descent([1], [UPoly.x()], UPoly.zero())
    with pytest.raises(ValueError):
        cassels_descent([-1], [UPoly.x()], UPoly.one())


def gaussian_pair_instance(rng):
    """Weighted squares divisible by g^2 without the f_i being multiples of g."""
    while True:
        p = rand_upoly(rng, max_deg=2)
        q = rand_upoly(rng, max_deg=2)
        g = p * p + q * q
        if g.degree() >= 1:
            break
    u = rand_upoly(rng, max_deg=2)
    w = rand_upoly(rng, max_deg=2)
    big_u = p * u - q * w
    big_w = q * u + p * w
    f1 = p * big_u - q * big_w
    f2 = q * big_u + p * big_w
    h = u * u + w * w
    return [Fraction(1), Fraction(1)], [f1, f2], g, h


def test_cassels_constructed_instances():
    rng = random.Random(113)
    for _ in range(12):
        weights, fs, g, h = gaussian_pair_instance(rng)
        cert = cassels_descent(weights, fs, g)
        assert cert.expand(UPoly.zero()) == h
        assert all(w >= 0 for w, _ in cert.terms)
        # weighted-square leading forms cannot cancel, so deg p <= deg(h)/2
        assert all(2 * p.degree() <= h.degree() for _, p in cert.terms if not p.is_zero)


def test_cassels_zero_weights_preserved():
    x = UPoly.x()
    cert = cassels_descent([0, 1], [parse_upoly("x^5"), parse_upoly("x^2")], x)
    assert len(cert.terms) == 2
    assert cert.terms[0][1].is_zero
    assert cert.expand(UPoly.zero()) == parse_upoly("x^2")


def test_certificate_json_round_trip():
    f = parse_poly(SEC26, 2)
    res = find_gram(f)
    cert = weighted_square_decomposition(res.gram, res.monomials)
    doc = cert_to_json(cert, target=f)
    loaded, target = cert_from_json(doc)
    assert target == f
    assert verify_sos(f, loaded)
    gram_doc = gram_to_json(res.gram, res.monomials, target=f)
    loaded, target = cert_from_json(gram_doc)
    assert verify_sos(f, loaded)
