"""Acceptance suite: every criterion runs at its stated tolerance and time
budget and prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
on success)."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ratsos.arith import Mat
from ratsos.conic import ConicCombination, SeparatingFunctional, SpanError, conic_representation
from ratsos.lasserre import (
    build_relaxation,
    emit_sdpa,
    lower_bound_bisect,
    module_cert_search,
    verify_module_membership,
)
from ratsos.poly import MPoly, UPoly, gcd_upoly, parse_poly, parse_upoly
from ratsos.quadforms import (
    SosCert,
    SymMat,
    gram_product,
    is_psd,
    is_psd_via_diagonal,
    is_psd_via_minors,
    rank,
    signature,
    weighted_square_decomposition,
)
from ratsos.rootcount import (
    count_complex_distinct,
    count_real_roots,
    count_real_with_signs,
    hermite_form,
    is_real_rooted,
    sign_changes,
)
from ratsos.sos import cassels_descent, find_gram, gram_family, verify_sos

from helpers import parse_sdpa, rand_symmetric_rows, rand_upoly, upoly_from_roots
from test_conic import cone_membership_oracle
from test_rootcount import random_constructed
from test_sos import gaussian_pair_instance


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"ACCEPTANCE {number} ({name}): FAIL (took {elapsed:.2f}s, limit {limit_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded {limit_seconds}s: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_descartes_golden():
    with criterion(1, "Descartes golden", 1.0):
        f = parse_upoly("x^4 - 5*x^3 - 21*x^2 + 115*x - 150")
        assert sign_changes(f) == 3
        assert sign_changes(f.compose_neg()) == 1
        assert sign_changes((UPoly([1, 1]) ** 22) * f) == 1
        assert count_real_roots(f) == 2
        assert count_real_with_signs(f, [UPoly.x()]) == 1


def test_criterion_2_symmetric_matrix_golden():
    with criterion(2, "symmetric-matrix golden", 1.0):
        f = parse_upoly("-x^3 - x^2 + 4*x + 1")
        h = hermite_form(f.monic()).matrix
        assert rank(h) == 3 and signature(h) == 3
        assert is_real_rooted(f)
        assert sign_changes(f) == 1


def test_criterion_3_hermite_oracle_suite():
    with criterion(3, "Hermite oracle suite", 30.0):
        rng = random.Random(20260810)
        for _ in range(200):
            f, roots, quads = random_constructed(rng, max_deg=12)
            assert count_real_roots(f) == len(roots)
            n_complex = count_complex_distinct(f)
            assert n_complex == len(roots) + 2 * quads
            fm = f.monic()
            assert n_complex == fm.degree() - gcd_upoly(fm, fm.derivative()).degree()
            conditions = []
            for _ in range(rng.randint(0, 2)):
                conditions.append(
                    upoly_from_roots(
                        [Fraction(rng.randint(-3, 3))], lc=Fraction(rng.choice([-1, 1, 2]))
                    )
                )
            expected = sum(1 for r in roots if all(g.eval(r) > 0 for g in conditions))
            assert count_real_with_signs(f, conditions) == expected


def test_criterion_4_signature_dual_method():
    from ratsos.quadforms import signature_via_descartes

    with criterion(4, "signature dual-method", 10.0):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = SymMat.from_rows(rand_symmetric_rows(rng, n))
            assert signature(m) == signature_via_descartes(m)


def test_criterion_5_psd_three_way():
    with criterion(5, "psd three-way", 10.0):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 5)
            rows = rand_symmetric_rows(rng, n)
            if rng.random() < 0.5:
                a = Mat(rows)
                rows = (a.transpose() * a).rows
            m = SymMat.from_rows(rows)
            assert is_psd(m) == is_psd_via_diagonal(m) == is_psd_via_minors(m)


def test_criterion_6_gram_golden():
    with criterion(6, "Gram golden", 1.0):
        f = parse_poly("2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y", 2)
        monoms = [(2, 0), (1, 1), (0, 2)]
        fam = gram_family(f, [monoms], [MPoly.constant(2, 1)])
        # the one-parameter family from the worked example: corner entry free,
        # middle diagonal locked to -2*corner - 1, the rest fixed
        assert len(fam.free) == 1
        for t in (Fraction(0), Fraction(-3)):
            [g] = fam.at([t])
            assert (g[0, 0], g[0, 1], g[1, 2], g[2, 2]) == (2, 1, 0, 5)
            assert g[1, 1] == -2 * g[0, 2] - 1
        a_member = SymMat.from_rows([[2, 1, -3], [1, 5, 0], [-3, 0, 5]])
        assert gram_product(a_member, monoms, 2) == f
        assert is_psd(a_member)
        cert = weighted_square_decomposition(a_member, monoms)
        assert cert.expand(MPoly.zero(2)) == f
        paper_cert = SosCert(
            (
                (Fraction(1, 2), parse_poly("2*x^2 + x*y - 3*y^2", 2)),
                (Fraction(1, 2), parse_poly("3*x*y + y^2", 2)),
            )
        )
        assert verify_sos(f, paper_cert)


def test_criterion_7_motzkin():
    with criterion(7, "Motzkin", 1.0):
        motzkin = parse_poly("x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1", 2)
        assert find_gram(motzkin).status == "infeasible"
        half = Fraction(1, 2)
        mult_cert = SosCert(
            (
                (Fraction(1), parse_poly("1 - x^2*y^2", 2)),
                (Fraction(1), parse_poly("x - x*y^2", 2)),
                (Fraction(1), parse_poly("x*y - x^3*y", 2)),
            )
        )
        assert verify_sos(parse_poly("1 + x^2", 2) * motzkin, mult_cert)
        cubed = parse_poly("x^12*y^6 + x^6*y^12 - 3*x^6*y^6 + 1", 2)
        cubed_cert = SosCert(
            (
                (Fraction(1), parse_poly("x^2*y", 2) - parse_poly("x^4*y^5", 2) * half - parse_poly("x^6*y^3", 2) * half),
                (Fraction(1), parse_poly("x*y^2", 2) - parse_poly("x^3*y^6", 2) * half - parse_poly("x^5*y^4", 2) * half),
                (Fraction(1), MPoly.constant(2, 1) - parse_poly("x^2*y^4", 2) * half - parse_poly("x^4*y^2", 2) * half),
                (Fraction(3, 4), parse_poly("x^2*y^4", 2) - parse_poly("x^4*y^2", 2)),
                (Fraction(3, 4), parse_poly("x^3*y^6", 2) - parse_poly("x^5*y^4", 2)),
                (Fraction(3, 4), parse_poly("x^4*y^5", 2) - parse_poly("x^6*y^3", 2)),
            )
        )
        assert verify_sos(cubed, cubed_cert)


def test_criterion_8_cassels():
    with criterion(8, "Cassels", 5.0):
        rng = random.Random(8)
        for k in range(50):
            if k % 3 == 0:
                # divisible instance: f_i = g * q_i
                g = rand_upoly(rng, max_deg=3)
                while g.degree() < 1:
                    g = rand_upoly(rng, max_deg=3)
                weights = [Fraction(rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
                if all(w == 0 for w in weights):
                    weights[0] = Fraction(1)
                fs = [g * rand_upoly(rng, max_deg=2) for _ in weights]
                h = UPoly.zero()
                for w, fi in zip(weights, fs):
                    q, r = divmod(fi, g)
                    assert r.is_zero
                    h = h + q * q * w
            else:
                weights, fs, g, h = gaussian_pair_instance(rng)
            trace: list = []
            cert = cassels_descent(weights, fs, g, degree_trace=trace)
            assert all(a > b for a, b in zip(trace, trace[1:]))
            assert len(trace) - 1 <= int(g.degree())
            assert cert.expand(UPoly.zero()) == h
            assert all(w >= 0 for w, _ in cert.terms)
            assert all(2 * p.degree() <= h.degree() for _, p in cert.terms if not p.is_zero)


def test_criterion_9_fundthmlin():
    with criterion(9, "conic pivot algorithm", 30.0):
        rng = random.Random(9)
        done = 0
        while done < 500:
            e = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(rng.randint(3, 8))]
            x = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            try:
                res = conic_representation(e, x)
            except SpanError:
                continue
            done += 1
            member = cone_membership_oracle(e, x)
            # exactly one variant; internal exact re-verification ran on return
            if isinstance(res, ConicCombination):
                assert member
                combo = [Fraction(0)] * 3
                for idx, c in zip(res.indices, res.coefficients):
                    combo = [a + c * b for a, b in zip(combo, e[idx])]
                assert combo == x and all(c >= 0 for c in res.coefficients)
            else:
                assert isinstance(res, SeparatingFunctional)
                assert not member
                ell = res.functional
                assert sum(a * b for a, b in zip(ell, x)) < 0
                assert all(sum(a * b for a, b in zip(ell, v)) >= 0 for v in e)


def test_criterion_10_lasserre_golden():
    with criterion(10, "Lasserre golden", 1.0):
        rel = build_relaxation(
            [parse_poly("1 - x + y", 2), parse_poly("1 - x^4 - y^4", 2)], 4, 2
        )
        assert rel.block_sizes == [6, 3, 1]
        assert rel.num_moment_vars == 14
        text = emit_sdpa(rel, parse_poly("x", 2))
        parsed = parse_sdpa(text)
        assert parsed.nvars == 14
        assert parsed.block_sizes == [6, 3, 1]
        assert parse_sdpa(text) == parsed


def test_criterion_11_lasserre_tangent():
    with criterion(11, "Lasserre tangent test", 60.0):
        h = parse_poly("x^4 + y^4 - 4*x + 3", 2)
        res = module_cert_search(h, [], 4)
        assert res.status == "found"
        assert verify_module_membership(h, [], 4, res.cert)
        gram = find_gram(h)
        assert gram.status == "found"
        assert verify_sos(h, gram.cert)


def test_criterion_12_bisection():
    with criterion(12, "bisection lower bound", 30.0):
        x = parse_poly("x", 1)
        gs = [x, parse_poly("1 - x", 1)]
        res = lower_bound_bisect(x, gs, 2, iterations=12)
        assert res.certified
        assert res.lo >= Fraction(-1, 100)
        assert res.hi <= Fraction(1, 10)
        assert res.hi - res.lo <= Fraction(1, 10)
        assert verify_module_membership(x - res.lo, gs, 2, res.cert)
