import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from ratsos import lasserre, numeric, sos
from ratsos.lasserre import (
    blocks_at_point,
    build_relaxation,
    emit_sdpa,
    lower_bound_bisect,
    module_cert_from_json,
    module_cert_search,
    module_cert_to_json,
    monomials_upto,
    verify_module_membership,
)
from ratsos.poly import MPoly, parse_poly
from ratsos.quadforms import SosCert, SymMat, is_psd

from helpers import parse_sdpa, rand_frac

G1 = parse_poly("1 - x + y", 2)
G2 = parse_poly("1 - x^4 - y^4", 2)


def test_monomials_upto_graded_lex():
    assert monomials_upto(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert monomials_upto(1, 3) == [(0,), (1,), (2,), (3,)]
    assert monomials_upto(2, -1) == []


def test_build_relaxation_golden():
    rel = build_relaxation([G1, G2], 4, 2)
    assert rel.block_sizes == [6, 3, 1]
    assert rel.num_moment_vars == 14


def test_build_relaxation_trivial():
    rel = build_relaxation([], 2, 1)
    assert rel.block_sizes == [2]
    assert rel.num_moment_vars == 2  # y1, y2


def test_build_relaxation_ignores_high_degree():
    rel = build_relaxation([G1, G2], 2, 2)  # deg g2 = 4 > 2: skipped
    assert rel.generators == [MPoly.constant(2, 1), G1]
    rel = build_relaxation([MPoly.zero(2), G1], 3, 2)
    assert rel.generators == [MPoly.constant(2, 1), G1]


def test_block_sizes_binomial():
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            gs = [parse_poly("1 - x", n)]
            rel = build_relaxation(gs, d, n)
            for g, size in zip(rel.generators, rel.block_sizes):
                r = (d - max(int(g.degree()), 0)) // 2
                assert size == comb(n + r, n)


def test_emit_sdpa_header_and_objective():
    rel = build_relaxation([G1, G2], 4, 2)
    text = emit_sdpa(rel, parse_poly("x", 2))
    lines = text.splitlines()
    assert lines[0] == "14"
    assert lines[1] == "3"
    assert lines[2] == "6 3 1"
    assert lines[3].split() == ["1.0"] + ["0.0"] * 13


def test_emit_sdpa_localizing_block_hand_encoded():
    # size-3 block of 1 - x + y at degree 4, derived by hand from the
    # graded-lex moment numbering y1=x, y2=y, y3=x^2, y4=xy, y5=y^2,
    # y6=x^3, y7=x^2 y, y8=x y^2, y9=y^3
    rel = build_relaxation([G1, G2], 4, 2)
    text = emit_sdpa(rel, parse_poly("x", 2))
    parsed = parse_sdpa(text)
    block2 = {k: v for k, v in parsed.entries.items() if k[1] == 2}
    expected = {
        (0, 2, 1, 1): -1.0,
        (1, 2, 1, 1): -1.0,
        (2, 2, 1, 1): 1.0,
        (1, 2, 1, 2): 1.0,
        (3, 2, 1, 2): -1.0,
        (4, 2, 1, 2): 1.0,
        (2, 2, 1, 3): 1.0,
        (4, 2, 1, 3): -1.0,
        (5, 2, 1, 3): 1.0,
        (3, 2, 2, 2): 1.0,
        (6, 2, 2, 2): -1.0,
        (7, 2, 2, 2): 1.0,
        (4, 2, 2, 3): 1.0,
        (7, 2, 2, 3): -1.0,
        (8, 2, 2, 3): 1.0,
        (5, 2, 3, 3): 1.0,
        (8, 2, 3, 3): -1.0,
        (9, 2, 3, 3): 1.0,
    }
    assert block2 == expected


DATA = Path(__file__).resolve().parent / "data"

#: (constraints, degree, nvars, objective, golden file): the README system,
#: a 3-variable system with a rational coefficient, and a system whose zero
#: constraint and constraint of degree above d get no block, so the block of
#: 1 - x^2 is numbered 2
SDPA_GOLDENS = [
    (["1 - x + y", "1 - x^4 - y^4"], 4, 2, "x", "readme_system.dat-s"),
    (["1-x^2-y^2-z^2", "x*y-1/3*z", "x^3-2"], 5, 3, "x*y*z-z^4", "rational_3var.dat-s"),
    (["0", "1 - x^2", "x^5"], 3, 2, "x*y", "skipped_generators.dat-s"),
]


@pytest.mark.parametrize("gs, d, n, objective, golden", SDPA_GOLDENS)
def test_emit_sdpa_full_text_golden(gs, d, n, objective, golden):
    rel = build_relaxation([parse_poly(g, n) for g in gs], d, n)
    text = emit_sdpa(rel, parse_poly(objective, n))
    assert text == (DATA / golden).read_text()


@pytest.mark.parametrize("gs, d, n", [(gs, d, n) for gs, d, n, _, _ in SDPA_GOLDENS])
def test_blocks_at_point_match_their_definition(gs, d, n):
    # block k at y_alpha = p^alpha is g_k(p) * v_k(p) v_k(p)^T, v_k the basis at p
    rel = build_relaxation([parse_poly(g, n) for g in gs], d, n)
    rng = random.Random(f"blocks:{n}")
    for _ in range(5):
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
        blocks = blocks_at_point(rel, p)
        assert len(blocks) == len(rel.bases)
        for g, basis, got in zip(rel.generators, rel.bases, blocks):
            v = [MPoly.monomial(b).eval(p) for b in basis]
            gp = g.eval(p)
            assert got == SymMat.from_rows([[gp * a * b for b in v] for a in v])
    for wrong in ([Fraction(1)] * (n + 1), [Fraction(1)] * (n - 1)):
        with pytest.raises(ValueError, match=f"point has length {len(wrong)}, expected {n}"):
            blocks_at_point(rel, wrong)


def test_sdpa_structural_round_trip():
    rel = build_relaxation([], 2, 1)
    text = emit_sdpa(rel, parse_poly("x", 1))
    parsed = parse_sdpa(text)
    assert parsed.nvars == 2
    assert parsed.block_sizes == [2]
    again = parse_sdpa(text)
    assert again == parsed
    rel4 = build_relaxation([G1, G2], 4, 2)
    text4 = emit_sdpa(rel4, parse_poly("x", 2))
    parsed4 = parse_sdpa(text4)
    assert parsed4.block_sizes == rel4.block_sizes
    assert parsed4.nvars == rel4.num_moment_vars


def test_emit_sdpa_rejects_big_denominators():
    g = parse_poly("1 - x", 1) * Fraction(1, 10**7)
    rel = build_relaxation([g], 2, 1)
    with pytest.raises(ValueError):
        emit_sdpa(rel, parse_poly("x", 1))


def test_emit_sdpa_rejects_coefficients_beyond_float_range():
    rel = build_relaxation([parse_poly("x - " + "1" + "0" * 400, 1)], 2, 1)
    with pytest.raises(ValueError, match="float range"):
        emit_sdpa(rel, parse_poly("x", 1))


def test_emit_sdpa_rejects_bad_objective():
    rel = build_relaxation([], 2, 1)
    with pytest.raises(ValueError):
        emit_sdpa(rel, parse_poly("x^3", 1))
    with pytest.raises(ValueError, match="^objective variable count mismatch$"):
        emit_sdpa(rel, parse_poly("x", 2))


def test_containment_moment_blocks_psd_on_feasible_grid():
    rel = build_relaxation([G1, G2], 4, 2)
    grid = [Fraction(n, 2) for n in range(-2, 3)]
    checked = 0
    for a in grid:
        for b in grid:
            if G1.eval([a, b]) >= 0 and G2.eval([a, b]) >= 0:
                checked += 1
                assert all(is_psd(m) for m in blocks_at_point(rel, [a, b]))
    assert checked > 5


def test_verify_module_membership_generator():
    sigmas = [
        SosCert(()),
        SosCert(((Fraction(1), MPoly.constant(2, 1)),)),
        SosCert(()),
    ]
    assert verify_module_membership(G1, [G1, G2], 4, sigmas)
    # same certificate fails against the wrong target
    assert not verify_module_membership(G2, [G1, G2], 4, sigmas)


def test_verify_module_membership_degree_cap():
    # sigma_2 multiplies a degree-4 generator: only constants are allowed at d=4
    sigmas = [
        SosCert(()),
        SosCert(()),
        SosCert(((Fraction(1), parse_poly("x", 2)),)),
    ]
    target = parse_poly("x", 2) ** 2 * G2
    verdict = verify_module_membership(target, [G1, G2], 4, sigmas)
    assert not verdict and verdict.reason == "degree-cap"


def test_module_cert_search_sos_only():
    h = parse_poly("x^4 + y^4 - 4*x + 3", 2)
    res = module_cert_search(h, [], 4)
    assert res.status == "found"
    assert verify_module_membership(h, [], 4, res.cert)


def test_module_search_monotone_in_degree():
    h = parse_poly("x^4 + y^4 - 4*x + 3", 2)
    res = module_cert_search(h, [], 4)
    # a degree-4 certificate stays valid at degree 5 verbatim
    assert verify_module_membership(h, [], 5, res.cert)


def test_module_cert_search_linear_infeasible():
    res = module_cert_search(parse_poly("x^3", 1), [], 3)
    assert res.status == "infeasible"


def test_module_cert_search_forced_diagonal():
    # at d = 4 the x^4 coefficient comes only from the (x^2, x^2) Gram entry
    res = module_cert_search(parse_poly("1 - x^4", 1), [], 4)
    assert res.status == "infeasible"
    assert "forced" in res.detail


def test_module_search_reports_numeric_convergence():
    gs = [parse_poly("1 - x^2 - y^2", 2)]
    interior = parse_poly("x*y + 1", 2)  # min -1/2 on the disk: a strictly feasible level
    res = module_cert_search(interior, gs, 2)
    assert res.status == "found"
    below = parse_poly("x*y + 1/4", 2)
    res = module_cert_search(below, gs, 2)
    assert res.status == "unknown"
    assert res.detail.startswith("numeric phase separated")


def test_module_search_does_not_round_a_separated_run(monkeypatch):
    # below the minimum -1/2 of x*y on the disk: no member is psd, and the
    # numeric phase ends separated without trying a single ladder rung
    calls = []
    at = sos.GramFamily.at
    monkeypatch.setattr(sos.GramFamily, "at", lambda self, params: calls.append(params) or at(self, params))
    res = module_cert_search(parse_poly("x*y + 1/4", 2), [parse_poly("1 - x^2 - y^2", 2)], 2)
    assert res.status == "unknown" and res.detail.startswith("numeric phase separated")
    assert calls == []


class _CountingFamily(numeric.AffineFamily):
    """The float family of the searches, counting its projections: one per sweep."""

    calls = 0

    def project(self, y):
        _CountingFamily.calls += 1
        return super().project(y)


@pytest.mark.parametrize("level", ["3/8", "19/50"])
def test_a_level_below_the_minimum_is_refuted_at_a_point(monkeypatch, level):
    """x^3 - x has the minimum -2/(3 sqrt 3) = -0.3849... on [-1, 1], so these
    levels have no certificate; the first numeric run reads a point of K
    where the target is negative off its residual within 4 checks (the two
    runs took 2,968 and 3,000 sweeps to end unknown without the check)."""
    monkeypatch.setattr(sos, "AffineFamily", _CountingFamily)
    monkeypatch.setattr(_CountingFamily, "calls", 0)
    f = parse_poly(f"x^3 - x + {level}", 1)
    gs = [parse_poly("1 + x", 1), parse_poly("1 - x", 1)]
    res = module_cert_search(f, gs, 4)
    assert res.status == "infeasible" and _CountingFamily.calls <= 32
    value, x0 = re.fullmatch(r"the target is (\S+) at the point \((\S+),\)", res.detail).groups()
    x0 = Fraction(x0)
    assert f.eval([x0]) == Fraction(value) < 0 and all(g.eval([x0]) >= 0 for g in gs)


def _square_sum(rng, nvars, degree, count, zero=None):
    """A sum of ``count`` squares of random polynomials of degree <= ``degree``,
    each vanishing at ``zero`` when one is given."""
    total = MPoly.zero(nvars)
    for _ in range(count):
        p = MPoly(nvars, {a: rand_frac(rng, -3, 3) for a in monomials_upto(nvars, degree) if rng.random() < 0.7})
        if zero is not None:
            p = p - MPoly.constant(nvars, p.eval(zero))
        total = total + p * p
    return total


def test_no_member_by_construction_is_refuted(monkeypatch):
    """SOS targets and module members sigma_0 + sigma_1 g on [-1, 1] and on the
    disk, some with a zero on the boundary of K (where the float screen can
    pass and only the exact values may reject), never end infeasible, and
    the point check is asked along the way."""
    asked = []
    point_check = sos._point_check

    def counted(*args):
        check = point_check(*args)
        return check and (lambda r: asked.append(1) or check(r))

    monkeypatch.setattr(sos, "_point_check", counted)
    rng = random.Random(34)
    for n in range(20):
        nvars, g = [(1, "1 - x^2"), (2, "1 - x^2 - y^2")][n % 2]
        g = parse_poly(g, nvars)
        zero = [(Fraction(-1),), (Fraction(3, 5), Fraction(-4, 5))][n % 2] if n % 4 > 1 else None
        f = _square_sum(rng, nvars, 2, rng.randint(1, 3), zero)
        if n % 3:  # a module member, else a plain SOS target
            f = f + _square_sum(rng, nvars, 1, 1) * g
        if f.is_zero:
            continue
        res = (sos.find_gram(f) if n % 3 == 0 else module_cert_search(f, [g], 4))
        assert res.status != "infeasible", (n, f, res.detail)
    assert asked


def test_module_cert_json_round_trip():
    h = parse_poly("x^4 + y^4 - 4*x + 3", 2)
    res = module_cert_search(h, [], 4)
    doc = module_cert_to_json(res.cert, target=h, degree=4)
    loaded = module_cert_from_json(doc, 2)
    assert verify_module_membership(h, [], 4, loaded)


def test_lower_bound_bisect_interval():
    x = parse_poly("x", 1)
    gs = [x, parse_poly("1 - x", 1)]
    res = lower_bound_bisect(x, gs, 2, iterations=12)
    assert res.certified
    assert res.lo >= Fraction(-1, 100)
    assert res.hi - res.lo <= Fraction(1, 10)
    assert verify_module_membership(x - res.lo, gs, 2, res.cert)


@pytest.mark.parametrize("f, gs, d, lo, hi", [
    ("x", ["x", "1 - x"], 2, Fraction(0), Fraction(1, 8)),
    ("x^2 - x", ["x", "1 - x"], 2, Fraction(-1, 4), Fraction(-1, 8)),
    ("x*y", ["1 - x^2 - y^2"], 2, Fraction(-1, 2), Fraction(-3, 8)),
    ("x^2 + y^2 - x*y - x", ["1 - x^2 - y^2"], 2, Fraction(-3, 8), Fraction(-1, 4)),
    ("x^3 - x", ["1 + x", "1 - x"], 4, Fraction(-1, 2), Fraction(-3, 8)),
])
def test_lower_bound_bisect_golden_brackets(f, gs, d, lo, hi):
    # every level's verdict is an exact search, so a moved verdict moves the bracket
    nvars = 2 if "y" in f else 1
    f, gs = parse_poly(f, nvars), [parse_poly(g, nvars) for g in gs]
    res = lower_bound_bisect(f, gs, d, iterations=3)
    assert (res.lo, res.hi) == (lo, hi) and res.certified
    assert verify_module_membership(f - res.lo, gs, d, res.cert)


@pytest.mark.parametrize("iterations", [0, 3, 6])
def test_lower_bound_bisect_searches_once_per_level(monkeypatch, iterations):
    """Every level is one exact search: 0, then the walk (here the one step
    to -1), then one per iteration, and lo comes back with the certificate
    its own search found."""
    f, gs = parse_poly("x^2 - x", 1), [parse_poly("x", 1), parse_poly("1 - x", 1)]
    levels, searches = [], {}
    search = lasserre.module_cert_search

    def counted(target, *args, **kwargs):
        levels.append(f.coeff((0,)) - target.coeff((0,)))
        searches[levels[-1]] = res = search(target, *args, **kwargs)
        return res

    monkeypatch.setattr(lasserre, "module_cert_search", counted)
    res = lower_bound_bisect(f, gs, 2, iterations=iterations)
    assert len(levels) == len(searches) == 1 + 1 + iterations and levels[:2] == [0, -1]
    assert res.certified and res.cert is searches[res.lo].cert
    assert searches[res.hi].status != "found"
    assert verify_module_membership(f - res.lo, gs, 2, res.cert)


def test_lower_bound_bisect_on_the_disk_at_degree_4():
    # min -1/2; every level the bisection keeps is an exact certificate
    gs = [parse_poly("1 - x^2 - y^2", 2)]
    f = parse_poly("x*y", 2)
    res = lower_bound_bisect(f, gs, 4)
    assert res.certified and Fraction(-2089, 4096) < res.lo <= Fraction(-1, 2)
    assert verify_module_membership(f - res.lo, gs, 4, res.cert)


def test_lower_bound_bisect_constant():
    gs = [parse_poly("x", 1), parse_poly("1 - x", 1)]
    res = lower_bound_bisect(MPoly.constant(1, 1), gs, 2, iterations=8)
    assert res.certified
    assert res.lo >= 1 - Fraction(1, 2**8)


def test_face_chain_drops_x2_then_x():
    # 1 at d = 4: the x^4 diagonal is forced to 0, and once x^2 is gone so is
    # the x^2 one, leaving the unique member sigma_0 = 1
    res = module_cert_search(MPoly.constant(1, 1), [], 4)
    assert res.status == "found" and res.detail == "unique Gram matrix"
    assert res.dropped == {0: [(2,), (1,)]}
    assert [p for _, p in res.cert[0].terms] == [MPoly.constant(1, 1)]


def test_face_empties_a_block():
    # the x^3 coefficient of 1 is 0 and only the constant of sigma_1 reaches it
    res = module_cert_search(MPoly.constant(1, 1), [parse_poly("x^3", 1)], 3)
    assert res.status == "found"
    assert res.dropped == {0: [(1,)], 1: [(0,)]}
    assert res.cert[1].terms == ()
    # the same next to a block with free entries, so the numeric phase runs
    f, gs = parse_poly("x^4 + y^4 + 1", 2), [parse_poly("x^5", 2)]
    res = module_cert_search(f, gs, 5)
    assert res.status == "found" and res.detail.startswith("denominator bound")
    assert res.dropped == {1: [(0, 0)]}
    assert verify_module_membership(f, gs, 5, res.cert)


def test_face_of_x_on_unit_interval():
    x = parse_poly("x", 1)
    res = module_cert_search(x, [x, parse_poly("1 - x", 1)], 2)
    assert res.status == "found"
    assert res.dropped == {0: [(1,)]}


def test_module_search_centres_strictly_feasible_target():
    # strictly positive on [-1, 1]; the converged point lies on the psd
    # boundary and rounds only once pushed inside
    f = parse_poly("x^3 - x + 3", 1)
    gs = [parse_poly("1 + x", 1), parse_poly("1 - x", 1)]
    res = module_cert_search(f, gs, 3)
    assert res.status == "found"
    assert verify_module_membership(f, gs, 3, res.cert)


def test_lower_bound_bisect_rejects_negative_iterations():
    gs = [parse_poly("x", 1), parse_poly("1 - x", 1)]
    with pytest.raises(ValueError, match="iterations"):
        lower_bound_bisect(parse_poly("x", 1), gs, 2, iterations=-1)
