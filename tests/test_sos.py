import itertools
import random
import re
import time
from fractions import Fraction
from math import prod
from operator import add

import numpy as np
import pytest

from ratsos import arith, numeric, sos
from ratsos.cli import run
from ratsos.arith import Mat, affine_solution_set, pivot_columns
from ratsos.conic import convex_membership, newton_halved_lattice
from ratsos.lasserre import _module, module_cert_search, monomials_upto
from ratsos.poly import MPoly, UPoly, parse_poly, parse_upoly, poly_text
from ratsos.quadforms import SosCert, SymMat, gram_product, is_psd, weighted_square_decomposition
from ratsos.sos import (
    GramInfeasibleError,
    Search,
    cassels_descent,
    cert_from_json,
    cert_to_json,
    find_gram,
    gram_family,
    gram_to_json,
    restrict_to_face,
    search,
    verify_sos,
)

from helpers import expand_fold, rand_frac, rand_mpoly, rand_upoly

SEC26 = "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y"
MOTZKIN = "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"
ONE = [MPoly.constant(2, 1)]


def test_gram_family_sec26_shape():
    f = parse_poly(SEC26, 2)
    fam = gram_family(f, [[(2, 0), (1, 1), (0, 2)]], ONE)
    assert len(fam.free) == 1
    assert fam.forced[(0, 0)] == 2 and fam.forced[(0, 2)] == 5
    # one-parameter family: entries (0,1) and (1,2) are fixed, and the
    # diagonal middle entry tracks the corner as G11 = -2*G02 - 1
    for t in (Fraction(0), Fraction(1), Fraction(-5, 2)):
        [g] = fam.at([t])
        assert g[0, 0] == 2 and g[2, 2] == 5
        assert g[0, 1] == 1 and g[1, 2] == 0
        assert g[1, 1] == -2 * g[0, 2] - 1
        assert gram_product(g, fam.bases[0], 2) == f


def test_gram_family_unique_square():
    f = parse_poly("x^2", 1)
    fam = gram_family(f, [[(1,)]], [MPoly.constant(1, 1)])
    assert not fam.free
    assert fam.particular == [1]


def test_gram_family_motzkin_forced_diagonal():
    f = parse_poly(MOTZKIN, 2)
    monoms = [(0, 0), (1, 1), (2, 1), (1, 2)]
    fam = gram_family(f, [monoms], ONE)
    xy = monoms.index((1, 1))
    assert fam.forced[(0, xy)] == -3


def test_gram_family_inexpressible_monomial():
    with pytest.raises(GramInfeasibleError):
        gram_family(parse_poly("x^3", 1), [[(1,)]], [MPoly.constant(1, 1)])


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
    generators = generators or [MPoly.constant(f.nvars, 1)]  # None: the one-block Gram family
    fam = gram_family(f, bases, generators)
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
            (g * gram_product(G, b, f.nvars) for g, G, b in zip(generators, blocks, fam.bases)), MPoly.zero(f.nvars)
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
        f = gram_product(SymMat(n, upper), monomials, nvars)
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
                f = f + g * gram_product(SymMat(len(b), upper), b, 2)
            if not f.is_zero:
                yield f, bases, generators


def test_gram_family_matches_dense_solve():
    """The closed-form family is the one the dense elimination gives: the same
    particular solution, the same free unknowns and rows (the same basis in
    the same order), the same forced diagonal entries."""
    for f, bases, generators in _random_families():
        _assert_family_matches_dense_solve(f, bases, generators)


def test_empty_blocks_leave_the_family_unchanged():
    """A generator with an empty block (a module generator past its degree
    cap) adds no unknown: the family is the one without it."""
    f = parse_poly(SEC26, 2)
    lattice = newton_halved_lattice(f)
    fam = gram_family(f, [lattice], ONE)
    for extra in ("1 - x^2 - y^2", "0"):
        padded = gram_family(f, [lattice, []], ONE + [parse_poly(extra, 2)])
        assert (padded.particular, padded.free, padded.rows, padded.forced) == (
            fam.particular, fam.free, fam.rows, fam.forced)


def test_module_family_is_reduced_group_by_group(monkeypatch):
    """A module family with a multi-term generator is reduced one group of
    linked gamma classes at a time: several eliminations, none over every
    unknown, and still the family the dense elimination gives."""
    rng = random.Random(149)
    generators = [parse_poly("1", 2), parse_poly("1 - x^2 - y^2", 2)]
    reduced = sos._reduced
    for d in (4, 8):
        bases = [monomials_upto(2, d // 2), monomials_upto(2, (d - 2) // 2)]
        f = MPoly.zero(2)
        for g, b in zip(generators, bases):
            upper = [rand_frac(rng, -3, 3, max_den=5) for _ in range(len(b) * (len(b) + 1) // 2)]
            f = f + g * gram_product(SymMat(len(b), upper), b, 2)
        widths = []
        monkeypatch.setattr(sos, "_reduced", lambda rows: widths.append(len(rows[0])) or reduced(rows))
        unknowns = len(gram_family(f, bases, generators).particular)
        assert len(widths) > 1 and max(widths) <= unknowns, (d, widths, unknowns)
        _assert_family_matches_dense_solve(f, bases, generators)


def test_cut_solves_random_sparse_systems(monkeypatch):
    """GramFamily.cut on random sparse rational systems over 6-20 unknowns, cut
    in two batches: every member solves every equation, the free unknowns
    number the unknowns minus the rank, an equation implied by the first
    batch cancels to 0 = 0 in the second, and an inconsistent batch raises
    with the reason it was given.  Each first batch has a group of one
    equation and a group of several."""
    rng = random.Random(509)
    widths = []
    reduced = sos._reduced
    monkeypatch.setattr(sos, "_reduced", lambda rows: widths.append(len(rows[0])) or reduced(rows))
    nonzero = lambda: rand_frac(rng, 1, 4, max_den=3) * rng.choice((-1, 1))  # noqa: E731
    for _ in range(30):
        n = rng.randint(6, 20)
        point = [rand_frac(rng, -3, 3, max_den=4) for _ in range(n)]

        def equation(unknowns):
            eq = {u: nonzero() for u in unknowns}
            return eq, sum(c * point[u] for u, c in eq.items())

        lone = rng.sample(range(n), 2)  # the one-equation group of the first batch
        rest = [u for u in range(n) if u not in lone]
        first = [equation(lone)] + [equation(rng.sample(rest[:4], 3)) for _ in range(2)]
        first += [equation(rng.sample(rest, rng.randint(1, 3))) for _ in range(rng.randint(0, n // 4))]
        second = [equation(rng.sample(range(n), rng.randint(1, 4))) for _ in range(rng.randint(1, n // 3))]
        # twice the sum of the first two equations, which share no unknown
        implied = {u: 2 * c for eq, _ in first[:2] for u, c in eq.items()}
        implied_rhs = 2 * (first[0][1] + first[1][1])
        family = sos.GramFamily([[(0,)]] * n, [Fraction(0)] * n, {})
        calls = len(widths)
        family.cut(first, "first batch")
        assert len(widths) - calls < len(first)  # the two rest[:4] equations share an unknown: one group
        family.cut(second + [(implied, implied_rhs)], "second batch")
        equations = first + second
        dense = [[eq.get(u, 0) for u in range(n)] for eq, _ in equations]
        assert len(family.free) == n - len(pivot_columns(Mat(dense)))
        for t in ([0] * len(family.free), [rand_frac(rng) for _ in family.free]):
            member = [g[0, 0] for g in family.at(t)]
            assert all(sum(c * member[u] for u, c in eq.items()) == rhs for eq, rhs in equations)
        family = sos.GramFamily([[(0,)]] * n, [Fraction(0)] * n, {})
        family.cut(first, "first batch")
        with pytest.raises(GramInfeasibleError, match="^inconsistent second batch$"):
            family.cut(second + [(implied, implied_rhs + 1)], "inconsistent second batch")
    assert widths and max(widths) > 2


def test_cut_keeps_integer_equations_exact():
    """A lone equation given in ints is reduced to Fractions, so a later cut
    by a linked group of equations still reduces exactly."""
    family = sos.GramFamily([[(0,)]] * 4, [Fraction(0)] * 4, {})
    family.cut([({0: 2, 1: 1}, 1)], "r")
    assert family.particular[0] == Fraction(1, 2) and type(family.particular[0]) is Fraction
    assert family.rows == {0: {1: Fraction(1, 2)}} and type(family.rows[0][1]) is Fraction
    family.cut([({0: 1, 2: 1}, 3), ({2: 1, 3: 1}, 2)], "r")
    member = [g[0, 0] for g in family.at([Fraction(5)] * len(family.free))]
    assert 2 * member[0] + member[1] == 1 and member[0] + member[2] == 3 and member[2] + member[3] == 2
    assert all(type(x) is Fraction for x in member)


def test_cut_reduces_a_lone_equation_to_its_division_form():
    """A group of one equation goes through the same reduction as any other
    group, and its reduced form is the equation divided by its first
    coefficient: on random lone equations with int or Fraction
    coefficients, a first coefficient of either sign and a zero or nonzero
    right-hand side, cut gives rhs / c and {u: a / c}, every value a Fraction."""
    rng = random.Random(331)
    nonzero = lambda: rng.choice((rng.randint(1, 9), rand_frac(rng, 1, 9, max_den=7))) * rng.choice((-1, 1))  # noqa: E731
    for k in range(60):
        n = rng.randint(1, 8)
        unknowns = sorted(rng.sample(range(n), rng.randint(1, n)))
        eq = {u: nonzero() for u in unknowns}
        if k % 4 == 0:
            eq[unknowns[0]] = -abs(eq[unknowns[0]])
        rhs = 0 if k % 3 == 0 else rng.choice((rng.randint(-9, 9), rand_frac(rng, -9, 9, max_den=7)))
        family = sos.GramFamily([[(0,)]] * n, [Fraction(0)] * n, {})
        family.cut([(eq, rhs)], "lone")
        p, *rest = unknowns
        c = Fraction(eq[p])
        assert family.particular[p] == rhs / c and family.rows == {p: {u: eq[u] / c for u in rest}}, (eq, rhs)
        values = [family.particular[p], *family.rows[p].values()]
        assert all(type(x) is Fraction for x in values), (eq, rhs)


def test_numeric_family_agrees_with_exact_rows():
    """The float family of numeric() is the exact one: every exact member is a
    fixed point of its projection, A has one independent row per solved
    unknown, and a projected point solves each of them from its free entries."""
    rng = np.random.default_rng(13)
    for f, bases, generators in _random_families():
        fam = gram_family(f, bases, generators or [MPoly.constant(f.nvars, 1)])
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


def test_search_checks_every_block():
    # f = y^2 * G0 + (1, x) G1 (1, x)^T has one member, G0 = [1] and
    # G1 = [[1, 2], [2, 1]], which is not psd though no diagonal entry is negative
    generators = [parse_poly("y^2", 2), parse_poly("1", 2)]
    bases = [[(0, 0)], [(0, 0), (1, 0)]]
    f = parse_poly("y^2 + 1 + 4*x + x^2", 2)
    fam = gram_family(f, bases, generators)
    assert not fam.free and fam.forced == {(0, 0): 1, (1, 0): 1, (1, 1): 1}
    assert search(f, bases, generators) == Search("infeasible", None, "unique Gram matrix is not psd")
    assert search(f, bases[::-1], generators[::-1]).status == "infeasible"
    res = search(parse_poly("y^2 + 1 + 4*x + 4*x^2", 2), bases, generators)
    assert (res.status, res.detail) == ("found", "unique Gram matrix")
    assert [(b.rows, basis) for b, basis in res.cert] == [([[1]], bases[0]), ([[1, 2], [2, 4]], bases[1])]


GAP = r"\d\.\d\de-\d\d"
BIG = "1" + "0" * 400

#: (target, bases, generators, sos attributes patched, status, detail pattern):
#: one row per outcome of search; bases None is the halved Newton lattice of
#: the target under the generator 1
SEARCH_OUTCOMES = [
    ("x^3", [[(1,)]], ["1"], {}, "infeasible",
     r"monomial \(3,\) of the target is not a sum of two candidate exponents"),
    ("1 + x^2", [[(0,)]], ["1 - x^2"], {}, "infeasible", "coefficient-match system is inconsistent"),
    ("0 - x^4", [[(2,)]], ["1"], {}, "infeasible", r"diagonal entry for \(2,\) forced to -1"),
    ("x^2", [[(1,)]], ["1"], {}, "found", "unique Gram matrix"),
    ("x^2 + 4*x + 1", [[(0,), (1,)]], ["1"], {}, "infeasible", "unique Gram matrix is not psd"),
    ("x*y + 1/4", [[(0, 0), (1, 0), (0, 1)], [(0, 0)]], ["1", "1 - x^2 - y^2"], {}, "unknown",
     f"numeric phase separated at gap {GAP}"),
    (f"x^4 + {BIG}*x^2*y^2 + y^4 + 1", None, ["1"], {}, "unknown",
     "a coefficient of the Gram system exceeds the float range"),
    (SEC26, None, ["1"], {}, "found", r"denominator bound \d+"),
    ("x^4 + y^4 - 4*y + 3", None, ["1"], {"DENOMINATOR_LADDER": []}, "unknown",
     f"numeric phase stalled at gap {GAP}"),
    (SEC26, None, ["1"], {"DENOMINATOR_LADDER": []}, "unknown", "rationalization failed"),
    ("x^4*y^2 + x^2*y^4 + 1 + x*y", None, ["1"], {}, "infeasible",
     "no Gram matrix has zero rows at its diagonal entries forced to 0"),
    ("x^4 - x + 1/4", None, ["1"], {}, "infeasible", r"the target is -47/256 at the point \(3/4,\)"),
]


@pytest.mark.parametrize("text, bases, generators, patches, status, detail", SEARCH_OUTCOMES)
def test_search_outcomes(monkeypatch, text, bases, generators, patches, status, detail):
    """Every verdict of search, each with its detail; a found certificate
    holds one psd block per generator that reproduces the target."""
    nvars = 2 if "y" in text else 1
    f = parse_poly(text, nvars)
    generators = [parse_poly(g, nvars) for g in generators]
    for name, value in patches.items():
        monkeypatch.setattr(sos, name, value)
    res = search(f, bases or [newton_halved_lattice(f)], generators)
    assert res.status == status and re.fullmatch(detail, res.detail), res.detail
    assert (res.cert is not None) == (status == "found")
    if res.cert is not None:
        assert all(is_psd(block) for block, _ in res.cert)
        assert sum((g * gram_product(*pair, nvars) for g, pair in zip(generators, res.cert)), MPoly.zero(nvars)) == f


def _module_systems(rng, count):
    """(f, bases, generators) of ``count`` module searches set up as
    module_cert_search does: random targets of degree at most d, one or two
    random constraints of which one at least has several terms, and the
    monomials up to each cap; only systems gram_family accepts are kept."""
    out = []
    while len(out) < count:
        nvars, d = rng.randint(1, 2), rng.randint(2, 4)
        gs = [rand_mpoly(rng, nvars=nvars, max_deg=2, max_terms=3) for _ in range(rng.randint(1, 2))]
        f = rand_mpoly(rng, nvars=nvars, max_deg=d // nvars, max_terms=4)
        if f.is_zero or f.degree() > d or all(len(g.terms) < 2 for g in gs):
            continue
        generators, caps = _module(gs, d, nvars)
        bases = [monomials_upto(nvars, r) for r in caps]
        try:
            gram_family(f, bases, generators)
        except GramInfeasibleError:
            continue
        out.append((f, bases, generators))
    return out


def _replayed_face(f, bases, generators):
    """(face, dropped) replayed round by round from gram_family: each round
    drops the monomials whose diagonal entries are forced to exactly 0 and
    rebuilds the family on the smaller bases."""
    dropped = [[] for _ in bases]
    family = gram_family(f, bases, generators)
    while zeros := {(k, family.bases[k][i]) for (k, i), value in family.forced.items() if value == 0}:
        for k, b in enumerate(family.bases):
            dropped[k] += [a for a in b if (k, a) in zeros]
        family = gram_family(f, [[a for a in b if (k, a) not in zeros] for k, b in enumerate(family.bases)],
                             generators)
    return family, dropped


def test_restrict_to_face_drops_only_forced_zeros():
    """The face cut in place is the one replayed from the unreduced
    gram_family: every dropped monomial has its diagonal entry forced to
    exactly 0 in the system it leaves, every such entry is dropped, and the
    face has the last system's particular member, rows in the same order,
    free unknowns and forced entries.  This holds on four fixed cases and on
    seeded module systems with multi-term generators; where a rebuild is
    inconsistent, the cut in place raises with the face's own detail."""
    x = lambda t: parse_poly(t, 1)  # noqa: E731
    cases = [
        (x("1"), [[(0,), (1,), (2,)]], [x("1")], [[(2,), (1,)]]),
        (x("1"), [[(0,), (1,)], [(0,)]], [x("1"), x("x^3")], [[(1,)], [(0,)]]),
        (x("x"), [[(0,), (1,)], [(0,)], [(0,)]], [x("1"), x("x"), x("1 - x")], [[(1,)], [], []]),
        (parse_poly("x^4*y^2 + x^2*y^4 + 1", 2), [[(0, 0), (1, 1), (2, 1), (1, 2)]], [parse_poly("1", 2)],
         [[(1, 1)]]),
    ]
    cases += [(f, bases, generators, None) for f, bases, generators in _module_systems(random.Random(613), 40)]
    outcomes = []
    for f, bases, generators, expected in cases:
        face = gram_family(f, bases, generators)
        try:
            family, replayed = _replayed_face(f, bases, generators)
        except GramInfeasibleError:
            with pytest.raises(GramInfeasibleError, match=f"^{sos._NO_FACE}$"):
                restrict_to_face(face)
            outcomes.append("refuted")
            continue
        dropped = restrict_to_face(face)
        assert dropped == replayed and expected in (None, dropped)
        assert family.bases == face.bases and family.particular == face.particular
        assert list(family.rows.items()) == list(face.rows.items())
        assert (family.free, family.forced) == (face.free, face.forced)
        assert all(value != 0 for value in face.forced.values())
        outcomes.append("dropped" if any(dropped) else "kept")
    assert all(outcomes.count(kind) >= 5 for kind in ("refuted", "dropped", "kept")), outcomes


def _padded(blocks, face_bases, bases):
    """The unknowns over ``bases`` of blocks over ``face_bases`` (a part of
    each basis), with zeros at the monomials the face dropped."""
    entries = {(k, a, c): block[i, j] for k, (block, basis) in enumerate(zip(blocks, face_bases))
               for i, a in enumerate(basis) for j, c in enumerate(basis)}
    return [entries.get((k, bases[k][i], bases[k][j]), 0) for k, i, j in sos._slots(bases)]


def test_face_keeps_earlier_cuts():
    """restrict_to_face reduces the family it is given, so an equation that
    gram_family never wrote survives it: G v(x) = 0 at the grid zeros of the
    sextic, whose zero face drops x*y*z, and a seeded sparse equation through
    a face member of each module system that drops a monomial, on an unknown
    of a dropped row among others.  Members of the face, at free values 0
    and at other rationals, match the target, and padded with zeros at the
    dropped monomials they solve that equation and every row of the cut
    family."""
    f = parse_poly(SEXTIC, 3)
    lattice = newton_halved_lattice(f)
    zeros = [x for x in itertools.product((-1, 0, 1), repeat=3) if f.eval(x) == 0]
    systems = [(f, [lattice], [MPoly.constant(3, 1)], list(sos._zero_equations([lattice], zeros)))]
    rng = random.Random(617)
    for g, bases, generators in _module_systems(rng, 30):
        face = gram_family(g, bases, generators)
        try:
            if not any(dropped := restrict_to_face(face)):
                continue
        except GramInfeasibleError:
            continue
        member = _padded(face.at([0] * len(face.free)), face.bases, bases)
        lost = [u for u, (k, i, j) in enumerate(sos._slots(bases)) if {bases[k][i], bases[k][j]} & {*dropped[k]}]
        eq = {u: rand_frac(rng, 1, 4, max_den=3) for u in rng.sample(range(len(member)), 2) + lost[:1]}
        systems.append((g, bases, generators, [(eq, sum(c * member[u] for u, c in eq.items()))]))
    assert len(systems) > 5
    for f, bases, generators, equations in systems:
        family = gram_family(f, bases, generators)
        family.cut(equations, "seeded cut")
        particular, rows = list(family.particular), {p: dict(row) for p, row in family.rows.items()}
        assert any(restrict_to_face(family))
        for t in ([0] * len(family.free), [Fraction(k + 2, 3) for k in range(len(family.free))]):
            blocks = family.at(t)
            assert sum((g * gram_product(G, b, f.nvars) for g, G, b in zip(generators, blocks, family.bases)),
                       MPoly.zero(f.nvars)) == f
            vec = _padded(blocks, family.bases, bases)
            assert all(sum(c * vec[u] for u, c in eq.items()) == rhs for eq, rhs in equations)
            assert all(vec[p] == particular[p] - sum(c * vec[j] for j, c in row.items()) for p, row in rows.items())


def test_each_search_builds_one_family(monkeypatch):
    """search calls gram_family once and reduces that family in place, also
    when its face drops monomials over several rounds (x^2, then x, of the
    constant 1 at degree 4) or on the face of the real zeros (the sextic)."""
    calls = []
    build = sos.gram_family
    monkeypatch.setattr(sos, "gram_family", lambda *args: calls.append(args) or build(*args))
    res = module_cert_search(parse_poly("1", 1), [], 4)
    assert (res.status, res.dropped, len(calls)) == ("found", {0: [(2,), (1,)]}, 1)
    for text, nvars, dropped in ((SEXTIC, 3, {0: [(1, 1, 1)]}), ("x^4*y^2 + x^2*y^4 + 1", 2, {0: [(1, 1)]})):
        calls.clear()
        res = find_gram(parse_poly(text, nvars))
        assert (res.status, res.dropped, len(calls)) == ("found", dropped, 1)


def test_find_gram_reports_dropped_monomials():
    # (2, 2) is only (1, 1) + (1, 1) and has coefficient 0: xy leaves the basis
    f = parse_poly("x^4*y^2 + x^2*y^4 + 1", 2)
    res = find_gram(f)
    assert res.status == "found" and res.dropped == {0: [(1, 1)]}
    assert (1, 1) not in res.cert[1]
    assert verify_sos(f, res.cert)
    assert find_gram(parse_poly(SEC26, 2)).dropped == {}


def test_find_gram_sec26():
    f = parse_poly(SEC26, 2)
    res = find_gram(f)
    assert res.status == "found"
    assert verify_sos(f, res.cert)
    cert = weighted_square_decomposition(*res.cert)
    assert verify_sos(f, cert)


def test_boundary_instance_converges_on_its_zero_face(monkeypatch):
    """x^4 + y^4 - 4y + 3 has a real zero at (0, 1), so no Gram matrix is
    interior to the psd cone.  On the face G v(0, 1) = 0 the run converges
    in its first sweep: two affine projections, the sweep's and the
    nudge's, where the plain family ran its 3,000-sweep cap.  The ladder
    rounds the converged point at denominator 10."""
    calls = []
    project = numeric.AffineFamily.project
    monkeypatch.setattr(numeric.AffineFamily, "project", lambda self, y: calls.append(1) or project(self, y))
    f = parse_poly("x^4 + y^4 - 4*y + 3", 2)
    res = find_gram(f)
    assert res.status == "found" and res.detail == "denominator bound 10"
    assert res.points == [(0, 1)]
    assert len(calls) == 2
    assert verify_sos(f, res.cert)


SEXTIC = "x^6 + y^6 + z^6 - x^4*y^2 - y^4*z^2 - z^4*x^2"
ROBINSON = ("x^6 + y^6 + z^6 - x^4*y^2 - x^2*y^4 - x^4*z^2 - x^2*z^4 - y^4*z^2 - y^2*z^4"
            " + 3*x^2*y^2*z^2")


def _value(x, alpha):
    return prod(t**e for t, e in zip(x, alpha))


def _assert_vanishes_at_points(res):
    """G v(x) = 0 exactly at every point the search recorded."""
    gram, monomials = res.cert
    for x in res.points:
        v = [_value(x, a) for a in monomials]
        assert all(sum(g * t for g, t in zip(row, v)) == 0 for row in gram.rows), x


def test_sextic_is_found_on_the_face_of_its_real_zeros():
    """The sextic vanishes at (+-1, +-1, +-1) and at 0 (where v is 0), and
    the plain family stalls; on the face of those zeros it is found."""
    f = parse_poly(SEXTIC, 3)
    res = find_gram(f)
    assert res.status == "found", res.detail
    assert res.points == [x for x in itertools.product((-1, 0, 1), repeat=3) if f.eval(x) == 0]
    assert len(res.points) == 9
    assert verify_sos(f, res.cert)
    _assert_vanishes_at_points(res)
    plain = search(f, [newton_halved_lattice(f)], [MPoly.constant(3, 1)])
    assert plain.status == "unknown" and plain.points == []


def test_every_recorded_point_is_a_zero_of_the_certificate():
    """G v(x) = 0 holds exactly at each point a found search used: on the
    boundary instance, and on sums of five or six squares of quadratics
    through one grid point, whose Gram matrix has full rank on the face of
    that zero (5 of the 6 monomials), so that the search finds them all."""
    f = parse_poly("x^4 + y^4 - 4*x + 3", 2)
    res = find_gram(f)
    assert res.points == [(1, 0)]
    _assert_vanishes_at_points(res)
    rng = random.Random(307)
    monomials = monomials_upto(2, 2)
    for _ in range(12):
        zero = (rng.choice((-1, 1)), rng.choice((-1, 0, 1)))
        f = MPoly.zero(2)
        for _ in range(rng.randint(5, 6)):
            q = {a: rand_frac(rng, -3, 3, max_den=3) for a in monomials}
            q[(0, 0)] -= sum(c * _value(zero, a) for a, c in q.items())  # q(zero) = 0
            f = f + MPoly(2, q) ** 2
        res = find_gram(f)
        assert res.status == "found" and zero in res.points, (f, res.detail)
        assert verify_sos(f, res.cert)
        _assert_vanishes_at_points(res)


def test_zero_equations_keep_every_member_and_no_other():
    """gram_family cut by the equations at a real zero x is the solution set
    of the coefficient match plus G v(x) = 0: every member it gives solves
    both, and it has as many free unknowns as the dense system of both has
    non-pivot columns."""
    rng = random.Random(311)
    for _ in range(10):
        nvars = rng.randint(1, 2)
        zero = tuple(rng.choice((-1, 0, 1)) for _ in range(nvars))
        monomials = monomials_upto(nvars, 2)
        v = [_value(zero, a) for a in monomials]
        f = MPoly.zero(nvars)
        for _ in range(2):
            q = {a: rand_frac(rng, -2, 2, max_den=2) for a in monomials}
            q[(0,) * nvars] -= sum(c * t for c, t in zip(q.values(), v))  # q(zero) = 0
            f = f + MPoly(nvars, q) ** 2
        if f.is_zero:
            continue
        fam = gram_family(f, [monomials], [MPoly.constant(nvars, 1)])
        fam.cut(sos._zero_equations(fam.bases, [zero]), sos._NO_ZERO_FACE)
        slots = [(i, j) for i in range(len(monomials)) for j in range(i, len(monomials))]
        exponent = [tuple(map(add, monomials[i], monomials[j])) for i, j in slots]
        dense = [[(1 if i == j else 2) * (e == gamma) for (i, j), e in zip(slots, exponent)]
                 for gamma in set(exponent)]
        dense += [[v[j] if i == k else v[i] if j == k else 0 for i, j in slots] for k in range(len(monomials))]
        assert len(fam.free) == len(slots) - len(pivot_columns(Mat(dense)))
        for t in ([0] * len(fam.free), [Fraction(k + 1, 3) for k in range(len(fam.free))]):
            [g] = fam.at(t)
            assert gram_product(g, monomials, nvars) == f
            assert all(sum(x * w for x, w in zip(row, v)) == 0 for row in g.rows)


def test_zero_cut_in_place_equals_the_rebuild():
    """The plain face cut in place by the equations at its real grid zeros is
    the family gram_family builds on that face's bases, cut by those zeros:
    the same particular member, rows in the same order, free unknowns and
    forced entries; on Robinson's form both routes raise the same error.
    Restricted once more, the face equals that rebuild on its own bases,
    with the rows in pivot order."""
    for text in (SEXTIC, "x^4+y^4-4*y+3", "x^8+y^8+z^8-8*z+7", ROBINSON):
        nvars = 3 if "z" in text else 2
        f = parse_poly(text, nvars)
        one = [MPoly.constant(nvars, 1)]
        face = gram_family(f, [newton_halved_lattice(f)], one)
        restrict_to_face(face)
        zeros = [x for x in itertools.product((-1, 0, 1), repeat=nvars) if f.eval(x) == 0]
        assert face.free and zeros
        try:
            rebuilt = gram_family(f, face.bases, one)
            rebuilt.cut(sos._zero_equations(rebuilt.bases, zeros), sos._NO_ZERO_FACE)
        except GramInfeasibleError as exc:
            assert text == ROBINSON
            with pytest.raises(GramInfeasibleError) as cut_exc:
                face.cut(sos._zero_equations(face.bases, zeros), sos._NO_ZERO_FACE)
            assert str(cut_exc.value) == str(exc)
            continue
        face.cut(sos._zero_equations(face.bases, zeros), sos._NO_ZERO_FACE)
        assert face.particular == rebuilt.particular and list(face.rows) == list(rebuilt.rows)
        assert (face.rows, face.free, face.forced) == (rebuilt.rows, rebuilt.free, rebuilt.forced)
        assert text != ROBINSON
        dropped = restrict_to_face(face)
        assert any(dropped) == (text == SEXTIC)
        rebuilt = gram_family(f, face.bases, one)
        rebuilt.cut(sos._zero_equations(rebuilt.bases, zeros), sos._NO_ZERO_FACE)
        assert face.particular == rebuilt.particular
        assert list(face.rows) == (sorted(rebuilt.rows) if any(dropped) else list(rebuilt.rows))
        assert (face.rows, face.free, face.forced) == (rebuilt.rows, rebuilt.free, rebuilt.forced)


def test_grid_scan_matches_exact_evaluation():
    """The scan on integer-scaled coefficients gives the points of {-1, 0, 1}^n
    where MPoly.eval is <= 0, with its values, and scans nothing once 3^n
    exceeds the number of Gram unknowns it is given."""
    rng = random.Random(401)
    values = []
    for _ in range(40):
        nvars = rng.randint(1, 3)
        f = rand_mpoly(rng, nvars=nvars, max_deg=4, max_terms=6) * Fraction(rng.randint(1, 5), rng.randint(1, 6))
        expected = {x: f.eval(x) for x in itertools.product((-1, 0, 1), repeat=nvars) if f.eval(x) <= 0}
        assert sos._nonpositive_grid_values(f, 3**nvars) == expected
        assert sos._nonpositive_grid_values(f, 3**nvars - 1) == {}
        values += expected.values()
    assert 0 in values and any(value.denominator > 1 for value in values)


def test_point_refutation_after_the_exact_refutations():
    """A grid point where f is negative refutes it, with the point and the
    value in the detail, once the plain face has no refutation of its own.
    Off the grid, a point read off the moments of the float run does: x^4 -
    x + 1/4 is positive on {-1, 0, 1} and negative near 0.63."""
    res = find_gram(parse_poly("x^4 - 3*x^2 + 1", 1))
    assert (res.status, res.detail) == ("infeasible", "the target is -1 at the point (-1,)")
    res = find_gram(parse_poly("x^4 - x + 1/4", 1))
    assert (res.status, res.detail) == ("infeasible", "the target is -47/256 at the point (3/4,)")
    # f(1, 0, 0) = -1 too, but 3^3 exceeds the 15 Gram unknowns: no scan
    res = find_gram(parse_poly("x^4 - 3*x^2 + 1 + y^2 + z^2", 3))
    assert res.status == "unknown" and res.points == []


def _moments(point, basis):
    """The s*s moment matrix v v^T of the point, v the monomials of ``basis`` there, as a flat float vector."""
    v = np.array([float(prod(Fraction(t) ** e for t, e in zip(point, a))) for a in basis])
    return np.outer(v, v).reshape(-1)


def _point_verdict(family, f, generators, r):
    """What the point check of the family says of the residual r: its refutation text, else None."""
    refutations = []
    stop = sos._point_check(family, f, generators, refutations)
    assert stop(r) == bool(refutations) and len(refutations) <= 1
    return refutations[0] if refutations else None


def test_point_check_reads_the_moments_and_checks_them_exactly():
    f, one = parse_poly("1 - x^2", 1), parse_poly("1", 1)
    line = [(0,), (1,)]
    family = gram_family(f, [line, [(0,)]], [one, f])
    tail = np.zeros(1)  # block 1, which the check does not read
    # 2 is no point of K = {1 - x^2 >= 0}, though f(2) < 0 there
    assert _point_verdict(family, f, [one, f], np.concatenate([3 * _moments([2], line), tail])) is None
    family = gram_family(f, [line], [one])
    assert _point_verdict(family, f, [one], 3 * _moments([2], line)) == "the target is -3 at the point (2,)"
    # a point near 2 is rounded down the ladder; -1 times a point's moments are no measure's
    near = _moments([Fraction(19999999, 10**7)], line)
    assert _point_verdict(family, f, [one], near) == "the target is -3 at the point (2,)"
    assert _point_verdict(family, f, [one], -_moments([2], line)) is None
    assert _point_verdict(family, f, [one], _moments([Fraction(1, 2)], line)) is None  # f(1/2) > 0
    g = parse_poly("x^4 + x*y + 1/4 - y^2", 2)
    family = gram_family(g, [[(0, 0), (1, 0), (0, 1), (2, 0)]], ONE)
    assert _point_verdict(family, g, ONE, _moments([Fraction(1, 2), Fraction(-3, 5)], family.bases[0])) \
        == "the target is -139/400 at the point (1/2, -3/5)"
    # the check needs the generator 1 and, in its basis, 1 and every x_i
    assert sos._point_check(family, g, [parse_poly("2", 2)], []) is None
    assert sos._point_check(gram_family(f, [[(0,), (2,)]], [one]), f, [one], []) is None


def test_robinson_form_is_refuted_at_its_real_zeros():
    """Robinson's form is psd and not SOS.  It vanishes at (+-1, +-1, +-1) and
    at the permutations of (+-1, +-1, 0), and no Gram matrix satisfies G v(x)
    = 0 at all of them, which is an exact refutation."""
    f = parse_poly(ROBINSON, 3)
    res = find_gram(f)
    assert res.status == "infeasible"
    assert res.detail == "no Gram matrix G has G v(x) = 0 at the real zeros x of the target"
    assert len(res.points) == 21


def test_a_float_family_out_of_memory_ends_unknown(monkeypatch):
    """A MemoryError from the dense float family is a budget, not a verdict:
    the search ends unknown and the command in exit 3."""

    def numeric(self):
        raise MemoryError("Unable to allocate 6.53 GiB")

    monkeypatch.setattr(sos.GramFamily, "numeric", numeric)
    res = find_gram(parse_poly(SEC26, 2))
    assert (res.status, res.detail) == ("unknown", "the float Gram system does not fit in memory")
    assert run(["sos", "find", "--poly", SEC26]) == (3, "unknown\nthe float Gram system does not fit in memory")


def test_zero_face_budget():
    """x^8 + y^8 + z^8 - 8z + 7 vanishes at (0, 0, 1), and the certificate on
    the face of that zero is found in under 2 s (0.1-0.3 s on a 2-core VM,
    where the plain family stalls after 0.9-1.1 s).  The budget guards the
    reduction of the zero equations over only the free unknowns they touch,
    not over all 630 Gram unknowns."""
    f = parse_poly("x^8 + y^8 + z^8 - 8*z + 7", 3)
    start = time.perf_counter()
    res = find_gram(f)
    assert time.perf_counter() - start < 2.0
    assert res.status == "found" and res.points == [(0, 0, 1)]
    assert verify_sos(f, res.cert)


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
    assert res.status == "infeasible"
    assert "forced" in res.detail


def test_find_gram_odd_degree_and_vertex_exclusions():
    assert find_gram(parse_poly("x^3 + x", 1)).status == "infeasible"  # odd degree
    # a negative vertex coefficient forces the diagonal entry of its half
    res = find_gram(parse_poly("0 - x^4", 1))
    assert res.status == "infeasible" and "forced to -1" in res.detail
    # an odd vertex is no sum of two lattice points
    res = find_gram(parse_poly("x^3*y + x^2*y^2", 2))
    assert res.status == "infeasible" and "not a sum of two candidate exponents" in res.detail


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
        assert res.status == "infeasible", f
        assert "forced to -" in res.detail or "not a sum of two candidate exponents" in res.detail
    assert bad >= 50


def test_find_gram_unique_cases():
    res = find_gram(parse_poly("x^2", 1))
    assert res.status == "found" and res.cert[0].rows == [[1]]
    res = find_gram(MPoly.constant(2, 4))
    assert res.status == "found"
    res = find_gram(MPoly.constant(1, -1))
    assert res.status == "infeasible"


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
    assert res.status == "found"
    assert verify_sos(target, res.cert)
    # on the face of their grid zeros these products have one Gram matrix each
    choi_lam = parse_poly("x^4*y^2 + y^4*z^2 + z^4*x^2 - 3*x^2*y^2*z^2", 3)
    for target in (motzkin * parse_poly("x^2 + y^2 + 1", 2), motzkin * parse_poly("x^2 + y^2", 2),
                   choi_lam * parse_poly("x^2 + y^2 + z^2", 3)):
        res = find_gram(target)
        assert (res.status, res.detail) == ("found", "unique Gram matrix")
        assert verify_sos(target, res.cert)


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


def test_verify_sos_checks_a_thousand_squares_within_budget():
    """1,000 weighted squares in 3 variables, degree <= 4 and 20 terms each:
    one integer accumulation checks them in well under a second (the square
    by square fold took 1.6 s on a 2-core VM); the target is the fold's."""
    rng = random.Random(113)
    monomials = monomials_upto(3, 4)
    cert = SosCert(tuple(
        (Fraction(rng.randint(1, 9), rng.randint(1, 4)),
         MPoly(3, {a: Fraction(rng.randint(-5, 5) or 1, rng.choice((1, 2))) for a in rng.sample(monomials, 20)}))
        for _ in range(1000)))
    f = expand_fold(cert, MPoly.zero(3))
    start = time.perf_counter()
    verdict = verify_sos(f, cert)
    assert time.perf_counter() - start < 0.6
    assert verdict
    assert verify_sos(f + 1, cert).reason == "expansion-mismatch"


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
        assert res.status != "infeasible"  # an SOS input may stall but can never be excluded
        if res.status == "found":
            hits += 1
            assert verify_sos(f, res.cert)
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
    cert = weighted_square_decomposition(*res.cert)
    doc = cert_to_json(cert) | {"target": poly_text(f)}
    loaded, target = cert_from_json(doc)
    assert target == f
    assert verify_sos(f, loaded)
    gram_doc = gram_to_json(*res.cert, f)
    loaded, target = cert_from_json(gram_doc)
    assert verify_sos(f, loaded)


def test_json_rationals_reads_plain_entries_and_names_the_others():
    """Integers and "p/q" strings become Fractions; any other entry, bool
    included, is an error naming the entry and its type."""
    values = arith.json_rationals([3, "-2/4", " 007 ", -10**30, "٣"], "v", "v entry")
    assert values == [3, Fraction(-1, 2), 7, -10**30, 3]
    assert all(type(x) is Fraction for x in values)
    for bad, name in ((True, "bool"), (1.5, "float"), (None, "NoneType"), ([1], "list")):
        with pytest.raises(ValueError) as err:
            arith.json_rationals([1, bad], "v", "v entry")
        assert str(err.value) == f"v entry must be a string or an integer, not {name}"
    with pytest.raises(ValueError, match="^v must be a list, not str$"):
        arith.json_rationals("1", "v", "v entry")
