import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsos import quadforms
from ratsos.arith import Mat, charpoly, det, pivot_columns
from ratsos.poly import MPoly, UPoly, parse_poly
from ratsos.quadforms import (
    CertificateError,
    SosCert,
    SymMat,
    diagonalize,
    gram_product,
    inertia,
    is_psd,
    is_psd_via_diagonal,
    is_psd_via_minors,
    rank,
    signature,
    signature_via_descartes,
    weighted_square_decomposition,
)
from ratsos.rootcount import hermite_form

from helpers import (
    diagonalize_row_scaled,
    expand_fold,
    gram_product_fold,
    identity_rows,
    matmul,
    rand_symmetric_rows,
    reassemble,
    transpose,
    upoly_from_roots,
)

HYPERBOLIC_EXAMPLE = [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]]


def test_symmat_rejects_asymmetric():
    with pytest.raises(ValueError, match="^matrix is not symmetric$"):
        SymMat.from_rows([[1, 2], [3, 4]])
    for rows in ([[1, 2, 3], [2, 1, 1]], [[1, 2], [2]]):  # ragged rows are not square, too
        with pytest.raises(ValueError, match="^matrix is not square$"):
            SymMat.from_rows(rows)
    with pytest.raises(ValueError, match="^upper triangle has wrong length$"):
        SymMat(2, [1, 2])


def test_diagonalize_hyperbolic_example():
    m = SymMat.from_rows(HYPERBOLIC_EXAMPLE)
    cong = diagonalize(m)
    signs = sorted(1 if x > 0 else -1 if x < 0 else 0 for x in cong.d)
    assert signs == [-1, -1, 1, 1]
    assert reassemble(cong) == m
    assert det(cong.p) != 0
    assert rank(m) == 4 and signature(m) == 0


@pytest.mark.parametrize("rows, d, p", [
    # hyperbolic split first, then a diagonal pivot
    (HYPERBOLIC_EXAMPLE, ["1/2", "-1/2", "-2", "1/2"],
     [["1", "1", "2", "0"], ["1", "-1", "0", "0"], ["0", "0", "1", "-1/2"], ["0", "0", "0", "1"]]),
    # a diagonal pivot, then a hyperbolic split over rows scaled by 6, 5 and 45
    ([["1/2", 1, "1/3"], [1, 2, "1/5"], ["1/3", "1/5", "2/9"]], ["1/2", "-7/30", "7/30"],
     [["1", "2", "2/3"], ["0", "1", "1"], ["0", "1", "-1"]]),
    # a zero tail after one pivot
    ([[2, 1, 0], [1, "1/2", 0], [0, 0, 0]], ["2", "0", "0"],
     [["1", "1/2", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
])
def test_diagonalize_golden(rows, d, p):
    cong = diagonalize(SymMat.from_rows(rows))
    assert [str(x) for x in cong.d] == d
    assert [[str(x) for x in row] for row in cong.p.rows] == p


_FRACS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 9))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_FRACS, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))))
def test_symmat_is_a_symmetric_mat(case):
    n, upper = case
    m = SymMat(n, upper)
    full = Mat(m.rows)
    assert isinstance(m, Mat) and m.dim == m.nrows == m.ncols == n
    assert transpose(m) == m
    assert SymMat.from_rows(m.rows) == m
    assert [m[i, j] for i in range(n) for j in range(i, n)] == upper
    assert (charpoly(m), det(m), pivot_columns(m)) == (charpoly(full), det(full), pivot_columns(full))
    assert signature_via_descartes(m) == signature(m)


@st.composite
def _symmetric_rows(draw):
    """Symmetric rows up to 7x7 with mixed row denominators, biased toward
    zero diagonals, low rank B^T D B and a hyperbolic step after a pivot."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["zero-diagonal", "low-rank", "pivot-then-hyperbolic"]))
    if kind == "low-rank":
        r = draw(st.integers(0, n))
        b = draw(st.lists(st.lists(_FRACS, min_size=n, max_size=n), min_size=r, max_size=r))
        w = draw(st.lists(_FRACS.filter(bool), min_size=r, max_size=r))
        return [[sum((wk * bk[i] * bk[j] for wk, bk in zip(w, b)), Fraction(0)) for j in range(n)]
                for i in range(n)]
    upper = draw(st.lists(_FRACS, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    rows = [list(r) for r in SymMat(n, upper).rows]
    for i in range(n):
        if kind == "pivot-then-hyperbolic" or draw(st.booleans()):
            rows[i][i] = Fraction(0)
    if kind == "pivot-then-hyperbolic":
        # border a zero-diagonal Z by a pivot a: the Schur complement is Z again
        a = draw(_FRACS.filter(bool))
        v = rows[0][1:]
        rows = [[a] + v] + [[x] + [z + x * y / a for z, y in zip(row[1:], v)]
                            for x, row in zip(v, rows[1:])]
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_symmetric_rows())
def test_diagonalize_fuzz(rows):
    m = SymMat.from_rows(rows)
    cong = diagonalize(m)
    assert reassemble(cong) == m
    assert det(cong.p) != 0
    pos = sum(1 for x in cong.d if x > 0)
    neg = sum(1 for x in cong.d if x < 0)
    h = charpoly(m).compose_neg()
    zero_mult = next(i for i, c in enumerate(h.coeffs) if c != 0)
    assert (pos - neg, pos + neg) == (signature_via_descartes(m), m.dim - zero_mult)


def _reference_cases(rng, den_choices=(1, 2, 3, 4, 6, 9)):
    """Symmetric matrices with row and column denominators drawn from
    den_choices: plain, zero-diagonal (every first step a hyperbolic split),
    with a zero column, and of low rank."""
    for kind in ("plain", "zero-diagonal", "zero-column", "low-rank") * 60:
        n = rng.randint(1, 8)
        dens = [rng.choice(den_choices) for _ in range(n)]
        rows = [[Fraction(0)] * n for _ in range(n)]
        if kind == "low-rank":
            for _ in range(rng.randint(0, n - 1)):
                b = [Fraction(rng.randint(-3, 3), den) for den in dens]
                w = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
                rows = [[x + w * bi * bj for x, bj in zip(row, b)] for row, bi in zip(rows, b)]
        else:
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.7 and not (kind == "zero-diagonal" and i == j):
                        rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9), dens[i] * dens[j])
        if kind == "zero-column":
            k = rng.randrange(n)
            for i in range(n):
                rows[i][k] = rows[k][i] = Fraction(0)
        yield SymMat.from_rows(rows)


#: Matrices for each branch of the symmetric congruence step, checked to
#: reach it by test_diagonalize_matches_the_row_scaled_reference.
BRANCH_CASES = {
    "a zero leading diagonal entry before a nonzero one": [
        [[0, 1, 0], [1, 2, 1], [0, 1, 3]],
        [[0, 0, "1/3", 1], [0, 0, "1/2", 0], ["1/3", "1/2", "5/7", 1], [1, 0, 1, 2]],
        [[0, "1/10", 0, 0], ["1/10", 0, "3/100", 0], [0, "3/100", "7/1000", 1], [0, 0, 1, 0]],
    ],
    "a hyperbolic split that leaves a non-empty remainder": [
        HYPERBOLIC_EXAMPLE,
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        [[0, "2/7", "1/11", 3], ["2/7", 0, "5/13", 0], ["1/11", "5/13", 0, "1/3"], [3, 0, "1/3", 0]],
    ],
    "two hyperbolic splits in a row": [
        [[0, "1/2", 1, 0], ["1/2", 0, 0, "1/3"], [1, 0, 0, "2/5"], [0, "1/3", "2/5", 0]],
        [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]],
        [[0, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0],
         [0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 0]],
    ],
    "an identically zero remainder": [
        [[0, 0], [0, 0]],
        [[2, 1, 0], [1, "1/2", 0], [0, 0, 0]],
        [[0, "1/7", 0], ["1/7", 0, 0], [0, 0, 0]],
        [["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"], ["1/3", "1/3", "1/3"]],
    ],
}


def _branches(m, calls) -> set[str]:
    """The branches of BRANCH_CASES that one diagonalization reached, from
    the (i, j, active size) of each call of the symmetric step."""
    reached, eliminated = set(), 0
    for k, (i, j, size) in enumerate(calls):
        if i == j and i > 0:
            reached.add("a zero leading diagonal entry before a nonzero one")
        if i < j and size > 2:
            reached.add("a hyperbolic split that leaves a non-empty remainder")
        if i < j and k and calls[k - 1][0] < calls[k - 1][1]:
            reached.add("two hyperbolic splits in a row")
        eliminated += 1 if i == j else 2
    if eliminated < m.dim:
        reached.add("an identically zero remainder")
    return reached


def _rank_deficient_hermite_forms(rng):
    """Hermite forms of degree 2-24 with a double rational root and, from
    degree 5, a complex pair, repeated from degree 7, so the rank is below
    the degree."""
    for deg in range(2, 25):
        roots = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 10])) for _ in range(deg // 4 + 1)]
        f = upoly_from_roots([roots[0], *roots])
        quad = UPoly([Fraction(rng.randint(2, 9), rng.choice([1, 2])), Fraction(rng.randint(-1, 1)), Fraction(1)])
        while f.degree() + 2 <= deg:
            f = f * quad
        while f.degree() < deg:
            f = f * upoly_from_roots([rng.choice(roots)])
        m = hermite_form(f).matrix
        assert m.dim == deg and rank(m) < deg
        yield m


def test_diagonalize_matches_the_row_scaled_reference(monkeypatch):
    """The symmetric step on the upper triangle leaves P and D as the
    row-scaled elimination has them: on random matrices with mixed, power of
    10 and coprime denominators, the hyperbolic examples, a case set for
    each branch of the step (each checked to reach it), and the Hankel trace
    forms of rational-root polynomials of degree 1-24, repeated roots
    included, and of rank-deficient ones with a repeated complex pair."""
    rng = random.Random(89)
    mats = [SymMat.from_rows(rows) for rows in ([], [[0, 0], [0, 0]], HYPERBOLIC_EXAMPLE,
                                                [[0, "1/6", 0], ["1/6", 0, "1/4"], [0, "1/4", 0]])]
    mats += _reference_cases(rng)
    for deg in range(1, 25):
        roots = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 5])) for _ in range(deg)]
        roots[-1] = roots[0]
        mats.append(hermite_form(upoly_from_roots(roots)).matrix)
    mats += _reference_cases(rng, (1, 10, 100, 1000))
    mats += _reference_cases(rng, (1, 7, 11, 13, 17))
    mats += _rank_deficient_hermite_forms(rng)
    calls = []
    step = quadforms._symmetric_step
    monkeypatch.setattr(quadforms, "_symmetric_step",
                        lambda tri, i, j, prev: calls.append((i, j, len(tri))) or step(tri, i, j, prev))

    def check(m):
        calls.clear()
        cong, ref = diagonalize(m), diagonalize_row_scaled(m)
        assert cong.p == ref.p and cong.d == ref.d
        assert reassemble(cong) == m
        return _branches(m, calls)

    for m in mats:
        check(m)
    for branch, cases in BRANCH_CASES.items():
        for rows in cases:
            assert branch in check(SymMat.from_rows(rows)), (branch, rows)


def test_congruence_integers_no_longer_than_on_the_integer_hankel_matrix(monkeypatch):
    """The Hankel trace form H of a degree-16 f with the roots 1/2 and -1/3 is
    congruent to the integer Hankel matrix T_(i+j) = L^(i+j) tr(C_f^(i+j)),
    L the lcm of the denominators of f, by diag(L^i).  Row and column i of H
    clear by the same L^(d-1+i), so H clears to L^(2d-2) T, and the one gcd
    strips those powers of L: the symmetric step meets no integer longer
    than it does on T, neither on its input triangle nor on its output."""
    f = upoly_from_roots([Fraction(1, 2), Fraction(-1, 3), *range(-7, 0), *range(1, 8)])
    scale, d = lcm(*(c.denominator for c in f.coeffs)), f.degree()
    data = hermite_form(f)
    traces = [t * scale**k for k, t in enumerate(data.traces)]
    assert all(t.denominator == 1 for t in traces)
    integer_hankel = SymMat(d, [traces[i + j] for i in range(d) for j in range(i, d)])
    seen = []
    step = quadforms._symmetric_step

    def bits(tri):
        return max((abs(x).bit_length() for row in tri for x in row), default=0)

    def recording(tri, i, j, prev):
        seen.append(bits(tri))
        out = step(tri, i, j, prev)
        seen.append(max(bits(tri), abs(out[0]).bit_length()))
        return out

    monkeypatch.setattr(quadforms, "_symmetric_step", recording)

    def longest(m):
        seen.clear()
        assert signature(m) == d
        assert len(seen) == 2 * d
        return max(seen)

    assert longest(data.matrix) <= longest(integer_hankel)


def test_inertia_builds_no_row_of_p(monkeypatch):
    """The rows of P are built once, when ``p`` is first read, and never for
    the signs of D alone."""
    calls = []
    p_rows = quadforms._p_rows
    monkeypatch.setattr(quadforms, "_p_rows", lambda *args: calls.append(args) or p_rows(*args))
    m = SymMat.from_rows(HYPERBOLIC_EXAMPLE)
    assert inertia(m) == (2, 2, 0) and signature(m) == 0 and rank(m) == 4
    assert calls == []
    cong = diagonalize(m)
    assert cong.p is cong.p and len(calls) == 1
    assert reassemble(cong) == m


def test_diagonalize_identity():
    cong = diagonalize(SymMat.from_rows(identity_rows(3)))
    assert all(x > 0 for x in cong.d)


def test_diagonalize_random_residual():
    rng = random.Random(31)
    for _ in range(25):
        m = SymMat.from_rows(rand_symmetric_rows(rng, 5))
        cong = diagonalize(m)
        assert reassemble(cong) == m
        assert det(cong.p) != 0


def test_signature_identity_matrix():
    for n in (1, 2, 4):
        m = SymMat.from_rows(identity_rows(n))
        assert signature(m) == n and rank(m) == n


def test_sylvester_consistency_under_congruence():
    # congruent matrices share rank and signature
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randint(2, 5)
        m = SymMat.from_rows(rand_symmetric_rows(rng, n))
        while True:
            q = Mat([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
            if det(q) != 0:
                break
        conj = matmul(matmul(transpose(q), m), q)
        m2 = SymMat.from_rows(conj.rows)
        assert signature(m2) == signature(m)
        assert rank(m2) == rank(m)


def test_signature_dual_method_agreement():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 8)
        m = SymMat.from_rows(rand_symmetric_rows(rng, n))
        assert signature(m) == signature_via_descartes(m)


def test_psd_golden_cases():
    gram = SymMat.from_rows([[2, 1, -3], [1, 5, 0], [-3, 0, 5]])
    assert is_psd(gram)
    assert not is_psd(SymMat.from_rows([[1, 0], [0, -1]]))


def test_psd_gram_construction():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = Mat([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(1, 5))])
        m = SymMat.from_rows(matmul(transpose(a), a).rows)
        assert is_psd(m)


def test_psd_three_way_agreement():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = rand_symmetric_rows(rng, n)
        if rng.random() < 0.5:  # bias toward psd instances
            a = Mat(rows)
            rows = matmul(transpose(a), a).rows
        m = SymMat.from_rows(rows)
        e = is_psd(m)
        assert e == is_psd_via_diagonal(m) == is_psd_via_minors(m)


def test_psd_agreement_at_benchmark_scale():
    """Dim 20-28 Gram matrices B^T B and non-psd twins: is_psd agrees with the diagonal.

    A twin moves weight w from G[a][a] to G[b][c] (x*x and 1*x^2 in a monomial
    basis), which keeps v^T G v.  w = G[a][a] leaves a negative diagonal entry;
    w = G[a][a] / 8 keeps every diagonal entry positive and still breaks psd.
    """
    rng = random.Random(59)
    for n in (20, 24, 28):
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for r in range(n):
            b[r][r] = rng.choice((3, 4))
        gram = [[Fraction(sum(row[i] * row[j] for row in b)) for j in range(n)] for i in range(n)]
        if n != 24:
            # congruence by diag(1/d_i) keeps psd and mixes denominators
            d = [rng.randint(1, 6) for _ in range(n)]
            gram = [[x / (d[i] * d[j]) for j, x in enumerate(row)] for i, row in enumerate(gram)]
        a, p, q = 1, 0, 3
        for share, expected in ((0, True), (Fraction(1, 8), False), (1, False)):
            w = gram[a][a] * share
            twin = [row[:] for row in gram]
            twin[a][a] -= 2 * w
            twin[p][q] += w
            twin[q][p] += w
            m = SymMat.from_rows(twin)
            assert is_psd(m) == is_psd_via_diagonal(m) == expected


def _cleared(rows, a):
    """rows with row and column a set to zero."""
    return [[Fraction(0) if a in (i, j) else x for j, x in enumerate(row)] for i, row in enumerate(rows)]


def _diagonal_kinds(rng):
    """(kind, rows) on small symmetric rationals: a negative diagonal entry, a
    zero one in a nonzero row (both not psd), a zero one in a zero row (psd
    or not), and a singular Gram matrix with a positive diagonal (psd) with
    its twin of test_psd_agreement_at_benchmark_scale at share 1/8 (not psd,
    diagonal still positive)."""
    for _ in range(12):
        n = rng.randint(3, 6)
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        gram = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        a = rng.randrange(n)
        rows = [row[:] for row in gram]
        rows[a][a] = -Fraction(rng.randint(1, 9), rng.randint(1, 4))
        yield "negative", rows
        rows = _cleared(gram, a)
        c = rng.choice([k for k in range(n) if k != a])
        rows[a][c] = rows[c][a] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        yield "zero-in-nonzero-row", rows
        yield "zero-row", _cleared(gram, a)  # psd: a Gram matrix with row and column a cleared
        other = rand_symmetric_rows(rng, n)
        for r in range(n):
            other[r][r] = abs(other[r][r]) + 1
        yield "zero-row", _cleared(other, a)
        # a Gram matrix of rank n - 2 with no zero column: it and its twin keep
        # a positive diagonal, so only Berkowitz decides them
        b = [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(n)] for _ in range(n - 2)]
        gram = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        yield "gram", gram
        p, q = rng.sample([k for k in range(n) if k != a], 2)
        w = gram[a][a] / 8
        twin = [row[:] for row in gram]
        twin[a][a] -= 2 * w
        twin[p][q] += w
        twin[q][p] += w
        yield "twin", twin


def test_psd_diagonal_check_agrees_and_skips_berkowitz(monkeypatch):
    """is_psd reads the diagonal before Berkowitz: on every kind, its verdict
    agrees with the minors, the congruence diagonal and the Berkowitz test
    alone, and det(M + X*I) is computed exactly when the diagonal does not
    reject the matrix."""
    calls = []
    monkeypatch.setattr(quadforms, "charpoly", lambda m: calls.append(m) or charpoly(m))
    verdicts = {}
    for kind, rows in _diagonal_kinds(random.Random(89)):
        m = SymMat.from_rows(rows)
        calls.clear()
        verdict = is_psd(m)
        rejected = kind in ("negative", "zero-in-nonzero-row")
        assert len(calls) == (0 if rejected else 1), kind
        berkowitz = all(c >= 0 for c in charpoly(m).coeffs)
        assert verdict == berkowitz == is_psd_via_minors(m) == is_psd_via_diagonal(m), (kind, rows)
        if kind == "twin":
            assert all(row[i] > 0 for i, row in enumerate(rows))
        verdicts.setdefault(kind, set()).add(verdict)
    assert verdicts == {
        "negative": {False},
        "zero-in-nonzero-row": {False},
        "zero-row": {False, True},
        "gram": {True},
        "twin": {False},
    }


def test_rank_equals_dim_minus_zero_multiplicity():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = SymMat.from_rows(rand_symmetric_rows(rng, n, lo=-2, hi=2))
        h = charpoly(m).compose_neg()
        zero_mult = next(i for i, c in enumerate(h.coeffs) if c != 0)
        assert rank(m) == n - zero_mult


def test_weighted_square_decomposition_golden():
    f = parse_poly("2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y", 2)
    v = [(2, 0), (1, 1), (0, 2)]
    gram = SymMat.from_rows([[2, 1, -3], [1, 5, 0], [-3, 0, 5]])
    cert = weighted_square_decomposition(gram, v)
    assert len(cert.terms) == rank(gram) == 2
    assert cert.expand(parse_poly("0", 2)) == f


def test_weighted_square_decomposition_zero_matrix():
    cert = weighted_square_decomposition(SymMat.from_rows([[0] * 3] * 3), [(1, 0), (0, 1), (0, 0)])
    assert len(cert.terms) == 0


def test_weighted_square_decomposition_random_psd():
    rng = random.Random(59)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = Mat([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        m = SymMat.from_rows(matmul(transpose(a), a).rows)
        v = [tuple(rng.randint(0, 2) for _ in range(2)) for _ in range(n)]
        # monomials must be distinct for the certificate to expand cleanly
        if len(set(v)) != n:
            continue
        cert = weighted_square_decomposition(m, v)
        assert cert.expand(parse_poly("0", 2)) == gram_product(m, v, 2)
        assert all(w >= 0 for w, _ in cert.terms)


def _big_frac(rng, zero_share=0.0) -> Fraction:
    """A rational with numerator and denominator up to 10^30, or 0."""
    if rng.random() < zero_share:
        return Fraction(0)
    top = 10 ** rng.choice([0, 1, 3, 30])
    return Fraction(rng.randint(-top, top), rng.randint(1, 10 ** rng.choice([0, 2, 30])))


def _normal_form(f: MPoly) -> bool:
    return all(type(a) is tuple and len(a) == f.nvars and all(type(e) is int for e in a)
               and type(c) is Fraction and c != 0 for a, c in f.terms.items())


def test_expand_matches_the_fold():
    """The one integer accumulation of SosCert.expand equals the sum of the
    squares one at a time, on 0-4 variables, zero weights and polynomials,
    full cancellation, the empty certificate, denominators up to 10^30."""
    rng = random.Random(71)
    certs = [(SosCert(()), n) for n in range(5)]
    p = parse_poly("1/3*x - 2/7*y + 5", 2)
    certs.append((SosCert(((Fraction(3, 4), p), (Fraction(-3, 4), p))), 2))  # cancels to 0
    for _ in range(60):
        nvars = rng.randint(0, 4)
        terms = []
        for _ in range(rng.randint(0, 6)):
            poly = MPoly(nvars, {tuple(rng.randint(0, 3) for _ in range(nvars)): _big_frac(rng)
                                 for _ in range(rng.randint(0, 5))})
            terms.append((_big_frac(rng, zero_share=0.2), poly))
        certs.append((SosCert(tuple(terms)), nvars))
    for cert, nvars in certs:
        got = cert.expand(MPoly.zero(nvars))
        assert got == expand_fold(cert, MPoly.zero(nvars)) and got.nvars == nvars and _normal_form(got)
    assert certs[5][0].expand(MPoly.zero(2)).is_zero
    with pytest.raises(ValueError):
        SosCert(((Fraction(1), parse_poly("x", 1)),)).expand(MPoly.zero(2))


def test_expand_on_univariate_terms_matches_the_fold():
    rng = random.Random(73)
    x = UPoly.x()
    one, two = Fraction(1), Fraction(-2)
    certs = [SosCert(()), SosCert(((Fraction(0), x), (Fraction(2), UPoly.zero()))),
             SosCert(((one, x + 1), (one, x - 1), (two, x), (two, UPoly.one())))]  # cancels to 0
    for _ in range(40):
        polys = [UPoly([_big_frac(rng, zero_share=0.3) for _ in range(rng.randint(0, 6))])
                 for _ in range(rng.randint(0, 5))]
        certs.append(SosCert(tuple((_big_frac(rng, zero_share=0.2), p) for p in polys)))
    for cert in certs:
        got = cert.expand(UPoly.zero())
        assert isinstance(got, UPoly) and got == expand_fold(cert, UPoly.zero())
    assert certs[1].expand(UPoly.zero()).is_zero and certs[2].expand(UPoly.zero()).is_zero


def test_gram_product_matches_the_fold():
    """gram_product's integer sum over the upper triangle equals the entry by
    entry Fraction sum over all of M, repeated monomials and cancellation included."""
    rng = random.Random(79)
    cases = [(SymMat.from_rows([]), [], 2),
             # 2*x^2 - 2*x^2: every term cancels
             (SymMat.from_rows([[0, 0, 1], [0, -2, 0], [1, 0, 0]]), [(0,), (1,), (2,)], 1)]
    for _ in range(60):
        nvars, dim = rng.randint(0, 4), rng.randint(1, 7)
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = _big_frac(rng, zero_share=0.3)
        monomials = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(dim)]
        cases.append((SymMat.from_rows(rows), monomials, nvars))
    for m, monomials, nvars in cases:
        got = gram_product(m, monomials, nvars)
        assert got == gram_product_fold(m, monomials, nvars) and _normal_form(got)
    assert gram_product(*cases[1]).is_zero
    with pytest.raises(ValueError, match=r"exponent vector \(0, 1, 0\)"):
        gram_product(SymMat.from_rows([[1, 0], [0, 1]]), [(1, 0), (0, 1, 0)], 2)


def test_gram_product_of_no_monomials_has_the_given_variables():
    """An empty monomial vector gives the zero polynomial in the variables
    asked for, so it combines with the caller's own polynomials."""
    product = MPoly.constant(2, 1) * gram_product(SymMat(0, []), [], 2)
    assert product == MPoly.zero(2)


def test_weighted_square_decomposition_requires_psd():
    with pytest.raises(CertificateError):
        weighted_square_decomposition(SymMat.from_rows([[1, 0], [0, -1]]), [(1, 0), (0, 1)])
    with pytest.raises(CertificateError):
        # a positive diagonal, yet not psd
        weighted_square_decomposition(SymMat.from_rows([[1, 2], [2, 1]]), [(1, 0), (0, 1)])
    for build in (weighted_square_decomposition, lambda m, v: gram_product(m, v, 1)):
        with pytest.raises(ValueError, match="^monomial vector has length 2, expected 1$"):
            build(SymMat.from_rows([[1]]), [(0,), (1,)])


def test_inertia_counts():
    m = SymMat.from_rows([[1, 0, 0], [0, -2, 0], [0, 0, 0]])
    assert inertia(m) == (1, 1, 1)
