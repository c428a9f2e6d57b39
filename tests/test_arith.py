import random
from fractions import Fraction

import pytest

from ratsos.arith import (
    DimensionError,
    Mat,
    _echelon,
    _integer_rows,
    affine_solution_set,
    charpoly,
    det,
    pivot_columns,
    rat,
    solve_linear,
)
from ratsos.poly import UPoly

from helpers import LITERALS, gram_rank, identity_rows, matvec, planted_rows, rand_frac


def cofactor_det(rows):
    """Independent determinant oracle by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)
    assert rat(" +2/6 ") == Fraction(1, 3)
    assert rat("٣") == 3  # any decimal digit, as int() reads it
    # the polynomial coefficient grammar with a sign, and nothing else Fraction reads
    for text in ["1.5", "1e-3", "1_000", "3 / 4", "- 7", "1/", "/2", "", "2²", "inf"]:
        with pytest.raises(ValueError):
            rat(text)
    for text in ["1/0", " -3/000 "]:
        with pytest.raises(ZeroDivisionError, match=f"^zero denominator in rational literal '{text.strip()}'$"):
            rat(text)
    for run in ["1" * 601, "1" * 5000]:  # past the parser's 600 digits, and past Python's default limit
        for text in [run, f"-1/{run}"]:
            with pytest.raises(ValueError, match="^rational literal with a number longer than 600 digits$"):
                rat(text)


def test_rat_matches_fraction_on_random_literals():
    """rat builds its value from the matched digit runs: the same rational as
    Fraction(text) on signed literals with leading zeros and blanks, and the
    same error where Fraction fails, save that a zero denominator's message
    names the text."""
    rng = random.Random(83)
    for _ in range(500):
        num = "0" * rng.randint(0, 3) + str(rng.randint(0, 10 ** rng.choice([1, 5, 40])))
        den = "0" * rng.randint(0, 3) + str(rng.randint(1, 10 ** rng.choice([1, 5, 40])))
        text = rng.choice(["", "+", "-"]) + num + rng.choice(["", "/" + den])
        padded = rng.choice(["", " "]) + text + rng.choice(["", "\t"])
        value = rat(padded)
        assert type(value) is Fraction and value == Fraction(text)
    for text in ["1/0", "-01/000", "1/"]:
        with pytest.raises(Exception) as expected:
            Fraction(text)
        with pytest.raises(expected.type) as got:
            rat(text)
        if expected.type is ZeroDivisionError:
            assert str(got.value) == f"zero denominator in rational literal {text!r}"
        else:
            assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="decimal point"):
        rat("1.5")  # which Fraction reads


#: (text, exception type, message) of every rat error on the same edges
RAT_ERRORS = [
    ("9" * 601, ValueError, "rational literal with a number longer than 600 digits"),
    ("1/" + "9" * 601, ValueError, "rational literal with a number longer than 600 digits"),
    ("1/0", ZeroDivisionError, "zero denominator in rational literal '1/0'"),
    (" -3/000 ", ZeroDivisionError, "zero denominator in rational literal '-3/000'"),
    ("3/", ValueError, "Invalid literal for Fraction: '3/'"),
    ("x^", ValueError, "Invalid literal for Fraction: 'x^'"),
    ("x65", ValueError, "Invalid literal for Fraction: 'x65'"),
    ("x^65", ValueError, "Invalid literal for Fraction: 'x^65'"),
    ("- 3", ValueError, "Invalid literal for Fraction: '- 3'"),
    ("  ", ValueError, "Invalid literal for Fraction: ''"),
    ("1/-2", ValueError, "Invalid literal for Fraction: '1/-2'"),
    ("1.5", ValueError, "decimal point forbidden in rational literal '1.5'"),
]


def test_rat_literal_values_and_errors():
    """An integer is built as Fraction(n) and a quotient as Fraction(n, d):
    either way the value is Fraction(text), of type Fraction, and each error
    keeps its type and text."""
    for text in LITERALS:
        value = rat(text)
        assert type(value) is Fraction and value == Fraction(text), text
    for n in (0, -3, 10**40):
        assert type(rat(n)) is Fraction and rat(n) == n
    for text, kind, message in RAT_ERRORS:
        with pytest.raises(kind) as err:
            rat(text)
        assert type(err.value) is kind and str(err.value) == message


def test_det_identity_and_permutation():
    assert det(Mat(identity_rows(3))) == 1
    assert det(Mat([[0, 1], [1, 0]])) == -1


def test_det_against_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(5)]
        assert det(Mat(rows)) == cofactor_det(rows)


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 6)
        a = Mat([[rand_frac(rng) for _ in range(n)] for _ in range(n)])
        b = Mat([[rand_frac(rng) for _ in range(n)] for _ in range(n)])
        assert det(a * b) == det(a) * det(b)


def test_det_singular_and_fractional():
    """det is 0 on singular matrices with fractional entries, and agrees with
    the cofactor oracle on random ones with a zero corner (a row swap)."""
    rng = random.Random(41)
    for n in range(1, 7):
        for _ in range(4):
            rows, _ = planted_rows(rng, n, n, rng.randint(0, n - 1))
            assert det(Mat(rows)) == 0 == cofactor_det(rows)
            rows = [[rand_frac(rng, -2, 2, max_den=9) for _ in range(n)] for _ in range(n)]
            rows[0][0] = Fraction(0)
            assert det(Mat(rows)) == cofactor_det(rows)


def test_det_rejects_non_square():
    with pytest.raises(DimensionError):
        det(Mat([[1, 2, 3], [4, 5, 6]]))


def test_echelon_is_reduced():
    """_echelon returns the fraction-free reduced form: on planted-rank rows
    with mixed denominators and zero columns, each pivot column is zero
    outside its pivot row, every pivot entry equals the last pivot, and the
    rows below the rank are zero."""
    rng = random.Random(43)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows, _ = planted_rows(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        for zero in rng.sample(range(ncols), rng.randint(0, ncols // 2)):
            for row in rows:
                row[zero] = Fraction(0)
        reduced, pivots, _ = _echelon(_integer_rows(rows)[0])
        rank = len(pivots)
        assert rank == gram_rank(rows)
        last = reduced[rank - 1][pivots[-1]] if pivots else None
        for k, c in enumerate(pivots):
            assert [row[c] for row in reduced] == [last if i == k else 0 for i in range(nrows)]
        assert not any(any(row) for row in reduced[rank:])


def test_charpoly_trivial_cases():
    assert charpoly(Mat([[0, 0], [0, 0]])) == UPoly([0, 0, 1])
    assert charpoly(Mat(identity_rows(2))) == UPoly([1, 2, 1])


def test_charpoly_symmetric_golden():
    m = Mat([[1, 0, 1], [0, -2, 1], [1, 1, 0]])
    assert charpoly(m).compose_neg() == UPoly([1, 4, -1, -1])  # -X^3 - X^2 + 4X + 1


def _symmetric_mat(rng, n, **frac) -> Mat:
    rows = [[rand_frac(rng, **frac) for _ in range(n)] for _ in range(n)]
    return Mat([[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


def test_charpoly_relations():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = _symmetric_mat(rng, n)
        plus = charpoly(m)
        assert plus.degree() == n
        assert plus.eval(0) == det(m)
    # only symmetric matrices are read: a non-symmetric border is an error
    with pytest.raises(ValueError, match="^characteristic polynomial of a non-symmetric matrix$"):
        charpoly(Mat([[1, 2, 0], [2, 1, 0], [1, 0, 1]]))
    with pytest.raises(DimensionError):
        charpoly(Mat([[1, 2]]))


def _shifted(m: Mat, t: Fraction) -> Mat:
    """M + t*I."""
    return Mat([[x + t if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.rows)])


def _assert_charpoly_matches_det(m: Mat, rng):
    n = m.nrows
    plus = charpoly(m)
    minus = plus.compose_neg()
    assert plus.degree() == minus.degree() == n
    ts = set()
    while len(ts) < n + 1:
        ts.add(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    for t in ts:
        assert plus.eval(t) == det(_shifted(m, t))
        assert minus.eval(t) == det(_shifted(m, -t))


def test_charpoly_against_determinant_oracle():
    """charpoly evaluated at n + 1 points equals the Bareiss det of M +/- t*I
    on symmetric matrices, with denominators that differ from entry to entry."""
    rng = random.Random(29)
    for n in range(10):
        for _ in range(3):
            _assert_charpoly_matches_det(_symmetric_mat(rng, n, lo=-9, hi=9, max_den=12), rng)
    n = 24
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    gram = Mat([[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)])
    _assert_charpoly_matches_det(gram, rng)


def test_solve_examples():
    assert solve_linear(Mat(identity_rows(2)), [3, Fraction(-1, 2)]) == [3, Fraction(-1, 2)]
    assert solve_linear(Mat([[1, 1], [2, 2]]), [1, 3]) is None


def test_solve_random_consistent_residual():
    rng = random.Random(17)
    for _ in range(20):
        a = Mat([[rand_frac(rng) for _ in range(6)] for _ in range(4)])
        x_true = [rand_frac(rng) for _ in range(6)]
        b = matvec(a, x_true)
        x = solve_linear(a, b)
        assert x is not None
        assert matvec(a, x) == b


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve_linear(Mat(identity_rows(2)), [1, 2, 3])


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(DimensionError):
        Mat.from_columns([[1, 0], [1, 0, 5]])
    with pytest.raises(DimensionError):
        Mat.from_columns([[1, 0, 5], [1, 0]])
    assert Mat.from_columns([[1, 2], [3, 4]]).rows == [[1, 3], [2, 4]]


def test_affine_solution_set():
    rng = random.Random(19)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 6)
        a = Mat([[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)])
        x_true = [rand_frac(rng) for _ in range(ncols)]
        b = matvec(a, x_true)
        sol = affine_solution_set(a, b)
        assert sol is not None
        particular, basis = sol
        assert matvec(a, particular) == b
        zero = [Fraction(0)] * nrows
        for v in basis:
            assert matvec(a, v) == zero
    assert affine_solution_set(Mat([[1, 1], [2, 2]]), [1, 3]) is None


def test_affine_solution_set_rank_deficient():
    """Mixed denominators and planted dependent rows: the basis has one vector
    per free column, each 1 on its own free column and 0 on the others, and
    a broken dependent equation makes the system inconsistent."""
    rng = random.Random(37)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows, planted = planted_rows(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        if rng.random() < 0.3:  # a zero column, skipped by the elimination
            zero = rng.randrange(ncols)
            for row in rows:
                row[zero] = Fraction(0)
        a = Mat(rows)
        b = matvec(a, [rand_frac(rng, max_den=6) for _ in range(ncols)])
        particular, basis = affine_solution_set(a, b)
        assert matvec(a, particular) == b
        assert len(basis) == ncols - gram_rank(rows)
        # a basis vector is zero right of its free column, since the reduced
        # row of a pivot is zero left of it
        free = [max(j for j, x in enumerate(v) if x != 0) for v in basis]
        assert free == sorted(set(free))
        for v, j in zip(basis, free):
            assert matvec(a, v) == [0] * nrows
            assert [v[k] for k in free] == [1 if k == j else 0 for k in free]
        assert all(particular[k] == 0 for k in free)
        assert matvec(a, solve_linear(a, b)) == b
        if planted:
            b[rng.choice(planted)] += Fraction(1, 3)
            assert affine_solution_set(a, b) is None
            assert solve_linear(a, b) is None


def test_exact_fraction_arithmetic():
    rng = random.Random(23)
    for _ in range(50):
        a, b = rand_frac(rng, max_den=50), rand_frac(rng, max_den=50)
        assert (a + b) - b == a
