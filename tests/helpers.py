"""Shared generators for the randomized suites (all seeded by the caller),
and the reference constructions the suites compare the library against."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ratsos.arith import Mat, _integer_rows, _pivot
from ratsos.poly import MPoly, UPoly
from ratsos.quadforms import DiagCongruence, SymMat, rank


#: rational literals that arith.rat and poly.parse_poly both read: signs,
#: blanks, leading zeros, decimal digits int() reads outside ASCII, 9- and
#: 10-digit runs, and 600-digit runs
LITERALS = ["+7", "-7", "  -12/34 ", "\t+0012/0034\n", "007", "-0", "0/5", "٣/٤", "١٢", "٠٠٧",
            "123456789", "1234567890", "-000000001/0000000002", "9" * 600, "-1/" + "9" * 600]


def rand_frac(rng, lo=-6, hi=6, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_upoly(rng, max_deg=5, lo=-5, hi=5) -> UPoly:
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.choice([-2, -1, 1, 2]))
    return UPoly(coeffs)


def rand_mpoly(rng, nvars=2, max_deg=3, max_terms=5, lo=-4, hi=4) -> MPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = rng.randint(lo, hi)
        if c:
            terms[alpha] = Fraction(c)
    return MPoly(nvars, terms)


def rand_symmetric_rows(rng, dim, lo=-4, hi=4):
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            v = Fraction(rng.randint(lo, hi))
            rows[i][j] = rows[j][i] = v
    return rows


def upoly_from_roots(roots, lc=Fraction(1)) -> UPoly:
    f = UPoly([lc])
    for r in roots:
        f = f * UPoly([-Fraction(r), Fraction(1)])
    return f


def gram_rank(vectors) -> int:
    """Rank of a list of rational vectors, as the rank of their Gram matrix.

    Computed by congruence diagonalization, never by row elimination, so it
    is an oracle independent of the elimination kernel in ratsos.arith.
    """
    if not vectors:
        return 0
    return rank(SymMat.from_rows([[sum(x * y for x, y in zip(a, b)) for b in vectors] for a in vectors]))


def planted_rows(rng, nrows, ncols, nbase, max_den=9):
    """(rows, planted): nbase random rows with mixed denominators plus random
    rational combinations of them inserted at random places, so the rank is
    at most nbase; planted lists the indices of the combination rows."""
    base = [[rand_frac(rng, max_den=max_den) for _ in range(ncols)] for _ in range(nbase)]
    rows = [(False, r) for r in base]
    while len(rows) < nrows:
        coeffs = [rand_frac(rng, -3, 3, max_den=7) for _ in base]
        combo = [sum((c * r[k] for c, r in zip(coeffs, base)), Fraction(0)) for k in range(ncols)]
        rows.insert(rng.randint(0, len(rows)), (True, combo))
    return [r for _, r in rows], [i for i, (is_combo, _) in enumerate(rows) if is_combo]


def identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matvec(a: Mat, v) -> list[Fraction]:
    """The product A v of a matrix and a vector of rationals."""
    return [sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0)) for row in a.rows]


def companion(f: UPoly) -> Mat:
    """Companion matrix of a monic polynomial: subdiagonal ones, last column -a_i."""
    if f.is_zero or not f.is_monic():
        raise ValueError("companion matrix requires a monic polynomial")
    d, coeffs = f.degree(), f.coeffs
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        if i + 1 < d:
            rows[i + 1][i] = Fraction(1)
        rows[i][d - 1] = -coeffs[i]
    return Mat(rows)


def upoly_mul_fold(a: UPoly, b: UPoly) -> UPoly:
    """a * b summed in Fractions over every pair of dense coefficients: the
    reference the one product kernel (``MPoly.__mul__``) is checked against."""
    if a.is_zero or b.is_zero:
        return UPoly()
    xs, ys = a.coeffs, b.coeffs
    res = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            res[i + j] += x * y
    return UPoly(res)


def expand_fold(cert, zero):
    """Sum of w * p^2 over the certificate's terms, one polynomial sum per
    square, UPoly squares by :func:`upoly_mul_fold`: the reference
    :meth:`ratsos.quadforms.SosCert.expand` is checked against."""
    acc = zero
    for w, p in cert.terms:
        acc = acc + (upoly_mul_fold(p, p) if isinstance(p, UPoly) else p * p) * w
    return acc


def gram_product_fold(m, monomials, nvars: int) -> MPoly:
    """v^T M v in nvars variables, summed in Fractions over every entry of M,
    both triangles: the reference :func:`ratsos.quadforms.gram_product` is
    checked against."""
    monomials = [tuple(a) for a in monomials]
    terms: dict = {}
    for alpha, row in zip(monomials, m.rows):
        for beta, c in zip(monomials, row):
            if c:
                key = tuple(x + y for x, y in zip(alpha, beta))
                terms[key] = terms.get(key, Fraction(0)) + c
    return MPoly(nvars, terms)


def diagonalize_row_scaled(m) -> DiagCongruence:
    """The congruence of :func:`ratsos.quadforms.diagonalize` run as
    ``arith._pivot`` steps on the full denominator-cleared rows, each column
    keeping its common factor: the reference the symmetric step on the
    upper triangle is checked against.  Entry (k, l) of the active block is
    prev * s_k times the Schur complement."""
    n = m.dim
    a, scales = _integer_rows(m.rows)
    active = list(range(n))
    prev = 1
    p_rows, d = [], []

    def form(r, c):
        row = [Fraction(0)] * n
        for k, x in zip(active, a[r]):
            row[k] = Fraction(x, a[r][c])
        return row

    while active:
        k = next((k for k in range(len(active)) if a[k][k]), None)
        if k is not None:
            p_rows.append(form(k, k))
            d.append(Fraction(a[k][k], prev * scales[active[k]]))
            _pivot(a, k, k, prev)
            prev, drop = a[k][k], (k,)
        else:
            pair = next(((i, j) for i, j in combinations(range(len(active)), 2) if a[i][j]), None)
            if pair is None:
                p_rows += [[Fraction(int(i == k)) for i in range(n)] for k in active]
                d += [Fraction(0)] * len(active)
                break
            i, j = pair
            h1, h2 = form(j, i), form(i, j)
            half = Fraction(a[i][j], 2 * prev * scales[active[i]])
            p_rows += [[x + y for x, y in zip(h1, h2)], [x - y for x, y in zip(h1, h2)]]
            d += [half, -half]
            _pivot(a, i, j, prev)
            _pivot(a, j, i, a[i][j])
            prev, drop = a[j][i], (j, i)
        for r in drop:
            del a[r], active[r]
            for row in a:
                del row[r]
    return DiagCongruence(Mat(p_rows), d)


def transpose(m: Mat) -> Mat:
    return Mat([[r[j] for r in m.rows] for j in range(m.ncols)])


def matmul(a: Mat, b: Mat) -> Mat:
    """The exact product a b, entry by entry."""
    assert a.ncols == b.nrows, "inner dimensions differ"
    return Mat([[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in transpose(b).rows] for r in a.rows])


def reassemble(cong) -> SymMat:
    """P^T diag(D) P for a congruence diagonalization (P, D)."""
    dp = Mat([[w * x for x in row] for w, row in zip(cong.d, cong.p.rows)])
    return SymMat.from_rows(matmul(transpose(cong.p), dp).rows)


@dataclass
class SdpaProblem:
    nvars: int
    block_sizes: list[int]
    objective: list[float]
    entries: dict  # (matno, blockno, i, j) -> float


def parse_sdpa(text: str) -> SdpaProblem:
    """Parse SDPA sparse text (as produced by :func:`ratsos.lasserre.emit_sdpa`)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith(("*", '"'))]
    nvars = int(lines[0].split()[0])
    nblocks = int(lines[1].split()[0])
    sizes = [abs(int(tok)) for tok in lines[2].split()]
    if len(sizes) != nblocks:
        raise ValueError("block size line does not match the block count")
    objective = [float(tok) for tok in lines[3].split()]
    entries = {}
    for ln in lines[4:]:
        matno, bno, i, j, val = ln.split()
        entries[(int(matno), int(bno), int(i), int(j))] = float(val)
    return SdpaProblem(nvars, sizes, objective, entries)
