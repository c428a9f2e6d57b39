import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsos.poly import (
    MAX_DIGITS,
    MAX_VARIABLES,
    MPoly,
    NEG_INF,
    PolyParseError,
    UPoly,
    gcd_upoly,
    infer_nvars,
    parse_poly,
    parse_upoly,
    poly_text,
    sign_changes,
)

from helpers import LITERALS, rand_frac, rand_mpoly, rand_upoly, upoly_from_roots, upoly_mul_fold


def test_parse_motzkin():
    f = parse_poly("x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1", 2)
    assert len(f.terms) == 4
    assert f.coeff((4, 2)) == 1
    assert f.coeff((2, 2)) == -3
    assert f.coeff((0, 0)) == 1


def test_parse_zero_and_fractions():
    assert parse_poly("0", 3).is_zero
    f = parse_poly("1/2*x1 - x2^3", 2)
    assert f.coeff((1, 0)) == Fraction(1, 2)
    assert f.coeff((0, 3)) == -1


def test_parse_implicit_star_and_aliases():
    assert parse_poly("2x", 1) == parse_poly("2*x1", 1)
    assert parse_poly("x y z", 3) == parse_poly("x1*x2*x3", 3)
    assert parse_poly("*x") == parse_poly("x")
    assert parse_poly("xy") == parse_poly("x*y")
    assert parse_poly("2 x") == parse_poly("2*x")
    assert parse_poly("x12") == MPoly.monomial((0,) * 11 + (1,))
    assert parse_poly("x^٣") == parse_poly("x^3")  # any decimal digit, as int() reads it


#: (text, nvars) -> (message, position) for every error branch of the parser;
#: the last five rows are an index above the cap and digits int() cannot read
PARSE_ERRORS = [
    ("", 1, "expected a term", 0),
    ("  ", None, "expected a term", 2),
    ("x + @", 1, "expected a term", 4),
    ("x +", None, "expected a term", 3),
    ("- -x", None, "expected a term", 2),
    ("2 3", None, "unexpected character '3'", 2),
    ("2 /3", None, "unexpected character '/'", 2),
    ("x y)", None, "unexpected character ')'", 3),
    ("2^3", None, "unexpected character '^'", 1),
    ("x^ 2", None, "expected a number", 2),
    ("x^", 1, "expected a number", 2),
    ("2/ 3", None, "expected a number", 2),
    ("x + 2/", None, "expected a number", 6),
    ("1/0", 1, "zero denominator", 2),
    ("x - 3/00*y", None, "zero denominator", 6),
    ("x*", None, "expected a variable", 2),
    ("2 * + y", None, "expected a variable", 4),
    ("x0", None, "unknown variable x0 with 1 variable(s)", 0),
    ("x + y", 1, "unknown variable x2 with 1 variable(s)", 4),
    ("x*z", 2, "unknown variable x3 with 2 variable(s)", 2),
    ("x4^2", 3, "unknown variable x4 with 3 variable(s)", 0),
    ("x^65", 1, "exponent 65 exceeds the cap 64", 2),
    ("y^0065", None, "exponent 65 exceeds the cap 64", 2),
    ("x^40*x^30", None, "accumulated exponent exceeds the cap 64", 5),
    ("x^64 y x", None, "accumulated exponent exceeds the cap 64", 7),
    ("x65", None, "variable x65 exceeds the cap 64", 0),
    ("x + x65^2", 3, "variable x65 exceeds the cap 64", 4),
    ("x²", None, "unexpected character '²'", 1),
    ("2²*x", None, "unexpected character '²'", 1),
    ("x^²", None, "expected a number", 2),
]


@pytest.mark.parametrize("text,nvars,message,position", PARSE_ERRORS)
def test_parse_errors_carry_position(text, nvars, message, position):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, nvars)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_variable_cap():
    assert infer_nvars("x99999999 + y") == MAX_VARIABLES
    assert parse_poly(f"x{MAX_VARIABLES}").nvars == MAX_VARIABLES
    with pytest.raises(PolyParseError) as err:
        parse_poly("1 + x99999999")  # no exponent vector of that length is built
    assert err.value.position == 4
    with pytest.raises(ValueError):
        parse_poly("x", MAX_VARIABLES + 1)


#: a digit run just past MAX_DIGITS, which int() reads under every interpreter
#: limit (never below 640 digits), and one past Python's default limit of 4300
LONG_RUNS = ["1" * (MAX_DIGITS + 1), "1" * 5000]


@pytest.mark.parametrize("run", LONG_RUNS, ids=["past-MAX_DIGITS", "past-default-int-limit"])
def test_long_digit_runs_get_parse_errors(run):
    for text, message, position in [
        (f"x{run}", f"variable x{run} exceeds the cap {MAX_VARIABLES}", 0),
        (f"y^{run}", f"exponent {run} exceeds the cap 64", 2),
        (f"{run}*x", f"number longer than {MAX_DIGITS} digits", 0),
        (f"x + 1/{run}", f"number longer than {MAX_DIGITS} digits", 6),
    ]:
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert str(err.value) == f"{message} (at position {position})"
    assert infer_nvars(f"x{run} + y") == MAX_VARIABLES


def test_digit_runs_up_to_the_limit_are_read():
    run = "9" * MAX_DIGITS
    assert parse_poly(f"{run}/{run}*x - 1/{run}") == parse_poly(f"x - 1/{run}")
    assert parse_poly(f"{run}*x").coeff((1,)) == 10**MAX_DIGITS - 1
    zeros = "0" * 5000  # an index or exponent is read by its value
    assert parse_poly(f"x{zeros}2^{zeros}3") == parse_poly("y^3")


def test_parse_literal_values():
    """A coefficient is Fraction(text) of its literal, stored as a Fraction,
    alone and before a factor; index and exponent runs read the same with
    leading zeros and in any decimal digit."""
    for text in LITERALS:
        for poly, alpha in ((text, (0,)), (text.strip() + "*x", (1,))):
            f = parse_poly(poly, 1)
            assert f.coeff(alpha) == Fraction(text) and all(type(c) is Fraction for c in f.terms.values())
    for text in ["x000000003", "x0000000003", "x٣", "x٠٠٠٠٠٠٠٠٠٣"]:
        assert parse_poly(text) == parse_poly("z")
    for text in ["x^000000064", "x^0000000064", "x^٦٤", "x^٠٠٠٠٠٠٠٠٠٦٤"]:
        assert parse_poly(text) == MPoly.monomial((64,))


#: (text, message, position) of parser errors on literal edges, and on index
#: and exponent runs over the cap, with and without leading zeros
LITERAL_ERRORS = [
    ("9" * 601, "number longer than 600 digits", 0),
    ("1/" + "9" * 601, "number longer than 600 digits", 2),
    ("1/0", "zero denominator", 2),
    ("3/", "expected a number", 2),
    ("x^", "expected a number", 2),
    ("1/-2", "expected a number", 2),
    ("x65", "variable x65 exceeds the cap 64", 0),
    ("x٦٥", "variable x٦٥ exceeds the cap 64", 0),
    ("x000000065", "variable x65 exceeds the cap 64", 0),
    ("x0000000065", "variable x65 exceeds the cap 64", 0),
    ("x999999999", "variable x999999999 exceeds the cap 64", 0),
    ("x9999999999", "variable x9999999999 exceeds the cap 64", 0),
    ("x^65", "exponent 65 exceeds the cap 64", 2),
    ("x^٦٥", "exponent ٦٥ exceeds the cap 64", 2),
    ("x^٠٦٥", "exponent ٠٦٥ exceeds the cap 64", 2),
    ("x^000000065", "exponent 65 exceeds the cap 64", 2),
    ("x^0000000065", "exponent 65 exceeds the cap 64", 2),
    ("x^999999999", "exponent 999999999 exceeds the cap 64", 2),
    ("x^9999999999", "exponent 9999999999 exceeds the cap 64", 2),
    ("  ", "expected a term", 2),
    ("1.5", "unexpected character '.'", 1),
]


@pytest.mark.parametrize("text,message,position", LITERAL_ERRORS)
def test_parse_literal_errors(text, message, position):
    for nvars in (None, 3):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, nvars)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


#: the grammar's alphabet, with blanks, a digit int() reads and one it does not
POLY_TOKENS = st.lists(st.sampled_from(
    ["x", "y", "z", "x0", "x12", "x65", "0", "1", "2", "7", "10", "^", "^2", "*", "/", "+", "-",
     " ", "\t", "\n", "@", ".", "٣", "²"]), max_size=14).map("".join)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(POLY_TOKENS, st.sampled_from([None, 1, 3]))
def test_parse_round_trips_or_names_a_position(text, nvars):
    try:
        f = parse_poly(text, nvars)
    except PolyParseError as exc:
        assert 0 <= exc.position <= len(text)
    else:
        assert parse_poly(poly_text(f), f.nvars) == f
        # the parser's terms are already in the normal form MPoly() would make
        assert list(f.terms.items()) == list(MPoly(f.nvars, f.terms).terms.items())
        assert all(type(e) is int for a in f.terms for e in a)
        assert all(type(c) is Fraction for c in f.terms.values())


def test_gcd_examples():
    x = UPoly.x()
    assert gcd_upoly(x * x - 1, x - 1) == x - 1
    f = UPoly([2, 4])  # 4x + 2
    assert gcd_upoly(f, UPoly.zero()) == f.monic()
    assert gcd_upoly(UPoly.zero(), UPoly.zero()).is_zero


def test_gcd_distinct_root_count():
    rng = random.Random(11)
    pool = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(3, 2), Fraction(3)]
    for _ in range(20):
        roots = rng.sample(pool, rng.randint(1, 4))
        mults = [rng.randint(1, 3) for _ in roots]
        f = UPoly.one()
        for r, m in zip(roots, mults):
            f = f * upoly_from_roots([r] * m)
        g = gcd_upoly(f, f.derivative())
        assert f.degree() - g.degree() == len(roots)


def test_eval_and_compose_neg():
    assert parse_poly("x^2 + y", 2).eval([2, 1]) == 5
    f = UPoly([1, 1, 0, 1])  # X^3 + X + 1
    assert f.compose_neg() == UPoly([1, -1, 0, -1])
    with pytest.raises(ValueError):
        parse_poly("x + y", 2).eval([1])


def test_ring_laws():
    rng = random.Random(13)
    for _ in range(15):
        f, g, h = (rand_mpoly(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_mpoly_product_against_evaluation():
    """(p*q)(x) = p(x)*q(x) at random rational points, and the product is in
    normal form: int exponent tuples of length nvars, nonzero Fraction values."""
    rng = random.Random(31)

    def scaled(f):  # rand_mpoly with mixed denominators
        return MPoly(f.nvars, {a: c / rng.choice([1, 2, 3, 7, 10**6]) for a, c in f.terms.items()})

    cases = [
        (parse_poly("1/2*x", 2), parse_poly("2*y", 2)),
        (parse_poly("x + y", 2), parse_poly("x - y", 2)),
        (parse_poly("1/3*x^2 - 3/5*x*y + 1/7", 2), parse_poly("x^2 + 9/5*x*y - 3/7", 2)),
        (MPoly.zero(3), parse_poly("x - 1/2*z", 3)),
        (parse_poly("x - 1/2*z", 3), MPoly.zero(3)),
    ]
    for _ in range(20):
        nvars = rng.randint(1, 4)
        cases.append((scaled(rand_mpoly(rng, nvars)), scaled(rand_mpoly(rng, nvars))))
    for p, q in cases:
        pq = p * q
        assert pq.nvars == p.nvars
        for alpha, c in pq.terms.items():
            assert type(alpha) is tuple and len(alpha) == p.nvars
            assert all(type(e) is int for e in alpha)
            assert type(c) is Fraction and c != 0
        for _ in range(4):
            x = [rand_frac(rng, max_den=9) for _ in range(p.nvars)]
            assert pq.eval(x) == p.eval(x) * q.eval(x)
        same = parse_poly(poly_text(pq), p.nvars)
        assert pq == same and hash(pq) == hash(same)
    assert parse_poly("x + y", 2) * parse_poly("x - y", 2) == parse_poly("x^2 - y^2", 2)
    assert (MPoly.zero(2) * parse_poly("x", 2)).terms == {}
    with pytest.raises(ValueError):
        parse_poly("x", 1) * parse_poly("x + y", 2)


def test_degree_conventions():
    rng = random.Random(17)
    assert MPoly.zero(2).degree() == NEG_INF
    assert UPoly.zero().degree() == NEG_INF
    assert NEG_INF < -(10**9)
    for _ in range(15):
        f, g = rand_mpoly(rng), rand_mpoly(rng)
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_printer_round_trip():
    rng = random.Random(19)
    for _ in range(25):
        f = rand_mpoly(rng, nvars=rng.randint(1, 4), max_deg=4)
        assert parse_poly(poly_text(f), f.nvars) == f
    assert poly_text(MPoly.zero(3)) == "0"


def test_parse_long_polynomial_in_linear_time():
    # each term used to be added through a fresh MPoly, which took seconds here
    rng = random.Random(29)
    terms = {}
    while len(terms) < 2000:
        alpha = tuple(rng.randint(0, 12) for _ in range(3))
        terms[alpha] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9))
    f = MPoly(3, terms)
    text = poly_text(f)
    start = time.perf_counter()
    assert parse_poly(text, 3) == f
    assert time.perf_counter() - start < 2.0
    # the terms keep the order repeated addition gives: a cancelled term leaves and re-enters last
    assert list(parse_poly("x - x + y + x", 2).terms) == [(0, 1), (1, 0)]


def test_printer_canonical_order():
    f = parse_poly("1 + x^2*y^2 - 3*y + x^4", 2)
    assert str(f) == "x^4 + x^2*y^2 - 3*y + 1"


def test_upoly_division():
    rng = random.Random(23)
    for _ in range(20):
        f, g = rand_upoly(rng), rand_upoly(rng, max_deg=3)
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree() < g.degree() or r.is_zero
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        divmod(UPoly([1]), UPoly())
    with pytest.raises(TypeError):
        divmod(UPoly([1]), MPoly(1, {(1,): 1}))


def test_sign_changes_rejects_zero():
    with pytest.raises(ValueError):
        sign_changes(UPoly.zero())


def test_parse_upoly_and_leading_sign():
    f = parse_upoly("-x^3 - x^2 + 4*x + 1")
    assert f == UPoly([1, 4, -1, -1])


@pytest.mark.parametrize("p", [UPoly([1, -2, 3]), parse_poly("x*y - 2*z + 1", 3)], ids=["UPoly", "MPoly"])
def test_unaccepted_operands_raise_type_error(p):
    # each used to end in RecursionError: __rsub__ handed an operand it could not lift back to "-"
    for other in (1.5, "a", None, [1]):
        with pytest.raises(TypeError):
            other - p
    # a UPoly is the one-variable MPoly, but the two types never mix, not even in one variable
    others = [parse_poly("x + y", 2), parse_poly("x", 1)] if type(p) is UPoly else [UPoly([1, 1])]
    for other in others:
        for op in (lambda a, b: a - b, lambda a, b: b - a, lambda a, b: a + b, lambda a, b: b * a,
                   lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(p, other)
        assert p != other and other != p
    for n in (0, 3):
        q = p**n
        assert type(q) is type(p) and q.nvars == p.nvars
    assert p**0 == p - p + 1
    with pytest.raises(ValueError, match="^negative exponent$"):
        p**-1


def test_ring_operators_keep_mpoly_rules():
    m = parse_poly("x*y - 2*z", 3)
    with pytest.raises(ValueError, match="^mixed variable counts$"):
        m - parse_poly("x", 2)
    with pytest.raises(ValueError, match=r"^exponent vector \(1,\) has wrong length for 2 variables$"):
        MPoly(2, {(1,): 1})
    assert list((2 - m).terms) == [(0, 0, 0), (1, 1, 0), (0, 0, 1)]  # the constant first
    assert list((m - 2).terms) == [(1, 1, 0), (0, 0, 1), (0, 0, 0)]
    assert 2 - m == -(m - 2) and 2 + m == m + 2 and 2 * m == m * 2


#: rationals with denominators up to 10^12, zero included
_BIG_FRACS = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12))
_UPOLYS = st.lists(_BIG_FRACS | st.just(Fraction(0)), max_size=11).map(UPoly)


def test_upoly_is_the_one_variable_mpoly():
    assert issubclass(UPoly, MPoly) and UPoly.__slots__ == ()
    f = UPoly([Fraction(1, 2), 0, -3])
    assert f.nvars == 1 and f.terms == {(0,): Fraction(1, 2), (2,): -3}
    assert str(f) == poly_text(MPoly(1, f.terms)) == "-3*x^2 + 1/2"
    assert repr(f) == "UPoly([Fraction(1, 2), Fraction(0, 1), Fraction(-3, 1)])"
    assert f.degree() == 2 and UPoly([0, 0]).is_zero and UPoly([0, 0]).coeffs == ()
    assert UPoly.constant(1, 2) == UPoly([2]) and UPoly.monomial((3,), -1) == -UPoly.x() ** 3
    assert UPoly([1]) != MPoly.constant(1, 1) and MPoly.constant(1, 1) != UPoly([1])
    assert type(MPoly(1, f.terms)) is MPoly and type(MPoly(1, f.terms).to_upoly()) is UPoly
    with pytest.raises(ValueError, match="^only single-variable polynomials convert to UPoly$"):
        MPoly(2, {(1, 0): 1}).to_upoly()


def _upoly_in_normal_form(r):
    """r is a UPoly whose dense view rebuilds it and ends in a nonzero coefficient."""
    cs = r.coeffs
    assert type(r) is UPoly and type(cs) is tuple
    assert UPoly(cs) == r and hash(UPoly(cs)) == hash(r)
    assert not cs or cs[-1] != 0
    assert all(type(x) is Fraction for x in cs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_UPOLYS, _UPOLYS, _BIG_FRACS | st.integers(-5, 5), st.integers(0, 4))
def test_upoly_arithmetic_is_the_one_variable_mpoly_arithmetic(a, b, c, k):
    ma, mb = MPoly(1, a.terms), MPoly(1, b.terms)
    assert a * b == upoly_mul_fold(a, b) == (ma * mb).to_upoly()
    assert a * c == c * a == (ma * c).to_upoly() == upoly_mul_fold(a, UPoly([c]))
    assert a + b == (ma + mb).to_upoly() and -a == (-ma).to_upoly()
    assert a - b == (ma - mb).to_upoly()
    assert c - a == (c - ma).to_upoly()
    assert a**k == (ma**k).to_upoly()
    assert MPoly(1, a.terms).to_upoly() == a and a != ma
    results = [a + b, a + c, c + a, a - b, c - a, -a, a * b, a * c, c * a, a**k,
               a.derivative(), a.compose_neg(), a.monic()]
    if not b.is_zero:
        q, r = divmod(a, b)
        assert q * b + r == a and r.degree() < b.degree() and a % b == r
        results += [q, r, a % b]
    for r in results:
        _upoly_in_normal_form(r)
    # the same polynomial reached by other routes is equal, with the same hash
    for p, q in [(a + b - b, a), (a * b, b * a), (-(-a), a), (a.compose_neg().compose_neg(), a)]:
        assert p == q and hash(p) == hash(q)
    # the univariate operations against the dense coefficients
    cs = a.coeffs
    assert a.derivative() == UPoly([i * x for i, x in enumerate(cs)][1:])
    assert a.compose_neg().eval(c) == a.eval(-c) == sum(x * (-c) ** i for i, x in enumerate(cs))
    assert a.is_zero or (a.monic().is_monic() and a.monic() * cs[-1] == a)
