"""Exact univariate and multivariate polynomial arithmetic over the rationals.

A polynomial (:class:`MPoly`) is a sparse map from exponent vectors to
nonzero rational coefficients, and all arithmetic is exact.  A univariate
polynomial (:class:`UPoly`) is the one-variable MPoly: it stores nothing of
its own and adds a dense coefficient view, division with remainder, the
derivative and f(-X).  There is one product kernel, ``MPoly.__mul__`` on
integer numerators, and the operators of both return the operand type.

Polynomial text (:func:`parse_poly`) is read by three compiled patterns (a
sign, a coefficient, a factor).  Its variables are ``x1..xn`` with aliases
``x, y, z``, n and each exponent are capped (``MAX_VARIABLES``,
``MAX_EXPONENT``), and every error names its position in the text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add

#: Degree of the zero polynomial.  Compares smaller than every integer.
NEG_INF = float("-inf")

#: Per-variable exponent cap enforced by the parser; internal ``__pow__`` calls
#: are not capped.
MAX_EXPONENT = 64

#: Largest variable index the parser accepts, and the largest ``nvars`` it takes.
MAX_VARIABLES = 64

#: Most digits of a number that text may hand to ``int()``, whose own limit
#: varies between interpreters but is never below 640 digits.
MAX_DIGITS = 600


class PolyParseError(ValueError):
    """Syntax or semantic error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MPoly:
    """Sparse multivariate polynomial: exponent vector -> nonzero coefficient.

    The operators build their results as ``type(self)``, and a polynomial
    operand must be of the same type: a :class:`UPoly` operation returns a
    UPoly, and an MPoly and a UPoly never mix (``TypeError``).  Subtraction,
    powers and the reflected operators call ``_lift``, ``__neg__``, ``__add__``
    and ``__mul__`` directly, so an operand no type accepts ends in
    ``TypeError``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != nvars:
                raise ValueError(f"exponent vector {alpha} has wrong length for {nvars} variables")
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c != 0:
                clean[alpha] = c
        self.terms = clean

    @classmethod
    def _normal(cls, nvars: int, terms: dict) -> "MPoly":
        """Wrap terms already in normal form (int tuples of length nvars -> nonzero Fractions)."""
        f = cls.__new__(cls)
        f.nvars = nvars
        f.terms = terms
        return f

    @classmethod
    def zero(cls, nvars: int) -> "MPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MPoly":
        return cls.monomial((0,) * nvars, c)

    @classmethod
    def monomial(cls, alpha, coeff=1) -> "MPoly":
        c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
        return cls._normal(len(alpha), {tuple(int(e) for e in alpha): c} if c else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or ``NEG_INF`` for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=NEG_INF)

    def degree_in(self, i: int) -> int:
        """Largest exponent of variable x_i (1-based); 0 for the zero polynomial."""
        return max((a[i - 1] for a in self.terms), default=0)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.terms, key=_grlex_key)

    def coeff(self, alpha) -> Fraction:
        return self.terms.get(tuple(alpha), Fraction(0))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self) -> "MPoly":
        return type(self)._normal(self.nvars, {a: -c for a, c in self.terms.items()})

    def _lift(self, other):
        """A scalar as a constant of this type, a polynomial of this type as
        itself, anything else as None."""
        if isinstance(other, (int, Fraction)):
            return type(self).constant(self.nvars, other)
        if type(other) is not type(self):
            return None
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        return other

    def __add__(self, other) -> "MPoly":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0) + c
        return type(self)._normal(self.nvars, {a: c for a, c in terms.items() if c})

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self.__add__(other.__neg__())

    def __rsub__(self, other):
        other = self._lift(other)  # the lifted operand's terms come first
        return NotImplemented if other is None else other.__add__(self.__neg__())

    def __mul__(self, other) -> "MPoly":
        """Exact product with a polynomial or a rational scalar.

        Two polynomials are multiplied fraction-free: each operand is scaled to
        integers over the lcm of its coefficient denominators, the integer
        products are summed per exponent vector, and one ``Fraction`` is built
        per nonzero term of the result, over the product of the two lcms.
        """
        if isinstance(other, (int, Fraction)):
            return type(self)._normal(self.nvars, {a: c * other for a, c in self.terms.items()} if other else {})
        if type(other) is not type(self):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        (da, xs), (db, ys) = _integer_terms(self), _integer_terms(other)
        acc: dict = {}
        for a, ca in xs:
            for b, cb in ys:
                key = tuple(map(add, a, b))
                acc[key] = acc.get(key, 0) + ca * cb
        return _from_integers(self.nvars, acc, da * db, type(self))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        """Repeated squaring from the type's own one."""
        if n < 0:
            raise ValueError("negative exponent")
        result, base = self._lift(1), self
        while n:
            if n & 1:
                result = result.__mul__(base)
            n >>= 1
            if n:
                base = base.__mul__(base)
        return result

    def eval(self, point) -> Fraction:
        """Exact evaluation at a rational point."""
        pt = [x if isinstance(x, Fraction) else Fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError(f"point has length {len(pt)}, expected {self.nvars}")
        total = Fraction(0)
        for alpha, c in self.terms.items():
            v = c
            for x, e in zip(pt, alpha):
                if e:
                    v *= x**e
            total += v
        return total

    def to_upoly(self) -> "UPoly":
        if self.nvars != 1:
            raise ValueError("only single-variable polynomials convert to UPoly")
        return UPoly._normal(1, dict(self.terms))

    def __str__(self) -> str:
        return poly_text(self)

    def __repr__(self) -> str:
        return f"MPoly({self.nvars}, {self.terms!r})"


class UPoly(MPoly):
    """A polynomial in one variable: the one-variable MPoly, terms ``{(i,): c}``.

    Equality, hashing, degree, sums, negation and the printer are MPoly's;
    this class adds the dense view ``coeffs`` and what only one variable has:
    division with remainder, the derivative and f(-X).
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        """The polynomial sum_i coeffs[i] * X^i."""
        cs = (c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        self.nvars = 1
        self.terms = {(i,): c for i, c in enumerate(cs) if c}

    @classmethod
    def zero(cls) -> "UPoly":
        return cls()

    @classmethod
    def one(cls) -> "UPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UPoly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        """Dense coefficients, ``coeffs[i]`` that of X^i: the last one is
        nonzero, and the zero polynomial has none.  Built on each read."""
        terms = self.terms
        zero = Fraction(0)
        return tuple(terms.get((i,), zero) for i in range(max((e for (e,) in terms), default=-1) + 1))

    def is_monic(self) -> bool:
        return not self.is_zero and self.terms[(self.degree(),)] == 1

    def monic(self) -> "UPoly":
        """Divide by the leading coefficient; zero stays zero."""
        if self.is_zero:
            return self
        lead = self.terms[(self.degree(),)]
        return self if lead == 1 else UPoly._normal(1, {a: c / lead for a, c in self.terms.items()})

    def __mul__(self, other) -> "UPoly":
        """The MPoly product (a UPoly entry of its own, so that it can be traced)."""
        return MPoly.__mul__(self, other)

    def __divmod__(self, other: "UPoly"):
        """Exact polynomial division with remainder."""
        if type(other) is not UPoly:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, div = list(self.coeffs), other.coeffs
        dd, dg = len(rem) - 1, len(div) - 1
        if dd < dg:
            return UPoly(), self
        lead = div[-1]
        quo = [Fraction(0)] * (dd - dg + 1)
        for k in range(dd - dg, -1, -1):
            c = rem[k + dg] / lead
            if c == 0:
                continue
            quo[k] = c
            for j, b in enumerate(div):
                rem[k + j] -= c * b
        return UPoly(quo), UPoly(rem[:dg])

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def derivative(self) -> "UPoly":
        return UPoly._normal(1, {(i - 1,): i * c for (i,), c in self.terms.items() if i})

    def compose_neg(self) -> "UPoly":
        """Return f(-X): flips the sign of every odd-degree coefficient."""
        return UPoly._normal(1, {a: -c if a[0] % 2 else c for a, c in self.terms.items()})

    def eval(self, x) -> Fraction:
        """Exact evaluation at the rational x."""
        return MPoly.eval(self, [x])

    def __repr__(self) -> str:
        return f"UPoly({list(self.coeffs)!r})"


def gcd_upoly(f: UPoly, g: UPoly) -> UPoly:
    """Monic greatest common divisor by the Euclidean algorithm; gcd(0,0)=0."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def sign_changes(f: UPoly) -> int:
    """Number of sign changes in the ordered nonzero coefficients of f."""
    if f.is_zero:
        raise ValueError("sign changes of the zero polynomial are undefined")
    signs = [c > 0 for c in f.coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _integer_terms(f: MPoly) -> tuple[int, list]:
    """(L, [(alpha, L * c)]) for the lcm L of the coefficient denominators of f."""
    scale = lcm(*(c.denominator for c in f.terms.values()))
    return scale, [(a, c.numerator * (scale // c.denominator)) for a, c in f.terms.items()]


def _from_integers(nvars: int, acc: dict, den: int, cls=MPoly) -> MPoly:
    """The polynomial of type cls with the nonzero integers of ``acc`` over den as coefficients."""
    return cls._normal(nvars, {key: Fraction(c, den) for key, c in acc.items() if c})


def _grlex_key(alpha):
    # graded-lex: lower total degree first, then x1-major within a degree
    return (sum(alpha), tuple(-e for e in alpha))


def _var_name(index: int, nvars: int) -> str:
    if nvars <= 3:
        return "xyz"[index]
    return f"x{index + 1}"


def poly_text(f: MPoly) -> str:
    """Canonical text form: graded-lex descending terms, rational coefficients."""
    if f.is_zero:
        return "0"
    parts = []
    for alpha in sorted(f.terms, key=lambda a: (-sum(a), tuple(-e for e in a))):
        c = f.terms[alpha]
        mag = abs(c)
        factors = []
        for i, e in enumerate(alpha):
            if e == 1:
                factors.append(_var_name(i, f.nvars))
            elif e > 1:
                factors.append(f"{_var_name(i, f.nvars)}^{e}")
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def infer_nvars(text: str) -> int:
    """Smallest variable count covering every variable mentioned in the text,
    at most ``MAX_VARIABLES``: the parser rejects a higher index at its ``x``
    (an index past ``MAX_DIGITS`` digits is cut there, still past the cap)."""
    n = max((int(d[:MAX_DIGITS]) for d in re.findall(r"x0*(\d+)", text)), default=1)
    return min(max(n, 3 if "z" in text else 2 if "y" in text else 1), MAX_VARIABLES)


# The grammar, read at a moving position (blanks are " \t\r\n", nat is \d+):
#   poly   := sign? term (sign term)* blanks       sign := blanks ('+'|'-') blanks
#   term   := coef? factor*                        coef := nat ('/' nat)?
#   factor := blanks ('*' blanks)? var ('^' nat)?  var  := 'x' nat? | 'y' | 'z'
# The patterns also take an empty nat, so that its error can name its position.
_SIGN = re.compile(r"[ \t\r\n]*([+-]?)[ \t\r\n]*")
_COEF = re.compile(r"(\d+)(?:/(\d*))?")
_FACTOR = re.compile(r"[ \t\r\n]*(\*)?[ \t\r\n]*(?:(x(\d*)|[yz])(?:\^(\d*))?)?")


def _nat(digits: str, cap: int, name: str, position: int) -> int:
    """The value of a digit run; PolyParseError "<name><value> exceeds the cap <cap>" above ``cap``."""
    value = digits.lstrip("0") or "0"
    if len(value) > MAX_DIGITS or int(value) > cap:
        raise PolyParseError(f"{name}{value} exceeds the cap {cap}", position)
    return int(value)


def parse_poly(text: str, nvars: int | None = None) -> MPoly:
    """Parse polynomial text into an exact MPoly.

    Variables are x1..xn with aliases x, y, z for x1, x2, x3, and n is at most
    ``MAX_VARIABLES``.  When ``nvars`` is omitted it is inferred from the
    variables that occur.  Bad text raises :class:`PolyParseError` naming
    the position of the fault.
    """
    if nvars is None:
        nvars = infer_nvars(text)
    elif nvars > MAX_VARIABLES:
        raise ValueError(f"{nvars} variables exceed the cap {MAX_VARIABLES}")
    terms: dict = {}  # summed in place, as MPoly.__add__ would; the MPoly is built once
    sign = _SIGN.match(text)
    while True:
        pos = sign.end()
        coef = _COEF.match(text, pos)
        num, den = coef.groups() if coef else ("1", None)
        if coef:
            if den == "":
                raise PolyParseError("expected a number", coef.end())
            for k in (1, 2):
                if len(coef.group(k) or "") > MAX_DIGITS:
                    raise PolyParseError(f"number longer than {MAX_DIGITS} digits", coef.start(k))
            if den is not None and not (den := int(den)):
                raise PolyParseError("zero denominator", coef.start(2))
            pos = coef.end()
        num = -int(num) if sign.group(1) == "-" else int(num)
        coeff = Fraction(num) if den is None else Fraction(num, den)
        exps = [0] * nvars
        while (factor := _FACTOR.match(text, pos)).group(2):
            var, digits, power = factor.group(2, 3, 4)
            index = _nat(digits, MAX_VARIABLES, "variable x", factor.start(2)) if digits else "xyz".index(var) + 1
            if not 1 <= index <= nvars:
                raise PolyParseError(f"unknown variable x{index} with {nvars} variable(s)", factor.start(2))
            if power == "":
                raise PolyParseError("expected a number", factor.end())
            power = _nat(power, MAX_EXPONENT, "exponent ", factor.start(4)) if power else 1
            exps[index - 1] += power
            if exps[index - 1] > MAX_EXPONENT:
                raise PolyParseError(f"accumulated exponent exceeds the cap {MAX_EXPONENT}", factor.start(2))
            pos = factor.end()
        if factor.group(1):
            raise PolyParseError("expected a variable", factor.end())
        if not coef and pos == sign.end():
            raise PolyParseError("expected a term", pos)
        alpha = tuple(exps)
        old = terms.get(alpha)
        total = coeff if old is None else old + coeff  # a first occurrence is stored as read
        if total:
            terms[alpha] = total
        else:  # a cancelled term leaves the dict, so the term order is MPoly.__add__'s
            terms.pop(alpha, None)
        sign = _SIGN.match(text, pos)
        if not sign.group(1):
            break
    if sign.end() != len(text):
        raise PolyParseError(f"unexpected character {text[sign.end()]!r}", sign.end())
    return MPoly._normal(nvars, terms)


def parse_upoly(text: str) -> UPoly:
    """Parse text that must denote a univariate polynomial in x."""
    return parse_poly(text, 1).to_upoly()
