"""Exact coefficient arithmetic: rational functions in q, h, lam over the integers.

Every quantity in the package is a Scalar, i.e. a quotient of integer
polynomials in the formal parameters q, h and lam.  Representations are
canonical, so equality of Scalars is equality of representations:

- a value free of the parameters is always held as a ``fractions.Fraction``
  (constant <=> Fraction), so it hashes like the equal int or Fraction and
  its arithmetic never forms a polynomial;
- any other value is held as a ``ratfunc.RatFunc`` in Z(q,h,lam) with
  numerator and denominator coprime and the denominator's leading
  coefficient positive under lex order with q > h > lam.

An operation that mixes a constant with a parametric value cancels only
integer contents, never a polynomial gcd; a parametric result that cancels
to a constant (``Q/Q``) is demoted back to a Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from . import ratfunc
from .ratfunc import RatFunc

PARAMETERS = ratfunc.NAMES

#: default generic specialization used by fast mode
DEFAULT_ASSIGNMENT = {"q": Fraction(7, 3), "h": Fraction(2, 5), "lam": Fraction(1)}


class ScalarError(Exception):
    pass


class DivisionByZero(ScalarError):
    pass


class PoleError(ScalarError):
    """A specialization made a denominator vanish."""


def _operand(value):
    """Internal value of an arithmetic operand, or None if it is not one."""
    if isinstance(value, Scalar):
        return value._f
    if isinstance(value, (int, Fraction)):
        return value
    return None


def _demote(f):
    """Canonical internal value of a canonical field element."""
    numer, denom = f.numer, f.denom
    if ratfunc.is_ground(numer) and ratfunc.is_ground(denom):
        return Fraction(numer.get(ratfunc.CONST, 0), denom[ratfunc.CONST])
    return f


def _mul_ground(f, c):
    """c*f for a parametric f and a nonzero rational c.

    f's numerator and denominator are coprime, so the only common factor of
    c.numerator*numer and c.denominator*denom is an integer.
    """
    a, b = c.numerator, c.denominator
    numer, denom = f.numer, f.denom
    g = gcd(a, ratfunc.content(denom))
    h = gcd(b, ratfunc.content(numer))
    return RatFunc(
        ratfunc.mul_ground(ratfunc.quo_ground(numer, h), a // g),
        ratfunc.mul_ground(ratfunc.quo_ground(denom, g), b // h),
    )


def _add_ground(f, c):
    """f + c for a parametric f and a rational c.

    numer*b + denom*a shares no polynomial factor with denom*b, because
    numer and denom are coprime; only an integer can cancel.
    """
    a, b = c.numerator, c.denominator
    numer, denom = f.numer, f.denom
    if b == 1:
        return RatFunc(ratfunc.add(numer, ratfunc.mul_ground(denom, a)), denom)
    top = ratfunc.add(ratfunc.mul_ground(numer, b), ratfunc.mul_ground(denom, a))
    bottom = ratfunc.mul_ground(denom, b)
    g = gcd(ratfunc.content(top), b * ratfunc.content(denom))
    return RatFunc(ratfunc.quo_ground(top, g), ratfunc.quo_ground(bottom, g))


def _inverse(f):
    """1/f for a parametric f, with the sign moved to the numerator."""
    numer, denom = f.numer, f.denom
    if ratfunc.lc(numer) < 0:
        return RatFunc(ratfunc.neg(denom), ratfunc.neg(numer))
    return RatFunc(denom, numer)


def _new(f) -> "Scalar":
    s = object.__new__(Scalar)
    _SET_F(s, f)
    return s


class Scalar:
    """An exact rational function in the parameters q, h, lam."""

    __slots__ = ("_f",)

    def __init__(self, value=0):
        if isinstance(value, Scalar):
            f = value._f
        elif isinstance(value, Fraction):
            f = value
        elif isinstance(value, int):
            f = Fraction(value)
        elif isinstance(value, RatFunc):
            f = _demote(value)
        else:
            raise TypeError(f"cannot build a Scalar from {type(value).__name__}")
        _SET_F(self, f)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def parameter(name: str) -> "Scalar":
        if name not in ratfunc.GENS:
            raise ScalarError(f"unknown parameter {name!r}; expected one of {PARAMETERS}")
        return _new(RatFunc(ratfunc.GENS[name], ratfunc.ONE))

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse a Scalar from an arithmetic expression in q, h, lam.

        Accepted: integer literals, the parameters, ``+ - * /``, ``**`` with
        a non-negative integer literal exponent (at most _MAX_EXPONENT), and
        parentheses.  Nothing is evaluated as Python.
        """
        try:
            return _new(_Parser(text).parse())
        except RecursionError:
            raise ScalarError(f"cannot parse scalar {text!r}: nested too deeply") from None

    @staticmethod
    def parse_canonical(text: str) -> "Scalar":
        """Parse, rejecting any non-canonical spelling (e.g. '2/4')."""
        s = Scalar.parse(text)
        if str(s) != text:
            raise ScalarError(
                f"non-canonical scalar string {text!r} (canonical form is {str(s)!r})"
            )
        return s

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        f = self._f
        if isinstance(f, RatFunc):
            if isinstance(g, RatFunc):
                return _new(_demote(f + g))
            return _new(_add_ground(f, g)) if g else self
        if isinstance(g, RatFunc):
            return _new(_add_ground(g, f)) if f else other
        return _new(f + g)

    __radd__ = __add__

    def __sub__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        f = self._f
        if isinstance(f, RatFunc):
            if isinstance(g, RatFunc):
                return _new(_demote(f - g))
            return _new(_add_ground(f, -g)) if g else self
        if isinstance(g, RatFunc):
            return _new(_add_ground(-g, f))
        return _new(f - g)

    def __rsub__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        return Scalar(g) - self

    def __mul__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        f = self._f
        if isinstance(f, RatFunc):
            if isinstance(g, RatFunc):
                return _new(_demote(f * g))
            return _new(_mul_ground(f, g)) if g else ZERO
        if isinstance(g, RatFunc):
            return _new(_mul_ground(g, f)) if f else ZERO
        return _new(f * g)

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        if not g:
            raise DivisionByZero("division by zero Scalar")
        f = self._f
        if isinstance(g, RatFunc):
            if isinstance(f, RatFunc):
                return _new(_demote(f / g))
            return _new(_mul_ground(_inverse(g), f)) if f else ZERO
        if isinstance(f, RatFunc):
            return _new(_mul_ground(f, 1 / Fraction(g)))
        return _new(f / g)

    def __rtruediv__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        return Scalar(g) / self

    def __neg__(self):
        return _new(-self._f)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        f = self._f
        if n < 0:
            if not f:
                raise DivisionByZero("negative power of zero Scalar")
            f, n = (_inverse(f) if isinstance(f, RatFunc) else 1 / f), -n
        if n == 0:
            return ONE
        return _new(f**n)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._f

    def __bool__(self) -> bool:
        return bool(self._f)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = other._f
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        f = self._f
        if isinstance(f, RatFunc):
            return isinstance(other, RatFunc) and f == other
        return not isinstance(other, RatFunc) and f == other

    def __hash__(self):
        # a RatFunc hashes as (frozenset(numer.items()), frozenset(denom.items()))
        return hash(self._f)

    # -- structure ---------------------------------------------------------

    def specialize(self, assignment: dict) -> "Scalar":
        """Substitute parameters by exact rationals (or other Scalars).

        Unassigned parameters survive.  Raises PoleError if the denominator
        vanishes at the assignment.
        """
        f = self._f
        if not isinstance(f, RatFunc):
            return self
        images = [
            _as_scalar(assignment[name]) if name in assignment else Scalar.parameter(name)
            for name in PARAMETERS
        ]
        point = [x._f for x in images]
        if any(isinstance(x, RatFunc) for x in point):
            num, den = _eval_poly(f.numer, images), _eval_poly(f.denom, images)
        else:
            num, den = ratfunc.evaluate(f.numer, point), ratfunc.evaluate(f.denom, point)
        if not den:
            named = ", ".join(f"{k}={assignment[k]}" for k in PARAMETERS if k in assignment)
            raise PoleError(f"denominator of {self} vanishes at {named}")
        return num / den if isinstance(num, Scalar) else _new(num / den)

    def coefficient_of(self, name: str, power: int) -> "Scalar":
        """Coefficient of name**power, valid when the denominator is free of name."""
        idx = PARAMETERS.index(name)
        f = self._f
        if not isinstance(f, RatFunc):
            return self if power == 0 else ZERO
        if any(monom[idx] for monom in f.denom):
            raise ScalarError(f"denominator of {self} involves {name}")
        num = {}
        for monom, coeff in f.numer.items():
            if monom[idx] == power:
                num[monom[:idx] + (0,) + monom[idx + 1 :]] = coeff
        return _new(_demote(RatFunc.new(num, f.denom)))

    def __str__(self):
        return str(self._f)

    def __repr__(self):
        return f"Scalar({self._f})"


_SET_F = Scalar._f.__set__


def _as_scalar(value) -> Scalar:
    return value if isinstance(value, Scalar) else Scalar(value)


def _eval_poly(poly, images):
    out = ZERO
    for monom, coeff in poly.items():
        term = _new(Fraction(coeff))
        for img, exp in zip(images, monom):
            if exp:
                term *= img**exp
        out += term
    return out


# -- parser ---------------------------------------------------------------

#: largest exponent literal Scalar.parse accepts; canonical forms in this
#: package stay far below it
_MAX_EXPONENT = 100

#: bound on the work Scalar.parse does for an untrusted string: no product
#: it forms may have factors whose term counts multiply, or whose largest
#: coefficients' bit lengths add, to more than this, no power of a monomial
#: may have more coefficient bits or a higher degree, and the final
#: numerator and denominator are not cancelled if their term counts multiply
#: to more than this
_MAX_WORK = 10_000

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\*\*|[-+*/()]))", re.ASCII)


class _Parser:
    """Recursive descent over Python's precedence for + - * / ** and unary sign.

    Every subexpression is an unreduced pair (numerator, denominator) of
    integer polynomials; the final value is cancelled once.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        text = text.rstrip()
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                self.fail(f"unexpected character {text[pos:].lstrip()[:1]!r}")
            number, name, op = m.groups()
            if name is not None and name not in ratfunc.GENS:
                self.fail(f"unknown name {name!r}")
            self.tokens.append(number or name or op)
            pos = m.end()
        self.pos = 0

    def fail(self, reason: str):
        raise ScalarError(f"cannot parse scalar {self.text!r}: {reason}")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        self.pos += 1
        return tok

    def parse(self):
        num, den = self.sum()
        if self.peek() is not None:
            self.fail(f"unexpected {self.peek()!r}")
        if len(num) * len(den) > _MAX_WORK:
            self.fail("value too large")
        return _demote(RatFunc.new(num, den))

    def sum(self):
        num, den = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            n2, d2 = self.product()
            if den != d2:
                num, n2, den = self.mul(num, d2), self.mul(n2, den), self.mul(den, d2)
            num = ratfunc.add(num, n2) if op == "+" else ratfunc.sub(num, n2)
        return num, den

    def product(self):
        num, den = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            n2, d2 = self.unary()
            if op == "*":
                num, den = self.mul(num, n2), self.mul(den, d2)
            elif not n2:
                self.fail("division by zero")
            else:
                num, den = self.mul(num, d2), self.mul(den, n2)
        return num, den

    def unary(self):
        if self.peek() in ("+", "-"):
            sign = self.take()
            num, den = self.unary()
            return (ratfunc.neg(num) if sign == "-" else num), den
        return self.power()

    def power(self):
        num, den = self.atom()
        if self.peek() == "**":
            self.take()
            exp = self.take()
            if not exp.isdigit() or len(exp) > 3 or int(exp) > _MAX_EXPONENT:
                self.fail(f"exponent must be an integer literal from 0 to {_MAX_EXPONENT}")
            exp = int(exp)
            num, den = self.pow(num, exp), self.pow(den, exp)
        return num, den

    def mul(self, a, b):
        """a*b, refused before it is formed if it exceeds _MAX_WORK."""
        bits = ratfunc.max_norm(a).bit_length() + ratfunc.max_norm(b).bit_length()
        if len(a) * len(b) > _MAX_WORK or bits > _MAX_WORK:
            self.fail("value too large")
        return ratfunc.mul(a, b)

    def pow(self, a, exp: int):
        """a**exp; a monomial's power is taken at once, any other by repeated
        multiplication, so each step is checked.  0**0 is 1, as in Python.
        """
        if len(a) == 1:
            ((monom, coeff),) = a.items()
            if max(coeff.bit_length(), sum(monom)) * exp > _MAX_WORK:
                self.fail("value too large")
            return ratfunc.power(a, exp)
        out = ratfunc.ONE
        for _ in range(exp):
            out = self.mul(out, a)
        return out

    def atom(self):
        tok = self.take()
        if tok == "(":
            value = self.sum()
            if self.take() != ")":
                self.fail("expected ')'")
            return value
        if tok in ratfunc.GENS:
            return ratfunc.GENS[tok], ratfunc.ONE
        if tok.isdigit():
            try:
                value = int(tok)
            except ValueError:
                self.fail("integer literal too long")
            return ({ratfunc.CONST: value} if value else {}), ratfunc.ONE
        self.fail(f"unexpected {tok!r}")


ZERO = Scalar(0)
ONE = Scalar(1)
Q = Scalar.parameter("q")
H = Scalar.parameter("h")
LAM = Scalar.parameter("lam")


def scalar(value) -> Scalar:
    """Coerce ints, Fractions and Scalars into Scalar."""
    return _as_scalar(value)
