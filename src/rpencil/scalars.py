"""Exact coefficients: the Scalar wrapper around the field Z(q, h, lam).

Every quantity in the package is a Scalar, i.e. a quotient of integer
polynomials in the formal parameters q, h and lam.  A Scalar holds one
element of the field ``ratfunc`` implements, which does all the
arithmetic: a ``fractions.Fraction`` when the value is free of the
parameters, so it hashes like the equal int or Fraction, and otherwise a
canonical ``ratfunc.RatFunc``.  Two constants are combined by ``ratfunc``'s
operations on their integer pairs, not by Fraction's operators.  The form
is unique, so equality of Scalars is equality of representations.  Each
operator coerces its operand (a bool or a subclass of int or Fraction to the
equal exact value), makes one call into ``ratfunc`` and wraps the result;
Scalar also checks for division by zero and poles, and reads and prints the
canonical strings.
"""

from __future__ import annotations

import re
from fractions import Fraction

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
    """Field element of an arithmetic operand, or None if it is not one; a
    bool or a subclass of int or Fraction becomes the equal exact value."""
    if type(value) is Scalar:
        return value._f
    if type(value) in (int, Fraction):
        return value
    if isinstance(value, (int, Fraction)):
        return int(value) if isinstance(value, int) else Fraction(value)
    return value._f if isinstance(value, Scalar) else None


def _new(f) -> "Scalar":
    s = object.__new__(Scalar)
    _SET_F(s, f)
    return s


class Scalar:
    """An exact rational function in the parameters q, h, lam."""

    __slots__ = ("_f",)

    def __init__(self, value=0):
        f = _operand(value)
        if isinstance(value, RatFunc):
            f = ratfunc.demote(value)
        elif f is None:
            raise TypeError(f"cannot build a Scalar from {type(value).__name__}")
        elif type(f) is int:
            f = Fraction(f)
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
        """Read a Scalar in the shape ``str`` prints, and cancel it.

        The text is ``P`` or ``P/P``.  Each P is a sum of terms, optionally
        in one pair of parentheses, whose first term alone may carry a sign;
        a term is an optional integer, then factors ``q``, ``h`` or ``lam``,
        each optionally ``**e`` with 0 <= e <= _MAX_EXPONENT, joined by
        ``*``.  A value larger than _MAX_WORK allows is refused before it is
        cancelled.  Nothing is evaluated as Python.
        """
        return _new(_read(text))

    @staticmethod
    def parse_canonical(text: str) -> "Scalar":
        """Parse, rejecting any non-canonical spelling (e.g. '2/4')."""
        s = Scalar.parse(text)
        if str(s) != text:
            raise ScalarError(
                f"non-canonical scalar string {_echo(text)} (canonical form is {_echo(str(s))})"
            )
        return s

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        return _new(ratfunc.plus(self._f, g))

    __radd__ = __add__

    def __sub__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        return _new(ratfunc.minus(self._f, g))

    def __rsub__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        return _new(ratfunc.minus(g, self._f))

    def __mul__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        return _new(ratfunc.times(self._f, g))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        if not g:
            raise DivisionByZero("division by zero Scalar")
        return _new(ratfunc.divide(self._f, g))

    def __rtruediv__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        if not self._f:
            raise DivisionByZero("division by zero Scalar")
        return _new(ratfunc.divide(g, self._f))

    def __neg__(self):
        return _new(ratfunc.negate(self._f))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        f = self._f
        if n < 0:
            if not f:
                raise DivisionByZero("negative power of zero Scalar")
            f, n = ratfunc.divide(1, f), -n
        if n == 0:
            return ONE
        return _new(f**n)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._f)

    def __eq__(self, other):
        g = _operand(other)
        if g is None:
            return NotImplemented
        # a Fraction never equals a RatFunc: no RatFunc here is constant
        return self._f == g

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
        point = [scalar(assignment.get(name, x))._f for name, x in zip(PARAMETERS, (Q, H, LAM))]
        try:
            return _new(ratfunc.substitute(f, point))
        except ZeroDivisionError:
            named = ", ".join(f"{k}={assignment[k]}" for k in PARAMETERS if k in assignment)
            raise PoleError(f"denominator of {self} vanishes at {named}") from None

    def __str__(self):
        return str(self._f)

    def __repr__(self):
        return f"Scalar({self._f})"


_SET_F = Scalar._f.__set__


# -- reader ---------------------------------------------------------------

#: largest exponent literal Scalar.parse accepts; canonical forms in this
#: package stay far below it
_MAX_EXPONENT = 100

#: bound on the value Scalar.parse cancels for an untrusted string: the
#: numerator's and the denominator's term counts may not multiply to more
#: than this, nor may either one's prod_v (deg_v + 1) times the bit length of
#: its largest coefficient exceed it
_MAX_WORK = 10_000
_ECHO = 60  # characters of a scalar or term that an error message repeats

_SIGN = re.compile(r"\s*([-+])\s*")
_FACTOR = r"(q|h|lam)(?:\*\*(\d+))?"
_TERM = re.compile(rf"(?:(\d+)|{_FACTOR})(?:\*{_FACTOR})*\Z", re.ASCII)
_FACTORS = re.compile(_FACTOR)
_INDEX = {name: i for i, name in enumerate(PARAMETERS)}


def _echo(text: str) -> str:
    """repr of text for an error message: cut to _ECHO characters, with its length."""
    if len(text) <= _ECHO:
        return repr(text)
    return f"{text[:_ECHO]!r}... ({len(text)} characters)"


def _fail(text: str, reason: str):
    raise ScalarError(f"cannot parse scalar {_echo(text)}: {reason}")


def _read_poly(text: str, part: str):
    """The polynomial a sum of terms spells, e.g. ``(-2*q**2*h + lam - 3)``.

    One pair of parentheses may wrap the sum, and only its first term may
    carry a sign; a name may repeat in a term, and its exponents add.
    """
    body = part.strip()
    if body[:1] == "(" and body[-1:] == ")":
        body = body[1:-1].strip()
    pieces = _SIGN.split(body)  # term, sign, term, sign, ..., term
    pieces = pieces[1:] if pieces[:2] == ["", "-"] else ["+", *pieces]
    out = {}
    for sign, term in zip(pieces[::2], pieces[1::2]):
        m = _TERM.match(term)
        if m is None:
            _fail(text, f"cannot read term {_echo(term)}")
        try:
            coeff = int(m[1] or 1)
        except ValueError:
            _fail(text, "integer literal too long")
        monom = [0, 0, 0]
        for name, exp in _FACTORS.findall(term):
            if len(exp) > 3 or int(exp or 1) > _MAX_EXPONENT:
                _fail(text, f"exponent must be an integer from 0 to {_MAX_EXPONENT}")
            monom[_INDEX[name]] += int(exp or 1)
        monom = tuple(monom)
        out[monom] = out.get(monom, 0) + (coeff if sign == "+" else -coeff)
    return {m: c for m, c in out.items() if c}


def _size(p) -> int:
    """prod_v (deg_v + 1) times the bit length of p's largest coefficient."""
    size = ratfunc.max_norm(p).bit_length()
    for v in range(len(PARAMETERS)):
        size *= 1 + max((m[v] for m in p), default=0)
    return size


def _read(text: str):
    """The cancelled value of ``P`` or ``P/P``, each P read by _read_poly."""
    parts = text.split("/")
    if len(parts) > 2:
        _fail(text, "more than one '/'")
    num = _read_poly(text, parts[0])
    den = _read_poly(text, parts[1]) if len(parts) == 2 else ratfunc.ONE
    if not den:
        _fail(text, "division by zero")
    if len(num) * len(den) > _MAX_WORK or max(_size(num), _size(den)) > _MAX_WORK:
        _fail(text, "value too large")
    return ratfunc.demote(RatFunc.new(num, den))


ZERO = Scalar(0)
ONE = Scalar(1)
Q = Scalar.parameter("q")
H = Scalar.parameter("h")
LAM = Scalar.parameter("lam")


def scalar(value) -> Scalar:
    """Coerce ints, Fractions and Scalars into Scalar."""
    return value if isinstance(value, Scalar) else Scalar(value)
