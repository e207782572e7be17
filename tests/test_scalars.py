import os
import re
import subprocess
import sys
import time
from enum import IntEnum
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Rational, sympify
from sympy.polys.fields import field

from rpencil import ratfunc
from rpencil.groebner import complete
from rpencil.quadratic import a0q
from rpencil.ratfunc import RatFunc
from rpencil.scalars import (
    DEFAULT_ASSIGNMENT,
    DivisionByZero,
    H,
    LAM,
    ONE,
    PoleError,
    Q,
    Scalar,
    ScalarError,
    ZERO,
    scalar,
)

# sympy's field, the reference for rpencil.ratfunc
_FIELD, _SQ, _SH, _SLAM = field("q,h,lam", ZZ)
_RING = _FIELD.ring


def _names(s):
    """The parameters that s depends on, read from its exponents."""
    f = s._f
    if isinstance(f, Fraction):
        return set()
    monoms = list(f.numer) + list(f.denom)
    return {name for i, name in enumerate(("q", "h", "lam")) if any(m[i] for m in monoms)}


def test_constants():
    assert not ZERO
    assert bool(ONE)
    assert ONE + ONE == 2
    assert _names(Q) == {"q"}


def test_parameter_unknown():
    with pytest.raises(ScalarError):
        Scalar.parameter("x")


def test_field_arithmetic():
    expr = (Q * Q - 1) / (Q - 1)
    assert expr == Q + 1
    assert (Q - 1 / Q) == (Q * Q - 1) / Q
    assert H * LAM - LAM * H == 0


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        1 / (Q - Q)
    with pytest.raises(DivisionByZero):
        ZERO ** (-1)


def test_parse_and_canonical():
    assert Scalar.parse("q**2 + 1") == Q * Q + 1
    assert Scalar.parse("(q**2-1)/(q-1)") == Q + 1
    assert Scalar.parse_canonical("1/2") == scalar(Fraction(1, 2))
    with pytest.raises(ScalarError):
        Scalar.parse_canonical("2/4")
    with pytest.raises(ScalarError):
        Scalar.parse("not a scalar!!")


def test_str_round_trip():
    for s in (Q, H, LAM, Q / H, (Q - 1) / (H + 2), scalar(Fraction(-3, 7))):
        assert Scalar.parse_canonical(str(s)) == s


@pytest.mark.parametrize(
    "text",
    [
        "(-q**3*h - q**2*h + q*h + h)/(q**4 + 2*q**2 + 1)",
        "-q*h/(q**2 + 1)",
        "-2*lam**2/(3*q*h - 1)",
        "-3/7",
        "0",
    ],
)
def test_parse_canonical_accepts_printed_forms(text):
    assert str(Scalar.parse_canonical(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "q/",
        "/q",
        "()",
        "x",
        "q.numer",
        "1e3",
        "1.5",
        "q**-1",
        "q**h",
        "q**101",
        "q**" + "9" * 5000,
        "9" * 5000,
        "2**3**2",
        "2**3",
        "2*3",
        "(q",
        "q)",
        "q/(h - h)",
        "q/h/lam",
        "lam lam",
        "+q",
        "- -h",
        "q + -h",
        "q*",
        "*q",
        "q^2",
        "\u0663",
        "(" * 5000 + "q" + ")" * 5000,
        "((q + 1))",
        # products and powers of sums, which the printer never writes
        "(q + 1)*(h + 1)",
        "(q + 1)**2",
        "-2**2",
        "(-q)**2",
        "2*q**3/4 - -h",
        "q**0 + (q - q)**0",
        "(q+1)**100",
        "(2**100)**99",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ScalarError):
        Scalar.parse(text)


def _product(*factors):
    return "*".join(factors)


#: (q**600 - h**600)/((q*h)**300 - h**600), 175 bytes
_SPREAD = "({} - {})/({} - {})".format(
    _product(*["q**100"] * 6), _product(*["h**100"] * 6),
    _product(*["q**100", "h**100"] * 3), _product(*["h**100"] * 6),
)

#: 101 terms over 101 terms: each within the size bound, their count is not
_MANY_TERMS = "({})/({})".format(
    " + ".join(f"q**{e}" for e in range(100, -1, -1)),
    " + ".join(f"h**{e}" for e in range(100, -1, -1)),
)


@pytest.mark.parametrize(
    "text, reason",
    [
        # in the printed shape: the value is refused before any gcd is taken
        pytest.param(text, "value too large", id=name)
        for name, text in [
            ("degree-3x100", "(q**100*h**100*lam**100 - 1)/(q**50*h**50*lam**50 - 1)"),
            ("degree-100-sum", "(q**100 + h**100 + lam**100)/(q**99*h - h**99*lam + lam**99*q)"),
            ("repeated-names", _SPREAD),
            ("long-coefficient", "({}*q**99*h**99 - 1)/(q**99 - h**99)".format("7" * 1500)),
            ("term-count", _MANY_TERMS),
        ]
    ]
    + [
        # powers and products of sums, which the printer never writes: the
        # string is refused as unreadable before any value is formed
        pytest.param(text, "cannot read term", id=text)
        for text in [
            "((2**100)**100)**2",
            "((q+h+lam+1)**20)**3",
            "((q+h+lam+1)**20)**5",
            "((q**100)**100)**2",
            "((q+h+lam+1)**22*(q+h+lam+5))/((q+h+lam+2)**22*(q+h+lam+3))",
        ]
    ],
)
def test_parse_bounds_its_work(text, reason):
    # each string is short, but its value is too large to cancel
    start = time.perf_counter()
    with pytest.raises(ScalarError, match=re.escape(reason)):
        Scalar.parse(text)
    assert time.perf_counter() - start < 1


def test_parse_accepts_values_within_the_work_bound():
    # (q + 1)**100 has 101 terms whose largest coefficient has 97 bits:
    # 101 * 97 = 9797 is within the bound of 10 000
    for value in (Q**100, Q**99 + 2, (Q + 1) ** 100, (Q**99 * H**99 - 1) / (Q**99 - H**99)):
        assert Scalar.parse_canonical(str(value)) == value
    assert Scalar.parse("q**100*q**100") == Q**200


def test_specialize():
    s = (Q * Q + H) / LAM
    v = s.specialize(DEFAULT_ASSIGNMENT)
    assert isinstance(v._f, Fraction)
    assert v._f == (Fraction(7, 3) ** 2 + Fraction(2, 5)) / 1
    partial = s.specialize({"q": 2})
    assert "h" in _names(partial) and "q" not in _names(partial)


def test_specialize_pole():
    s = 1 / (Q - 2)
    with pytest.raises(PoleError):
        s.specialize({"q": 2})


def test_foreign_types_not_coerced():
    with pytest.raises(TypeError):
        Q + "h"
    assert (Q == "h") is False


def test_immutable():
    with pytest.raises(AttributeError):
        Q._f = None


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def scalars(draw):
    a, b, c = draw(_small), draw(_small), draw(_small)
    return a * Q + b * H + scalar(c)


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * (y * z) == (x * y) * z


@settings(max_examples=40, deadline=None)
@given(scalars())
def test_specialization_is_homomorphic(x):
    y = x * Q + 1
    assert (x * y).specialize(DEFAULT_ASSIGNMENT) == x.specialize(
        DEFAULT_ASSIGNMENT
    ) * y.specialize(DEFAULT_ASSIGNMENT)


# -- the two representations: constants as Fraction, the rest in the field --

_rationals = st.fractions(max_denominator=50).filter(lambda x: abs(x) < 1000)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(), _rationals))
def test_hash_matches_int_and_fraction(x):
    s = Scalar(x)
    assert s == x
    assert hash(s) == hash(x)
    assert str(s) == str(Fraction(x))


@st.composite
def mixed_scalars(draw):
    """A constant, a polynomial or a rational function, each with small coefficients."""
    c = scalar(draw(_rationals))
    kind = draw(st.sampled_from(["const", "poly", "ratio"]))
    if kind == "const":
        return c
    p = c + draw(_small) * Q * H + draw(_small) * LAM
    if kind == "poly" or not p:
        return p
    den = Q * draw(st.integers(min_value=1, max_value=3)) + draw(_small)
    return p / den


def _field(s):
    """s as an element of sympy's ZZ(q,h,lam)."""
    f = s._f
    if isinstance(f, Fraction):
        return _FIELD(f.numerator) / _FIELD(f.denominator)
    return _FIELD.new(_RING.from_dict(f.numer), _RING.from_dict(f.denom))


def _same(fast, reference):
    """fast is reference: the same value, string and hash, in canonical form."""
    numer, denom = reference.numer, reference.denom
    if numer.is_ground and denom.is_ground:
        expected = Fraction(int(numer.LC), int(denom.LC))
        assert fast._f == expected and type(fast._f) is Fraction
        assert hash(fast) == hash(expected)
    else:
        f = fast._f
        assert isinstance(f, RatFunc)
        assert (f.numer, f.denom) == (dict(numer), dict(denom))
        assert hash(fast) == hash((frozenset(numer.items()), frozenset(denom.items())))
    assert str(fast) == str(reference)


class _Int(int):
    pass


class _Enum(IntEnum):
    THREE = 3


class _Fraction(Fraction):
    pass


@settings(max_examples=150, deadline=None)
@given(mixed_scalars(), mixed_scalars(), st.integers(min_value=-3, max_value=3))
@example(Q, ONE, 1)
@example(ONE / 3, Q, 1)
def test_fast_path_agrees_with_field(x, y, n):
    fx, fy = _field(x), _field(y)
    _same(x + y, fx + fy)
    _same(x - y, fx - fy)
    _same(x * y, fx * fy)
    _same(-x, -fx)
    if y:
        _same(x / y, fx / fy)
    if x or n > 0:
        _same(x**n, fx**n if n >= 0 else _FIELD.one / fx ** (-n))
    # a bool or a subclass of int or Fraction computes as the equal exact value
    for k in (0, 3, Fraction(-2, 5), True, _Int(3), _Enum.THREE, _Fraction(-2, 5)):
        fk = _field(scalar(k))
        _same(x + k, fx + fk)
        _same(k + x, fk + fx)
        _same(x - k, fx - fk)
        _same(k - x, fk - fx)
        _same(x * k, fx * fk)
        _same(k * x, fk * fx)
        if x:
            _same(k / x, fk / fx)
        if k:
            _same(x / k, fx / fk)


_big = st.integers(min_value=-(2**200), max_value=2**200)
_exact = st.one_of(
    st.sampled_from([0, 1, -1]),
    _big,
    st.builds(Fraction, _big, _big.filter(bool)),
    _rationals,
)


@settings(max_examples=300, deadline=None)
@given(_exact, _exact)
@example(Fraction(1, 6), Fraction(-1, 6))
@example(Fraction(-3, 4), Fraction(-9, 10))
def test_constant_branch_matches_fraction(x, y):
    fx, fy = Fraction(x), Fraction(y)
    cases = [
        (ratfunc.plus(x, y), fx + fy),
        (ratfunc.minus(x, y), fx - fy),
        (ratfunc.times(x, y), fx * fy),
        (ratfunc.negate(x), -fx),
    ]
    if y:
        cases.append((ratfunc.divide(x, y), fx / fy))
    else:
        with pytest.raises(ZeroDivisionError):
            ratfunc.divide(x, y)
    for r, expected in cases:
        assert type(r) is Fraction
        assert r == expected and hash(r) == hash(expected) and str(r) == str(expected)
        n, d = r.numerator, r.denominator
        assert type(n) is int and type(d) is int
        assert d > 0 and gcd(n, d) == 1


def test_constant_arithmetic_skips_fraction_operators(monkeypatch):
    relations = a0q(2).specialize(DEFAULT_ASSIGNMENT).relations
    expected = complete(relations, 3).rules

    def refuse(*args):
        raise AssertionError("a Fraction operator ran")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        monkeypatch.setattr(Fraction, name, refuse)
    a, b = Scalar(7) / 3, Scalar(-2) / 5
    assert a + b == Fraction(29, 15) and a - b == Fraction(41, 15)
    assert a * b == Fraction(-14, 15) and a / b == Fraction(-35, 6)
    assert -a == Fraction(-7, 3) and 3 - a == Fraction(2, 3) and 1 / b == Fraction(-5, 2)
    # nor when a constant meets a rational function
    x = (Q + 1) / H
    assert (a + x) - x == a and (a - x) + x == a and (x - a) + a == x
    assert (a * x) / x == a and (x / a) * a == x and (a / x) * x == a
    assert complete(relations, 3).rules == expected


def _eval_poly(poly, images, zero=ZERO):
    """poly at a point, term by term: the reference for specialize.  The
    images are Scalars, or sympy field elements with zero=_FIELD.zero.
    """
    out = zero
    for monom, coeff in poly.items():
        term = coeff
        for img, exp in zip(images, monom):
            if exp:
                term = term * img**exp
        out = out + term
    return out


@settings(max_examples=100, deadline=None)
@given(mixed_scalars(), st.integers(min_value=1, max_value=3),
       st.sampled_from(("q", "h", "lam")), mixed_scalars())
@example(Q * H / (LAM + 1), 2, "h", LAM * (Q - 1))
@example(LAM + 1, 1, "lam", ZERO)
def test_specialize_at_a_parametric_point(x, n, name, image):
    x = x**n
    f = x._f
    if isinstance(f, Fraction):
        assert x.specialize({name: image}) == x
        return
    images = [image if p == name else s for p, s in zip(("q", "h", "lam"), (Q, H, LAM))]
    den = _eval_poly(f.denom, images)
    if not den:
        with pytest.raises(PoleError):
            x.specialize({name: image})
        return
    value = x.specialize({name: image})
    assert value == _eval_poly(f.numer, images) / den
    fimages = [_field(s) for s in images]
    # sympy's zero + 1 is the int 1, so each sum is put back into the field
    fnum, fden = (_FIELD(_eval_poly(p, fimages, _FIELD.zero)) for p in (f.numer, f.denom))
    _same(value, fnum / fden)


_point_values = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=100, deadline=None)
@given(mixed_scalars(), st.integers(min_value=1, max_value=3),
       st.tuples(_point_values, _point_values, _point_values))
@example(Q * H / (LAM + 1), 2, (Fraction(1, 2), Fraction(3), Fraction(-1)))
@example((H - 2 * LAM) / (Q * H - 1), 1, (Fraction(2), Fraction(1, 2), Fraction(-2, 3)))
def test_specialize_at_a_rational_point(x, n, values):
    # all of q, h and lam set to rationals, against sympy's own substitution;
    # the small values sometimes hit a pole of the drawn denominators
    x = x**n
    point = dict(zip(("q", "h", "lam"), values))
    fx = _field(x)
    den = _sympy_rational(fx.denom, point)
    if not den:
        with pytest.raises(PoleError):
            x.specialize(point)
        return
    value = x.specialize(point)._f
    assert type(value) is Fraction
    assert value == _sympy_rational(fx.numer, point) / den


@settings(max_examples=100, deadline=None)
@given(mixed_scalars())
def test_parse_canonical_round_trip(x):
    back = Scalar.parse_canonical(str(x))
    assert back == x
    assert hash(back) == hash(x)


def test_hash_of_equal_parametric_values():
    x = Q * H + LAM
    assert x**2 == x * x
    assert hash(x**2) == hash(x * x)


def test_cancellation_demotes_to_fraction():
    for value, expected in [
        (Q / Q, 1),
        ((Q + 1) - Q, 1),
        ((Q * H - 1) / (2 * Q * H - 2), Fraction(1, 2)),
        (Q * H - H * Q, 0),
        (((Q + H) / 3).specialize({"q": 1, "h": 2}), 1),
    ]:
        assert isinstance(value._f, Fraction)
        assert value == expected and hash(value) == hash(expected)
        assert value == Fraction(expected)


def test_constant_methods():
    c = scalar(Fraction(-3, 7))
    assert c.specialize(DEFAULT_ASSIGNMENT) == c
    assert not _names(c)
    assert isinstance(c._f, Fraction) and c._f == Fraction(-3, 7)
    assert c**-2 == Fraction(49, 9)
    assert ZERO**0 == Q**0 == 1
    assert repr(c) == "Scalar(-3/7)"


def test_negative_power_is_canonical():
    assert (-Q) ** -1 == -1 / Q
    assert str((-Q) ** -1) == "-1/q"
    assert (1 / (-Q)) ** -1 == -Q


def test_printer_matches_sympy():
    for value in (
        (Q * H - 2) / (3 * Q**2 + LAM),
        (-Q - 1) / (2 * H),
        -1 / Q,
        -Q / H,
        Q / 3,
        (-Q + 1) / 3,
        2 * Q / (H * LAM),
        -2 / (Q + 1),
        -Q * H / (H + 1),
        -(Q**3) * H**2 * LAM + 7,
    ):
        assert str(value) == str(_field(value))


# -- rpencil.ratfunc against sympy's ZZ(q,h,lam) on inputs with real gcds --

_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    st.integers(min_value=-4, max_value=4).filter(bool),
    min_size=1,
    max_size=4,
)


@st.composite
def shared_factors(draw):
    """Six random polynomials a..f; x = a*c/(b*d) and y = d*e/(c*f) share
    c and d, so their products, quotients and sums cancel real gcds.
    """
    return [draw(_polys) for _ in range(6)]


def _ratio(top, bottom):
    """(sympy element, Scalar) for the product of top over the product of
    bottom; sympy and ratfunc each cancel it by their own gcd.
    """
    num, den, fnum, fden = ratfunc.ONE, ratfunc.ONE, _RING.one, _RING.one
    for p in top:
        num, fnum = ratfunc.mul(num, p), fnum * _RING.from_dict(p)
    for p in bottom:
        den, fden = ratfunc.mul(den, p), fden * _RING.from_dict(p)
    return _FIELD.new(fnum, fden), Scalar(RatFunc.new(num, den))


def _sympy_rational(poly, point):
    value = poly.as_expr().subs({name: Rational(v.numerator, v.denominator)
                                 for name, v in point.items()})
    return Fraction(int(value.p), int(value.q))


@settings(max_examples=120, deadline=None)
@given(shared_factors(), st.integers(min_value=-2, max_value=3))
def test_field_matches_sympy(polys, n):
    a, b, c, d, e, f = polys
    fx, x = _ratio([a, c], [b, d])
    fy, y = _ratio([d, e], [c, f])
    _same(x, fx)
    _same(x + y, fx + fy)
    _same(x - y, fx - fy)
    _same(x * y, fx * fy)
    _same(x / y, fx / fy)
    _same(x * x - y, fx * fx - fy)
    _same(x**n, fx**n if n >= 0 else _FIELD.one / fx ** (-n))
    # parse a non-canonical spelling of x, built from sympy's strings of the
    # expanded products
    text = "({})/({})".format(*(_RING.from_dict(p) * _RING.from_dict(r) for p, r in ((a, c), (b, d))))
    _same(Scalar.parse(text), fx)
    assert Scalar.parse_canonical(str(fx)) == x
    # specialize at the fast-mode point, and in q only
    den = _sympy_rational(fx.denom, DEFAULT_ASSIGNMENT)
    if den:
        expected = _sympy_rational(fx.numer, DEFAULT_ASSIGNMENT) / den
        assert x.specialize(DEFAULT_ASSIGNMENT) == expected
    else:
        with pytest.raises(PoleError):
            x.specialize(DEFAULT_ASSIGNMENT)
    if fx.denom.subs(_RING.gens[0], 2):
        _same(x.specialize({"q": 2}), fx.subs(_SQ, 2))


@settings(max_examples=120, deadline=None)
@given(shared_factors())
# gcd(lam**2, h**2*lam): the gcd lam is free of h, while the cofactor of
# h**2*lam is not
@example([{(0, 0, 2): 1}, {(0, 2, 1): 1}] + [{(0, 0, 0): 1}] * 4)
def test_gcd_fallback_matches_heuristic(polys):
    a, b, c, d, e, f = polys
    for top, bottom in ((ratfunc.mul(a, c), ratfunc.mul(b, c)),
                        (ratfunc.mul(ratfunc.mul(a, c), d), ratfunc.mul(c, ratfunc.mul(d, e))),
                        (ratfunc.power(c, 2), ratfunc.mul(c, f))):
        h = ratfunc.prs_gcd(top, bottom)
        expected = _RING.from_dict(top).gcd(_RING.from_dict(bottom))
        if expected.LC < 0:
            expected = -expected
        assert h == dict(expected)
        found = ratfunc._heu_gcd(top, bottom, 0)
        if found is not None:
            g, cf, cg = found
            assert g == h
            assert ratfunc.mul(g, cf) == top and ratfunc.mul(g, cg) == bottom


# Pairs whose first evaluation point fails at the innermost level, so GCDHEU
# interpolates at a second point.
@pytest.mark.parametrize("f,g", [
    ("2*q**4*h*lam - 3*q**2*h*lam**3", "6*q**4*h**2 - 9*q**2*h**2*lam**2"),
    ("q**2*h*lam + q**2*h - 3*q*h**3*lam**3 - 3*q*h**3*lam**2",
     "4*q**3*h - 12*q**2*h**3*lam**2 + 2*q**2*h*lam**2 - 6*q*h**3*lam**4"),
])
def test_heuristic_gcd_matches_sympy_and_prs(f, g):
    f, g = (_RING.from_expr(sympify(p)) for p in (f, g))
    expected = f.gcd(g)
    if expected.LC < 0:
        expected = -expected
    f, g = dict(f), dict(g)
    h, cf, cg = ratfunc.cofactors(f, g)
    assert h == dict(expected) == ratfunc.prs_gcd(f, g)
    assert ratfunc.mul(h, cf) == f and ratfunc.mul(h, cg) == g
    assert ratfunc._heu_gcd(f, g, 0) == (h, cf, cg)


def test_rpencil_runs_without_sympy():
    # the field is rpencil's own: importing, loading a parametric file and
    # running a symbolic suite never load sympy
    code = """
import sys
import rpencil
from rpencil import serialize
text = serialize.dumps(rpencil.s_w(rpencil.hecke_s(2)))
assert serialize.dumps(serialize.loads(text)) == text and "q" in text
assert rpencil.run_suite("quantum-type2", n=2)["verdict"] == "pass"
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
assert not loaded, loaded
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
