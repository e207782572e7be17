import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpencil.commpoly import GeneratorError, Poly
from rpencil.freealg import FreeElement
from rpencil.scalars import Q, scalar

GENS = ("x", "y", "z")


def g(name):
    return Poly.generator(GENS, name)


def test_zero_and_constant():
    assert not Poly.zero(GENS)
    assert Poly.constant(GENS, 3).terms == {(0, 0, 0): 3}
    assert Poly.zero(GENS).terms == {}


def test_unknown_generator():
    with pytest.raises(GeneratorError):
        Poly.generator(GENS, "w")


def test_commutative_product():
    x, y = g("x"), g("y")
    assert x * y == y * x
    assert (x + y) * (x - y) == x * x - y * y


def test_diff():
    x, y = g("x"), g("y")
    p = x * x * y + 2 * x
    assert p.diff(0) == 2 * x * y + Poly.constant(GENS, 2)
    assert p.diff(1) == x * x
    assert not p.diff(2)


def test_generator_mismatch():
    other = Poly.generator(("x", "y"), "x")
    with pytest.raises(GeneratorError):
        g("x") + other


def test_cross_type_operands():
    x, y = g("x"), FreeElement.generator(GENS, "y")
    for a, b in ((x, y), (y, x)):
        with pytest.raises(GeneratorError):
            a + b
        with pytest.raises(GeneratorError):
            a - b
        with pytest.raises(TypeError):
            a * b
    assert Poly.zero(GENS) != FreeElement.zero(GENS)


def test_scalar_coefficients_collapse():
    x = g("x")
    assert not ((Q - Q) * x)
    assert not (x - x)


exponents = st.tuples(*[st.integers(0, 2)] * len(GENS))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=4))
    return Poly(GENS, {m: scalar(c) for m, c in terms.items()})


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, p, r):
    zero = Poly.zero(GENS)
    assert (f + p) + r == f + (p + r)
    assert f * (p + r) == f * p + f * r
    assert (f * p) * r == f * (p * r)
    assert f * p == p * f
    assert f - f == zero
    assert f + zero == f
    assert f + p == p + f and hash(f + p) == hash(p + f)
