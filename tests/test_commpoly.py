import pytest

from rpencil.commpoly import GeneratorError, Poly
from rpencil.scalars import LAM, Q, scalar

GENS = ("x", "y", "z")


def g(name):
    return Poly.generator(GENS, name)


def test_zero_and_constant():
    assert Poly.zero(GENS).is_zero()
    assert Poly.constant(GENS, 3).total_degree() == 0
    assert Poly.zero(GENS).total_degree() == -1


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
    assert p.diff(2).is_zero()


def test_substitute():
    x, y = g("x"), g("y")
    p = x * y + x
    shifted = p.substitute({"x": x + Poly.constant(GENS, LAM)})
    expected = x * y + LAM * y + x + Poly.constant(GENS, LAM)
    assert shifted == expected


def test_coefficient_of_param():
    x = g("x")
    p = (Q * LAM) * x + LAM * LAM * x * x
    assert p.coefficient_of_param("lam", 1) == Q * x
    assert p.coefficient_of_param("lam", 2) == x * x


def test_generator_mismatch():
    other = Poly.generator(("x", "y"), "x")
    with pytest.raises(GeneratorError):
        g("x") + other


def test_scalar_coefficients_collapse():
    x = g("x")
    assert ((Q - Q) * x).is_zero()
    assert (x - x).is_zero()
