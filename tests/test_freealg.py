import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpencil.commpoly import GeneratorError
from rpencil.freealg import FreeElement, deglex_key
from rpencil.scalars import Q, scalar

GENS = ("x", "y")
X = FreeElement.generator(GENS, "x")
Y = FreeElement.generator(GENS, "y")


def test_noncommutative():
    assert X * Y != Y * X
    assert (X * Y - Y * X).degree() == 2


def test_degree_and_leading():
    f = X * Y * X + Q * X + FreeElement.constant(GENS, 2)
    assert f.degree() == 3
    # the leading word x*y*x prints first
    assert str(f).startswith("x*y*x + ")


def test_zero_degree():
    assert FreeElement.zero(GENS).degree() == -1
    assert not FreeElement.zero(GENS)


def test_unknown_generator():
    with pytest.raises(GeneratorError):
        FreeElement.generator(GENS, "z")
    with pytest.raises(GeneratorError):
        X + FreeElement.generator(("x", "z"), "x")


def test_homogeneous_part():
    f = X * Y + X + Y * X
    assert f.homogeneous_part(2) == X * Y + Y * X
    assert f.homogeneous_part(1) == X
    assert not f.homogeneous_part(0)


def test_deglex_order():
    assert deglex_key((0,)) < deglex_key((1,))
    assert deglex_key((1, 1)) > deglex_key((1,))
    assert deglex_key((0, 1)) < deglex_key((1, 0))


def test_vector_round_trip():
    f = X * Y - Q * (Y * X)
    vec = f.to_vector(2)
    assert vec == {1: scalar(1), 2: -Q}
    assert FreeElement.from_vector(GENS, 2, vec) == f
    with pytest.raises(ValueError):
        (X + X * Y).to_vector(2)


def test_specialize():
    f = Q * X
    assert f.specialize({"q": 5}) == 5 * X


words = st.lists(st.integers(0, 1), min_size=0, max_size=3).map(tuple)


@st.composite
def elements(draw):
    terms = draw(st.dictionaries(words, st.integers(-3, 3), max_size=4))
    return FreeElement(GENS, {w: scalar(c) for w, c in terms.items()})


@settings(max_examples=40, deadline=None)
@given(elements(), elements(), elements())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f + FreeElement.zero(GENS) == f
