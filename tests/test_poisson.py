from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpencil.commpoly import GeneratorError, Poly
from rpencil.linalg import Mat
from rpencil.poisson import (
    PoissonStructure,
    are_compatible,
    constant_symplectic,
    coordinate_generators,
    double_lie_check,
    gl_bracket,
    gl_structure,
    lambda_linear_term,
    linearized,
    matrix_generators,
    matrix_pairs,
    pencil,
    rmatrix_bracket,
    schouten_bracket,
    sd_quadratic,
)
from rpencil.rmatrix import canonical_r_sp, closes_under_commutator, sp_fundamental
from rpencil.scalars import LAM, ONE, Q, scalar


def P(gens, name):
    return Poly.generator(gens, name)


def test_generator_names():
    assert matrix_generators(2) == ("a", "b", "c", "d")
    assert matrix_generators(3)[0] == "a_1^1"
    assert matrix_generators(3)[5] == "a_2^3"


def test_quadratic_table_n2():
    sd = sd_quadratic(2)
    gens = sd.generators
    a, b, c, d = (P(gens, x) for x in "abcd")
    assert sd.bracket(a, b) == a * b
    assert sd.bracket(a, d) == 2 * b * c
    assert not sd.bracket(b, c)
    assert sd.bracket(b, a) == -(a * b)


def test_leibniz_extension():
    sd = sd_quadratic(2)
    gens = sd.generators
    a, d = P(gens, "a"), P(gens, "d")
    b, c = P(gens, "b"), P(gens, "c")
    # {a^2, d} = 2a{a,d} by the Leibniz rule
    assert sd.bracket(a * a, d) == 4 * a * b * c
    assert not sd.bracket(a, a)


def test_linear_table_n2():
    lin = linearized(2)
    gens = lin.generators
    a, b, c, d = (P(gens, x) for x in "abcd")
    assert lin.bracket(a, b) == b
    assert not lin.bracket(a, d)
    assert lin.bracket(b, d) == b
    assert lin.bracket(c, d) == c


def _degrees(p):
    """The total degrees of the monomials in p's table."""
    return {sum(m) for poly in p.table.values() for m in poly.terms}


def test_kind():
    assert _degrees(sd_quadratic(2)) == {2}
    assert _degrees(linearized(2)) == {1}
    assert _degrees(gl_bracket(2)) == {1}
    assert _degrees(constant_symplectic(2)) == {0}
    assert repr(sd_quadratic(2)) == "PoissonStructure(4 generators, 5 pairs)"


def test_jacobi():
    for n in (2, 3):
        ok, witness = sd_quadratic(n).is_poisson()
        assert ok, witness
        ok, witness = linearized(n).is_poisson()
        assert ok, witness


def test_broken_jacobi_witness():
    sd = sd_quadratic(2)
    gens = sd.generators
    table = dict(sd.table)
    table[(0, 1)] = table[(0, 1)] * scalar(5)  # corrupt {a,b}
    ok, witness = PoissonStructure(gens, table).is_poisson()
    assert not ok
    assert witness == ("a", "b", "d")


def test_compatibility():
    for n in (2, 3):
        ok, witness = are_compatible(linearized(n), sd_quadratic(n))
        assert ok, witness


def test_pencils_are_poisson():
    lin, sd = linearized(2), sd_quadratic(2)
    for a, b in ((1, 1), (2, -3), (0, 1), (5, 7)):
        ok, _ = pencil(lin, sd, a, b).is_poisson()
        assert ok


def test_gl_not_compatible():
    gl, sd = gl_bracket(2), sd_quadratic(2)
    ok, witness = are_compatible(gl, sd)
    assert not ok
    assert witness == ("a", "b", "c")
    # the (a, b, d) component is the value the pencil-type2 report prints
    assert str(schouten_bracket(gl, sd)[(0, 1, 3)]) == "(-2)*a*b + (2)*b*d"


@pytest.mark.parametrize("key", [(-1, 1), (0, 5)])
def test_table_keys_must_index_generators(key):
    gens = ("x", "y", "z")
    with pytest.raises(GeneratorError, match="0 <= i < j < dim"):
        PoissonStructure(gens, {key: P(gens, "x")})


def test_compatibility_needs_same_generators():
    with pytest.raises(GeneratorError):
        are_compatible(sd_quadratic(2), constant_symplectic(4))


def test_linearization():
    for n in (2, 3, 4, 5):
        assert lambda_linear_term(sd_quadratic(n), n) == linearized(n)


@pytest.mark.parametrize("c", [LAM, 1 / LAM, Q / (LAM + 1)], ids=["lam", "1/lam", "q/(lam + 1)"])
def test_linearization_refuses_lam_coefficients(c):
    # the derivative gives the lam-linear term only for lam-free coefficients
    sd = sd_quadratic(2)
    with pytest.raises(ValueError, match="free of lam"):
        lambda_linear_term(pencil(sd, sd, c, 0), 2)


def test_double_lie_identity():
    for n in (2, 3):
        ok, mismatches = double_lie_check(n)
        assert ok, mismatches


def test_n3_sample_entries():
    lin = linearized(3)
    gens = lin.generators
    x, y = P(gens, "a_1^2"), P(gens, "a_2^3")
    assert lin.bracket(x, y) == 2 * P(gens, "a_1^3")


def test_sp_representation_closes():
    for dim in (2, 4):
        assert closes_under_commutator(sp_fundamental(dim))


def test_rmatrix_bracket_sp():
    for dim in (2, 4):
        br = rmatrix_bracket(canonical_r_sp(dim))
        ok, witness = br.is_poisson()
        assert ok, witness
        ok, witness = are_compatible(br, constant_symplectic(dim))
        assert ok, witness


def test_constant_symplectic_requires_even():
    with pytest.raises(ValueError):
        constant_symplectic(3)


def _leibniz_schouten(p1, p2):
    """[P1,P2] at generators through the Leibniz bracket: the mixed Jacobiator."""
    gens = [P(p1.generators, x) for x in p1.generators]
    out = {}
    for key in combinations(range(len(gens)), 3):
        i, j, k = (gens[m] for m in key)
        value = Poly.zero(p1.generators)
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            value = value + p2.bracket(x, p1.bracket(y, z)) + p1.bracket(x, p2.bracket(y, z))
        if value:
            out[key] = value
    return out


_coefficients = st.one_of(
    st.integers(-3, 3).map(scalar),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda ab: ab[0] + ab[1] * Q),
)


@st.composite
def _tables(draw, gens):
    monomials = [m for m in product(range(3), repeat=len(gens)) if sum(m) <= 2]
    table = {}
    for key in combinations(range(len(gens)), 2):
        terms = draw(st.dictionaries(st.sampled_from(monomials), _coefficients, max_size=3))
        table[key] = Poly(gens, terms)
    return PoissonStructure(gens, table)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("x", "y", "z"), ("x", "y", "z", "w")]).flatmap(
    lambda gens: st.tuples(_tables(gens), _tables(gens))))
def test_schouten_matches_leibniz(pair):
    p1, p2 = pair
    for a, b in ((p1, p2), (p2, p1), (p1, p1)):
        components = schouten_bracket(a, b)
        reference = _leibniz_schouten(a, b)
        assert components == reference
        assert list(components) == list(reference)
        assert all(components.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matrix_pairs_match_row_column_definitions(n):
    # a_u = a_{r_u}^{c_u}, row-major; checked against the definitions written
    # out on (row, column) pairs rather than on indices
    pairs = list(matrix_pairs(n))
    assert [(u, v) for u, v, *_ in pairs] == list(combinations(range(n * n), 2))
    index = {(r, c): r * n + c for r in range(n) for c in range(n)}
    for u, v, case, xy, lower in pairs:
        (ru, cu), (rv, cv) = divmod(u, n), divmod(v, n)
        if ru == rv or cu == cv:
            assert (case, xy) == ("line", (u, v))
        elif ru < rv and cu < cv:
            assert (case, xy) == ("diagonal", (index[rv, cu], index[ru, cv]))
        else:
            assert (case, xy, lower) == ("antidiagonal", None, ())
            continue
        x, y = (divmod(w, n) for w in xy)
        want = [index[y]] if x[0] == x[1] else [index[x]] if y[0] == y[1] else []
        assert list(lower) == want
        assert not (x[0] == x[1] and y[0] == y[1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gl_structure_is_the_commutator(n):
    N = n * n

    def elementary(w):
        m = Mat(n, n)
        m.set(*divmod(w, n), ONE)
        return m

    for u, v in product(range(N), repeat=2):
        want = elementary(u) * elementary(v) - elementary(v) * elementary(u)
        got = Mat(n, n)
        for w, sign in gl_structure(n, u, v):
            got.add_to(*divmod(w, n), scalar(sign))
        assert got == want, (u, v)
