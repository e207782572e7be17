import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpencil import linalg
from rpencil.glie import type2_bracket
from rpencil.linalg import (
    DimensionMismatch,
    Mat,
    SubspaceBasis,
    annihilator,
    complementary,
    image,
    intersect,
    kernel,
    rref,
)
from rpencil.scalars import ONE, Q, ZERO, Scalar, scalar
from rpencil.suites import _overlap_certified


def dense(rows):
    return Mat.from_dense([[scalar(v) for v in row] for row in rows])


def test_identity_and_shape():
    eye = Mat.identity(3)
    assert eye.shape == (3, 3)
    assert eye * eye == eye


def test_matmul_and_apply():
    a = dense([[1, 2], [3, 4]])
    b = dense([[0, 1], [1, 0]])
    assert a * b == dense([[2, 1], [4, 3]])
    assert a.apply({0: ONE, 1: scalar(1)}) == {0: scalar(3), 1: scalar(7)}


def test_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        dense([[1, 2]]) * dense([[1, 2]])
    with pytest.raises(DimensionMismatch):
        dense([[1]]) + dense([[1, 2]])
    with pytest.raises(DimensionMismatch):
        complementary(SubspaceBasis(2, []), SubspaceBasis(3, []))


def test_transpose_kron():
    a = dense([[1, 2], [3, 4]])
    assert a.transpose().transpose() == a
    k = a.kron(Mat.identity(2))
    assert k.shape == (4, 4)
    assert k[0, 0] == 1 and k[1, 1] == 1 and k[0, 2] == 2


def test_rank_and_inverse():
    a = dense([[Q, 1], [0, 1]])
    assert len(rref(a.rows, a.ncols)[0]) == 2
    inv = a.inverse()
    assert a * inv == Mat.identity(2)
    singular = dense([[1, 2], [2, 4]])
    assert len(rref(singular.rows, singular.ncols)[0]) == 1
    with pytest.raises(DimensionMismatch):
        singular.inverse()


def test_parametric_inverse():
    a = dense([[Q, 1], [1, Q]])
    assert a * a.inverse() == Mat.identity(2)


def test_kernel_image_dims():
    a = dense([[1, 2, 3], [2, 4, 6]])
    ker = kernel(a)
    img = image(a)
    assert ker.dim == 2
    assert img.dim == 1
    for row in ker.rows:
        assert not a.apply(row)


def test_row_space_membership():
    a = dense([[1, 0, 1], [0, 1, 1]])
    rs = SubspaceBasis(a.ncols, a.rows)
    assert rs.contains({0: ONE, 1: ONE, 2: scalar(2)})
    assert not rs.contains({0: ONE})


def test_subspace_canonical_equality():
    s1 = SubspaceBasis(3, [{0: ONE, 1: ONE}, {1: ONE, 2: ONE}])
    s2 = SubspaceBasis(3, [{0: ONE, 2: scalar(-1)}, {1: scalar(2), 2: scalar(2)}])
    assert s1 == s2
    assert s1.dim == 2


def test_mutable_objects_are_unhashable():
    # Mat.set and Mat.add_to write rows in place, so a hash taken before
    # a write would file the matrix under a stale value
    m = dense([[1, 0], [0, 1]])
    for obj in (m, SubspaceBasis(m.ncols, m.rows)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


def test_intersect():
    a = SubspaceBasis(3, [{0: ONE}, {1: ONE}])
    b = SubspaceBasis(3, [{1: ONE}, {2: ONE}])
    c = intersect(a, b)
    assert c.dim == 1
    assert c.contains({1: ONE})


def test_annihilator():
    s = SubspaceBasis(3, [{0: ONE, 1: ONE}])
    ann = annihilator(s)
    assert ann.dim == 2
    for phi in ann.rows:
        for v in s.rows:
            total = sum((phi.get(i, Scalar(0)) * c for i, c in v.items()), Scalar(0))
            assert total == 0


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(5):
        m = Mat(4, 6)
        for i in range(4):
            for j in range(6):
                v = rng.randint(-2, 2)
                if v:
                    m.set(i, j, scalar(v))
        rank = len(rref(m.rows, m.ncols)[0])
        assert rank + kernel(m).dim == 6
        assert image(m).dim == rank


def test_zassenhaus_against_dimension_formula():
    rng = random.Random(11)
    for _ in range(5):
        def rand_basis(k):
            rows = []
            for _ in range(k):
                rows.append(
                    {j: scalar(rng.randint(-2, 2)) for j in range(5) if rng.random() < 0.7}
                )
            return SubspaceBasis(5, rows)

        a, b = rand_basis(3), rand_basis(3)
        both = SubspaceBasis(5, list(a.rows) + list(b.rows))
        assert intersect(a, b).dim == a.dim + b.dim - both.dim


def _reference_rref(rows, ncols):
    """Dense Gauss-Jordan elimination, one column at a time."""
    m = [[row.get(j, ZERO) for j in range(ncols)] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            c = m[i][col]
            if i != r and c:
                m[i] = [a - c * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    reduced = [{j: v for j, v in enumerate(row) if v} for row in m[: len(pivots)]]
    return reduced, pivots


def _reference_residual(vec, reduced, pivots, ncols):
    """vec minus the combination of the RREF rows that clears every pivot column."""
    r = [vec.get(j, ZERO) for j in range(ncols)]
    for row, p in zip(reduced, pivots):
        c = r[p]
        r = [a - c * row.get(j, ZERO) for j, a in enumerate(r)]
    return {j: v for j, v in enumerate(r) if v}


_INTEGER = st.integers(-3, 3).map(scalar)
_Q_LINEAR = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
    lambda ab: scalar(ab[0]) + ab[1] * Q
)
# 3q - 7 vanishes at the fast-mode point q = 7/3, where 1/(3q - 7) has a pole
_AT_POINT = 3 * Q - 7
_VANISHING = st.one_of(_INTEGER, st.integers(-2, 2).map(lambda k: k * _AT_POINT))
_POLE = st.one_of(_INTEGER, st.integers(-2, 2).map(lambda k: k / _AT_POINT))


@st.composite
def _sparse_system(draw):
    ncols = draw(st.integers(1, 6))
    entry = draw(st.sampled_from([_INTEGER, _Q_LINEAR]))
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4)
    return draw(st.lists(row, max_size=6)), draw(row), ncols


@settings(max_examples=150, deadline=None)
@given(_sparse_system())
def test_rref_matches_dense_reference(system):
    # zero entries in the input rows are allowed and must not become pivots
    rows, vec, ncols = system
    reduced, pivots = _reference_rref(rows, ncols)
    assert rref(rows, ncols) == (reduced, pivots)
    space = SubspaceBasis(ncols, rows)
    assert (space.rows, space.pivots) == (reduced, pivots)
    residual = _reference_residual(vec, reduced, pivots, ncols)
    assert space.reduce(vec) == residual
    assert space.contains(vec) == (len(_reference_rref(rows + [vec], ncols)[1]) == len(pivots))
    assert space.contains(vec) == (not residual)


def test_rref_back_substitutes_into_filled_in_columns():
    # eliminating pivot 2 gives the first two rows a 3 they did not have,
    # and column 3 is the next pivot: an index of the input columns alone
    # would leave those entries standing
    rows = [{0: ONE, 2: ONE}, {1: ONE, 2: ONE}, {2: ONE, 3: ONE}, {3: ONE}]
    reduced, pivots = _reference_rref(rows, 4)
    assert pivots == [0, 1, 2, 3] and reduced == [{j: ONE} for j in range(4)]
    assert rref(rows, 4) == (reduced, pivots)


def _reference_kernel(m):
    """One kernel vector per free column f: e_f minus f's entry in each pivot row."""
    rows, pivots = rref(m.rows, m.ncols)
    vecs = []
    for f in range(m.ncols):
        if f not in pivots:
            vec = {f: ONE}
            for piv, row in zip(pivots, rows):
                if f in row:
                    vec[piv] = -row[f]
            vecs.append(vec)
    return vecs


@settings(max_examples=150, deadline=None)
@given(_sparse_system())
def test_kernel_and_annihilator_match_reference(system):
    rows, _, ncols = system
    before = [dict(row) for row in rows]
    m = Mat(len(rows), ncols, rows)
    assert kernel(m).rows == SubspaceBasis(ncols, _reference_kernel(m)).rows
    space = SubspaceBasis(ncols, rows)
    space_rows = [dict(row) for row in space.rows]
    ann = annihilator(space)
    assert ann.rows == SubspaceBasis(ncols, _reference_kernel(Mat(space.dim, ncols, space_rows))).rows
    # rref, kernel and annihilator read their input rows and never write them
    assert rows == before and space.rows == space_rows


@st.composite
def _subspace_pair(draw):
    # row counts that add up to d, or one more, so that both answers occur;
    # the last two entry kinds make the point test fail on some complementary pairs
    d = draw(st.integers(1, 5))
    entry = draw(st.sampled_from([_INTEGER, _Q_LINEAR, _VANISHING, _POLE]))
    row = st.dictionaries(st.integers(0, d - 1), entry, min_size=1, max_size=d)
    k = draw(st.integers(0, d))
    extra = draw(st.integers(0, 1))
    a = draw(st.lists(row, min_size=k, max_size=k))
    b = draw(st.lists(row, min_size=d - k + extra, max_size=d - k + extra))
    return SubspaceBasis(d, a), SubspaceBasis(d, b)


@settings(max_examples=150, deadline=None)
@given(_subspace_pair())
def test_complementary_matches_intersection(pair):
    a, b = pair
    d = a.ambient_dim
    assert complementary(a, b) == (intersect(a, b).dim == 0 and a.dim + b.dim == d)
    assert complementary(b, a) == complementary(a, b)


def test_complementary_where_the_point_fails():
    e0 = SubspaceBasis(2, [{0: ONE}])
    # the residual of e0 modulo b is -(3q - 7) e1, zero at the point
    loses_rank = SubspaceBasis(2, [{0: ONE, 1: _AT_POINT}])
    # b's basis has an entry with a pole at the point
    pole = SubspaceBasis(2, [{0: ONE, 1: 1 / _AT_POINT}])
    for b in (loses_rank, pole):
        assert complementary(e0, b) and complementary(b, e0)
    line = SubspaceBasis(2, [{0: ONE, 1: Q}])
    assert not complementary(line, SubspaceBasis(2, [{0: Q, 1: Q * Q}]))
    assert not complementary(
        SubspaceBasis(2, [{0: ONE, 1: ONE}]), SubspaceBasis(2, [{0: scalar(2), 1: scalar(2)}])
    )


def test_complementary_ranks_only_at_the_point(monkeypatch):
    bracket = type2_bracket(3)
    constant_rows = []

    def recording_rref(rows, ncols):
        constant_rows.append(
            all(isinstance(v._f, Fraction) for row in rows for v in row.values())
        )
        return rref(rows, ncols)

    monkeypatch.setattr(linalg, "rref", recording_rref)
    assert complementary(bracket.i_plus, bracket.i_minus)
    assert constant_rows == [True]


@st.composite
def _overlap_case(draw):
    # a random I in V(x)V, dim V = 2 or 3, spanned by sparse rows and by
    # products u(x)w, so that the overlap is often nonzero, plus the material
    # for three wrong overlaps
    N = draw(st.sampled_from([2, 3]))
    entry = draw(st.sampled_from([_INTEGER, _Q_LINEAR, _VANISHING, _POLE]))
    vec = st.dictionaries(st.integers(0, N - 1), entry, min_size=1, max_size=2)
    tensor = st.tuples(vec, vec).map(
        lambda uw: {a * N + b: x * y for a, x in uw[0].items() for b, y in uw[1].items()}
    )
    sparse = st.dictionaries(st.integers(0, N * N - 1), entry, min_size=1, max_size=2)
    i = SubspaceBasis(N * N, draw(st.lists(st.one_of(tensor, sparse), max_size=N * N)))
    foreign = draw(st.dictionaries(st.integers(0, N**3 - 1), entry, min_size=1, max_size=3))
    return N, i, foreign, draw(st.integers(0, 30))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_overlap_case())
# I = e0(x)(e0 + (3q - 7) e1) has overlap zero; at the point I = e0(x)e0,
# whose overlap e0(x)e0(x)e0 makes the rank there fall short
@example((2, SubspaceBasis(4, [{0: ONE, 1: _AT_POINT}]), {0: ONE}, 0))
def test_overlap_certificate_matches_intersection(case):
    N, i, foreign, pick = case
    # I(x)V and V(x)I spanned index by index, not with kron as the certificate
    left = SubspaceBasis(
        N**3, [{ab * N + c: v for ab, v in row.items()} for row in i.rows for c in range(N)]
    )
    right = SubspaceBasis(
        N**3, [{a * N * N + bc: v for bc, v in row.items()} for row in i.rows for a in range(N)]
    )
    truth = intersect(left, right)
    true_rows = truth.rows
    j = pick % max(truth.dim, 1)
    candidates = [
        true_rows,
        true_rows[:j] + true_rows[j + 1 :],
        true_rows[:j] + [foreign] + true_rows[j + 1 :],
    ]
    left_only = next((r for r in left.rows if not right.contains(r)), None)
    if left_only is not None:
        candidates.append(true_rows[:j] + [left_only] + true_rows[j + 1 :])
    for cand_rows in candidates:
        overlap = SubspaceBasis(N**3, cand_rows)
        g = SimpleNamespace(i_minus=i, overlap=overlap, dim=N)
        assert _overlap_certified(g) == (overlap == truth)
