import random

import pytest

from rpencil.linalg import (
    DimensionMismatch,
    Mat,
    SubspaceBasis,
    annihilator,
    image,
    intersect,
    kernel,
    member,
)
from rpencil.scalars import ONE, Q, Scalar, scalar


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


def test_transpose_kron():
    a = dense([[1, 2], [3, 4]])
    assert a.transpose().transpose() == a
    k = a.kron(Mat.identity(2))
    assert k.shape == (4, 4)
    assert k[0, 0] == 1 and k[1, 1] == 1 and k[0, 2] == 2


def test_rank_and_inverse():
    a = dense([[Q, 1], [0, 1]])
    assert a.rank() == 2
    inv = a.inverse()
    assert a * inv == Mat.identity(2)
    singular = dense([[1, 2], [2, 4]])
    assert singular.rank() == 1
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
    assert member({0: ONE, 1: ONE, 2: scalar(2)}, rs)
    assert not member({0: ONE}, rs)


def test_subspace_canonical_equality():
    s1 = SubspaceBasis(3, [{0: ONE, 1: ONE}, {1: ONE, 2: ONE}])
    s2 = SubspaceBasis(3, [{0: ONE, 2: scalar(-1)}, {1: scalar(2), 2: scalar(2)}])
    assert s1 == s2
    assert s1.dim == 2


def test_intersect():
    a = SubspaceBasis(3, [{0: ONE}, {1: ONE}])
    b = SubspaceBasis(3, [{1: ONE}, {2: ONE}])
    c = intersect(a, b)
    assert c.dim == 1
    assert member({1: ONE}, c)


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
        assert m.rank() + kernel(m).dim == 6
        assert image(m).dim == m.rank()


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
