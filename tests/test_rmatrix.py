import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpencil import rmatrix
from rpencil.linalg import DimensionMismatch, Mat, SubspaceBasis, intersect, rref
from rpencil.poisson import sd_quadratic
from rpencil.rmatrix import (
    BraidOperator,
    NormalizationError,
    RMatrixElement,
    _swap_legs,
    canonical_r,
    canonical_r_sp,
    closes_under_commutator,
    eigen_split,
    flip_operator,
    hecke_check,
    hecke_s,
    is_modified,
    qybe_check,
    s_w,
    schouten,
    sklyanin_from_r,
    sl_fundamental,
    sp_fundamental,
)
from rpencil.scalars import DEFAULT_ASSIGNMENT, ONE, Q, Scalar


def test_canonical_r_antisymmetric():
    for n in (2, 3, 4):
        r = canonical_r(n)
        F = flip_operator(n).mat
        assert (r.mat + F * r.mat * F).is_zero()


def test_schouten_nonzero_but_invariant():
    for n in (2, 3, 4):
        r = canonical_r(n)
        assert not schouten(r).is_zero()
        assert is_modified(r, sl_fundamental(n))


def test_modified_fails_for_wrong_weighting():
    # corrupting one coefficient pair breaks invariance for sl(3)
    r = canonical_r(3)
    m = r.mat.copy()
    m.set(0 * 3 + 1, 1 * 3 + 0, Scalar(2))
    broken = type(r)(3, m)
    assert not is_modified(broken, sl_fundamental(3))


def test_closes_under_commutator():
    # [E_12, E_21] = E_11 - E_22 lies outside the span of E_12 and E_21
    assert closes_under_commutator(sl_fundamental(3))
    assert not closes_under_commutator(sl_fundamental(2)[:2])


def test_modified_rejects_a_basis_of_another_size():
    with pytest.raises(DimensionMismatch, match="dimensions differ"):
        is_modified(canonical_r(3), sl_fundamental(2))


def _embed_pair(mat: Mat, n: int, pos: tuple) -> Mat:
    """Reference three-site embedding: each entry of an n^2 x n^2 two-site
    operator placed at the sites pos, the identity on the third site."""
    out = Mat(n**3, n**3)
    other = ({0, 1, 2} - set(pos)).pop()
    for r, row in enumerate(mat.rows):
        r1, r2 = divmod(r, n)
        for c, v in row.items():
            c1, c2 = divmod(c, n)
            for k in range(n):
                idx_r = [0, 0, 0]
                idx_c = [0, 0, 0]
                idx_r[pos[0]], idx_r[pos[1]], idx_r[other] = r1, r2, k
                idx_c[pos[0]], idx_c[pos[1]], idx_c[other] = c1, c2, k
                rr = (idx_r[0] * n + idx_r[1]) * n + idx_r[2]
                cc = (idx_c[0] * n + idx_c[1]) * n + idx_c[2]
                out.add_to(rr, cc, v)
    return out


@pytest.mark.parametrize(
    "make,n",
    [(canonical_r, 2), (canonical_r, 3), (canonical_r, 4), (canonical_r_sp, 2), (canonical_r_sp, 4)],
)
def test_schouten_matches_embedded_reference(make, n):
    r = make(n)
    r12, r13, r23 = (_embed_pair(r.mat, n, pos) for pos in ((0, 1), (0, 2), (1, 2)))

    def comm(x, y):
        return x * y - y * x

    assert schouten(r) == comm(r12, r13) + comm(r12, r23) + comm(r13, r23)


def test_sp_canonical_r():
    for dim in (2, 4):
        r = canonical_r_sp(dim)
        F = flip_operator(dim).mat
        assert (r.mat + F * r.mat * F).is_zero()
        assert is_modified(r, sp_fundamental(dim))


@pytest.mark.parametrize("rep,dim", [(sl_fundamental, n) for n in (2, 3, 4, 5)]
                         + [(sp_fundamental, d) for d in (2, 4, 6, 8)])
def test_fundamental_basis_is_independent(rep, dim):
    # sl(n) has dimension n^2 - 1 and sp(2m) m(2m + 1); is_modified tests
    # each basis element, so a missing or dependent one would go unnoticed
    expected = dim * dim - 1 if rep is sl_fundamental else dim * (dim + 1) // 2
    basis = rep(dim)
    assert len(basis) == expected
    vecs = [{i * dim + j: v for i, row in enumerate(x.rows) for j, v in row.items()}
            for x in basis]
    assert SubspaceBasis(dim * dim, vecs).dim == expected


def test_sklyanin_single_kappa():
    for n in (2, 3, 4, 5):
        table, kappa = sklyanin_from_r(n)
        assert table == sd_quadratic(n)
        assert kappa == 1


def _patch_r(monkeypatch, change):
    canonical = rmatrix.canonical_r
    monkeypatch.setattr(rmatrix, "canonical_r",
                        lambda n: RMatrixElement(n, change(canonical(n).mat)))


@pytest.mark.parametrize("n", [2, 3])
def test_sklyanin_rejects_symmetric_part(monkeypatch, n):
    # E_11 (x) E_11 is flip-symmetric, so [R, L (x) L] is no longer antisymmetric
    e11 = Mat(n * n, n * n)
    e11.set(0, 0, ONE)
    _patch_r(monkeypatch, lambda m: m + e11)
    with pytest.raises(NormalizationError):
        sklyanin_from_r(n)


@pytest.mark.parametrize("n", [2, 3])
def test_sklyanin_kappa_undoes_scaling(monkeypatch, n):
    _patch_r(monkeypatch, lambda m: m * 3)
    table, kappa = sklyanin_from_r(n)
    assert kappa == Scalar(1) / 3
    assert table == sd_quadratic(n)


def _swap_by_product(r12: Mat, n: int) -> Mat:
    """P23 r12 P23 on V (x) V (x) V, with P23 = 1 (x) flip as a matrix."""
    p23 = Mat.identity(n).kron(flip_operator(n).mat)
    return p23 * r12 * p23


def _swap_by_legs(m: Mat, n: int) -> Mat:
    """m on V^(x)4 with its legs (a, b, c, d) relabelled as (a, c, b, d)."""
    N = n * n
    r = range(n)
    legs = [(a * n + c) * N + b * n + d for a in r for b in r for c in r for d in r]
    out = Mat(N * N, N * N)
    for i, row in enumerate(m.rows):
        out.rows[legs[i]] = {legs[j]: v for j, v in row.items()}
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_legs_matches_product_on_three_legs(n):
    r12 = canonical_r(n).mat.kron(Mat.identity(n))
    assert _swap_legs(r12, n, 3) == _swap_by_product(r12, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_legs_matches_relabel_on_four_legs(n):
    s = hecke_s(n).mat
    m = s.kron(s.inverse().transpose())
    assert _swap_legs(m, n, 4) == _swap_by_legs(m, n)


def test_hecke_s_reference_matrix():
    qm = Q - 1 / Q
    z = Scalar(0)
    ref = Mat.from_dense(
        [
            [Q, z, z, z],
            [z, qm, ONE, z],
            [z, ONE, z, z],
            [z, z, z, Q],
        ]
    )
    assert hecke_s(2).mat == ref


def test_qybe_and_hecke():
    for n in (2, 3, 4):
        s = hecke_s(n)
        assert qybe_check(s)
        assert hecke_check(s)
        assert len(rref(s.mat.rows, s.mat.ncols)[0]) == n * n


def test_flip_involutive_and_qybe():
    f = flip_operator(3)
    assert f.mat * f.mat == Mat.identity(9)
    assert qybe_check(f)


def test_s_w_qybe():
    for n in (2, 3):
        assert qybe_check(s_w(hecke_s(n)))


def _reference_s_w(s: BraidOperator) -> BraidOperator:
    """S_W entry by entry: S_W(a_i^k (x) a_j^l) =
    S^{mn}_{ij} (S^{-1})^{kl}_{pq} (a_m^p (x) a_n^q)."""
    n = s.dim
    try:
        sinv = s.mat.inverse()
    except DimensionMismatch:
        raise DimensionMismatch("braid operator is singular") from None
    N = n * n
    out = Mat(N * N, N * N)
    s_cols = s.mat.transpose().rows
    for i in range(n):
        for j in range(n):
            s_entries = [(divmod(rr, n), v) for rr, v in s_cols[i * n + j].items()]
            for k in range(n):
                for l in range(n):
                    col = (i * n + k) * N + (j * n + l)
                    for cc, w in sinv.rows[k * n + l].items():
                        p, qq = divmod(cc, n)
                        for (m, nn), v in s_entries:
                            out.add_to((m * n + p) * N + (nn * n + qq), col, v * w)
    return BraidOperator(N, out)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("fast", [False, True], ids=["exact", "fast"])
def test_s_w_matches_reference_hecke(n, fast):
    s = hecke_s(n)
    if fast:
        s = s.specialize(DEFAULT_ASSIGNMENT)
    assert s_w(s) == _reference_s_w(s)


@st.composite
def _integer_braid(draw):
    n = draw(st.integers(2, 3))
    entries = draw(st.lists(st.integers(-2, 2), min_size=n**4, max_size=n**4))
    rows = [entries[r * n * n:(r + 1) * n * n] for r in range(n * n)]
    return BraidOperator(n, Mat.from_dense(rows))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_integer_braid())
@example(BraidOperator(2, Mat(4, 4)))
def test_s_w_matches_reference_random(s):
    try:
        expected = _reference_s_w(s)
    except DimensionMismatch as exc:
        assert str(exc) == "braid operator is singular"
        with pytest.raises(DimensionMismatch, match="^braid operator is singular$"):
            s_w(s)
    else:
        assert s_w(s) == expected


def test_eigen_split_dimensions():
    for n in (2, 3):
        N = n * n
        i_minus, i_plus = eigen_split(s_w(hecke_s(n)))
        assert i_minus.dim == N * (N - 1) // 2
        assert i_plus.dim == N * (N + 1) // 2
        assert intersect(i_minus, i_plus).dim == 0


def test_eigen_split_flip():
    # for the flip the split is skew/symmetric
    i_minus, i_plus = eigen_split(flip_operator(2))
    assert (i_minus.dim, i_plus.dim) == (1, 3)
