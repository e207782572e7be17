"""Classical r-matrices, the Hecke braid operator and the induced operator
on matrix-coefficient space, with Schouten, QYBE and eigenspace machinery.

One leg swap P, a relabelling, gives ``r13`` in the Schouten bracket, the
quantum ``S_W = P (S (x) S^-T) P`` and the classical Sklyanin operator
``P (R^T (x) 1 - 1 (x) R) P``, whose ``rmatrix_bracket`` is the Sklyanin table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commpoly import Poly
from .linalg import DimensionMismatch, Mat, SubspaceBasis, image, kernel
from .poisson import PoissonStructure, matrix_generators, rmatrix_bracket, sd_quadratic
from .scalars import ONE, Q, ZERO


class NormalizationError(Exception):
    pass


@dataclass(frozen=True)
class RMatrixElement:
    """An element of End(V) tensor End(V), stored as an n^2 x n^2 matrix."""

    dim: int
    mat: Mat


@dataclass(frozen=True)
class BraidOperator:
    """An operator on the tensor square of a dim-dimensional space."""

    dim: int
    mat: Mat

    def specialize(self, assignment: dict) -> "BraidOperator":
        return BraidOperator(self.dim, self.mat.specialize(assignment))


def flip_operator(n: int) -> BraidOperator:
    out = Mat(n * n, n * n)
    for i in range(n):
        for j in range(n):
            out.rows[i * n + j][j * n + i] = ONE
    return BraidOperator(n, out)


def _swap_legs(m: Mat, n: int, legs: int) -> Mat:
    """P m P for P the swap of tensor legs 2 and 3 of V^{(x) legs}, dim V = n,
    by relabelling rows and columns; no product is computed."""
    r, rest = range(n), range(n ** (legs - 3))
    perm = [((a * n + c) * n + b) * len(rest) + d for a in r for b in r for c in r for d in rest]
    out = Mat(m.nrows, m.ncols)
    for i, row in enumerate(m.rows):
        out.rows[perm[i]] = {perm[j]: v for j, v in row.items()}
    return out


def _unit(n: int, i: int, j: int) -> Mat:
    m = Mat(n, n)
    m.rows[i][j] = ONE
    return m


def _sl_roots(n: int) -> list:
    """(X_a, X_-a) for each positive root eps_i - eps_j of sl(n): (E_ij, E_ji)."""
    return [(_unit(n, i, j), _unit(n, j, i)) for i in range(n) for j in range(i + 1, n)]


def _sp_roots(dim: int) -> list:
    """(X_a, X_-a) for each positive root of sp of the skew form
    <e_i, e_{i+m}> = 1, dim = 2m: eps_i - eps_j and eps_i + eps_j for i < j,
    then 2 eps_i.
    """
    if dim % 2:
        raise ValueError("dimension must be even")
    m = dim // 2
    roots = []
    for i in range(m):
        for j in range(i + 1, m):
            roots.append((_unit(dim, i, j) - _unit(dim, m + j, m + i),
                          _unit(dim, j, i) - _unit(dim, m + i, m + j)))
            roots.append((_unit(dim, i, m + j) + _unit(dim, j, m + i),
                          _unit(dim, m + j, i) + _unit(dim, m + i, j)))
        roots.append((_unit(dim, i, m + i), _unit(dim, m + i, i)))
    return roots


def _canonical(dim: int, roots) -> RMatrixElement:
    """sum over the roots of (X_a (x) X_-a - X_-a (x) X_a) / tr(X_a X_-a).

    Positive and negative root vectors are paired dually with respect to the
    trace form of the representation; this is the normalization for which
    the modified YBE holds.
    """
    mat = Mat(dim * dim, dim * dim)
    for xp, xm in roots:
        prod = xp * xm
        trace = sum((prod[i, i] for i in range(dim)), ZERO)
        mat = mat + (xp.kron(xm) - xm.kron(xp)) * (1 / trace)
    return RMatrixElement(dim, mat)


def canonical_r(n: int) -> RMatrixElement:
    """sum_{i<j} E_ij (x) E_ji - E_ji (x) E_ij in the fundamental picture."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _canonical(n, _sl_roots(n))


def canonical_r_sp(dim: int) -> RMatrixElement:
    """The canonical r-matrix of sp(dim) through its defining representation."""
    return _canonical(dim, _sp_roots(dim))


def sl_fundamental(n: int) -> tuple:
    basis = [x for pair in _sl_roots(n) for x in pair]
    basis += [_unit(n, i, i) - _unit(n, i + 1, i + 1) for i in range(n - 1)]
    return tuple(basis)


def sp_fundamental(dim: int) -> tuple:
    """A basis of sp of the standard skew form <e_i, e_{i+m}> = 1, dim = 2m."""
    basis = [x for pair in _sp_roots(dim) for x in pair]
    m = dim // 2
    basis += [_unit(dim, i, i) - _unit(dim, m + i, m + i) for i in range(m)]
    return tuple(basis)


def closes_under_commutator(basis) -> bool:
    """Whether the span of the square matrices in basis is closed under [x, y]."""
    n = basis[0].nrows if basis else 0
    def vec(m):
        return {i * n + j: v for i, row in enumerate(m.rows) for j, v in row.items()}
    span = SubspaceBasis(n * n, [vec(m) for m in basis])
    return all(span.contains(vec(x * y - y * x)) for x in basis for y in basis)


def schouten(r: RMatrixElement) -> Mat:
    """[[R,R]] = [R12,R13] + [R12,R23] + [R13,R23] on the triple tensor power."""
    r12, r23 = r.mat.legs(r.dim)
    r13 = _swap_legs(r12, r.dim, 3)
    def comm(x, y):
        return x * y - y * x
    return comm(r12, r13) + comm(r12, r23) + comm(r13, r23)


def is_modified(r: RMatrixElement, basis) -> bool:
    """True iff [[R,R]] commutes with the cyclic sum x (x) 1 (x) 1 + ... of each x in basis."""
    if any(x.nrows != r.dim for x in basis):
        raise DimensionMismatch("representation and r-matrix dimensions differ")
    s = schouten(r)
    n = r.dim
    for x in basis:
        first, last = x.legs(n * n)
        total = first + last + x.legs(n)[1].legs(n)[0]
        if not (s * total - total * s).is_zero():
            return False
    return True


def sklyanin_from_r(n: int):
    """(table of kappa [R, L (x) L] on Fun(Mat(n)), kappa), kappa read at the
    first entry against the quadratic bracket.

    The table is ``rmatrix_bracket`` of T = P (R^T (x) 1 - 1 (x) R) P, P the
    leg swap of ``s_w``.  Raises NormalizationError if it is zero or if the
    commutator is not antisymmetric: (1 + F) T (1 + F) != 0, F = flip of W (x) W.
    """
    r = canonical_r(n).mat
    size = n * n
    eye = Mat.identity(size)
    t = _swap_legs(r.transpose().kron(eye) - eye.kron(r), n, 4)
    sym = Mat.identity(size * size) + flip_operator(size).mat
    if not (sym * t * sym).is_zero():
        raise NormalizationError("commutator table is not antisymmetric")
    table = rmatrix_bracket(RMatrixElement(size, t)).table
    if not table:
        raise NormalizationError("commutator table is identically zero")
    key, got = next(iter(table.items()))
    monom, coeff = next(iter(got.terms.items()))
    kappa = sd_quadratic(n).entry(*key).terms.get(monom, ZERO) / coeff
    gens = matrix_generators(n)
    scaled = {k: Poly(gens, (p * kappa).terms) for k, p in table.items()}
    return PoissonStructure(gens, scaled), kappa


def hecke_s(n: int) -> BraidOperator:
    """The Hecke-type braid operator on V (x) V in the standard basis."""
    if n < 2:
        raise ValueError("need n >= 2")
    qm = Q - 1 / Q
    mat = Mat(n * n, n * n)
    for i in range(n):
        for j in range(n):
            col = i * n + j
            if i == j:
                mat.add_to(col, col, Q)  # (q-1) + transposition on the diagonal
            else:
                mat.add_to(j * n + i, col, ONE)
                if i < j:
                    mat.add_to(col, col, qm)
    return BraidOperator(n, mat)


def qybe_check(s: BraidOperator) -> bool:
    s12, s23 = s.mat.legs(s.dim)
    return s12 * s23 * s12 == s23 * s12 * s23


def hecke_check(s: BraidOperator) -> bool:
    eye = Mat.identity(s.dim * s.dim)
    return ((s.mat - Q * eye) * (s.mat + (1 / Q) * eye)).is_zero()


def s_w(s: BraidOperator) -> BraidOperator:
    """The induced operator on W = V (x) V*, in the matrix-coefficient basis.

    S_W(a_i^k (x) a_j^l) = S^{mn}_{ij} (S^{-1})^{kl}_{pq} (a_m^p (x) a_n^q).
    """
    n = s.dim
    try:
        sinv = s.mat.inverse()
    except DimensionMismatch:
        raise DimensionMismatch("braid operator is singular") from None
    # S (x) S^-T is indexed by the legs (m, n, p, q); W (x) W by (m, p, n, q)
    return BraidOperator(n * n, _swap_legs(s.mat.kron(sinv.transpose()), n, 4))


def eigen_split(sw: BraidOperator):
    """(I_minus, I_plus) = (image, kernel) of sw - id."""
    d = sw.dim * sw.dim
    delta = sw.mat - Mat.identity(d)
    return image(delta), kernel(delta)
