"""Poisson structures on polynomial algebras, given by generator tables.

A structure stores the brackets of generator pairs; the bracket of
arbitrary polynomials is the Leibniz extension

    {f, g} = sum_{i<j} t_ij (d_i f d_j g - d_j f d_i g).

Jacobi and compatibility are read from the Schouten bracket of two tables,

    [P1,P2]_ijk = sum_{cyclic (i,j,k)} sum_l (P2_il d_l P1_jk + P1_il d_l P2_jk),

scattered from the table entries: each nonzero product of an entry of one
table with a derivative of an entry of the other is added into its triple,
so the work follows the nonzero products, not the triples.  ``is_poisson``
tests [P,P] = 0 and ``are_compatible`` tests [P1,P2] = 0, each naming the
first nonzero component i<j<k as its witness.

Builders cover the quadratic matrix bracket, its linearization, the gl(n)
Poisson-Lie bracket, constant symplectic brackets and brackets induced by
an antisymmetric tensor acting through linear vector fields.  The matrix
builders here, in ``quadratic`` and in ``glie`` all read the generator-pair
table ``matrix_pairs`` and the gl(n) structure constants ``gl_structure``.
"""

from __future__ import annotations

from itertools import combinations, product

from .commpoly import GeneratorError, Poly
from .scalars import PoleError, scalar


def matrix_generators(n: int):
    """Row-major names for the matrix coefficients; a,b,c,d when n = 2."""
    if n == 2:
        return ("a", "b", "c", "d")
    return tuple(f"a_{i}^{j}" for i in range(1, n + 1) for j in range(1, n + 1))


def coordinate_generators(dim: int):
    return tuple(f"x_{i}" for i in range(1, dim + 1))


class PoissonStructure:
    """Antisymmetric generator-pair table extended by Leibniz."""

    __slots__ = ("generators", "table")

    def __init__(self, generators, table):
        self.generators = tuple(generators)
        clean = {}
        for (i, j), p in table.items():
            if not 0 <= i < j < len(self.generators):
                raise GeneratorError("table keys must satisfy 0 <= i < j < dim")
            if p:
                clean[(i, j)] = p
        self.table = clean

    def entry(self, i: int, j: int) -> Poly:
        """{g_i, g_j} for any ordered pair, including i >= j."""
        if i == j:
            return Poly.zero(self.generators)
        if i < j:
            return self.table.get((i, j), Poly.zero(self.generators))
        return -self.table.get((j, i), Poly.zero(self.generators))

    def bracket(self, f: Poly, g: Poly) -> Poly:
        if f.generators != self.generators or g.generators != self.generators:
            raise GeneratorError("polynomials are not over this structure's generators")
        out = Poly.zero(self.generators)
        dfs = {}
        dgs = {}
        for (i, j), t in self.table.items():
            if i not in dfs:
                dfs[i] = f.diff(i)
                dgs[i] = g.diff(i)
            if j not in dfs:
                dfs[j] = f.diff(j)
                dgs[j] = g.diff(j)
            out = out + t * (dfs[i] * dgs[j] - dfs[j] * dgs[i])
        return out

    def is_poisson(self):
        """(True, None) or (False, witness generator-name triple)."""
        return _verdict(self.generators, schouten_bracket(self, self))

    def __eq__(self, other):
        if not isinstance(other, PoissonStructure):
            return NotImplemented
        return self.generators == other.generators and self.table == other.table

    def __repr__(self):
        return f"PoissonStructure({len(self.generators)} generators, {len(self.table)} pairs)"

    def _check(self, other: "PoissonStructure") -> None:
        if self.generators != other.generators:
            raise GeneratorError("generator mismatch between Poisson structures")


def schouten_bracket(p1: PoissonStructure, p2: PoissonStructure) -> dict:
    """The nonzero components {(i, j, k): Poly}, i<j<k, of [P1, P2].

    Keys come in lexicographic order.  At generators the component is the
    mixed Jacobiator {x_i,{x_j,x_k}_1}_2 + {x_i,{x_j,x_k}_2}_1 + cyclic, so
    [P, P] is twice the Jacobiator of P.  Each product P'_xl d_l P_yz with
    both factors nonzero, for both orders (P, P') of the tables, lands in
    the sorted triple of x, y, z, negated when y < x < z.
    """
    p1._check(p2)
    out = {}
    for p, other in ((p1, p2), (p2, p1)):
        column = {}  # l -> [(x, P'_xl)] over the nonzero entries of P'
        for (x, l), t in other.table.items():
            column.setdefault(l, []).append((x, t))
            column.setdefault(x, []).append((l, -t))
        for (y, z), t in p.table.items():
            for l in {l for m in t.terms for l, e in enumerate(m) if e} & column.keys():
                dt = t.diff(l)
                for x, s in column[l]:
                    if x == y or x == z:
                        continue
                    key = tuple(sorted((x, y, z)))
                    term = (-s if y < x < z else s) * dt
                    out[key] = out[key] + term if key in out else term
    return {key: out[key] for key in sorted(out) if out[key]}


def _verdict(generators, components: dict):
    """(True, None) if no component is nonzero, else (False, first key's names)."""
    for key in components:
        return False, tuple(generators[i] for i in key)
    return True, None


def are_compatible(p1: PoissonStructure, p2: PoissonStructure):
    """(True, None) or (False, witness generator-name triple)."""
    return _verdict(p1.generators, schouten_bracket(p1, p2))


def pencil(p1: PoissonStructure, p2: PoissonStructure, a, b) -> PoissonStructure:
    """a P1 + b P2, entry by entry over the keys of both tables."""
    p1._check(p2)
    a, b = scalar(a), scalar(b)
    return PoissonStructure(p1.generators, {
        k: p1.entry(*k) * a + p2.entry(*k) * b for k in {**p1.table, **p2.table}
    })


# ---------------------------------------------------------------------------
# builders on Fun(Mat(n))
# ---------------------------------------------------------------------------


def is_diagonal(n: int, u: int) -> bool:
    """Whether the row-major generator u of Fun(Mat(n)) is some a_i^i."""
    return u % (n + 1) == 0


def matrix_pairs(n: int):
    """The data every bracket and presentation on Fun(Mat(n)) is built from.

    Yields (u, v, case, (x, y), lower) for each generator pair u < v, in
    row-major order.  ``case`` is "line" when a_u and a_v share a row or a
    column, "diagonal" when a_v lies below and right of a_u, and
    "antidiagonal" otherwise.  ``(x, y)`` is the pair's quadratic monomial:
    (u, v) on a line, (a_{r_v}^{c_u}, a_{r_u}^{c_v}) on a diagonal, None on an
    antidiagonal.  ``lower`` holds the partner of whichever of x, y is a
    diagonal generator a_i^i; at most one of them is.
    """
    for u in range(n * n):
        ru, cu = divmod(u, n)
        for v in range(u + 1, n * n):
            rv, cv = divmod(v, n)
            if ru == rv or cu == cv:
                case, x, y = "line", u, v
            elif cu < cv:  # ru < rv, since u < v in different rows
                case, x, y = "diagonal", rv * n + cu, ru * n + cv
            else:
                yield u, v, "antidiagonal", None, ()
                continue
            lower = (y,) if is_diagonal(n, x) else (x,) if is_diagonal(n, y) else ()
            yield u, v, case, (x, y), lower


# the weight w of {a_u, a_v}_2 = w a_x a_y and of {a_u, a_v}_1 = w a_k
_WEIGHT = {"line": 1, "diagonal": 2}


def matrix_coordinates(n: int, least: int):
    """The generator names of Fun(Mat(n)) and the generators as polynomials;
    a ValueError when n < least."""
    if n < least:
        raise ValueError(f"need n >= {least}")
    gens = matrix_generators(n)
    return gens, [Poly.generator(gens, g) for g in gens]


def sd_quadratic(n: int) -> PoissonStructure:
    """The quadratic matrix bracket {.,.}_2 on Fun(Mat(n)): w a_x a_y per pair."""
    gens, a = matrix_coordinates(n, 2)
    return PoissonStructure(gens, {
        (u, v): _WEIGHT[case] * a[xy[0]] * a[xy[1]]
        for u, v, case, xy, _ in matrix_pairs(n)
        if xy  # antidiagonal pairs commute
    })


def linearized(n: int) -> PoissonStructure:
    """The linear bracket {.,.}_1 on Fun(Mat(n)): w a_k for each k in lower."""
    gens, a = matrix_coordinates(n, 2)
    return PoissonStructure(gens, {
        (u, v): _WEIGHT[case] * a[k] for u, v, case, _, lower in matrix_pairs(n) for k in lower
    })


def gl_structure(n: int, u: int, v: int) -> list:
    """[E_u, E_v] in gl(n) as (w, +-1) pairs: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    i, j = divmod(u, n)
    k, l = divmod(v, n)
    out = []
    if j == k:
        out.append((i * n + l, 1))
    if l == i:
        out.append((k * n + j, -1))
    return out


def gl_bracket(n: int) -> PoissonStructure:
    """Poisson-Lie bracket of gl(n): {a_i^j, a_k^l} = a_i^l d_k^j - a_k^j d_i^l."""
    gens, a = matrix_coordinates(n, 1)
    return PoissonStructure(gens, {
        (u, v): sum((s * a[w] for w, s in gl_structure(n, u, v)), Poly.zero(gens))
        for u, v in combinations(range(n * n), 2)
    })


def lambda_linear_term(p: PoissonStructure, n: int) -> PoissonStructure:
    """Coefficient of lam in p's table after the shift a_i^j -> a_i^j + lam*d_i^j.

    With coefficients free of lam, that is the sum of each entry's partial
    derivatives along the diagonal generators; a table whose coefficients
    involve lam raises ValueError.
    """
    try:
        free = all(e.specialize({"lam": 0}) == e for e in p.table.values())
    except PoleError:
        free = False
    if not free:
        raise ValueError("lambda_linear_term needs coefficients free of lam")
    gens = p.generators
    diagonal = [u for u in range(len(gens)) if is_diagonal(n, u)]
    return PoissonStructure(gens, {
        k: sum((entry.diff(u) for u in diagonal), Poly.zero(gens))
        for k, entry in p.table.items()
    })


def double_lie_check(n: int):
    """Verify {x,y}_1 = {R x, y}_gl + {x, R y}_gl with R = sign(col - row).

    Returns (ok, mismatching generator-name pairs).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lin = linearized(n)
    gl = gl_bracket(n)
    gens = lin.generators
    side = [(c > r) - (c < r) for r, c in product(range(n), repeat=2)]  # R on a_u
    mismatches = [
        (gens[u], gens[v])
        for u, v in product(range(n * n), repeat=2)
        if lin.entry(u, v) != gl.entry(u, v) * scalar(side[u] + side[v])
    ]
    return not mismatches, mismatches


# ---------------------------------------------------------------------------
# representation-driven brackets on Fun(V*)
# ---------------------------------------------------------------------------


def rmatrix_bracket(r) -> PoissonStructure:
    """Quadratic bracket {x_p, x_s} = sum r[(i,k),(p,s)] x_i x_k on Fun(V*).

    ``r`` is any object with fields dim = dim V and mat (an n^2 x n^2 Mat),
    e.g. an RMatrixElement.
    """
    n = r.dim
    gens = coordinate_generators(n)

    def x(i):
        return Poly.generator(gens, gens[i])

    cols = r.mat.transpose().rows
    table = {}
    for p in range(n):
        for s in range(p + 1, n):
            entry = Poly.zero(gens)
            for row_idx, coeff in cols[p * n + s].items():
                i, k = divmod(row_idx, n)
                entry = entry + coeff * x(i) * x(k)
            if entry:
                table[(p, s)] = entry
    return PoissonStructure(gens, table)


def constant_symplectic(dim: int) -> PoissonStructure:
    """Standard constant bracket {x_i, x_{i+m}} = 1, dim = 2m."""
    if dim % 2:
        raise ValueError("dimension must be even")
    m = dim // 2
    gens = coordinate_generators(dim)
    table = {
        (i, i + m): Poly.constant(gens, 1) for i in range(m)
    }
    return PoissonStructure(gens, table)
