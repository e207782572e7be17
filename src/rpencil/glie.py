"""Generalized Lie brackets: a splitting V(x)V = I_plus (+) I_minus together
with a bracket V(x)V -> V (+) k vanishing on I_plus, the overlap space
(I(x)V intersect V(x)I), the two compatibility axioms it must satisfy, the
enveloping quadratic algebra, the q-deformed bracket of the quantum matrix
algebras, and the involutive (S-Lie) Jacobi identities.

Both axioms are about b (x) id - id (x) b on the overlap space; its
quadratic and linear parts are built from the bracket matrix with
``Mat.legs`` and applied to all overlap rows by one sparse product.  The
bracket itself is applied the same way: ``GeneralizedLieBracket.values``
takes a batch of tensor-square vectors, and ``bracket_table`` and
``enveloping`` each make one call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .freealg import FreeElement
from .linalg import Mat, SubspaceBasis, annihilator, complementary, kernel, rref
from .poisson import gl_structure
from .quadratic import QuadraticPresentation, jhq
from .rmatrix import BraidOperator, eigen_split, flip_operator, hecke_s, s_w
from .scalars import ONE, scalar


class SplittingError(Exception):
    pass


@dataclass(frozen=True)
class GeneralizedLieBracket:
    """Bracket data on a space V with a chosen splitting of V(x)V.

    The bracket is stored as an (N+1) x N^2 matrix over Scalar: column u*N+v
    holds the value of [x_u, x_v], rows 0..N-1 being the V-coordinates and
    row N the coefficient of 1.
    """

    generators: tuple
    i_plus: SubspaceBasis
    i_minus: SubspaceBasis
    matrix: Mat

    def __post_init__(self):
        N = len(self.generators)
        if self.i_plus.ambient_dim != N * N or self.i_minus.ambient_dim != N * N:
            raise SplittingError("splitting spaces live in the wrong tensor square")
        if self.i_plus.dim + self.i_minus.dim != N * N:
            raise SplittingError("splitting dimensions do not add up to N^2")
        if not complementary(self.i_plus, self.i_minus):
            raise SplittingError("splitting spaces intersect nontrivially")
        if self.matrix.shape != (N + 1, N * N):
            raise SplittingError("bracket matrix has the wrong shape")
        if any(_images(self.i_plus.rows, self.matrix)):
            raise SplittingError("bracket does not vanish on I_plus")

    @property
    def dim(self) -> int:
        return len(self.generators)

    @cached_property
    def overlap(self) -> SubspaceBasis:
        """The overlap space of I_minus, computed once per bracket."""
        return overlap_space(self.i_minus)

    @cached_property
    def _partial_maps(self):
        """The quadratic and linear parts of b (x) id - id (x) b on the tensor
        cube, computed once per bracket.

        The bracket's V-rows give the quadratic part (N^3 -> N^2) and its
        constant row the linear part (N^3 -> N), so no constant term arises.
        """
        N = self.dim
        quad = Mat(N, N * N, self.matrix.rows[:N]).legs(N)
        lin = Mat(1, N * N, self.matrix.rows[N:]).legs(N)
        return quad[0] - quad[1], lin[0] - lin[1]

    def values(self, vecs: list) -> list:
        """The bracket of each tensor-square vector, as a degree <= 1
        free-algebra element; index N of an image is the 1-slot."""
        N = self.dim
        return [
            FreeElement(self.generators, {(i,) if i < N else (): c for i, c in image.items()})
            for image in _images(vecs, self.matrix)
        ]

    @staticmethod
    def from_relation_values(generators, i_plus, pairs) -> "GeneralizedLieBracket":
        """Build a bracket from (quadratic vector, value vector) pairs.

        The quadratic vectors span I_minus; together with i_plus they must
        fill V(x)V.  The value vectors have N+1 coordinates (V plus the
        1-slot).  The bracket is the unique linear map sending each quadratic
        vector to its value and killing i_plus.
        """
        N = len(generators)
        NN = N * N
        i_minus = SubspaceBasis(NN, [p[0] for p in pairs])
        if i_minus.dim != len(pairs):
            raise SplittingError("dependent relation vectors")
        # rows (q, b(q)) and (p, 0): once the q and p span V(x)V, reducing
        # the left block to the identity leaves b(e_j) in row j
        rows = [{**quad, **{NN + i: c for i, c in val.items()}} for quad, val in pairs]
        reduced, pivots = rref(rows + i_plus.rows, NN + N + 1)
        if pivots != list(range(NN)):
            raise SplittingError("relation vectors and I_plus do not span V(x)V")
        values = [{i - NN: c for i, c in row.items() if i >= NN} for row in reduced]
        matrix = Mat(NN, N + 1, values).transpose()
        return GeneralizedLieBracket(tuple(generators), i_plus, i_minus, matrix)


def overlap_space(i: SubspaceBasis) -> SubspaceBasis:
    """(I (x) V) intersect (V (x) I) inside the tensor cube.

    Computed as the joint kernel of the annihilator constraints phi (x) id
    and id (x) phi, phi ranging over a basis of the annihilator of I.
    """
    NN = i.ambient_dim
    N = int(round(NN**0.5))
    if N * N != NN:
        raise SplittingError("subspace does not live in a tensor square")
    # phi (x) id and id (x) phi for one phi after another.  ``A.legs(N)``, A the
    # annihilator rows, spans the same space and gives the same basis, but
    # rref meets the rows in another order and takes longer: kernel at glie
    # n=5 fast, on one CPU of a 2-vCPU host, median of 4 fresh runs, takes
    # 0.50 s on this order, 0.60 s with every phi (x) id row first and 0.57 s
    # with every id (x) phi row first.
    rows = []
    for phi in annihilator(i).rows:
        for c in range(N):
            rows.append({ab * N + c: v for ab, v in phi.items()})
        for a in range(N):
            rows.append({a * N * N + bc: v for bc, v in phi.items()})
    return kernel(Mat(len(rows), N**3, rows))


def _images(rows, op: Mat) -> list:
    """op applied to every row vector, by one sparse product."""
    return (Mat(len(rows), op.ncols, rows) * op.transpose()).rows


def check_axiom7(g: GeneralizedLieBracket):
    """(b (x) id - id (x) b) maps the overlap space into I_minus (mod V + k)."""
    quad, _ = g._partial_maps
    for pos, image in enumerate(_images(g.overlap.rows, quad)):
        if not g.i_minus.contains(image):
            return False, {"overlap_index": pos, "residual": g.i_minus.reduce(image)}
    return True, None


def check_axiom8(g: GeneralizedLieBracket):
    """Applying the bracket once more on the overlap space gives exact zero.

    For overlap vector w write (b (x) id - id (x) b)(w) = D2 + D1 with D2
    quadratic and D1 linear; the requirement is b(D2) + D1 = 0 in V (+) k.
    """
    N = g.dim
    quad, lin = g._partial_maps
    op = g.matrix * quad + Mat(N + 1, N**3, lin.rows + [{}])
    for pos, total in enumerate(_images(g.overlap.rows, op)):
        if total:
            return False, {"overlap_index": pos, "residual": total}
    return True, None


def from_presentation(
    pres: QuadraticPresentation, i_plus: SubspaceBasis
) -> GeneralizedLieBracket:
    """The inverse of `enveloping`: each relation's quadratic part maps to
    its lower-order terms, and i_plus maps to zero.
    """
    N = pres.dim
    pairs = []
    for rel in pres.relations:
        quad = rel.homogeneous_part(2)
        value = quad - rel  # the lower-order terms the quadratic part maps to
        vec = {}
        for word, c in value.terms.items():
            vec[word[0] if word else N] = c
        pairs.append((quad.to_vector(2), vec))
    return GeneralizedLieBracket.from_relation_values(pres.generators, i_plus, pairs)


def type2_bracket(n: int) -> GeneralizedLieBracket:
    """The q-Lie bracket whose enveloping algebra is the filtered quantum
    matrix algebra, with the complementary eigenspace as I_plus.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return from_presentation(jhq(n), eigen_split(s_w(hecke_s(n)))[1])


def bracket_table(g: GeneralizedLieBracket) -> dict:
    """[x_u, x_v] for every ordered generator pair, as degree <= 1 elements."""
    pairs = [(x, y) for x in g.generators for y in g.generators]
    return dict(zip(pairs, g.values([{k: ONE} for k in range(len(pairs))])))


def enveloping(g: GeneralizedLieBracket) -> QuadraticPresentation:
    """T(V) modulo r - [r], r running over the canonical I_minus basis."""
    rows = g.i_minus.rows
    rels = tuple(
        FreeElement.from_vector(g.generators, 2, row) - value
        for row, value in zip(rows, g.values(rows))
    )
    return QuadraticPresentation(g.generators, rels)


def classical_glie(n: int) -> GeneralizedLieBracket:
    """The commutator bracket of gl(n) with the symmetric/skew splitting."""
    if n < 1:
        raise ValueError("need n >= 1")
    gens = tuple(f"e_{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    N = n * n
    i_minus, i_plus = eigen_split(flip_operator(N))
    matrix = Mat(N + 1, N * N)
    for u in range(N):
        for v in range(N):
            for w, sign in gl_structure(n, u, v):
                matrix.add_to(w, u * N + v, sign * ONE)
    return GeneralizedLieBracket(gens, i_plus, i_minus, matrix)


def random_bracket(i_plus, i_minus, generators, seed: int) -> GeneralizedLieBracket:
    """A random bracket on the given splitting: small integer values, no constant part."""
    rng = random.Random(seed)
    N = len(generators)
    pairs = []
    for row in i_minus.rows:
        vec = {}
        for idx in range(N):
            c = rng.randint(-3, 3)
            if c:
                vec[idx] = scalar(c)
        pairs.append((row, vec))
    return GeneralizedLieBracket.from_relation_values(generators, i_plus, pairs)


def slie_jacobi_check(g: GeneralizedLieBracket, s: BraidOperator) -> bool:
    """The two involutive-case Jacobi identities on the tensor cube.

    Requires s to square to the identity and the bracket to carry no
    constant part; checks b b12 (id + S12 S23 + S23 S12) = 0 and
    b b12 = b b23 (id - S12) exactly.
    """
    N = g.dim
    if s.dim != N:
        raise SplittingError("operator and bracket dimensions differ")
    eye2 = Mat.identity(N * N)
    if s.mat * s.mat != eye2:
        raise ValueError("the Jacobi forms require an involutive operator")
    if any(g.matrix.rows[N].values()):
        raise ValueError("the Jacobi forms require a bracket without constant part")
    bv = Mat(N, N * N, g.matrix.rows[:N])
    b12, b23 = bv.legs(N)
    s12, s23 = s.mat.legs(N)
    eye3 = Mat.identity(N**3)
    lhs = bv * b12
    if not (lhs * (eye3 + s12 * s23 + s23 * s12)).is_zero():
        return False
    return lhs == bv * b23 * (eye3 - s12)
