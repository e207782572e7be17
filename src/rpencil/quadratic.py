"""The quantum matrix algebras: the graded q-symmetric presentation, its
filtered enveloping-style deformation, the diagonal-shift substitution that
links them, and flatness certification for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .commpoly import GeneratorError
from .freealg import FreeElement
from .groebner import NcIdeal, complete, filtration_dims, hilbert, normal_form, pbw_check
from .linalg import SubspaceBasis
from .poisson import matrix_generators
from .rmatrix import eigen_split, hecke_s, s_w
from .scalars import H, LAM, ONE, Q, Scalar, scalar


class ConsistencyError(Exception):
    pass


@dataclass(frozen=True)
class QuadraticPresentation:
    """Generators plus quadratic (possibly filtered-quadratic) relations."""

    generators: tuple
    relations: tuple  # FreeElements of degree 2
    flag: str  # "graded" | "filtered"

    def __post_init__(self):
        for r in self.relations:
            if r.degree() != 2:
                raise ValueError("relations must have a nonzero quadratic part")
            if self.flag == "graded" and (r.homogeneous_part(2) != r):
                raise ValueError("graded presentation carries lower-order terms")

    @property
    def dim(self) -> int:
        return len(self.generators)

    def quadratic_space(self) -> SubspaceBasis:
        n = self.dim
        rows = [r.homogeneous_part(2).to_vector(2) for r in self.relations]
        return SubspaceBasis(n * n, rows)

    def to_ideal(self, degree_bound: int) -> NcIdeal:
        return complete(list(self.relations), degree_bound, flag=self.flag)

    def specialize(self, assignment: dict) -> "QuadraticPresentation":
        return QuadraticPresentation(
            self.generators,
            tuple(r.specialize(assignment) for r in self.relations),
            self.flag,
        )


def same_ideal(p1: QuadraticPresentation, p2: QuadraticPresentation, degree: int = 3) -> bool:
    """Mutual reduction of the defining relations up to the given degree."""
    if p1.generators != p2.generators:
        raise GeneratorError("presentations over different generator sets")
    i1 = p1.to_ideal(degree)
    i2 = p2.to_ideal(degree)
    return all(not normal_form(i2, r) for r in p1.relations) and all(
        not normal_form(i1, r) for r in p2.relations
    )


def _pair_relations(n: int, with_lower: bool):
    """The relation list shared by the graded and filtered builders."""
    gens = matrix_generators(n)
    N = n * n

    def word(u, v):
        return FreeElement.word(gens, (u, v))

    def lin(u):
        return FreeElement.word(gens, (u,))

    def delta(pos):
        r, c = divmod(pos, n)
        return 1 if r == c else 0

    qm = Q - 1 / Q
    m = 1 + 1 / Q
    rels = []
    for u in range(N):
        for v in range(u + 1, N):
            r1, c1 = divmod(u, n)
            r2, c2 = divmod(v, n)
            if r1 == r2 or c1 == c2:
                rel = word(u, v) - Q * word(v, u)
                if with_lower:
                    if delta(u):
                        rel = rel - H * lin(v)
                    if delta(v):
                        rel = rel - H * lin(u)
            elif r1 < r2 and c1 < c2:
                w1 = r2 * n + c1  # a_k^j
                w2 = r1 * n + c2  # a_i^l
                rel = word(u, v) - word(v, u) - qm * word(w1, w2)
                if with_lower:
                    hm = H * m
                    if delta(w2):
                        rel = rel - hm * lin(w1)
                    if delta(w1):
                        rel = rel - hm * lin(w2)
            else:
                # antidiagonal pair: plain commutator, no lower terms
                rel = word(u, v) - word(v, u)
            rels.append(rel)
    return gens, rels


@lru_cache(maxsize=None)
def a0q(n: int) -> QuadraticPresentation:
    """The graded q-deformed symmetric algebra presentation of Mat(n)^*.

    The explicit relation span is checked against the image of S_W - id; a
    mismatch raises ConsistencyError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    gens, rels = _pair_relations(n, with_lower=False)
    pres = QuadraticPresentation(tuple(gens), tuple(rels), "graded")
    i_minus, _ = eigen_split(s_w(hecke_s(n)))
    if pres.quadratic_space() != i_minus:
        raise ConsistencyError(
            "explicit relation span differs from the image of S_W - id"
        )
    return pres


@lru_cache(maxsize=None)
def jhq(n: int) -> QuadraticPresentation:
    """The filtered deformation carrying the h-linear lower-order terms."""
    if n < 2:
        raise ValueError("need n >= 2")
    gens, rels = _pair_relations(n, with_lower=True)
    return QuadraticPresentation(tuple(gens), tuple(rels), "filtered")


def lambda_substitute(p: QuadraticPresentation, lam=LAM) -> QuadraticPresentation:
    """Shift every diagonal generator by lam and expand the relations.

    Constant terms must cancel; a surviving constant means the shift does not
    preserve the relation ideal.
    """
    if p.flag != "graded":
        raise ValueError("the shift applies to graded presentations")
    gens = p.generators
    n = int(len(gens) ** 0.5)
    if n * n != len(gens):
        raise GeneratorError("generators are not matrix coefficients")
    lam = scalar(lam)

    def delta(pos):
        r, c = divmod(pos, n)
        return ONE if r == c else Scalar(0)

    out = []
    for rel in p.relations:
        shifted = FreeElement.zero(gens)
        for w, c in rel.terms.items():
            u, v = w
            du, dv = delta(u), delta(v)
            shifted = shifted + c * FreeElement.word(gens, (u, v))
            if dv:
                shifted = shifted + (c * lam * dv) * FreeElement.word(gens, (u,))
            if du:
                shifted = shifted + (c * lam * du) * FreeElement.word(gens, (v,))
            if du and dv:
                shifted = shifted + FreeElement.constant(gens, c * lam * lam * du * dv)
        const = shifted.terms.get((), None)
        if const:
            raise ConsistencyError(
                f"diagonal shift leaves a constant term {const} in relation {rel}"
            )
        out.append(shifted)
    flag = "graded" if all(r.homogeneous_part(2) == r for r in out) else "filtered"
    return QuadraticPresentation(gens, tuple(out), flag)


def certify_flat_graded(
    p: QuadraticPresentation, degree: int, ideal: NcIdeal = None
) -> dict:
    """Compare graded dimensions with the commutative monomial count.

    ``ideal``, if given, is ``p.to_ideal(degree)`` completed by the caller.
    """
    if degree < 2:
        raise ValueError("need degree >= 2")
    if p.flag != "graded":
        raise ValueError("graded certification needs a graded presentation")
    if ideal is None:
        ideal = p.to_ideal(degree)
    N = p.dim
    dims = [hilbert(ideal, k) for k in range(degree + 1)]
    expected = [comb(N + k - 1, k) for k in range(degree + 1)]
    return {
        "dims": dims,
        "expected": expected,
        "flat": dims == expected,
        "degree": degree,
    }


def certify_flat_filtered(
    p: QuadraticPresentation,
    target: QuadraticPresentation,
    degree: int,
    graded_ideal: NcIdeal = None,
) -> dict:
    """PBW comparison of a filtered presentation against its graded target.

    ``graded_ideal``, if given, is ``target.to_ideal(degree)`` completed by
    the caller.
    """
    if p.generators != target.generators:
        raise GeneratorError("presentations over different generator sets")
    filtered_ideal = p.to_ideal(degree)
    if graded_ideal is None:
        graded_ideal = target.to_ideal(degree)
    ok, failing = pbw_check(filtered_ideal, graded_ideal, degree)
    dims = filtration_dims(filtered_ideal, degree)
    target_cumulative = []
    total = 0
    for k in range(degree + 1):
        total += hilbert(graded_ideal, k)
        target_cumulative.append(total)
    return {
        "dims": dims,
        "expected": target_cumulative,
        "flat": ok,
        "first_failing_degree": failing,
        "degree": degree,
    }
