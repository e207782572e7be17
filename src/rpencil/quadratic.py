"""The quantum matrix algebras: the graded q-symmetric presentation, its
filtered enveloping-style deformation, the diagonal-shift substitution that
links them, and flatness certification for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

from .commpoly import GeneratorError
from .freealg import FreeElement
from .groebner import NcIdeal, complete, filtration_dims, hilbert, normal_form, quadratic_flag
from .linalg import Mat, SubspaceBasis, image
from .poisson import _pair_case, matrix_generators
from .rmatrix import hecke_s, s_w
from .scalars import H, LAM, Q, scalar


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
        return complete(list(self.relations), degree_bound)

    def specialize(self, assignment: dict) -> "QuadraticPresentation":
        return QuadraticPresentation(
            self.generators,
            tuple(r.specialize(assignment) for r in self.relations),
            self.flag,
        )


def same_ideal(p1: QuadraticPresentation, p2: QuadraticPresentation, degree: int = 3) -> bool:
    """Mutual reduction of the defining relations up to the given degree.

    A relation of one presentation that is also a relation of the other lies
    in the other's ideal as it stands, so only the remaining relations are
    reduced, and a presentation is completed only when some relation of the
    other needs its normal form.  With identical relation sets the ideals
    are equal: the answer is True and nothing is completed, so no
    ``IdealCollapse`` is raised.
    """
    if p1.generators != p2.generators:
        raise GeneratorError("presentations over different generator sets")
    return _relations_in(p1, p2, degree) and _relations_in(p2, p1, degree)


def _relations_in(p: QuadraticPresentation, target: QuadraticPresentation, degree: int) -> bool:
    """Whether every relation of p reduces to zero modulo the ideal of target."""
    known = set(target.relations)
    rest = [r for r in p.relations if r not in known]
    if not rest:
        return True
    ideal = target.to_ideal(degree)
    return all(not normal_form(ideal, r) for r in rest)


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
            case = _pair_case(r1, c1, r2, c2)
            if case in ("row", "column"):
                rel = word(u, v) - Q * word(v, u)
                if with_lower:
                    if delta(u):
                        rel = rel - H * lin(v)
                    if delta(v):
                        rel = rel - H * lin(u)
            elif case == "diagonal":
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
    sw = s_w(hecke_s(n))
    # I_minus is image(S_W - id); the kernel I_plus is not needed here
    if pres.quadratic_space() != image(sw.mat - Mat.identity(sw.dim * sw.dim)):
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

    def diagonal(pos):
        r, c = divmod(pos, n)
        return r == c

    out = []
    for rel in p.relations:
        terms: dict = {}

        def put(w, x):
            prev = terms.get(w)
            terms[w] = x if prev is None else prev + x

        for (u, v), c in rel.terms.items():
            put((u, v), c)
            if diagonal(v):
                put((u,), c * lam)
            if diagonal(u):
                put((v,), c * lam)
            if diagonal(u) and diagonal(v):
                put((), c * lam * lam)
        shifted = FreeElement(gens, terms)
        const = shifted.terms.get((), None)
        if const:
            raise ConsistencyError(
                f"diagonal shift leaves a constant term {const} in relation {rel}"
            )
        out.append(shifted)
    return QuadraticPresentation(gens, tuple(out), quadratic_flag(out))


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
    dims = filtration_dims(filtered_ideal, degree)
    expected = list(accumulate(hilbert(graded_ideal, k) for k in range(degree + 1)))
    failing = next((k for k, (a, b) in enumerate(zip(dims, expected)) if a != b), None)
    return {
        "dims": dims,
        "expected": expected,
        "flat": failing is None,
        "first_failing_degree": failing,
        "degree": degree,
    }
