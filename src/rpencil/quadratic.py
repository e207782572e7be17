"""The quantum matrix algebras: the graded q-symmetric presentation, its
filtered enveloping-style deformation, the diagonal-shift substitution that
links them, and flatness certification for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import comb

from .commpoly import GeneratorError
from .freealg import FreeElement
from .groebner import NcIdeal, complete, filtration_dims, hilbert, normal_form, quadratic_flag
from .linalg import SubspaceBasis
from .poisson import is_diagonal, matrix_generators, matrix_pairs
from .scalars import H, LAM, ONE, Q


class ConsistencyError(Exception):
    pass


@dataclass(frozen=True)
class QuadraticPresentation:
    """Generators plus quadratic (possibly filtered-quadratic) relations."""

    generators: tuple
    relations: tuple  # FreeElements of degree 2

    def __post_init__(self):
        for r in self.relations:
            if r.degree() != 2:
                raise ValueError("relations must have a nonzero quadratic part")

    @property
    def flag(self) -> str:
        """The relations' flag, graded or filtered (``quadratic_flag``)."""
        return quadratic_flag(self.relations)

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
        """Specialize every relation; each distinct coefficient is specialized once."""
        value = cache(lambda c: c.specialize(assignment))
        return QuadraticPresentation(
            self.generators, tuple(r.scalar_map(value) for r in self.relations)
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
    """The relation list shared by the graded and filtered builders, one
    relation per pair of ``matrix_pairs(n)``."""
    gens = matrix_generators(n)

    def word(*indices):
        return FreeElement.word(gens, indices)

    qm = Q - 1 / Q
    lower_coeff = {"line": H, "diagonal": H * (1 + 1 / Q)}
    rels = []
    for u, v, case, xy, lower in matrix_pairs(n):
        rel = word(u, v) - (Q if case == "line" else ONE) * word(v, u)
        if case == "diagonal":
            rel = rel - qm * word(*xy)
        if with_lower:
            for k in lower:
                rel = rel - lower_coeff[case] * word(k)
        rels.append(rel)
    return gens, rels


def a0q(n: int) -> QuadraticPresentation:
    """The graded q-deformed symmetric algebra presentation of Mat(n)^*.

    Its relation span is I_minus = image(S_W - id); the ``quantum-type2``
    suite certifies that as its ``relation-span`` check.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    gens, rels = _pair_relations(n, with_lower=False)
    return QuadraticPresentation(tuple(gens), tuple(rels))


def jhq(n: int) -> QuadraticPresentation:
    """The filtered deformation carrying the h-linear lower-order terms."""
    if n < 2:
        raise ValueError("need n >= 2")
    gens, rels = _pair_relations(n, with_lower=True)
    return QuadraticPresentation(tuple(gens), tuple(rels))


def lambda_substitute(p: QuadraticPresentation) -> QuadraticPresentation:
    """Shift every diagonal generator by LAM and expand the relations.

    Constant terms must cancel; a surviving constant means the shift does not
    preserve the relation ideal.
    """
    if p.flag != "graded":
        raise ValueError("the shift applies to graded presentations")
    gens = p.generators
    n = int(len(gens) ** 0.5)
    if n * n != len(gens):
        raise GeneratorError("generators are not matrix coefficients")
    out = []
    for rel in p.relations:
        terms: dict = {}

        def put(w, x):
            prev = terms.get(w)
            terms[w] = x if prev is None else prev + x

        for (u, v), c in rel.terms.items():
            put((u, v), c)
            if is_diagonal(n, v):
                put((u,), c * LAM)
            if is_diagonal(n, u):
                put((v,), c * LAM)
                if is_diagonal(n, v):
                    put((), c * LAM * LAM)
        shifted = FreeElement(gens, terms)
        const = shifted.terms.get((), None)
        if const:
            raise ConsistencyError(
                f"diagonal shift leaves a constant term {const} in relation {rel}"
            )
        out.append(shifted)
    return QuadraticPresentation(gens, tuple(out))


def certify_flat_graded(ideal: NcIdeal) -> dict:
    """Compare the graded dimensions of a completed graded ideal, such as
    ``a0q(n).to_ideal(d)``, with the commutative monomial count in every
    degree up to the ideal's bound.
    """
    N = len(ideal.generators)
    degree = ideal.degree_bound
    dims = [hilbert(ideal, k) for k in range(degree + 1)]
    expected = [comb(N + k - 1, k) for k in range(degree + 1)]
    return {"dims": dims, "expected": expected, "flat": dims == expected}


def certify_flat_filtered(filtered: NcIdeal, graded: NcIdeal) -> dict:
    """PBW comparison of a completed filtered ideal against its completed
    graded target in every degree up to the filtered ideal's bound, which
    the graded ideal's bound must reach.
    """
    if filtered.generators != graded.generators:
        raise GeneratorError("ideals over different generator sets")
    degree = filtered.degree_bound
    dims = filtration_dims(filtered, degree)
    expected = list(accumulate(hilbert(graded, k) for k in range(degree + 1)))
    failing = next((k for k, (a, b) in enumerate(zip(dims, expected)) if a != b), None)
    return {
        "dims": dims,
        "expected": expected,
        "flat": failing is None,
        "first_failing_degree": failing,
    }
