"""Free (tensor) algebra over Scalar: noncommutative polynomials in words."""

from __future__ import annotations

from operator import add

from .commpoly import GeneratorError, Terms
from .scalars import ONE, scalar


def deglex_key(word):
    return (len(word), word)


class FreeElement(Terms):
    """Element of the free algebra; terms map words (index tuples) to Scalars."""

    __slots__ = ()

    _join = staticmethod(add)

    @staticmethod
    def _unit(n):
        return ()

    @staticmethod
    def generator(generators, name: str) -> "FreeElement":
        generators = tuple(generators)
        if name not in generators:
            raise GeneratorError(f"unknown generator {name!r}")
        return FreeElement._raw(generators, {(generators.index(name),): ONE})

    @staticmethod
    def word(generators, indices, coeff=ONE) -> "FreeElement":
        c = scalar(coeff)
        return FreeElement._raw(tuple(generators), {tuple(indices): c} if c else {})

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Maximal word length; -1 for zero."""
        return max((len(w) for w in self.terms), default=-1)

    def homogeneous_part(self, degree: int) -> "FreeElement":
        return FreeElement(
            self.generators, {w: c for w, c in self.terms.items() if len(w) == degree}
        )

    def to_vector(self, degree: int) -> dict:
        """Coordinates in the standard word basis of the degree-th tensor power."""
        n = len(self.generators)
        out = {}
        for w, c in self.terms.items():
            if len(w) != degree:
                raise ValueError(f"element is not homogeneous of degree {degree}")
            idx = 0
            for g in w:
                idx = idx * n + g
            out[idx] = c
        return out

    @staticmethod
    def from_vector(generators, degree: int, vec: dict) -> "FreeElement":
        n = len(generators)
        terms = {}
        for idx, c in vec.items():
            w = []
            for _ in range(degree):
                idx, r = divmod(idx, n)
                w.append(r)
            terms[tuple(reversed(w))] = c
        return FreeElement(generators, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=deglex_key, reverse=True):
            c = self.terms[w]
            body = "*".join(self.generators[g] for g in w) if w else "1"
            cs = str(c)
            parts.append(body if cs == "1" and w else f"({cs})*{body}")
        return " + ".join(parts)
