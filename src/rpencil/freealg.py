"""Free (tensor) algebra over Scalar: noncommutative polynomials in words."""

from __future__ import annotations

from .commpoly import GeneratorError
from .scalars import ONE, ZERO, Scalar, scalar


def deglex_key(word):
    return (len(word), word)


class FreeElement:
    """Element of the free algebra; terms map words (index tuples) to Scalars."""

    __slots__ = ("generators", "terms")

    def __init__(self, generators, terms=None):
        self.generators = tuple(generators)
        self.terms = {} if terms is None else {w: c for w, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(generators) -> "FreeElement":
        return FreeElement(generators)

    @staticmethod
    def constant(generators, c) -> "FreeElement":
        c = scalar(c)
        return FreeElement(generators, {(): c} if c else {})

    @staticmethod
    def generator(generators, name: str) -> "FreeElement":
        generators = tuple(generators)
        if name not in generators:
            raise GeneratorError(f"unknown generator {name!r}")
        return FreeElement(generators, {(generators.index(name),): ONE})

    @staticmethod
    def word(generators, indices, coeff=ONE) -> "FreeElement":
        return FreeElement(tuple(generators), {tuple(indices): scalar(coeff)})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "FreeElement") -> None:
        if self.generators != other.generators:
            raise GeneratorError("generator mismatch between free elements")

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, ZERO) + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return FreeElement(self.generators, terms)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def __neg__(self) -> "FreeElement":
        return FreeElement(self.generators, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FreeElement):
            self._check(other)
            terms: dict = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    prev = terms.get(w)
                    terms[w] = c1 * c2 if prev is None else prev + c1 * c2
            return FreeElement(self.generators, terms)
        c = scalar(other)
        return FreeElement(self.generators, {w: v * c for w, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.generators == other.generators and self.terms == other.terms

    def __hash__(self):
        return hash((self.generators, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Maximal word length; -1 for zero."""
        return max((len(w) for w in self.terms), default=-1)

    def leading_word(self):
        return max(self.terms, key=deglex_key)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.leading_word()]

    def monic(self) -> "FreeElement":
        lc = self.leading_coeff()
        return FreeElement(self.generators, {w: c / lc for w, c in self.terms.items()})

    def homogeneous_part(self, degree: int) -> "FreeElement":
        return FreeElement(
            self.generators, {w: c for w, c in self.terms.items() if len(w) == degree}
        )

    def specialize(self, assignment: dict) -> "FreeElement":
        return FreeElement(
            self.generators,
            {w: c.specialize(assignment) for w, c in self.terms.items()},
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

    def __repr__(self):
        return f"FreeElement({self})"
