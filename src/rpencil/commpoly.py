"""The sparse term algebra over Scalar, and commutative multivariate
polynomials in named generators built on it."""

from __future__ import annotations

from operator import add

from .scalars import ONE, ZERO, scalar


class GeneratorError(Exception):
    pass


def _deglex_key(monom):
    return (sum(monom), monom)


class Terms:
    """A dict from keys (index tuples) to nonzero Scalars over fixed generators.

    Subclasses say how two keys multiply (`_join`) and which key is the unit
    (`_unit`); addition, products, equality and hashing are shared.
    """

    __slots__ = ("generators", "terms")

    def __init__(self, generators, terms=None):
        self.generators = tuple(generators)
        self.terms = {} if terms is None else {k: c for k, c in terms.items() if c}

    @classmethod
    def _raw(cls, generators: tuple, terms: dict):
        """Wrap terms that are already nonzero, without re-filtering them."""
        self = object.__new__(cls)
        self.generators = generators
        self.terms = terms
        return self

    @classmethod
    def zero(cls, generators):
        return cls(generators)

    @classmethod
    def constant(cls, generators, c):
        c = scalar(c)
        generators = tuple(generators)
        return cls._raw(generators, {cls._unit(len(generators)): c} if c else {})

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise GeneratorError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.generators != other.generators:
            raise GeneratorError(
                f"generator mismatch: {self.generators} vs {other.generators}"
            )

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, ZERO) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return self._raw(self.generators, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.generators, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            self._check(other)
            join = self._join
            terms: dict = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = join(k1, k2)
                    prev = terms.get(k)
                    terms[k] = c1 * c2 if prev is None else prev + c1 * c2
            return type(self)(self.generators, terms)
        c = scalar(other)
        return type(self)(self.generators, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.generators == other.generators and self.terms == other.terms

    def __hash__(self):
        return hash((self.generators, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def scalar_map(self, fn):
        """Apply fn to every coefficient, dropping those it sends to zero."""
        return type(self)(self.generators, {k: fn(c) for k, c in self.terms.items()})

    def specialize(self, assignment: dict):
        return self.scalar_map(lambda c: c.specialize(assignment))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Poly(Terms):
    """Polynomial with Scalar coefficients; monomials are exponent tuples."""

    __slots__ = ()

    @staticmethod
    def _join(m1, m2):
        return tuple(map(add, m1, m2))

    @staticmethod
    def _unit(n):
        return (0,) * n

    @staticmethod
    def generator(generators, name: str) -> "Poly":
        generators = tuple(generators)
        if name not in generators:
            raise GeneratorError(f"unknown generator {name!r}")
        i = generators.index(name)
        monom = tuple(1 if j == i else 0 for j in range(len(generators)))
        return Poly._raw(generators, {monom: ONE})

    # -- calculus / structure ---------------------------------------------

    def diff(self, index: int) -> "Poly":
        terms: dict = {}
        for m, c in self.terms.items():
            e = m[index]
            if not e:
                continue
            dm = m[:index] + (e - 1,) + m[index + 1:]
            nc = c * e
            prev = terms.get(dm)
            terms[dm] = nc if prev is None else prev + nc
        return Poly(self.generators, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_deglex_key, reverse=True):
            c = self.terms[m]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.generators, m)
                if e
            ]
            body = "*".join(factors)
            cs = str(c)
            if body:
                parts.append(body if cs == "1" else f"({cs})*{body}")
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)
