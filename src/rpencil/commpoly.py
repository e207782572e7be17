"""Commutative multivariate polynomials in named generators over Scalar."""

from __future__ import annotations

from .scalars import ONE, ZERO, scalar


class GeneratorError(Exception):
    pass


def _deglex_key(monom):
    return (sum(monom), monom)


class Poly:
    """Polynomial with Scalar coefficients; monomials are exponent tuples."""

    __slots__ = ("generators", "terms")

    def __init__(self, generators, terms=None):
        self.generators = tuple(generators)
        self.terms = {} if terms is None else {
            m: c for m, c in terms.items() if c
        }

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(generators) -> "Poly":
        return Poly(generators)

    @staticmethod
    def constant(generators, c) -> "Poly":
        c = scalar(c)
        generators = tuple(generators)
        if not c:
            return Poly(generators)
        return Poly(generators, {(0,) * len(generators): c})

    @staticmethod
    def generator(generators, name: str) -> "Poly":
        generators = tuple(generators)
        if name not in generators:
            raise GeneratorError(f"unknown generator {name!r}")
        i = generators.index(name)
        monom = tuple(1 if j == i else 0 for j in range(len(generators)))
        return Poly(generators, {monom: ONE})

    @staticmethod
    def monomial(generators, exponents, coeff=1) -> "Poly":
        return Poly(tuple(generators), {tuple(exponents): scalar(coeff)})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.generators != other.generators:
            raise GeneratorError(
                f"generator mismatch: {self.generators} vs {other.generators}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Poly(self.generators, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.generators, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            terms: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    prev = terms.get(m)
                    terms[m] = c1 * c2 if prev is None else prev + c1 * c2
            return Poly(self.generators, terms)
        c = scalar(other)
        return Poly(self.generators, {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.generators == other.generators and self.terms == other.terms

    def __hash__(self):
        return hash((self.generators, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

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

    def total_degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def substitute(self, images: dict) -> "Poly":
        """Substitute generators (by name) with polynomials."""
        gen_polys = [
            images.get(name, Poly.generator(self.generators, name))
            for name in self.generators
        ]
        out = Poly(self.generators)
        for m, c in self.terms.items():
            term = Poly.constant(self.generators, c)
            for g, e in zip(gen_polys, m):
                for _ in range(e):
                    term = term * g
            out = out + term
        return out

    def scalar_map(self, fn) -> "Poly":
        return Poly(self.generators, {
            m: v for m, v in ((m, fn(c)) for m, c in self.terms.items()) if v
        })

    def coefficient_of_param(self, name: str, power: int) -> "Poly":
        return self.scalar_map(lambda c: c.coefficient_of(name, power))

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

    def __repr__(self):
        return f"Poly({self})"
