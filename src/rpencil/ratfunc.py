"""The field Z(q, h, lam) of rational functions with integer coefficients.

A polynomial is a dict ``{(i, j, k): c}`` from the exponents of q, h and lam
to a nonzero int; the zero polynomial is ``{}``.  Comparing exponent tuples
is lex order with q > h > lam, so the leading term is the largest key.

A field element is a ``fractions.Fraction`` if it is constant, else a RatFunc:
a pair (numer, denom), which no other module reads, in canonical form.  The
two are coprime in Z[q, h, lam] (so their integer contents are cancelled too)
and denom's leading coefficient is positive.  The form is unique, so any
correct gcd gives the same pair, the same string and the same hash.

``plus``, ``minus``, ``times``, ``divide`` and ``negate`` are the field's
arithmetic, and with ``equal`` the only code that looks at an operand's kind
(exactly an int, a Fraction or a RatFunc).  Two constants are combined on the
integer pairs by Henrici's method (Knuth, TAOCP vol. 2, 4.5.1), as Fraction's
own operators are, and ``_fraction`` builds the coprime result directly; every
other sum goes to ``_add``, and every other product to ``_mul``, or to
``_mul_ground`` when one factor is a constant.  ``times`` tries two Fractions
first, and ``equal`` compares two Fractions on their integer pairs, which
the canonical forms make equal exactly when the values are.

gcd(f, g) takes a shortcut when either is a single term.  Otherwise it is
the heuristic gcd GCDHEU (Char, Geddes and Gonnet, JSC 7, 1989), which
evaluates the variables one by one at a large integer, takes an integer gcd
and interpolates one candidate per point, checked by exact division.  When
the heuristic gives up, the subresultant PRS in the first variable over the
polynomials in the later ones (Collins; Brown, JACM 18, 1971) decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

NAMES = ("q", "h", "lam")

#: the exponents of a constant term
CONST = (0, 0, 0)
ONE = {CONST: 1}
GENS = {"q": {(1, 0, 0): 1}, "h": {(0, 1, 0): 1}, "lam": {(0, 0, 1): 1}}

#: attempts GCDHEU makes, each at a larger evaluation point, before the PRS
_HEU_GCD_MAX = 6


# -- polynomials ------------------------------------------------------------


def is_ground(p) -> bool:
    """True for the zero polynomial and the nonzero constants."""
    return not p or (len(p) == 1 and CONST in p)


def lc(p) -> int:
    return p[max(p)]


def content(p) -> int:
    return gcd(*p.values())


def max_norm(p) -> int:
    return max(map(abs, p.values()), default=0)


def neg(p):
    return {m: -c for m, c in p.items()}


def add(f, g):
    out = dict(f)
    get = out.get
    for m, c in g.items():
        c += get(m, 0)
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def mul(f, g):
    if len(f) == 1:
        f, g = g, f
    if len(g) == 1:
        ((d, e, k), y), = g.items()
        return {(a + d, b + e, c + k): x * y for (a, b, c), x in f.items()}
    out = {}
    get = out.get
    terms = list(g.items())
    for (a, b, c), x in f.items():
        for (d, e, k), y in terms:
            m = (a + d, b + e, c + k)
            out[m] = get(m, 0) + x * y
    zeros = [m for m, c in out.items() if not c]
    for m in zeros:
        del out[m]
    return out


def mul_ground(p, c: int):
    if c == 1:
        return p
    return {m: x * c for m, x in p.items()} if c else {}


def quo_ground(p, c: int):
    """p/c for an integer c that divides every coefficient."""
    return {m: x // c for m, x in p.items()} if c != 1 else p


def power(p, n: int):
    """p**n for n >= 0 by repeated squaring."""
    out = ONE
    while n:
        if n & 1:
            out = mul(out, p)
        n >>= 1
        if n:
            p = mul(p, p)
    return out


def exquo(f, g):
    """f/g if g divides f exactly in Z[q, h, lam], else None; g is nonzero."""
    if len(g) == 1:
        ((d, e, k), y), = g.items()
        if y == 1 and not (d or e or k):
            return f
        out = {}
        for (a, b, c), x in f.items():
            if a < d or b < e or c < k or x % y:
                return None
            out[(a - d, b - e, c - k)] = x // y
        return out
    lead = max(g)
    d, e, k = lead
    y = g[lead]
    rest = [(m, c) for m, c in g.items() if m != lead]
    rem = dict(f)
    out = {}
    while rem:
        a, b, c = m = max(rem)
        a, b, c = a - d, b - e, c - k
        if a < 0 or b < 0 or c < 0:
            return None
        x, r = divmod(rem.pop(m), y)
        if r:
            return None
        out[(a, b, c)] = x
        for (u, v, w), z in rest:
            m = (a + u, b + v, c + w)
            z = rem.get(m, 0) - x * z
            if z:
                rem[m] = z
            else:
                del rem[m]
    return out


def primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    c = content(p)
    if lc(p) < 0:
        c = -c
    return quo_ground(p, c)


def evaluate(p, point):
    """p at a point (q, h, lam) of field elements, as a field element."""
    out = Fraction(0)
    for monom, c in p.items():
        for x, e in zip(point, monom):
            if e:
                c = times(c, x**e)
        out = plus(out, c)
    return out


def to_str(p) -> str:
    """p as sympy's ``str`` of a PolyElement prints it: terms in lex order."""
    if not p:
        return "0"
    parts = []
    for m, c in sorted(p.items(), reverse=True):
        parts.append(" - " if c < 0 else " + ")
        c = abs(c)
        factors = [str(c)] if c != 1 or m == CONST else []
        for name, e in zip(NAMES, m):
            if e:
                factors.append(name if e == 1 else f"{name}**{e}")
        parts.append("*".join(factors))
    return ("-" if parts[0] == " - " else "") + "".join(parts[1:])


# -- gcd ----------------------------------------------------------------------


def cofactors(f, g):
    """(h, f/h, g/h) for nonzero f and g, with h = gcd(f, g) and lc(h) > 0."""
    if len(f) == 1 or len(g) == 1:
        h = _term_gcd(f, g)
    elif f == g:
        h = neg(f) if lc(f) < 0 else f
    else:
        found = _heu_gcd(f, g, 0)
        if found is not None:
            return found
        h = prs_gcd(f, g)
    return h, exquo(f, h), exquo(g, h)


def _term_gcd(f, g):
    """gcd(f, g) when one of them is a single term: a term itself."""
    a, b, c = min(m[0] for m in f), min(m[1] for m in f), min(m[2] for m in f)
    for m in g:
        a, b, c = min(a, m[0]), min(b, m[1]), min(c, m[2])
    return {(a, b, c): gcd(content(f), content(g))}


def _evaluate_at(p, v: int, x: int):
    """p with variable v set to x; p is free of the variables before v."""
    out = {}
    get = out.get
    for m, c in p.items():
        key = CONST[: v + 1] + m[v + 1 :]
        out[key] = get(key, 0) + c * x ** m[v]
    zeros = [m for m, c in out.items() if not c]
    for m in zeros:
        del out[m]
    return out


def _interpolate(p, v: int, x: int):
    """The polynomial whose coefficients of variable v are the balanced
    base-x digits of p's coefficients; p is free of the variables up to v.
    """
    out = {}
    half = x // 2
    for m, c in p.items():
        e = 0
        while c:
            d = c % x
            if d > half:
                d -= x
            if d:
                out[m[:v] + (e,) + m[v + 1 :]] = d
            c = (c - d) // x
            e += 1
    return out


def _heu_gcd(f, g, v: int):
    """(h, f/h, g/h) with h = gcd(f, g) and lc(h) > 0, or None if the heuristic
    fails.

    f and g are nonzero and free of the variables before v.  At each point x
    the one candidate is the gcd at v = x, interpolated and made primitive.
    """
    while v < 3 and not any(m[v] for m in f) and not any(m[v] for m in g):
        v += 1
    if v == 3:
        a, b = f[CONST], g[CONST]
        c = gcd(a, b)
        return {CONST: c}, {CONST: a // c}, {CONST: b // c}
    c = gcd(content(f), content(g))
    f, g = quo_ground(f, c), quo_ground(g, c)
    fn, gn = max_norm(f), max_norm(g)
    # with x > 2*min(|f|, |g|) + 1, a candidate that divides f and g is their gcd
    x = max(2 * min(fn, gn) + 29, 2 * min(fn // abs(lc(f)), gn // abs(lc(g))) + 4)
    for _ in range(_HEU_GCD_MAX):
        ff, gg = _evaluate_at(f, v, x), _evaluate_at(g, v, x)
        found = _heu_gcd(ff, gg, v + 1) if ff and gg else None
        if found is not None:
            h = primitive(_interpolate(found[0], v, x))
            cf = exquo(f, h)
            cg = exquo(g, h) if cf is not None else None
            if cg is not None:
                return mul_ground(h, c), cf, cg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def prs_gcd(f, g, v: int = 0):
    """gcd(f, g) with a positive leading coefficient, by the subresultant PRS
    in variable v over Z[later variables] (Collins; Brown, JACM 18, 1971);
    f and g are free of the variables before v and not both zero.  GCDHEU's
    deterministic fallback.
    """
    if v == 3:
        return {CONST: gcd(f.get(CONST, 0), g.get(CONST, 0))}
    if not f or not g:
        p = f or g
        return neg(p) if lc(p) < 0 else p
    cf, cg = _content_in(f, v), _content_in(g, v)
    # the primitive parts, each with its largest power of variable v divided out
    a, ea = _split_power(exquo(f, cf), v)
    b, eb = _split_power(exquo(g, cg), v)
    if _degree(a, v) < _degree(b, v):
        a, b = b, a
    lead = scale = ONE
    while b and _degree(b, v):
        delta = _degree(a, v) - _degree(b, v)
        r = _prem(a, b, v)
        a, b = b, (exquo(r, mul(lead, power(scale, delta))) if r else r)
        lead = _coefficients_in(a, v)[_degree(a, v)]
        if delta:
            scale = exquo(power(lead, delta), power(scale, delta - 1))
    if b:  # a nonzero constant in v: the primitive parts are coprime
        a = ONE
    a = exquo(a, _content_in(a, v))
    x_v = CONST[:v] + (min(ea, eb),) + CONST[v + 1 :]
    return mul(mul(prs_gcd(cf, cg, v + 1), {x_v: 1}), neg(a) if lc(a) < 0 else a)


def _degree(p, v: int) -> int:
    return max(m[v] for m in p)


def _split_power(p, v: int):
    """(p / x_v**e, e) for the largest e with x_v**e dividing p."""
    e = min(m[v] for m in p)
    if not e:
        return p, 0
    return {m[:v] + (m[v] - e,) + m[v + 1 :]: c for m, c in p.items()}, e


def _coefficients_in(p, v: int):
    """{e: coefficient of variable v**e}, each free of the variables up to v."""
    out = {}
    for m, c in p.items():
        out.setdefault(m[v], {})[m[:v] + (0,) + m[v + 1 :]] = c
    return out


def _content_in(p, v: int):
    """gcd of p's coefficients as a polynomial in variable v, with lc > 0."""
    out = {}
    for coeff in _coefficients_in(p, v).values():
        out = prs_gcd(out, coeff, v + 1)
        if out == ONE:
            break
    return out


def _prem(a, b, v: int):
    """The pseudo-remainder of a by b in variable v: the remainder of
    lc(b)**(deg a - deg b + 1) * a divided by b.
    """
    db = _degree(b, v)
    lb = _coefficients_in(b, v)[db]
    steps = _degree(a, v) - db + 1
    while a:
        da = _degree(a, v)
        if da < db:
            break
        la = _coefficients_in(a, v)[da]
        shift = {CONST[:v] + (da - db,) + CONST[v + 1 :]: 1}
        a = add(mul(lb, a), neg(mul(mul(la, shift), b)))
        steps -= 1
    return mul(a, power(lb, steps)) if a and steps else a


# -- the field -----------------------------------------------------------------


class RatFunc:
    """numer/denom in canonical form; build one with ``new`` unless it is
    already canonical.  Immutable by convention: nothing mutates the dicts.

    Its only arithmetic is ``**``; add, subtract, multiply, divide and
    negate it with the module's five operations.
    """

    __slots__ = ("numer", "denom", "_hash")

    def __init__(self, numer, denom):
        self.numer = numer
        self.denom = denom
        self._hash = None

    @staticmethod
    def new(numer, denom) -> "RatFunc":
        """numer/denom cancelled to canonical form; denom is nonzero."""
        if not numer:
            return RatFunc({}, ONE)
        _, numer, denom = cofactors(numer, denom)
        if lc(denom) < 0:
            numer, denom = neg(numer), neg(denom)
        return RatFunc(numer, denom)

    def __bool__(self):
        return bool(self.numer)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.numer == other.numer and self.denom == other.denom

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (frozenset(self.numer.items()), frozenset(self.denom.items()))
            )
        return self._hash

    def __pow__(self, n: int):
        """self**n for n >= 1; coprime parts stay coprime."""
        return RatFunc(power(self.numer, n), power(self.denom, n))

    def __str__(self):
        numer, denom = self.numer, self.denom
        text = to_str(numer)
        if denom == ONE:
            return text
        if len(numer) > 1:
            text = f"({text})"
        below = to_str(denom)
        if not (is_ground(denom) or (len(denom) == 1 and sum(max(denom)) == 1
                                     and lc(denom) == 1)):
            below = f"({below})"
        return f"{text}/{below}"


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, without re-normalizing it.

    The only code that writes Fraction's slots (CPython 3.10 to 3.13 name
    them ``_numerator`` and ``_denominator``).
    """
    x = object.__new__(Fraction)
    x._numerator = n
    x._denominator = d
    return x


def _pairs(f, g):
    """(numerator, denominator) of f, then of g, if both are constants (each
    operand is exactly an int, a Fraction or a RatFunc), else None.
    """
    t = type(f)
    if t is Fraction:
        na, da = f._numerator, f._denominator
    elif t is int:
        na, da = f, 1
    else:
        return None
    t = type(g)
    if t is Fraction:
        return na, da, g._numerator, g._denominator
    if t is int:
        return na, da, g, 1
    return None


def _parts(f):
    """(numer, denom) of a nonzero field element or int, as canonical polynomials."""
    if type(f) is RatFunc:
        return f.numer, f.denom
    return {CONST: f.numerator}, {CONST: f.denominator}


def _sum(na, da, nb, db) -> Fraction:
    """na/da + nb/db for coprime pairs with positive denominators: only a
    factor of gcd(da, db) can cancel (Fraction._add's steps).
    """
    c = gcd(da, db)
    if c == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // c
    t = na * (db // c) + nb * s
    c2 = gcd(t, c)
    return _fraction(t // c2, s * (db // c2))


def _product(na, da, nb, db) -> Fraction:
    """(na/da) * (nb/db) for coprime pairs with positive denominators: each
    numerator cancels only against the other denominator (Fraction._mul's steps).
    """
    c = gcd(na, db)
    if c > 1:
        na //= c
        db //= c
    c = gcd(nb, da)
    if c > 1:
        nb //= c
        da //= c
    return _fraction(na * nb, da * db)


def equal(f, g) -> bool:
    """f == g for field elements or ints."""
    if type(f) is Fraction and type(g) is Fraction:
        return f._numerator == g._numerator and f._denominator == g._denominator
    return f == g


def plus(f, g):
    """f + g for field elements or ints."""
    p = _pairs(f, g)
    if p is not None:
        return _sum(*p)
    return demote(_add(*_parts(f), *_parts(g))) if f and g else f or g


def minus(f, g):
    """f - g for field elements or ints."""
    p = _pairs(f, g)
    if p is None:
        return plus(f, negate(g))
    na, da, nb, db = p
    return _sum(na, da, -nb, db)


def times(f, g):
    """f * g for field elements or ints."""
    if type(f) is Fraction and type(g) is Fraction:
        # _product's steps, inline for the commonest case
        na, da, nb, db = f._numerator, f._denominator, g._numerator, g._denominator
        c = gcd(na, db)
        if c > 1:
            na //= c
            db //= c
        c = gcd(nb, da)
        if c > 1:
            nb //= c
            da //= c
        return _fraction(na * nb, da * db)
    p = _pairs(f, g)
    if p is not None:
        return _product(*p)
    if type(f) is not RatFunc:
        f, g = g, f
    if type(g) is RatFunc:
        return demote(_mul(f.numer, f.denom, g.numer, g.denom))
    return _mul_ground(f, g) if g else Fraction(0)


def divide(f, g):
    """f / g for field elements or ints; ZeroDivisionError if g is zero."""
    p = _pairs(f, g)
    if p is None:
        if type(g) is not RatFunc:
            return times(f, divide(1, g))
        # times 1/g, with the sign of g's numerator moved to the new numerator
        numer, denom = g.numer, g.denom
        if lc(numer) < 0:
            numer, denom = neg(numer), neg(denom)
        return times(f, RatFunc(denom, numer))
    na, da, nb, db = p
    if not nb:
        raise ZeroDivisionError("division by zero")
    # times db/nb, with the sign of nb moved to the numerator
    return _product(na, da, db, nb) if nb > 0 else _product(na, da, -db, -nb)


def negate(f):
    """-f for a field element or an int."""
    t = type(f)
    if t is Fraction:
        return _fraction(-f._numerator, f._denominator)
    if t is int:
        return _fraction(-f, 1)
    return RatFunc(neg(f.numer), f.denom)


def demote(f: RatFunc):
    """The field element equal to a canonical f: a Fraction if f is constant."""
    numer, denom = f.numer, f.denom
    if is_ground(numer) and is_ground(denom):
        return Fraction(numer.get(CONST, 0), denom[CONST])
    return f


def substitute(f: RatFunc, point):
    """f at a point of field elements; ZeroDivisionError at a pole."""
    return divide(evaluate(f.numer, point), evaluate(f.denom, point))


def _mul(n1, d1, n2, d2) -> RatFunc:
    """(n1/d1)*(n2/d2) for canonical factors, cancelling across them."""
    if not n1 or not n2:
        return RatFunc({}, ONE)
    if d2 != ONE:
        _, n1, d2 = cofactors(n1, d2)
    if d1 != ONE:
        _, n2, d1 = cofactors(n2, d1)
    return RatFunc(mul(n1, n2), mul(d1, d2))


def _add(n1, d1, n2, d2) -> RatFunc:
    """n1/d1 + n2/d2 for canonical terms: only the gcd of d1 and d2 can cancel."""
    if d1 == d2:
        top = add(n1, n2)
        if not top:
            return RatFunc({}, ONE)
        _, top, bottom = cofactors(top, d1)
        return RatFunc(top, bottom)
    g, e1, e2 = cofactors(d1, d2)
    top = add(mul(n1, e2), mul(n2, e1))
    if not top:
        return RatFunc({}, ONE)
    if g != ONE:
        _, top, g = cofactors(top, g)
    return RatFunc(top, mul(mul(e1, e2), g))


def _mul_ground(f: RatFunc, c) -> RatFunc:
    """c*f for a nonzero rational c.

    f's numerator and denominator are coprime, so the only common factor of
    c.numerator*numer and c.denominator*denom is an integer.
    """
    a, b = c.numerator, c.denominator
    numer, denom = f.numer, f.denom
    g = gcd(a, content(denom))
    h = gcd(b, content(numer))
    return RatFunc(
        mul_ground(quo_ground(numer, h), a // g), mul_ground(quo_ground(denom, g), b // h)
    )
