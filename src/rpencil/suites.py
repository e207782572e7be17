"""Named verification suites producing deterministic JSON-ready reports.

Each suite bundles the checks for one slice of the theory: the sp-based
type-1 pencils, the quadratic/linear type-2 pencils, the quantum matrix
algebras, and the generalized Lie bracket.  Reports depend only on
(suite, n, degree, mode, seed), so repeated runs are byte-identical.
Fast mode specializes only the parametric inputs (hecke_s, jhq/a0q and the
n=2 reference elements), so everything built from them is arithmetic over Q
and the parameter-free pencil suites run exactly as in exact mode; only the
relation-span and diagonal-shift certificates stay symbolic.
"""

from __future__ import annotations

import random
from math import comb

from . import glie as _glie
from . import poisson as _poisson
from . import quadratic as _quadratic
from . import rmatrix as _rmatrix
from .commpoly import Poly
from .freealg import FreeElement
from .linalg import Mat, SubspaceBasis, blocks, complementary, image, rank_modulo_reaches
from .scalars import DEFAULT_ASSIGNMENT, H, LAM, ONE, Q, Scalar

REPORT_SCHEMA = 1


class SuiteError(Exception):
    pass


def _default_degree(n: int) -> int:
    return 4 if n == 2 else 3


class _Checks:
    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, **details):
        self.items.append({"name": name, "pass": bool(ok), "details": details})

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.items)


def _maybe(obj, assign):
    return obj.specialize(assign) if assign else obj


# ---------------------------------------------------------------------------
# reference data for the n=2 example section
# ---------------------------------------------------------------------------

_GENS4 = _poisson.matrix_generators(2)


def _w(word: str) -> FreeElement:
    return FreeElement.word(_GENS4, tuple("abcd".index(ch) for ch in word))


def _g(name: str) -> FreeElement:
    return FreeElement.generator(_GENS4, name)


def _reference_s_matrix() -> Mat:
    qm = Q - 1 / Q
    z = Scalar(0)
    return Mat.from_dense(
        [
            [Q, z, z, z],
            [z, qm, ONE, z],
            [z, ONE, z, z],
            [z, z, z, Q],
        ]
    )


def _overlap_displays():
    """The four displayed overlap equalities for n=2, both printed sides."""
    ab = _w("ab") - Q * _w("ba")
    ac = _w("ac") - Q * _w("ca")
    bd = _w("bd") - Q * _w("db")
    cd = _w("cd") - Q * _w("dc")
    bc = _w("bc") - _w("cb")
    ad = _w("ad") - _w("da") - (Q - 1 / Q) * _w("cb")
    a, b, c, d = (_g(x) for x in "abcd")
    q2m1 = Q * Q - 1
    return [
        (
            ab * c - ac * b + (Q * Q) * (bc * a),
            a * bc - b * ac + Q * (c * ab),
        ),
        (
            ab * d - Q * (ad * b) + Q * (bd * a) + q2m1 * (bc * b),
            a * bd - Q * (b * ad) + Q * (d * ab),
        ),
        (
            ac * d - Q * (ad * c) + Q * (cd * a),
            a * cd - Q * (c * ad) + Q * (d * ac) + q2m1 * (c * bc),
        ),
        (
            bc * d - Q * (bd * c) + Q * (cd * b),
            b * cd - c * bd + (Q * Q) * (d * bc),
        ),
    ]


def _printed_bracket_claims():
    """The printed n=2 bracket table, kept verbatim including suspect lines."""
    M = H * (1 + Q * Q)
    zero = FreeElement.zero(_GENS4)
    claims = []
    for pair in ("aa", "bb", "cc", "dd", "ad", "da", "bc", "cb"):
        claims.append((pair[0], pair[1], zero, None))
    claims.append(("a", "b", M * _g("b"), None))
    claims.append(("b", "d", M * _g("b"), None))
    claims.append(("b", "a", -(M * Q) * _g("b"), None))
    claims.append(("b", "d", -(M * Q) * _g("b"), "pair printed twice with conflicting values"))
    claims.append(("a", "c", M * _g("c"), None))
    claims.append(("c", "d", M * _g("c"), None))
    claims.append(("c", "a", -(M * Q) * _g("c"), "printed without comma as [ca]"))
    claims.append(("d", "c", -(M * Q) * _g("c"), None))
    return claims


# ---------------------------------------------------------------------------
# individual suites
# ---------------------------------------------------------------------------


def _suite_pencil_type1(n, degree, assign, rng, checks):
    for k in (2, 3, 4):
        r = _rmatrix.canonical_r(k)
        checks.add(f"schouten-nonzero-sl{k}", not _rmatrix.schouten(r).is_zero())
        checks.add(f"modified-r-sl{k}", _rmatrix.is_modified(r, _rmatrix.sl_fundamental(k)))
    for dim in (2, 4):
        basis = _rmatrix.sp_fundamental(dim)
        checks.add(f"sp{dim}-closes", _rmatrix.closes_under_commutator(basis))
        r = _rmatrix.canonical_r_sp(dim)
        checks.add(f"modified-r-sp{dim}", _rmatrix.is_modified(r, basis))
        bracket = _poisson.rmatrix_bracket(r)
        ok, witness = bracket.is_poisson()
        checks.add(f"sp{dim}-poisson", ok, witness=_opt(witness))
        ok, witness = _poisson.are_compatible(
            bracket, _poisson.constant_symplectic(dim)
        )
        checks.add(f"sp{dim}-compatible-symplectic", ok, witness=_opt(witness))


def _suite_pencil_type2(n, degree, assign, rng, checks):
    # the Schouten bracket is bilinear and symmetric: [aL+bQ, aL+bQ] is
    # a^2 [L,L] + 2ab [L,Q] + b^2 [Q,Q], so three trivectors settle every pencil
    sd = _poisson.sd_quadratic(n)
    lin = _poisson.linearized(n)
    gens = sd.generators
    qq, ll, lq = (_poisson.schouten_bracket(*p) for p in ((sd, sd), (lin, lin), (lin, sd)))
    for name, components in (("jacobi-quadratic", qq), ("jacobi-linear", ll), ("compatible", lq)):
        ok, witness = _poisson.verdict(gens, components)
        checks.add(name, ok, witness=_opt(witness))

    pairs = []
    while len(pairs) < 5:
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if (a, b) != (0, 0):
            pairs.append((a, b))
    zero, keys = Poly.zero(gens), ll.keys() | lq.keys() | qq.keys()
    all_ok = not any(
        a * a * ll.get(k, zero) + 2 * a * b * lq.get(k, zero) + b * b * qq.get(k, zero)
        for a, b in pairs for k in keys
    )
    checks.add("pencil-jacobi-random", all_ok, pairs=[list(p) for p in pairs])

    checks.add("linearization", _poisson.lambda_linear_term(sd, n) == lin)

    ok, mismatches = _poisson.double_lie_check(n)
    checks.add("double-lie-identity", ok, mismatches=[list(m) for m in mismatches])

    try:
        sk, kappa = _rmatrix.sklyanin_from_r(n)
        checks.add("sklyanin-consistency", sk == sd, kappa=str(kappa))
    except _rmatrix.NormalizationError as exc:
        checks.add("sklyanin-consistency", False, error=str(exc))

    gl2 = _poisson.gl_bracket(2)
    gl_sd = _poisson.schouten_bracket(gl2, _poisson.sd_quadratic(2))
    gens = gl2.generators
    ok, witness = _poisson.verdict(gens, gl_sd)
    printed_witness = gl_sd.get(tuple(gens.index(x) for x in "abd"), Poly.zero(gens))
    checks.add(
        "gl-not-compatible",
        (not ok) and bool(printed_witness),
        first_witness=_opt(witness),
        printed_witness_value=str(printed_witness),
    )


def _suite_quantum_type2(n, degree, assign, rng, checks):
    symbolic = _rmatrix.hecke_s(n)
    s = _maybe(symbolic, assign)
    checks.add("qybe", _rmatrix.qybe_check(s))
    checks.add("hecke-relation", _rmatrix.hecke_check(symbolic))
    if n == 2:
        checks.add("s-matrix-reference", symbolic.mat == _reference_s_matrix())
    sw = _rmatrix.s_w(s)
    if n <= 3:
        checks.add("qybe-induced", _rmatrix.qybe_check(sw))
    i_minus, i_plus = _rmatrix.eigen_split(sw)
    N = n * n
    checks.add(
        "eigen-dimensions",
        i_minus.dim == comb(N, 2) and i_plus.dim == comb(N + 1, 2),
        i_minus=i_minus.dim,
        i_plus=i_plus.dim,
    )
    checks.add("eigen-direct-sum", complementary(i_minus, i_plus))

    pres = _quadratic.a0q(n)
    checks.add(
        "relation-span",
        pres.quadratic_space() == (_symbolic_i_minus(symbolic) if assign else i_minus),
    )
    filtered = _quadratic.jhq(n)
    pres_run, filtered_run = _maybe(pres, assign), _maybe(filtered, assign)
    graded_ideal = pres_run.to_ideal(degree)
    graded = _quadratic.certify_flat_graded(graded_ideal)
    checks.add(
        "graded-flatness", graded["flat"], dims=graded["dims"], expected=graded["expected"]
    )
    pbw = _quadratic.certify_flat_filtered(filtered_run.to_ideal(degree), graded_ideal)
    checks.add(
        "filtered-flatness-pbw",
        pbw["flat"],
        dims=pbw["dims"],
        expected=pbw["expected"],
        first_failing_degree=pbw["first_failing_degree"],
    )

    try:
        shifted = _maybe(_quadratic.lambda_substitute(pres), assign)
    except _quadratic.ConsistencyError as exc:
        checks.add("diagonal-shift", False, error=str(exc))
        return
    matched = _maybe(filtered.specialize({"h": LAM * (Q - 1)}), assign)
    checks.add("diagonal-shift", _quadratic.same_ideal(shifted, matched, 3))


def _suite_glie(n, degree, assign, rng, checks):
    target = _maybe(_quadratic.jhq(n), assign)
    _, i_plus = _rmatrix.eigen_split(_rmatrix.s_w(_maybe(_rmatrix.hecke_s(n), assign)))
    try:
        g = _glie.from_presentation(target, i_plus)
    except _glie.SplittingError as exc:
        checks.add("splitting", False, error=str(exc))
        return
    N = n * n
    overlap = g.overlap
    checks.add(
        "overlap-dimension", overlap.dim == comb(N, 3), dim=overlap.dim, expected=comb(N, 3)
    )
    checks.add("overlap-oracle-agreement", _overlap_certified(g))

    # GeneralizedLieBracket.__post_init__ has checked that g vanishes on I_plus
    # and raises SplittingError otherwise, so a built g records its verdict
    checks.add("vanishes-on-i-plus", True)

    ok, witness = _glie.check_axiom7(g)
    checks.add("axiom-7", ok, witness=_witness_str(witness))
    ok, witness = _glie.check_axiom8(g)
    checks.add("axiom-8", ok, witness=_witness_str(witness))

    env = _glie.enveloping(g)
    checks.add("enveloping-ideal", _quadratic.same_ideal(env, target, 3))

    if n == 2:
        _glie_section5_checks(assign, g, checks)

    classical = _glie.classical_glie(2)
    flip = _rmatrix.flip_operator(4)
    checks.add("jacobi-form-classical", _glie.slie_jacobi_check(classical, flip))
    rejected = False
    seed0 = rng.randint(0, 10**6)
    for offset in range(8):
        candidate = _glie.random_bracket(
            classical.i_plus, classical.i_minus, classical.generators, seed0 + offset
        )
        if not _glie.slie_jacobi_check(candidate, flip):
            rejected = True
            break
    checks.add("jacobi-form-rejects-random", rejected, seed=seed0)

    ideal = env.to_ideal(3)
    dims = _quadratic.filtration_dims(ideal, 3)
    expected = [sum(comb(N + j - 1, j) for j in range(k + 1)) for k in range(4)]
    checks.add(
        "koszul-evidence",
        dims == expected,
        note="evidence only: Hilbert function matches the Koszul expectation to degree 3",
        dims=dims,
        expected=expected,
    )


def _glie_section5_checks(assign, g, checks):
    overlap = g.overlap
    members = []
    sides = []
    for idx, (lhs, rhs) in enumerate(_overlap_displays(), start=1):
        lhs, rhs = _maybe(lhs, assign), _maybe(rhs, assign)
        lv, rv = lhs.to_vector(3), rhs.to_vector(3)
        in_l = overlap.contains(lv)
        in_r = overlap.contains(rv)
        equal = lhs == rhs
        members.append(in_l)
        sides.append(
            {
                "display": idx,
                "lhs_in_overlap": in_l,
                "rhs_in_overlap": in_r,
                "sides_equal": equal,
                "difference": str(lhs - rhs),
            }
        )
    checks.add("display-elements-in-overlap", all(members), displays=sides)

    table = _glie.bracket_table(g)
    zero_at_classical = all(
        not v.specialize({"q": 1, "h": 0}).terms
        for v in _glie.bracket_table(_glie.type2_bracket(2)).values()
    )
    checks.add("table-vanishes-at-classical-point", zero_at_classical)
    diff = []
    agreements = 0
    for x, y, printed, note in _printed_bracket_claims():
        computed = table[(x, y)]
        printed = _maybe(printed, assign)
        match = computed == printed
        agreements += match
        entry = {
            "pair": [x, y],
            "printed": str(printed),
            "computed": str(computed),
            "match": match,
        }
        if note:
            entry["note"] = note
        diff.append(entry)
    checks.add(
        "printed-table-diff",
        True,
        note="informational: printed table compared entry by entry",
        agreements=agreements,
        total=len(diff),
        entries=diff,
    )


def _overlap_certified(g) -> bool:
    """Whether g.overlap is exactly I(x)V intersect V(x)I, with I = g.i_minus.

    (a) Every overlap row lies in I(x)V and in V(x)I, so the intersection has
    dimension at least k = dim overlap.  (b) The intersection has dimension
    N dim I - r, r the rank of V(x)I's rows modulo I(x)V; by (a) r is at most
    N dim I - k, and r reaching it proves equality.  Both are checked in each
    block of the rows of I(x)V, V(x)I and the overlap together, with the
    block's own counts: ranks add up over blocks, and (a) bounds each one.
    A block equal to an earlier one, with the same counts, has its verdict.
    """
    i, overlap = g.i_minus, g.overlap
    d = g.dim * i.ambient_dim
    first, last = Mat(i.dim, i.ambient_dim, i.rows).legs(g.dim)
    rows = first.rows + last.rows + overlap.rows
    verdicts: dict = {}  # (position of equal content, counts) -> verdict
    for _, indices, same in blocks(rows):
        sides = ([], [], [])  # the block's rows of I(x)V, V(x)I and the overlap
        for k in indices:
            sides[(k >= first.nrows) + (k >= first.nrows + last.nrows)].append(rows[k])
        key = (same, len(sides[0]), len(sides[1]))
        if key not in verdicts:
            left, right = (SubspaceBasis(d, side) for side in sides[:2])
            verdicts[key] = all(
                left.contains(row) and right.contains(row) for row in sides[2]
            ) and rank_modulo_reaches(right.rows, left, len(sides[1]) - len(sides[2]))
        if not verdicts[key]:
            return False
    return True


def _symbolic_i_minus(s):
    """I_minus = image(S_W - id) over Q(q): fast mode keeps the relation-span
    check a symbolic certificate.  A function, so that the symbolic S_W is
    freed before the Groebner completions."""
    sw = _rmatrix.s_w(s)
    return image(sw.mat - Mat.identity(sw.dim * sw.dim))


def _opt(witness):
    return None if witness is None else list(witness)


def _witness_str(witness):
    if witness is None:
        return None
    return {
        "overlap_index": witness["overlap_index"],
        "residual": {str(k): str(v) for k, v in witness["residual"].items()},
    }


_RUNNERS = {
    "pencil-type1": _suite_pencil_type1,
    "pencil-type2": _suite_pencil_type2,
    "quantum-type2": _suite_quantum_type2,
    "glie": _suite_glie,
}

SUITES = (*_RUNNERS, "all")


def run_suite(name: str, n: int = 2, degree: int = None, mode: str = "exact", seed: int = 0) -> dict:
    """Execute a named suite and return its report dictionary."""
    if name not in SUITES:
        raise SuiteError(
            f"unknown suite {name!r}; available suites: {', '.join(SUITES)}"
        )
    if mode not in ("exact", "fast"):
        raise SuiteError(f"unknown mode {mode!r}; expected 'exact' or 'fast'")
    if n < 2:
        raise SuiteError("n must be at least 2")
    if degree is None:
        degree = _default_degree(n)
    if degree < 2:
        raise SuiteError("degree must be at least 2")
    assign = DEFAULT_ASSIGNMENT if mode == "fast" else None
    checks = _Checks()
    rng = random.Random(seed)
    names = _RUNNERS if name == "all" else {name: _RUNNERS[name]}
    for runner in names.values():
        runner(n, degree, assign, rng, checks)
    return {
        "schema": REPORT_SCHEMA,
        "suite": name,
        "parameters": {"n": n, "degree": degree, "mode": mode, "seed": seed},
        "checks": checks.items,
        "verdict": "pass" if checks.all_pass else "fail",
    }
