"""End-to-end acceptance checks: one test per published claim.

Each test prints a single "criterion NN (...): PASS/FAIL" line (visible with
pytest -s) and asserts the claim exactly.  All arithmetic is exact; the only
tolerances are the stated runtime ceilings.
"""

import json
import time
from math import comb

from rpencil.commpoly import Poly
from rpencil.freealg import FreeElement
from rpencil.glie import (
    bracket_table,
    check_axiom7,
    check_axiom8,
    classical_glie,
    enveloping,
    overlap_space,
    random_bracket,
    slie_jacobi_check,
    type2_bracket,
)
from rpencil.linalg import Mat, SubspaceBasis
from rpencil.poisson import (
    are_compatible,
    constant_symplectic,
    double_lie_check,
    gl_bracket,
    lambda_linear_term,
    linearized,
    pencil,
    rmatrix_bracket,
    schouten_bracket,
    sd_quadratic,
)
from rpencil.quadratic import (
    a0q,
    certify_flat_filtered,
    certify_flat_graded,
    jhq,
    same_ideal,
)
from rpencil.rmatrix import (
    canonical_r,
    canonical_r_sp,
    eigen_split,
    flip_operator,
    hecke_check,
    hecke_s,
    is_modified,
    qybe_check,
    s_w,
    schouten,
    sklyanin_from_r,
    sl_fundamental,
)
from rpencil.scalars import ONE, Q, Scalar
from rpencil.suites import SUITES, run_suite


def _report(number: int, label: str, ok: bool):
    print(f"criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label})"


def _gens2():
    return sd_quadratic(2).generators


def test_01_jacobi_identity():
    ok = True
    t0 = time.monotonic()
    ok &= sd_quadratic(2).is_poisson()[0]
    ok &= linearized(2).is_poisson()[0]
    ok &= time.monotonic() - t0 < 5
    t0 = time.monotonic()
    ok &= sd_quadratic(3).is_poisson()[0]
    ok &= linearized(3).is_poisson()[0]
    ok &= time.monotonic() - t0 < 60
    _report(1, "Jacobi for both brackets, n=2,3", ok)


def test_02_compatibility_and_pencils():
    import random

    ok = True
    for n in (2, 3):
        ok &= are_compatible(linearized(n), sd_quadratic(n))[0]
    rng = random.Random(0)
    lin, sd = linearized(2), sd_quadratic(2)
    done = 0
    while done < 5:
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if (a, b) == (0, 0):
            continue
        ok &= pencil(lin, sd, a, b).is_poisson()[0]
        done += 1
    _report(2, "compatibility and random pencils", ok)


def test_03_gl_non_compatibility():
    gl, sd = gl_bracket(2), sd_quadratic(2)
    compatible, _ = are_compatible(gl, sd)
    abd = tuple(gl.generators.index(x) for x in ("a", "b", "d"))
    witness_value = schouten_bracket(gl, sd).get(abd, Poly.zero(gl.generators))
    _report(3, "gl bracket incompatible, witness (a,b,d)",
            (not compatible) and bool(witness_value))


def test_04_linearization():
    ok = all(
        lambda_linear_term(sd_quadratic(n), n) == linearized(n) for n in (2, 3)
    )
    _report(4, "linear bracket is the lambda-linear term", ok)


def test_05_double_lie_identity():
    ok = all(double_lie_check(n)[0] for n in (2, 3))
    _report(5, "double Lie identity on generator pairs", ok)


def test_06_modified_r():
    ok = True
    for n in (2, 3, 4):
        r = canonical_r(n)
        ok &= not schouten(r).is_zero()
        ok &= is_modified(r, sl_fundamental(n))
    _report(6, "canonical r solves the modified YBE", ok)


def test_07_sklyanin_consistency():
    ok = True
    for n in (2, 3):
        table, kappa = sklyanin_from_r(n)
        ok &= table == sd_quadratic(n)
        ok &= kappa == 1
    _report(7, "Sklyanin commutator reproduces the quadratic bracket", ok)


def test_08_quantum_operator():
    ok = True
    for n in (2, 3, 4):
        s = hecke_s(n)
        ok &= qybe_check(s) and hecke_check(s)
    for n in (2, 3):
        ok &= qybe_check(s_w(hecke_s(n)))
    qm = Q - 1 / Q
    z = Scalar(0)
    reference = Mat.from_dense(
        [[Q, z, z, z], [z, qm, ONE, z], [z, ONE, z, z], [z, z, z, Q]]
    )
    ok &= hecke_s(2).mat == reference
    _report(8, "QYBE, Hecke relation, reference matrix", ok)


def _explicit_spans_n2():
    gens = _gens2()

    def w(word, coeff=1):
        return FreeElement.word(gens, tuple("abcd".index(ch) for ch in word), coeff)

    qm = Q - 1 / Q
    minus = [
        w("ab") - Q * w("ba"),
        w("ac") - Q * w("ca"),
        w("bd") - Q * w("db"),
        w("cd") - Q * w("dc"),
        w("bc") - w("cb"),
        w("ad") - w("da") - qm * w("cb"),
    ]
    plus = [
        w("aa"), w("bb"), w("cc"), w("dd"),
        Q * w("ab") + w("ba"),
        Q * w("ac") + w("ca"),
        Q * w("bd") + w("db"),
        Q * w("cd") + w("dc"),
        w("ad") + w("da"),
        w("bc") + w("cb") + qm * w("ad"),
    ]
    return (
        SubspaceBasis(16, [f.to_vector(2) for f in minus]),
        SubspaceBasis(16, [f.to_vector(2) for f in plus]),
    )


def test_09_eigenspaces():
    ok = True
    for n in (2, 3):
        N = n * n
        i_minus, i_plus = eigen_split(s_w(hecke_s(n)))
        ok &= i_minus.dim == comb(N, 2) and i_plus.dim == comb(N + 1, 2)
        ok &= a0q(n).quadratic_space() == i_minus
    minus2, plus2 = _explicit_spans_n2()
    i_minus, i_plus = eigen_split(s_w(hecke_s(2)))
    ok &= i_minus == minus2 and i_plus == plus2
    _report(9, "eigenspace dimensions and explicit spans", ok)


def test_10_graded_flatness():
    ok = True
    report = certify_flat_graded(a0q(2).to_ideal(4))
    ok &= report["flat"] and report["dims"] == [1, 4, 10, 20, 35]
    t0 = time.monotonic()
    report = certify_flat_graded(a0q(3).to_ideal(3))
    exact_time = time.monotonic() - t0
    ok &= report["flat"] and report["dims"] == [1, 9, 45, 165]
    ok &= exact_time < 120
    from rpencil.scalars import DEFAULT_ASSIGNMENT

    t0 = time.monotonic()
    fast = certify_flat_graded(a0q(3).specialize(DEFAULT_ASSIGNMENT).to_ideal(3))
    ok &= fast["flat"] and time.monotonic() - t0 < 10
    _report(10, "graded Hilbert functions are flat", ok)


def test_11_filtered_flatness():
    ok = certify_flat_filtered(jhq(2).to_ideal(4), a0q(2).to_ideal(4))["flat"]
    ok &= certify_flat_filtered(jhq(3).to_ideal(3), a0q(3).to_ideal(3))["flat"]
    _report(11, "filtered deformation is PBW-flat", ok)


def test_12_overlap_space():
    ok = True
    i_minus2 = type2_bracket(2).i_minus
    overlap2 = overlap_space(i_minus2)
    ok &= overlap2.dim == 4
    gens = _gens2()

    def g(name):
        return FreeElement.generator(gens, name)

    a, b, c, d = (g(x) for x in "abcd")
    qm = Q - 1 / Q
    ab, ac = a * b - Q * (b * a), a * c - Q * (c * a)
    bd, cd = b * d - Q * (d * b), c * d - Q * (d * c)
    bc = b * c - c * b
    ad = a * d - d * a - qm * (c * b)
    q2m1 = Q * Q - 1
    displayed = [
        ab * c - ac * b + (Q * Q) * (bc * a),
        ab * d - Q * (ad * b) + Q * (bd * a) + q2m1 * (bc * b),
        ac * d - Q * (ad * c) + Q * (cd * a),
        bc * d - Q * (bd * c) + Q * (cd * b),
    ]
    for element in displayed:
        ok &= overlap2.contains(element.to_vector(3))
    ok &= overlap_space(type2_bracket(3).i_minus).dim == comb(9, 3)
    _report(12, "overlap-space dimensions and displayed members", ok)


def test_13_generalized_lie_axioms():
    ok = True
    for n in (2, 3):
        g = type2_bracket(n)
        ok &= check_axiom7(g)[0]
        ok &= check_axiom8(g)[0]
        ok &= same_ideal(enveloping(g), jhq(n), 3)
    _report(13, "bracket axioms and enveloping algebra", ok)


def test_14_bracket_table_diff():
    g = type2_bracket(2)
    table = bracket_table(g)
    ok = True
    # bilinearity is structural; vanishing on I_plus and the classical limit
    ok &= not any(g.values(g.i_plus.rows))
    ok &= not any(v.specialize({"q": 1, "h": 0}) for v in table.values())
    report = run_suite("glie", 2, None, "exact", 0)
    diff = next(c for c in report["checks"] if c["name"] == "printed-table-diff")
    entries = diff["details"]["entries"]
    ok &= len(entries) == 16
    ok &= any(e.get("note") for e in entries)  # the suspect lines are flagged
    ok &= any(not e["match"] for e in entries)  # discrepancies are reported
    ok &= all(e["match"] for e in entries if e["printed"] == "0")
    _report(14, "derived bracket table with printed-table diff", ok)


def test_15_involutive_jacobi_forms():
    flip = flip_operator(4)
    classical = classical_glie(2)
    ok = slie_jacobi_check(classical, flip)
    rejected = False
    for seed in range(6):
        candidate = random_bracket(
            classical.i_plus, classical.i_minus, classical.generators, seed
        )
        if not slie_jacobi_check(candidate, flip):
            rejected = True
            break
    ok &= rejected
    _report(15, "involutive Jacobi forms accept/reject correctly", ok)


def test_16_sp_example():
    ok = True
    for dim in (2, 4):
        bracket = rmatrix_bracket(canonical_r_sp(dim))
        ok &= bracket.is_poisson()[0]
        ok &= are_compatible(bracket, constant_symplectic(dim))[0]
    _report(16, "sp brackets are Poisson and compatible", ok)


def test_17_mode_agreement():
    ok = True
    for suite in SUITES:
        if suite == "all":
            continue
        exact = run_suite(suite, 2, None, "exact", 0)
        fast = run_suite(suite, 2, None, "fast", 0)
        ok &= [(c["name"], c["pass"]) for c in exact["checks"]] == [
            (c["name"], c["pass"]) for c in fast["checks"]
        ]
    for suite in ("pencil-type2", "quantum-type2", "glie"):
        exact = run_suite(suite, 3, None, "exact", 0)
        fast = run_suite(suite, 3, None, "fast", 0)
        ok &= [(c["name"], c["pass"]) for c in exact["checks"]] == [
            (c["name"], c["pass"]) for c in fast["checks"]
        ]
    _report(17, "exact and fast modes agree on every verdict", ok)
