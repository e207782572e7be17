import pytest

from rpencil.freealg import FreeElement
from rpencil.groebner import IdealCollapse
from rpencil.quadratic import (
    ConsistencyError,
    QuadraticPresentation,
    a0q,
    certify_flat_filtered,
    certify_flat_graded,
    jhq,
    lambda_substitute,
    same_ideal,
)
from rpencil.rmatrix import eigen_split, hecke_s, s_w
from rpencil.scalars import DEFAULT_ASSIGNMENT, H, LAM, Q


def test_a0q_matches_eigenspace():
    for n in (2, 3):
        pres = a0q(n)
        i_minus, _ = eigen_split(s_w(hecke_s(n)))
        assert pres.quadratic_space() == i_minus
        assert pres.flag == "graded"


def test_jhq_lower_terms_n2():
    pres = jhq(2)
    gens = pres.generators
    a, b, c, d = (FreeElement.generator(gens, x) for x in "abcd")
    expected = {
        a * b - Q * (b * a) - H * b,
        a * c - Q * (c * a) - H * c,
        b * d - Q * (d * b) - H * b,
        c * d - Q * (d * c) - H * c,
        b * c - c * b,
        a * d - d * a - (Q - 1 / Q) * (c * b),
    }
    assert set(pres.relations) == expected


def test_graded_rejects_lower_terms():
    gens = ("x", "y")
    x = FreeElement.generator(gens, "x")
    y = FreeElement.generator(gens, "y")
    with pytest.raises(ValueError):
        QuadraticPresentation(gens, (x * y - x,), "graded")
    with pytest.raises(ValueError):
        QuadraticPresentation(gens, (x - y,), "filtered")


def test_graded_flatness():
    assert certify_flat_graded(a0q(2), 4)["dims"] == [1, 4, 10, 20, 35]
    assert certify_flat_graded(a0q(3), 3)["dims"] == [1, 9, 45, 165]
    assert certify_flat_graded(a0q(2), 4)["flat"]


def test_filtered_flatness():
    report = certify_flat_filtered(jhq(2), a0q(2), 4)
    assert report["flat"] and report["first_failing_degree"] is None
    assert report["dims"] == [1, 5, 15, 35, 70]
    report = certify_flat_filtered(jhq(3), a0q(3), 3)
    assert report["flat"]


def test_filtered_flatness_failure():
    # [x,y] = y, [y,z] = x, [z,x] = 0 breaks Jacobi, so x lies in the ideal
    gens = ("x", "y", "z")
    x, y, z = (FreeElement.generator(gens, g) for g in gens)
    lie = QuadraticPresentation(gens, (x * y - y * x - y, y * z - z * y - x, z * x - x * z),
                                "filtered")
    plane = QuadraticPresentation(gens, (x * y - y * x, y * z - z * y, z * x - x * z), "graded")
    report = certify_flat_filtered(lie, plane, 3)
    assert report["dims"] == [1, 2, 3, 4]
    assert report["expected"] == [1, 4, 10, 20]
    assert not report["flat"] and report["first_failing_degree"] == 1


def test_corrupted_relation_breaks_flatness():
    pres = a0q(2)
    broken = list(pres.relations)
    gens = pres.generators
    broken[0] = broken[0] + (Q - Q * Q) * FreeElement.word(gens, (1, 0))
    bad = QuadraticPresentation(gens, tuple(broken), "graded")
    report = certify_flat_graded(bad, 3)
    assert not report["flat"]
    assert report["dims"][3] < report["expected"][3]


def test_lambda_substitution_matches_filtered():
    for n in (2, 3):
        shifted = lambda_substitute(a0q(n))
        target = jhq(n).specialize({"h": LAM * (Q - 1)})
        assert same_ideal(shifted, target, 3)


def test_lambda_substitution_flags():
    shifted = lambda_substitute(a0q(2))
    assert shifted.flag == "filtered"


def test_fast_mode_certification_agrees():
    exact = certify_flat_graded(a0q(2), 4)
    fast = certify_flat_graded(a0q(2).specialize(DEFAULT_ASSIGNMENT), 4)
    assert exact["flat"] == fast["flat"]
    assert exact["dims"] == fast["dims"]


def test_small_n_rejected():
    with pytest.raises(ValueError):
        a0q(1)
    with pytest.raises(ValueError):
        jhq(0)
