import pytest

from rpencil import quadratic
from rpencil.freealg import FreeElement
from rpencil.glie import enveloping, type2_bracket
from rpencil.groebner import IdealCollapse, complete, normal_form
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
    assert QuadraticPresentation(gens, (x * y - x,)).flag == "filtered"
    with pytest.raises(ValueError):
        QuadraticPresentation(gens, (x - y,))


def test_graded_flatness():
    assert certify_flat_graded(a0q(2).to_ideal(4))["dims"] == [1, 4, 10, 20, 35]
    assert certify_flat_graded(a0q(3).to_ideal(3))["dims"] == [1, 9, 45, 165]
    assert certify_flat_graded(a0q(2).to_ideal(4))["flat"]


def test_filtered_flatness():
    report = certify_flat_filtered(jhq(2).to_ideal(4), a0q(2).to_ideal(4))
    assert report["flat"] and report["first_failing_degree"] is None
    assert report["dims"] == [1, 5, 15, 35, 70]
    report = certify_flat_filtered(jhq(3).to_ideal(3), a0q(3).to_ideal(3))
    assert report["flat"]


def test_filtered_flatness_failure():
    # [x,y] = y, [y,z] = x, [z,x] = 0 breaks Jacobi, so x lies in the ideal
    gens = ("x", "y", "z")
    x, y, z = (FreeElement.generator(gens, g) for g in gens)
    lie = QuadraticPresentation(gens, (x * y - y * x - y, y * z - z * y - x, z * x - x * z))
    plane = QuadraticPresentation(gens, (x * y - y * x, y * z - z * y, z * x - x * z))
    report = certify_flat_filtered(lie.to_ideal(3), plane.to_ideal(3))
    assert report["dims"] == [1, 2, 3, 4]
    assert report["expected"] == [1, 4, 10, 20]
    assert not report["flat"] and report["first_failing_degree"] == 1


def _broken_a0q2():
    # ab - q ba becomes ab - q^2 ba
    pres = a0q(2)
    broken = list(pres.relations)
    broken[0] = broken[0] + (Q - Q * Q) * FreeElement.word(pres.generators, (1, 0))
    return QuadraticPresentation(pres.generators, tuple(broken))


def test_corrupted_relation_breaks_flatness():
    report = certify_flat_graded(_broken_a0q2().to_ideal(3))
    assert not report["flat"]
    assert report["dims"][3] < report["expected"][3]


def test_lambda_substitution_matches_filtered():
    for n in (2, 3):
        shifted = lambda_substitute(a0q(n))
        target = jhq(n).specialize({"h": LAM * (Q - 1)})
        assert same_ideal(shifted, target, 3)


@pytest.fixture
def completions(monkeypatch):
    """The degree bounds of the completions same_ideal asks for."""
    calls = []

    def counting(relations, degree_bound):
        calls.append(degree_bound)
        return complete(relations, degree_bound)

    monkeypatch.setattr(quadratic, "complete", counting)
    return calls


def test_same_ideal_other_generating_set(completions):
    pres = jhq(2)
    rels = list(pres.relations)
    rels[0] = rels[0] + 2 * rels[1]
    other = QuadraticPresentation(pres.generators, tuple(reversed(rels)))
    assert same_ideal(pres, other, 3)
    assert same_ideal(other, pres, 3)
    assert completions == [3, 3, 3, 3]


def test_same_ideal_detects_corrupted_relation(completions):
    assert not same_ideal(a0q(2), _broken_a0q2(), 3)
    assert not same_ideal(_broken_a0q2(), a0q(2), 3)
    assert completions == [3, 3]


def test_same_ideal_identical_relations_complete_nothing(completions):
    gens = ("x", "y")
    x, y = (FreeElement.generator(gens, g) for g in gens)
    collapsing = QuadraticPresentation(
        gens, (x * y - y * x, x * y - y * x - FreeElement.constant(gens, 1))
    )
    for pres in (a0q(3), jhq(2), collapsing):
        reordered = QuadraticPresentation(pres.generators, tuple(reversed(pres.relations)))
        assert same_ideal(pres, reordered, 3)
    assert completions == []
    with pytest.raises(IdealCollapse):
        collapsing.to_ideal(3)


def test_relations_reduce_to_zero_in_own_completion():
    # the premise of same_ideal: a shared relation needs no normal form
    presentations = [
        a0q(2), a0q(3), jhq(2), jhq(3), lambda_substitute(a0q(2)),
        enveloping(type2_bracket(2)), _broken_a0q2(),
    ]
    for pres in presentations:
        ideal = pres.to_ideal(3)
        assert all(not normal_form(ideal, r) for r in pres.relations)


def test_lambda_substitution_rejects_surviving_constant():
    # a*a shifts to (a + lam)(a + lam), whose constant lam**2 nothing cancels
    pres = a0q(2)
    aa = FreeElement.word(pres.generators, (0, 0))
    graded = QuadraticPresentation(pres.generators, (pres.relations[0] + aa,))
    assert graded.flag == "graded"
    with pytest.raises(ConsistencyError, match=r"constant term lam\*\*2 in relation"):
        lambda_substitute(graded)


def test_lambda_substitution_flags():
    shifted = lambda_substitute(a0q(2))
    assert shifted.flag == "filtered"


def test_fast_mode_certification_agrees():
    exact = certify_flat_graded(a0q(2).to_ideal(4))
    fast = certify_flat_graded(a0q(2).specialize(DEFAULT_ASSIGNMENT).to_ideal(4))
    assert exact["flat"] == fast["flat"]
    assert exact["dims"] == fast["dims"]


def test_small_n_rejected():
    with pytest.raises(ValueError):
        a0q(1)
    with pytest.raises(ValueError):
        jhq(0)
