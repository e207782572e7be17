import hashlib
import heapq
import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpencil.freealg import FreeElement, deglex_key
from rpencil.groebner import (
    DegreeBoundExceeded,
    IdealCollapse,
    _contains,
    _lengths,
    _overlap_elements,
    _reduce,
    complete,
    filtration_dims,
    hilbert,
    normal_form,
    pbw_check,
)
from rpencil.quadratic import a0q, jhq
from rpencil.scalars import H, Q, scalar

GENS = ("x", "y")
X = FreeElement.generator(GENS, "x")
Y = FreeElement.generator(GENS, "y")


def test_quantum_plane():
    # xy = q yx is already confluent; dims match the commutative plane
    ideal = complete([X * Y - Q * (Y * X)], 5)
    assert [hilbert(ideal, p) for p in range(6)] == [1, 2, 3, 4, 5, 6]
    # under deglex with x < y the leading word is yx, so yx reduces
    assert normal_form(ideal, Y * X) == (1 / Q) * (X * Y)
    assert normal_form(ideal, X * Y - Q * (Y * X)).is_zero()


def test_weyl_algebra_filtration():
    # xy - yx = 1: filtered, PBW against the commutative plane
    weyl = complete([X * Y - Y * X - FreeElement.constant(GENS, 1)], 4)
    assert weyl.flag == "filtered"
    plane = complete([X * Y - Y * X], 4)
    ok, failing = pbw_check(weyl, plane, 4)
    assert ok and failing is None
    assert filtration_dims(weyl, 3) == [1, 3, 6, 10]


def test_collapse():
    with pytest.raises(IdealCollapse):
        complete([X * Y - Y * X, FreeElement.constant(GENS, 1)], 3)


def test_degree_bound_guard():
    ideal = complete([X * Y - Q * (Y * X)], 3)
    with pytest.raises(DegreeBoundExceeded):
        hilbert(ideal, 4)
    with pytest.raises(DegreeBoundExceeded):
        normal_form(ideal, X * X * X * X)


def test_hilbert_rejects_filtered():
    weyl = complete([X * Y - Y * X - FreeElement.constant(GENS, 1)], 3)
    with pytest.raises(ValueError):
        hilbert(weyl, 2)


def _broken_a0q2():
    # corrupting one quantum-matrix relation destroys flatness at degree 3
    broken = list(a0q(2).relations)
    target = broken[0]  # ab - q ba
    broken[0] = target + (Q - Q * Q) * FreeElement.word(GENS4, (1, 0))
    return broken


def test_overlap_completion_adds_rules():
    ideal = complete(_broken_a0q2(), 3)
    assert any(len(w) == 3 for w in ideal.rules)
    assert hilbert(ideal, 3) < 20


GENS4 = a0q(2).generators


def test_specialize_recompletes():
    ideal = complete([X * Y - Q * (Y * X)], 3)
    specialized = ideal.specialize({"q": 2})
    assert hilbert(specialized, 3) == 4
    assert normal_form(specialized, Y * X) == (scalar(1) / 2) * (X * Y)


def _rules_digest(ideal):
    text = "\n".join(f"{lw}: {g}" for lw, g in ideal.rules.items())
    return hashlib.sha256(text.encode()).hexdigest()


def test_completion_rules_pinned():
    # pins the rule values and the order of the rules dict
    jhq3 = complete(jhq(3).relations, 4)
    assert len(jhq3.rules) == 36
    assert filtration_dims(jhq3, 4) == [1, 10, 55, 220, 715]
    assert _rules_digest(jhq3) == (
        "e8fdf70766736f48407a21c4d54794845abfa348e31bc6f1c430e19cef821e51"
    )
    broken = complete(_broken_a0q2(), 3)
    assert _rules_digest(broken) == (
        "31633e5fe79cbcc332f77694f20bc9678fb11ab44b0428a534563f526e1182f4"
    )


# The rewrite loop that _reduce replaced: re-sort the terms on every step,
# rewrite the largest reducible word by forming prefix * rule * suffix.
def _reference_reduce(f, rules):
    lengths = sorted({len(w) for w in rules}, reverse=True) if rules else []
    while True:
        target = None
        for w in sorted(f.terms, key=deglex_key, reverse=True):
            hit = _reference_find_redex(w, rules, lengths)
            if hit is not None:
                target = (w, *hit)
                break
        if target is None:
            return f
        w, pos, lw = target
        c = f.terms[w]
        rule = rules[lw]
        prefix = FreeElement.word(f.generators, w[:pos])
        suffix = FreeElement.word(f.generators, w[pos + len(lw):])
        f = f - c * (prefix * rule * suffix)


def _reference_find_redex(word, rules, lengths):
    for pos in range(len(word)):
        for length in lengths:
            if pos + length > len(word):
                continue
            sub = word[pos:pos + length]
            if sub in rules:
                return pos, sub
    return None


@lru_cache(maxsize=None)
def _rule_systems():
    return (
        complete(a0q(2).relations, 3).rules,
        complete(jhq(2).relations, 3).rules,
        complete(_broken_a0q2(), 3).rules,
    )


_COEFFS = st.sampled_from(
    [scalar(1), scalar(-1), scalar(2), scalar(3) / 7, Q, 1 / Q, Q + 1, H, H * Q - 2]
)
_WORDS = st.lists(st.integers(0, len(GENS4) - 1), max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_WORDS, _COEFFS, max_size=6), st.integers(0, 2))
def test_reduce_matches_reference(terms, which):
    rules = _rule_systems()[which]
    f = FreeElement(GENS4, terms)
    assert _reduce(f, rules, _lengths(rules)) == _reference_reduce(f, rules)


# The completion loop that complete replaced: inter-reduce every rule tail
# against the enlarged system each time a rule is added.
def _reference_complete(relations, degree_bound):
    generators = relations[0].generators
    rules: dict = {}
    queue: list = []
    counter = itertools.count()

    def push(g):
        heapq.heappush(queue, (deglex_key(g.leading_word()), -next(counter), g))

    for r in relations:
        push(r)
    while queue:
        f = _reference_reduce(heapq.heappop(queue)[2], rules)
        if not f:
            continue
        f = f.monic()
        lw = f.leading_word()
        if not lw:
            raise IdealCollapse("ideal collapses")
        for old in [w for w in rules if _contains(w, lw)]:
            push(rules.pop(old))
        trial = dict(rules)
        trial[lw] = f
        for w in list(rules):
            tail = rules[w] - FreeElement.word(generators, w)
            red = _reference_reduce(tail, trial)
            rules[w] = FreeElement.word(generators, w) + red
            trial[w] = rules[w]
        rules[lw] = f
        for other_lw, other in list(rules.items()):
            for g1, g2 in [(f, other)] + ([(other, f)] if other_lw != lw else []):
                for s_elem in _overlap_elements(
                    g1.leading_word(), g1, g2.leading_word(), g2, degree_bound
                ):
                    push(s_elem)
    return rules


GENS3 = ("x", "y", "z")
_WORDS3 = st.lists(st.integers(0, 2), max_size=2).map(tuple)
_RELATIONS = st.lists(
    st.dictionaries(_WORDS3, _COEFFS, min_size=1, max_size=4).map(
        lambda terms: FreeElement(GENS3, terms)
    ).filter(bool),
    min_size=1,
    max_size=4,
)


def _completion(relations, bound, fn):
    try:
        return list(fn(relations, bound).items())
    except IdealCollapse:
        return "collapse"


def test_tail_reduction_is_exercised():
    # the rule for zxxx, found at degree 4, re-reduces the tail of the rule
    # for zxzx, which contains zxxx
    x, y, z = (FreeElement.generator(GENS3, g) for g in GENS3)
    relations = [z * z - y * x, y * y - x * z, x * y - z - x]
    rules = complete(relations, 4).rules
    assert list(rules.items()) == list(_reference_complete(relations, 4).items())


@settings(max_examples=80, deadline=None)
@given(_RELATIONS, st.integers(3, 4))
def test_complete_matches_reference(relations, bound):
    new = _completion(relations, bound, lambda r, d: complete(r, d).rules)
    assert new == _completion(relations, bound, _reference_complete)
