import hashlib
import heapq
import inspect
import itertools
import random
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpencil import groebner, ratfunc
from rpencil.commpoly import GeneratorError
from rpencil.freealg import FreeElement, deglex_key
from rpencil.groebner import (
    DegreeBoundExceeded,
    IdealCollapse,
    NcIdeal,
    _contains,
    _find_redex,
    _overlap_elements,
    _reduce,
    _word_count,
    _work,
    complete,
    filtration_dims,
    hilbert,
    normal_form,
)
from rpencil.quadratic import a0q, jhq
from rpencil.scalars import DEFAULT_ASSIGNMENT, H, Q, Scalar, scalar

GENS = ("x", "y")
X = FreeElement.generator(GENS, "x")
Y = FreeElement.generator(GENS, "y")


def test_quantum_plane():
    # xy = q yx is already confluent; dims match the commutative plane
    ideal = complete([X * Y - Q * (Y * X)], 5)
    assert [hilbert(ideal, p) for p in range(6)] == [1, 2, 3, 4, 5, 6]
    # under deglex with x < y the leading word is yx, so yx reduces
    assert normal_form(ideal, Y * X) == (1 / Q) * (X * Y)
    assert not normal_form(ideal, X * Y - Q * (Y * X))


def test_weyl_algebra_filtration():
    # xy - yx = 1: filtered, PBW against the commutative plane
    weyl = complete([X * Y - Y * X - FreeElement.constant(GENS, 1)], 4)
    assert weyl.flag == "filtered"
    plane = complete([X * Y - Y * X], 4)
    cumulative = list(itertools.accumulate(hilbert(plane, k) for k in range(5)))
    assert filtration_dims(weyl, 4) == cumulative
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


def test_negative_degree_rejected():
    plane = complete([X * Y - Q * (Y * X)], 3)
    weyl = complete([X * Y - Y * X - FreeElement.constant(GENS, 1)], 3)
    with pytest.raises(ValueError, match="degree must be non-negative"):
        hilbert(plane, -1)
    for ideal in (plane, weyl):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            filtration_dims(ideal, -1)


def test_normal_form_rejects_foreign_element():
    # otherwise the element's indices would be read in the ideal's alphabet
    ideal = a0q(2).to_ideal(3)
    x, y, _ = (FreeElement.generator(GENS3, g) for g in GENS3)
    with pytest.raises(GeneratorError):
        normal_form(ideal, y * x)


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
    relations = [X * Y - Q * (Y * X)]
    specialized = complete([r.specialize({"q": 2}) for r in relations], 3)
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


class _Lookups(dict):
    """A dict that records every key looked up with ``in``."""

    def __init__(self, keys):
        super().__init__(dict.fromkeys(keys))
        self.asked = []

    def __contains__(self, key):
        self.asked.append(key)
        return super().__contains__(key)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple), max_size=8),
       st.lists(st.integers(0, 2), max_size=6).map(tuple), st.integers(0, 2))
def test_find_redex_matches_reference(leading, word, slack):
    # leading words of mixed lengths: every workload's are of length 2 alone;
    # the bound may exceed the longest leading word, and no slice longer
    # than the bound is tried
    rules = _Lookups(leading)
    lengths = sorted({len(w) for w in leading}, reverse=True)
    longest = max(lengths, default=0) + slack
    assert _find_redex(word, rules, longest) == _reference_find_redex(word, rules, lengths)
    assert all(len(sub) <= longest for sub in rules.asked)


@lru_cache(maxsize=None)
def _rule_systems():
    return (
        complete(a0q(2).relations, 3),
        complete(jhq(2).relations, 3),
        complete(_broken_a0q2(), 3),
    )


_COEFFS = st.sampled_from(
    [scalar(1), scalar(-1), scalar(2), scalar(3) / 7, Q, 1 / Q, Q + 1, H, H * Q - 2]
)
_WORDS = st.lists(st.integers(0, len(GENS4) - 1), max_size=3).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_WORDS, _COEFFS, max_size=6), st.integers(0, 2))
def test_reduce_matches_reference(terms, which):
    ideal = _rule_systems()[which]
    f = FreeElement(GENS4, terms)
    out = _reduce(_work(f), ideal.tails, ideal.longest)
    # the words in descending deglex order
    assert list(out) == sorted(out, key=deglex_key, reverse=True)
    ref = _reference_reduce(f, ideal.rules)
    assert FreeElement(GENS4, {w: Scalar(c) for w, c in out.items()}) == ref
    assert list(normal_form(ideal, f).terms.items()) == [(w, Scalar(c)) for w, c in out.items()]


# The S-element formula that _overlap_elements replaced: two products with
# coefficient-1 words and a subtraction.
def _reference_overlap_elements(w1, g1, w2, g2, bound):
    out = []
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k:] != w2[:k] or len(w1) + len(w2) - k > bound:
            continue
        suffix = FreeElement.word(g1.generators, w2[k:])
        prefix = FreeElement.word(g1.generators, w1[:-k])
        s_elem = g1 * suffix - prefix * g2
        if s_elem:
            out.append(s_elem)
    return out


def _reference_tail(g, lw):
    return tuple((w, (-c).value) for w, c in g.terms.items() if w != lw)


def _terms(works):
    """Work dicts of field elements as lists of (word, Scalar) pairs, in order."""
    out = []
    for work in works:
        assert all(key == (len(key[1]), key[1]) for key in work)
        out.append([(w, Scalar(c)) for (_, w), c in work.items()])
    return out


_SHORT_WORDS = [w for p in range(4) for w in itertools.product(range(2), repeat=p)]


@st.composite
def _monic(draw):
    """A monic element over GENS with a leading word of length 1-3."""
    lw = draw(st.sampled_from(_SHORT_WORDS[1:]))
    smaller = [w for w in _SHORT_WORDS if deglex_key(w) < deglex_key(lw)]
    tail = draw(st.lists(st.sampled_from(smaller), unique=True, max_size=4))
    items = [(w, draw(_COEFFS)) for w in tail]
    items.insert(draw(st.integers(0, len(items))), (lw, scalar(1)))
    return lw, FreeElement(GENS, dict(items))


@settings(max_examples=300, deadline=None)
@given(_monic(), _monic(), st.integers(2, 6))
def test_overlap_elements_match_reference(m1, m2, bound):
    (w1, g1), (w2, g2) = m1, m2
    new = _overlap_elements(w1, g1, w2, _reference_tail(g2, w2), bound)
    ref = _reference_overlap_elements(w1, g1, w2, g2, bound)
    # values and term order
    assert _terms(new) == [list(s.terms.items()) for s in ref]


def test_rewriting_never_negates(monkeypatch):
    # the rules' tails carry the signs, so rewriting and S-elements only
    # multiply and add: once the tails exist, the field's negate and minus
    # are refused, both in ratfunc and as groebner binds them
    ideal = complete([r.specialize(DEFAULT_ASSIGNMENT) for r in a0q(3).relations], 4)
    rules, tails = ideal.rules, ideal.tails
    gens = ideal.generators
    words = [(a,) + lw for lw in rules for a in range(len(gens))]
    reduced = [_reference_reduce(FreeElement.word(gens, w), rules) for w in words]
    pairs = [(w1, w2) for w1 in rules for w2 in rules]
    overlaps = [_reference_overlap_elements(w1, rules[w1], w2, rules[w2], 4) for w1, w2 in pairs]
    assert any(overlaps)

    def refuse(*args):
        raise AssertionError("field negation or subtraction")

    for name in ("negate", "minus"):
        monkeypatch.setattr(ratfunc, name, refuse)
        if hasattr(groebner, name):
            monkeypatch.setattr(groebner, name, refuse)
    for w, ref in zip(words, reduced):
        out = _reduce(_work(FreeElement.word(gens, w)), tails, ideal.longest)
        assert FreeElement(gens, {v: Scalar(c) for v, c in out.items()}) == ref
    for (w1, w2), ref in zip(pairs, overlaps):
        new = _overlap_elements(w1, rules[w1], w2, tails[w2], 4)
        assert _terms(new) == [list(s.terms.items()) for s in ref]


# The word scan that _word_count replaced: test every word of the length.
def _reference_word_count(rules, letters, length):
    lengths = sorted({len(w) for w in rules}, reverse=True)
    words = itertools.product(range(letters), repeat=length)
    return sum(_reference_find_redex(w, rules, lengths) is None for w in words)


@st.composite
def _leading_words(draw):
    """A set of words of length 1-4 over 2-4 letters, and the letter count."""
    letters = draw(st.integers(2, 4))
    word = st.lists(st.integers(0, letters - 1), min_size=1, max_size=4).map(tuple)
    return draw(st.sets(word, min_size=1, max_size=8)), letters


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_leading_words())
def test_word_count_matches_scan(drawn):
    words, letters = drawn
    gens = tuple("abcd"[:letters])
    rules = {w: FreeElement.word(gens, w) for w in words}
    # bound 6: one pass counts the seven lengths 0..6
    ideal = NcIdeal(gens, 6, "graded", rules, {w: () for w in words})
    counts = [_word_count(ideal, k) for k in range(7)]
    assert counts == [_reference_word_count(rules, letters, k) for k in range(7)]


# The completion loop that complete replaced: inter-reduce every rule tail
# against the enlarged system each time a rule is added, and try every pair
# of rules for overlaps.  A rule's terms are in descending deglex order.
def _leading_word(g):
    return max(g.terms, key=deglex_key)


def _descending(generators, terms, lc):
    """The element sum(c / lc * w) with its words in descending deglex order."""
    order = sorted(terms, key=deglex_key, reverse=True)
    return FreeElement(generators, {w: terms[w] / lc for w in order})


def _reference_complete(relations, degree_bound):
    generators = relations[0].generators
    rules: dict = {}
    queue: list = []
    counter = itertools.count()

    def push(g):
        heapq.heappush(queue, (deglex_key(_leading_word(g)), -next(counter), g))

    for r in relations:
        push(r)
    while queue:
        f = _reference_reduce(heapq.heappop(queue)[2], rules)
        if not f:
            continue
        lw = _leading_word(f)
        f = _descending(generators, f.terms, f.terms[lw])
        if not lw:
            raise IdealCollapse("ideal collapses")
        for old in [w for w in rules if _contains(w, lw)]:
            push(rules.pop(old))
        trial = dict(rules)
        trial[lw] = f
        for w in list(rules):
            tail = rules[w] - FreeElement.word(generators, w)
            red = _reference_reduce(tail, trial)
            rules[w] = _descending(generators, (FreeElement.word(generators, w) + red).terms, 1)
            trial[w] = rules[w]
        rules[lw] = f
        for other_lw, other in list(rules.items()):
            for g1, g2 in [(f, other)] + ([(other, f)] if other_lw != lw else []):
                for s_elem in _reference_overlap_elements(
                    _leading_word(g1), g1, _leading_word(g2), g2, degree_bound
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
    """The rules in rule order, each with its terms in term order."""
    try:
        rules = fn(relations, bound)
    except IdealCollapse:
        return "collapse"
    return [(lw, list(g.terms.items())) for lw, g in rules.items()]


def test_tail_reduction_is_exercised():
    # the rule for zxxx, found at degree 4, re-reduces the tail of the rule
    # for zxzx, which contains zxxx
    x, y, z = (FreeElement.generator(GENS3, g) for g in GENS3)
    relations = [z * z - y * x, y * y - x * z, x * y - z - x]
    new = _completion(relations, 4, lambda r, d: complete(r, d).rules)
    assert new == _completion(relations, 4, _reference_complete)


def test_subword_sets_follow_tail_reduction():
    # re-reduces one rule tail twice: the second search for a new leading
    # word must read the tail the first re-reduction left, not the old one
    gens = ("a", "b", "c", "d")
    a, b, c, d = (FreeElement.generator(gens, g) for g in gens)
    one = FreeElement.constant(gens, 1)
    relations = [2 * (c * c) + 2 * (b * a) - a * b, b * b + 2 * one, d * b + 2 * a,
                 2 * (d * b) + a * c - c]
    new = _completion(relations, 4, lambda r, d: complete(r, d).rules)
    assert new == _completion(relations, 4, _reference_complete)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_RELATIONS, st.integers(3, 4))
def test_complete_matches_reference(relations, bound):
    new = _completion(relations, bound, lambda r, d: complete(r, d).rules)
    assert new == _completion(relations, bound, _reference_complete)


_WORDS_TO_2 = [w for p in range(3) for w in itertools.product(range(3), repeat=p)]
_CORPUS_COEFFS = [scalar(1), scalar(-1), scalar(2), scalar(3) / 7, scalar(-5) / 2, Q]


def _mixed_relations(rng):
    """2-4 relations over GENS3, each with a leading word of length 1 or 2
    and up to 3 smaller words; their completions add rules of length 3."""
    out = []
    for _ in range(rng.randint(2, 4)):
        length = rng.choice((1, 2, 2))
        lw = rng.choice([w for w in _WORDS_TO_2 if len(w) == length])
        smaller = [w for w in _WORDS_TO_2 if deglex_key(w) < deglex_key(lw)]
        words = [lw] + rng.sample(smaller, min(len(smaller), rng.randint(0, 3)))
        out.append(FreeElement(GENS3, {w: rng.choice(_CORPUS_COEFFS) for w in words}))
    return out


# a statement that only its path of complete runs
_PATHS = {
    "re-queue": "push(_work(rules.pop(old)))",
    "re-reduction scan": "for w, t in tails.items():",
    "no rule above": "top = (n, lw)",
    "tail re-reduction": "rules[w] = _rule(generators, w, t)",
}


def _path_lines():
    lines, start = inspect.getsourcelines(complete)
    return {path: start + next(i for i, line in enumerate(lines) if text in line)
            for path, text in _PATHS.items()}


def _lines_run(fn, *args):
    """fn(*args), and the numbers of the lines that complete ran meanwhile."""
    code, seen = complete.__code__, set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return fn(*args), seen
    finally:
        sys.settrace(before)


def _pushes(relations, bound, fn):
    """The completion, and the terms of every element it queued, in push order."""
    pushed, push = [], heapq.heappush

    def record(queue, item):
        g = item[2]
        pushed.append(dict(g.terms) if isinstance(g, FreeElement)
                      else {w: Scalar(c) for (_, w), c in g.items()})
        push(queue, item)

    heapq.heappush = record
    try:
        return _completion(relations, bound, fn), pushed
    finally:
        heapq.heappush = push


def test_complete_paths_match_reference():
    # 120 relation sets whose leading words mix lengths 1-3; every path of
    # complete runs on some of them, and it queues the reference's elements
    # in the reference's order.  Coefficients are constants and q, and the
    # seed is fixed, so the sets are the same on every run
    rng = random.Random(1)
    lines = _path_lines()
    runs = dict.fromkeys(lines, 0)
    for _ in range(120):
        relations, bound = _mixed_relations(rng), rng.choice((3, 4))
        new, seen = _lines_run(
            _pushes, relations, bound, lambda r, d: complete(r, d).rules)
        assert new == _pushes(relations, bound, _reference_complete)
        for path, line in lines.items():
            runs[path] += line in seen
    assert all(runs.values()), runs



def test_unit_tail_coefficients_are_shared(monkeypatch):
    # a tail coefficient equal to 1 is the shared one, and _reduce rewrites
    # by it with no product
    relations = a0q(3).specialize(DEFAULT_ASSIGNMENT).relations
    ideal = complete(relations, 3)
    units = [tc for t in ideal.tails.values() for _, tc in t if tc == 1]
    assert units and all(tc is groebner._UNIT for tc in units)
    for lw, g in ideal.rules.items():
        assert ideal.tails[lw] == tuple((w, -c.value) for w, c in g.terms.items() if w != lw)

    def products():
        calls = []

        def counted(f, g):
            calls.append(1)
            return ratfunc.times(f, g)

        with monkeypatch.context() as m:
            m.setattr(groebner, "times", counted)
            rules = complete(relations, 3).rules
        return len(calls), list(rules.items())

    shared, rules = products()
    # with no coefficient recognized as 1, every rewrite multiplies
    monkeypatch.setattr(groebner, "equal", lambda f, g: False)
    unshared, unshared_rules = products()
    assert shared < unshared
    assert rules == unshared_rules == list(ideal.rules.items())
    assert _completion(relations, 3, lambda r, d: complete(r, d).rules) == (
        _completion(relations, 3, _reference_complete)
    )
