"""Degree-bounded overlap completion for two-sided ideals in free algebras.

Relations are rewritten into a system of monic rules (leading word under
deglex maps to smaller terms); overlaps between leading words are resolved
by increasing degree until every word of length <= D reduces uniquely.
This is the engine behind all flatness and PBW dimension counts.
"""

from __future__ import annotations

import heapq
import itertools

from .commpoly import GeneratorError
from .freealg import FreeElement, deglex_key


class IdealCollapse(Exception):
    """Completion forced a nonzero constant into the ideal (1 = 0)."""


class DegreeBoundExceeded(Exception):
    pass


class NcIdeal:
    """A two-sided ideal with a rewriting system confluent up to a degree bound."""

    __slots__ = ("generators", "relations", "degree_bound", "flag", "rules")

    def __init__(self, generators, relations, degree_bound, flag, rules):
        self.generators = tuple(generators)
        self.relations = list(relations)
        self.degree_bound = degree_bound
        self.flag = flag
        self.rules = rules  # leading word -> monic FreeElement

    @property
    def completed_basis(self):
        return sorted(self.rules.values(), key=lambda g: deglex_key(g.leading_word()))

    def specialize(self, assignment: dict) -> "NcIdeal":
        return complete(
            [r.specialize(assignment) for r in self.relations],
            self.degree_bound,
            flag=self.flag,
        )


def _reduce(f: FreeElement, rules: dict, max_len=None) -> FreeElement:
    """Normal form of f with respect to the rules (deterministic strategy)."""
    lengths = sorted({len(w) for w in rules}, reverse=True) if rules else []
    while True:
        target = None
        for w in sorted(f.terms, key=deglex_key, reverse=True):
            hit = _find_redex(w, rules, lengths)
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


def _find_redex(word, rules, lengths):
    for pos in range(len(word)):
        for length in lengths:
            if pos + length > len(word):
                continue
            sub = word[pos:pos + length]
            if sub in rules:
                return pos, sub
    return None


def complete(relations, degree_bound: int, flag: str = None) -> NcIdeal:
    """Inter-reduce the relations and resolve all overlaps of length <= D."""
    if degree_bound < 2:
        raise ValueError("degree bound must be at least 2")
    relations = [r for r in relations if r]
    if not relations:
        raise ValueError("no nonzero relations")
    generators = relations[0].generators
    for r in relations:
        if r.generators != generators:
            raise GeneratorError("relations over different generator sets")
        if r.degree() > 2:
            raise ValueError("relations must have degree <= 2")
    if flag is None:
        flag = (
            "graded"
            if all(len(w) == 2 for r in relations for w in r.terms)
            else "filtered"
        )

    # Pop order: smallest leading word under deglex first, and among equal
    # leading words the most recently queued.  Degree-truncated filtered
    # completions depend on it, so any other tie rule can change dimensions.
    rules: dict = {}
    queue: list = []
    counter = itertools.count()

    def push(g):
        heapq.heappush(queue, (deglex_key(g.leading_word()), -next(counter), g))

    for r in relations:
        push(r)
    while queue:
        f = _reduce(heapq.heappop(queue)[2], rules)
        if not f:
            continue
        f = f.monic()
        lw = f.leading_word()
        if not lw:
            raise IdealCollapse("ideal collapses: completion produced a nonzero constant")
        # re-queue any existing rule whose leading word contains the new one
        for old in [w for w in rules if _contains(w, lw)]:
            push(rules.pop(old))
        # reduce tails of the remaining rules against the enlarged system
        trial = dict(rules)
        trial[lw] = f
        for w in list(rules):
            tail = rules[w] - FreeElement.word(generators, w)
            red = _reduce(tail, trial)
            rules[w] = FreeElement.word(generators, w) + red
            trial[w] = rules[w]
        rules[lw] = f
        # resolve overlaps involving the new rule, degree-bounded
        for other_lw, other in list(rules.items()):
            for s_elem in _overlap_elements(f, other, degree_bound):
                push(s_elem)
            if other_lw != lw:
                for s_elem in _overlap_elements(other, f, degree_bound):
                    push(s_elem)
    return NcIdeal(generators, relations, degree_bound, flag, rules)


def _contains(word, sub):
    k = len(sub)
    return any(word[i:i + k] == sub for i in range(len(word) - k + 1))


def _overlap_elements(g1: FreeElement, g2: FreeElement, bound: int):
    """S-elements from proper overlaps (suffix of lw1 = prefix of lw2)."""
    generators = g1.generators
    w1 = g1.leading_word()
    w2 = g2.leading_word()
    out = []
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k:] != w2[:k]:
            continue
        total = len(w1) + len(w2) - k
        if total > bound:
            continue
        suffix = FreeElement.word(generators, w2[k:])
        prefix = FreeElement.word(generators, w1[:len(w1) - k])
        s_elem = g1 * suffix - prefix * g2
        if s_elem:
            out.append(s_elem)
    return out


def normal_form(ideal: NcIdeal, f: FreeElement) -> FreeElement:
    if f.degree() > ideal.degree_bound:
        raise DegreeBoundExceeded(
            f"degree {f.degree()} exceeds completion bound {ideal.degree_bound}; "
            "recomplete with a larger bound"
        )
    return _reduce(f, ideal.rules)


def _irreducible_words(ideal: NcIdeal, length: int):
    n = len(ideal.generators)
    lengths = sorted({len(w) for w in ideal.rules}, reverse=True)
    rules = ideal.rules
    for word in itertools.product(range(n), repeat=length):
        if _find_redex(word, rules, lengths) is None:
            yield word


def hilbert(ideal: NcIdeal, p: int) -> int:
    """Number of irreducible words of length exactly p (graded dimension)."""
    if ideal.flag != "graded":
        raise ValueError("hilbert applies to graded ideals")
    if p > ideal.degree_bound:
        raise DegreeBoundExceeded(f"degree {p} exceeds bound {ideal.degree_bound}")
    return sum(1 for _ in _irreducible_words(ideal, p))


def filtration_dims(ideal: NcIdeal, p: int):
    """Dimensions of the filtration levels 0..p (irreducible words, cumulative)."""
    if p > ideal.degree_bound:
        raise DegreeBoundExceeded(f"degree {p} exceeds bound {ideal.degree_bound}")
    dims = []
    total = 0
    for k in range(p + 1):
        total += sum(1 for _ in _irreducible_words(ideal, k))
        dims.append(total)
    return dims


def pbw_check(filtered: NcIdeal, graded_target: NcIdeal, p: int):
    """(ok, first failing degree or None): filtered dims vs cumulative graded dims."""
    if filtered.generators != graded_target.generators:
        raise GeneratorError("ideals over different generator sets")
    if p > filtered.degree_bound or p > graded_target.degree_bound:
        raise DegreeBoundExceeded("degree exceeds a completion bound")
    dims = filtration_dims(filtered, p)
    total = 0
    for k in range(p + 1):
        total += hilbert(graded_target, k)
        if dims[k] != total:
            return False, k
    return True, None
