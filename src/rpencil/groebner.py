"""Degree-bounded overlap completion for two-sided ideals in free algebras.

Relations are rewritten into a system of monic rules (leading word under
deglex maps to smaller terms); overlaps between leading words are resolved
by increasing degree until every word of length <= D reduces uniquely.
This is the engine behind all flatness and PBW dimension counts.

Reduction strategy (``_reduce``): rewrite the largest reducible word first;
within it, the leftmost occurrence of a leading word, and among leading
words starting there the longest.  Each rewrite replaces a word by strictly
smaller ones, so the words are swept once in descending deglex order and a
word found irreducible is final.

Invariant of ``complete``: every rule tail is irreducible with respect to
the current leading words.  Adding a rule with leading word ``lw`` can only
make a tail reducible where one of its words contains ``lw``, so only those
tails are re-reduced.
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

    def specialize(self, assignment: dict) -> "NcIdeal":
        return complete(
            [r.specialize(assignment) for r in self.relations],
            self.degree_bound,
            flag=self.flag,
        )


def _lengths(rules) -> list:
    """Distinct leading-word lengths, longest first (the redex search order)."""
    return sorted({len(w) for w in rules}, reverse=True)


def _reduce(f: FreeElement, rules: dict, lengths: list) -> FreeElement:
    """Normal form of f with respect to the rules (deterministic strategy).

    ``lengths`` is ``_lengths(rules)``.  Returns f itself when no word of f
    is reducible.
    """
    terms = f.terms
    if not any(_find_redex(w, rules, lengths) for w in terms):
        return f
    work = dict(terms)
    heap = [(-len(w), tuple(-i for i in w), w) for w in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)[2]
        c = work.pop(w, None)
        if c is None:  # cancelled, or a stale duplicate entry
            continue
        hit = _find_redex(w, rules, lengths)
        if hit is None:
            out[w] = c
            continue
        pos, lw = hit
        prefix, suffix = w[:pos], w[pos + len(lw):]
        for tw, tc in rules[lw].terms.items():
            if tw == lw:
                continue
            nw = prefix + tw + suffix
            prev = work.get(nw)
            if prev is None:
                work[nw] = -(c * tc)
                heapq.heappush(heap, (-len(nw), tuple(-i for i in nw), nw))
            else:
                s = prev - c * tc
                if s:
                    work[nw] = s
                else:
                    del work[nw]
    return FreeElement._raw(f.generators, out)


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
    lengths: list = []
    while queue:
        f = _reduce(heapq.heappop(queue)[2], rules, lengths)
        if not f:
            continue
        f = f.monic()
        lw = f.leading_word()
        if not lw:
            raise IdealCollapse("ideal collapses: completion produced a nonzero constant")
        # re-queue any existing rule whose leading word contains the new one
        for old in [w for w in rules if _contains(w, lw)]:
            push(rules.pop(old))
        # lw is irreducible, so it is not a key yet and goes last in the order
        rules[lw] = f
        lengths = _lengths(rules)
        # re-reduce the tails that the new leading word makes reducible
        for w, g in list(rules.items()):
            if w != lw and any(_contains(tw, lw) for tw in g.terms):
                head = FreeElement.word(generators, w)
                rules[w] = head + _reduce(g - head, rules, lengths)
        # resolve overlaps involving the new rule, degree-bounded
        for other_lw, other in list(rules.items()):
            for s_elem in _overlap_elements(lw, f, other_lw, other, degree_bound):
                push(s_elem)
            if other_lw != lw:
                for s_elem in _overlap_elements(other_lw, other, lw, f, degree_bound):
                    push(s_elem)
    return NcIdeal(generators, relations, degree_bound, flag, rules)


def _contains(word, sub):
    k = len(sub)
    for i in range(len(word) - k + 1):
        if word[i:i + k] == sub:
            return True
    return False


def _overlap_elements(w1, g1: FreeElement, w2, g2: FreeElement, bound: int):
    """S-elements from proper overlaps (suffix of w1 = prefix of w2).

    w1 and w2 are the leading words of g1 and g2.
    """
    generators = g1.generators
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
    return _reduce(f, ideal.rules, _lengths(ideal.rules))


def _irreducible_words(ideal: NcIdeal, length: int):
    n = len(ideal.generators)
    rules = ideal.rules
    lengths = _lengths(rules)
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
