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
tails are re-reduced.  ``complete`` keeps, for every rule, the set of
subwords of its tail words, and looks ``lw`` up there.

Overlaps: a proper overlap of ``w1`` with ``w2`` (a suffix of ``w1`` equal
to a prefix of ``w2``) needs ``w2[0]`` in ``w1[1:]`` and ``w1[-1]`` in
``w2[:-1]``.  ``complete`` tests the letters of the new leading word ``lw``
against each rule, ``other[0] in lw[1:]`` with ``lw`` first and
``other[-1] in lw[:-1]`` with ``lw`` second, and hands only the pairs that
pass to ``_overlap_elements``, in the order of the rules.
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
    """A two-sided ideal with a rewriting system confluent up to a degree bound.

    The rules are fixed once the ideal is built, so the number of irreducible
    words of each length is counted once and kept.
    """

    __slots__ = ("generators", "degree_bound", "flag", "rules", "_counts")

    def __init__(self, generators, degree_bound, flag, rules):
        self.generators = tuple(generators)
        self.degree_bound = degree_bound
        self.flag = flag
        self.rules = rules  # leading word -> monic FreeElement
        self._counts = {}  # word length -> number of irreducible words


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


def quadratic_flag(relations) -> str:
    """The flag of a relation set: graded if every relation is homogeneous
    of degree 2, filtered otherwise.
    """
    return "graded" if all(len(w) == 2 for r in relations for w in r.terms) else "filtered"


def complete(relations, degree_bound: int) -> NcIdeal:
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
    inner: dict = {}  # leading word -> subwords of the rule's tail words
    while queue:
        f = _reduce(heapq.heappop(queue)[2], rules, lengths)
        if not f:
            continue
        f = f.monic()
        lw = f.leading_word()
        if not lw:
            raise IdealCollapse("ideal collapses: completion produced a nonzero constant")
        # re-queue any existing rule whose leading word contains the new one;
        # lw is irreducible, so no key equals it
        for old in [w for w in rules if len(w) > len(lw) and _contains(w, lw)]:
            push(rules.pop(old))
            del inner[old]
        # lw goes last in the order
        rules[lw] = f
        inner[lw] = _subwords(f, lw)
        lengths = _lengths(rules)
        # re-reduce the tails that the new leading word makes reducible
        for w, g in list(rules.items()):
            if lw in inner[w]:
                head = FreeElement.word(generators, w)
                rules[w] = g = head + _reduce(g - head, rules, lengths)
                inner[w] = _subwords(g, w)
        # resolve overlaps involving the new rule, degree-bounded
        lw_later = set(lw[1:])  # letters that can start a word lw overlaps
        lw_earlier = set(lw[:-1])  # letters that can end a word overlapping lw
        for other_lw, other in list(rules.items()):
            if other_lw[0] in lw_later:
                for s_elem in _overlap_elements(lw, f, other_lw, other, degree_bound):
                    push(s_elem)
            if other_lw != lw and other_lw[-1] in lw_earlier:
                for s_elem in _overlap_elements(other_lw, other, lw, f, degree_bound):
                    push(s_elem)
    return NcIdeal(generators, degree_bound, quadratic_flag(relations), rules)


def _subwords(g: FreeElement, lw) -> set:
    """Every subword of the words of g other than its leading word lw."""
    return {
        w[i:j]
        for w in g.terms
        if w != lw
        for i in range(len(w))
        for j in range(i + 1, len(w) + 1)
    }


def _contains(word, sub):
    k = len(sub)
    for i in range(len(word) - k + 1):
        if word[i:i + k] == sub:
            return True
    return False


def _overlap_elements(w1, g1: FreeElement, w2, g2: FreeElement, bound: int):
    """S-elements ``g1 * w2[k:] - w1[:-k] * g2`` from proper overlaps.

    w1 and w2 are the leading words of g1 and g2; a proper overlap is a
    suffix of w1 of length k equal to a prefix of w2.  Terms come in the
    order of g1's terms, then g2's new words, with zeros deleted.
    """
    out = []
    n1 = len(w1)
    for k in range(1, min(n1, len(w2))):
        if w1[n1 - k:] != w2[:k]:
            continue
        if n1 + len(w2) - k > bound:
            continue
        suffix, prefix = w2[k:], w1[:n1 - k]
        terms = {w + suffix: c for w, c in g1.terms.items()}
        for w, c in g2.terms.items():
            nw = prefix + w
            prev = terms.get(nw)
            if prev is None:
                terms[nw] = -c
            else:
                s = prev - c
                if s:
                    terms[nw] = s
                else:
                    del terms[nw]
        if terms:
            out.append(FreeElement._raw(g1.generators, terms))
    return out


def normal_form(ideal: NcIdeal, f: FreeElement) -> FreeElement:
    if f.degree() > ideal.degree_bound:
        raise DegreeBoundExceeded(
            f"degree {f.degree()} exceeds completion bound {ideal.degree_bound}; "
            "recomplete with a larger bound"
        )
    return _reduce(f, ideal.rules, _lengths(ideal.rules))


def _word_count(ideal: NcIdeal, length: int) -> int:
    """Number of irreducible words of the given length, counted once per ideal."""
    count = ideal._counts.get(length)
    if count is None:
        rules = ideal.rules
        lengths = _lengths(rules)
        words = itertools.product(range(len(ideal.generators)), repeat=length)
        count = sum(_find_redex(w, rules, lengths) is None for w in words)
        ideal._counts[length] = count
    return count


def hilbert(ideal: NcIdeal, p: int) -> int:
    """Number of irreducible words of length exactly p (graded dimension)."""
    if ideal.flag != "graded":
        raise ValueError("hilbert applies to graded ideals")
    if p > ideal.degree_bound:
        raise DegreeBoundExceeded(f"degree {p} exceeds bound {ideal.degree_bound}")
    return _word_count(ideal, p)


def filtration_dims(ideal: NcIdeal, p: int):
    """Dimensions of the filtration levels 0..p (irreducible words, cumulative)."""
    if p > ideal.degree_bound:
        raise DegreeBoundExceeded(f"degree {p} exceeds bound {ideal.degree_bound}")
    return list(itertools.accumulate(_word_count(ideal, k) for k in range(p + 1)))
