"""Degree-bounded overlap completion for two-sided ideals in free algebras.

Relations are rewritten into a system of monic rules (leading word under
deglex maps to smaller terms); overlaps between leading words are resolved
by increasing degree until every word of length <= D reduces uniquely.
This is the engine behind all flatness and PBW dimension counts.

Tails: beside each rule, ``complete`` keeps its tail, the pairs
``(word, -coeff)`` of the rule's other words in the rule's term order.  A
rule ``lw -> g`` rewrites ``c * prefix + lw + suffix`` into
``c * tc * (prefix + tw + suffix)`` for every ``(tw, tc)`` of the tail, so
rewriting and S-elements only multiply and add, and never negate.

Reduction strategy (``_reduce``): rewrite the largest reducible word first;
within it, the leftmost occurrence of a leading word, and among leading
words starting there the longest.  Each rewrite replaces a word by strictly
smaller ones, so the words of a dict keyed by ``(len(w), w)`` are taken
once each, by ``max``, in descending deglex order, and a word found
irreducible is final.

Invariant of ``complete``: every rule tail is irreducible with respect to
the current leading words.  A new leading word ``lw`` can only make a tail
reducible where one of its words contains ``lw``.  Such a word is at least
``lw`` in deglex, and a tail word is smaller than its rule's leading word,
so only the tails of rules above ``lw`` are searched.

``complete`` walks the rules twice per new rule: it re-queues those whose
leading words contain ``lw``, then in rule order re-reduces each tail that
needs it and pushes the rule's S-elements with the new rule.  Those read only
its final tail and the new rule, so no push depends on a later re-reduction.

Overlaps: a proper overlap of ``w1`` with ``w2`` (a suffix of ``w1`` equal
to a prefix of ``w2``) needs ``w2[0]`` in ``w1[1:]`` and ``w1[-1]`` in
``w2[:-1]``.  ``complete`` tests the letters of the new leading word ``lw``
against each rule, ``other[0] in lw[1:]`` with ``lw`` first and
``other[-1] in lw[:-1]`` with ``lw`` second, and hands only the pairs that
pass to ``_overlap_elements``, in the order of the rules.

Word counts: a word is irreducible when no leading word is a subword of it,
that is, when it never enters a dead state of the Aho-Corasick automaton
over the leading words (a state on whose failure chain a leading word
ends).  ``_word_count`` counts the paths among the live states, one length
after the other, and keeps every count on the ``NcIdeal``.
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

    __slots__ = ("generators", "degree_bound", "flag", "rules", "tails", "_counts")

    def __init__(self, generators, degree_bound, flag, rules, tails):
        self.generators = tuple(generators)
        self.degree_bound = degree_bound
        self.flag = flag
        self.rules = rules  # leading word -> monic FreeElement
        self.tails = tails  # leading word -> ((word, -coeff), ...) of the rule
        self._counts = []  # word length -> number of irreducible words


def _tail(g: FreeElement, lw) -> tuple:
    """The pairs ``(word, -coeff)`` of the monic rule g's words other than lw."""
    return tuple((w, -c) for w, c in g.terms.items() if w != lw)


def _reduce(f: FreeElement, tails: dict) -> FreeElement:
    """Normal form of f with respect to the rules (deterministic strategy).

    ``tails`` maps each leading word to its rule's tail.  The result's words
    are in descending deglex order.
    """
    work = {(len(w), w): c for w, c in f.terms.items()}
    out = {}
    while work:
        key = max(work)
        c = work.pop(key)
        w = key[1]
        hit = _find_redex(w, tails)
        if hit is None:
            out[w] = c
            continue
        pos, lw = hit
        prefix, suffix = w[:pos], w[pos + len(lw):]
        for tw, tc in tails[lw]:
            nw = prefix + tw + suffix
            nkey = (len(nw), nw)
            prev = work.get(nkey)
            if prev is None:
                work[nkey] = c * tc
            else:
                s = prev + c * tc
                if s:
                    work[nkey] = s
                else:
                    del work[nkey]
    return FreeElement._raw(f.generators, out)


def _find_redex(word, rules):
    """The leftmost leading word in word, the longest among those starting there."""
    n = len(word)
    for pos in range(n):
        for end in range(n, pos, -1):
            sub = word[pos:end]
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
    tails: dict = {}  # leading word -> _tail of its rule
    while queue:
        f = _reduce(heapq.heappop(queue)[2], tails)
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
            del tails[old]
        # lw goes last in the order
        rules[lw] = f
        tails[lw] = _tail(f, lw)
        n = len(lw)
        lw_later = set(lw[1:])  # letters that can start a word lw overlaps
        lw_earlier = set(lw[:-1])  # letters that can end a word overlapping lw
        for w, g in rules.items():
            # only a rule above lw in deglex can have a tail word containing lw
            above = w > lw if len(w) == n else len(w) > n
            if above and any(_contains(tw, lw) for tw, _ in tails[w]):
                head = FreeElement.word(generators, w)
                rules[w] = g = head + _reduce(g - head, tails)
                tails[w] = _tail(g, w)
            # resolve overlaps with the new rule, degree-bounded
            if w[0] in lw_later:
                for s_elem in _overlap_elements(lw, f, w, tails[w], degree_bound):
                    push(s_elem)
            if w != lw and w[-1] in lw_earlier:
                for s_elem in _overlap_elements(w, g, lw, tails[lw], degree_bound):
                    push(s_elem)
    return NcIdeal(generators, degree_bound, quadratic_flag(relations), rules, tails)


def _contains(word, sub):
    k = len(sub)
    for i in range(len(word) - k + 1):
        if word[i:i + k] == sub:
            return True
    return False


def _overlap_elements(w1, g1: FreeElement, w2, t2: tuple, bound: int):
    """S-elements ``g1 * w2[k:] - w1[:-k] * g2`` from proper overlaps.

    w1 is the leading word of the monic rule g1, and t2 is the tail of the
    monic rule g2 with leading word w2; a proper overlap is a suffix of w1
    of length k equal to a prefix of w2.  The overlap word cancels, so the
    terms are g1's other words, then the tail's new words, with zeros
    deleted, in that order.
    """
    out = []
    n1 = len(w1)
    for k in range(1, min(n1, len(w2))):
        if w1[n1 - k:] != w2[:k]:
            continue
        if n1 + len(w2) - k > bound:
            continue
        suffix, prefix = w2[k:], w1[:n1 - k]
        terms = {w + suffix: c for w, c in g1.terms.items() if w != w1}
        for w, c in t2:
            nw = prefix + w
            prev = terms.get(nw)
            if prev is None:
                terms[nw] = c
            else:
                s = prev + c
                if s:
                    terms[nw] = s
                else:
                    del terms[nw]
        if terms:
            out.append(FreeElement._raw(g1.generators, terms))
    return out


def normal_form(ideal: NcIdeal, f: FreeElement) -> FreeElement:
    if f.generators != ideal.generators:
        raise GeneratorError("element and ideal over different generator sets")
    if f.degree() > ideal.degree_bound:
        raise DegreeBoundExceeded(
            f"degree {f.degree()} exceeds completion bound {ideal.degree_bound}; "
            "recomplete with a larger bound"
        )
    return _reduce(f, ideal.tails)


def _live_successors(words, letters: int) -> list:
    """The transitions among the live states of the Aho-Corasick automaton
    over ``words``: for every state, the live states its letters lead to.

    State 0 is the empty word.  A state is dead when a word ends at it or at
    a state on its failure chain.
    """
    goto = [{}]  # trie: state -> {letter: child}
    dead = [False]
    for word in words:
        s = 0
        for a in word:
            if a not in goto[s]:
                goto[s][a] = len(goto)
                goto.append({})
                dead.append(False)
            s = goto[s][a]
        dead[s] = True
    # breadth-first, so a state's failure state is complete before it is
    fail = [0] * len(goto)
    delta = [None] * len(goto)
    queue = [0]
    for s in queue:
        row = []
        for a in range(letters):
            t = goto[s].get(a)
            back = delta[fail[s]][a] if s else 0
            if t is None:
                row.append(back)
            else:
                fail[t] = back
                dead[t] = dead[t] or dead[back]
                row.append(t)
                queue.append(t)
        delta[s] = row
    return [[t for t in row if not dead[t]] for row in delta]


def _word_count(ideal: NcIdeal, length: int) -> int:
    """Number of irreducible words of the given length, counted once per ideal.

    One pass counts every length up to the degree bound; the callers check
    that ``length`` is within it first.
    """
    counts = ideal._counts
    if length >= len(counts):
        successors = _live_successors(ideal.rules, len(ideal.generators))
        paths = {0: 1}  # live state -> number of words that end there
        counts[:] = [1]
        for _ in range(ideal.degree_bound):
            step: dict = {}
            for s, m in paths.items():
                for t in successors[s]:
                    step[t] = step.get(t, 0) + m
            paths = step
            counts.append(sum(paths.values()))
    return counts[length]


def _check_degree(ideal: NcIdeal, p: int) -> None:
    if p < 0:
        raise ValueError("degree must be non-negative")
    if p > ideal.degree_bound:
        raise DegreeBoundExceeded(f"degree {p} exceeds bound {ideal.degree_bound}")


def hilbert(ideal: NcIdeal, p: int) -> int:
    """Number of irreducible words of length exactly p (graded dimension)."""
    if ideal.flag != "graded":
        raise ValueError("hilbert applies to graded ideals")
    _check_degree(ideal, p)
    return _word_count(ideal, p)


def filtration_dims(ideal: NcIdeal, p: int):
    """Dimensions of the filtration levels 0..p (irreducible words, cumulative)."""
    _check_degree(ideal, p)
    return list(itertools.accumulate(_word_count(ideal, k) for k in range(p + 1)))
