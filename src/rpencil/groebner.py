"""Degree-bounded overlap completion for two-sided ideals in free algebras.

Relations are rewritten into a system of monic rules (leading word under
deglex maps to smaller terms); overlaps between leading words are resolved
by increasing degree until every word of length <= D reduces uniquely.
This is the engine behind all flatness and PBW dimension counts.

Field elements: from a popped queue entry to a new rule, ``complete``
computes on bare field elements (a Fraction or a RatFunc) with ``ratfunc``'s
``times``, ``plus``, ``divide`` and ``negate``, never on Scalars.  An element
in work is a dict ``{(len(w), w): c}``, so its largest key is its leading
word under deglex, and that key is its heap key in the queue.  A FreeElement
of Scalars is built only for a rule that is accepted or whose tail is
re-reduced; ``normal_form`` converts at its boundary.

Tails: beside each rule, ``complete`` keeps its tail, the pairs
``(word, -coeff)`` of the rule's other words in the rule's term order, as
field elements negated once.  A rule ``lw -> g`` rewrites
``c * prefix + lw + suffix`` into ``c * tc * (prefix + tw + suffix)`` for
every ``(tw, tc)`` of the tail, and an S-element takes the first rule's
coefficients from the rule and the second rule's from its tail, so rewriting
and S-elements only multiply and add, and never negate.

Reduction strategy (``_reduce``): rewrite the largest reducible word first;
within it, the leftmost occurrence of a leading word, and among leading
words starting there the longest.  Each rewrite replaces a word by strictly
smaller ones, so the words of a work dict are taken once each, by ``max``,
in descending deglex order, and a word found irreducible is final.  The
normal form comes out in that order, so its first word is its leading word.

Invariant of ``complete``: every rule tail is irreducible with respect to
the current leading words.  A new leading word ``lw`` can only make a tail
reducible where one of its words contains ``lw``.  Such a word is at least
``lw`` in deglex, and a tail word is smaller than its rule's leading word,
so only the tails of rules above ``lw`` are searched.

Bounds: ``longest`` is the length of the longest leading word ever inserted.
No leading word is longer, so ``_find_redex`` tries no slice longer than it,
and a rule whose leading word contains ``lw`` can exist only when
``longest > len(lw)``; only then does ``complete`` scan the rules to re-queue
those.  ``top`` is the largest leading word ever inserted, under deglex.

Per new rule, ``complete`` first re-reduces each tail that needs it, and only
when ``top`` is above ``lw``: otherwise no rule is above ``lw``.  It then
pushes the S-elements of the new rule with each rule it can overlap.  The
letter index ``starts``/``ends`` (letter -> leading words that start or end
with it) offers those rules, and they are visited sorted by insertion
number, which is their rule order.  An S-element reads only final tails,
so every push comes after the last re-reduction.

Overlaps: a proper overlap of ``w1`` with ``w2`` (a suffix of ``w1`` equal
to a prefix of ``w2``) needs ``w2[0]`` in ``w1[1:]`` and ``w1[-1]`` in
``w2[:-1]``.  ``complete`` tests the letters of the new leading word ``lw``
against each rule the index offers, ``other[0] in lw[1:]`` with ``lw``
first and ``other[-1] in lw[:-1]`` with ``lw`` second, and hands only the
pairs that pass to ``_overlap_elements``, in the order of the rules.

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
from .freealg import FreeElement
from .ratfunc import divide, negate, plus, times
from .scalars import ONE, Scalar


class IdealCollapse(Exception):
    """Completion forced a nonzero constant into the ideal (1 = 0)."""


class DegreeBoundExceeded(Exception):
    pass


class NcIdeal:
    """A two-sided ideal with a rewriting system confluent up to a degree bound.

    The rules are fixed once the ideal is built, so the number of irreducible
    words of each length is counted once and kept.
    """

    __slots__ = ("generators", "degree_bound", "flag", "rules", "tails", "longest", "_counts")

    def __init__(self, generators, degree_bound, flag, rules, tails):
        self.generators = tuple(generators)
        self.degree_bound = degree_bound
        self.flag = flag
        self.rules = rules  # leading word -> monic FreeElement
        self.tails = tails  # leading word -> ((word, -coeff), ...) of the rule, field elements
        self.longest = max(map(len, rules), default=0)  # length of the longest leading word
        self._counts = []  # word length -> number of irreducible words


def _work(f: FreeElement) -> dict:
    """f as a work dict ``{(len(w), w): c}`` of field elements."""
    return {(len(w), w): c.value for w, c in f.terms.items()}


def _rule(generators, lw, tail) -> FreeElement:
    """The monic rule with leading word lw and the given tail, in the tail's order."""
    terms = {lw: ONE}
    for tw, tc in tail:
        terms[tw] = Scalar(negate(tc))
    return FreeElement._raw(generators, terms)


def _reduce(work: dict, tails: dict, longest: int) -> dict:
    """Normal form of a work dict, which it consumes (deterministic strategy).

    ``tails`` maps each leading word to its rule's tail, and no leading word
    is longer than ``longest``.  The result maps words to field elements in
    descending deglex order.
    """
    out = {}
    while work:
        key = max(work)
        c = work.pop(key)
        w = key[1]
        hit = _find_redex(w, tails, longest)
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
                work[nkey] = times(c, tc)
            else:
                s = plus(prev, times(c, tc))
                if s:
                    work[nkey] = s
                else:
                    del work[nkey]
    return out


def _find_redex(word, rules, longest: int):
    """The leftmost leading word in word, the longest among those starting
    there; no leading word is longer than ``longest``."""
    n = len(word)
    for pos in range(n):
        for end in range(min(n, pos + longest), pos, -1):
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
    rules: dict = {}  # leading word -> monic FreeElement, in rule order
    tails: dict = {}  # leading word -> the tail of its rule
    order: dict = {}  # leading word -> insertion number, increasing in rule order
    starts: dict = {}  # letter -> leading words that start with it
    ends: dict = {}  # letter -> leading words that end with it
    longest, top = 0, (0, ())
    queue: list = []
    counter = itertools.count()
    inserted = itertools.count()

    def push(work):
        heapq.heappush(queue, (max(work), -next(counter), work))

    for r in relations:
        push(_work(r))
    while queue:
        out = _reduce(heapq.heappop(queue)[2], tails, longest)
        if not out:
            continue
        lw = next(iter(out))
        if not lw:
            raise IdealCollapse("ideal collapses: completion produced a nonzero constant")
        n = len(lw)
        # re-queue any existing rule whose leading word contains the new one;
        # lw is irreducible, so no key equals it
        if longest > n:
            for old in [w for w in rules if len(w) > n and _contains(w, lw)]:
                push(_work(rules.pop(old)))
                del tails[old]
                starts[old[0]].remove(old)
                ends[old[-1]].remove(old)
        # monic, and lw goes last in the order
        nlc = negate(out.pop(lw))
        tails[lw] = tail = tuple((w, divide(c, nlc)) for w, c in out.items())
        rules[lw] = f = _rule(generators, lw, tail)
        order[lw] = next(inserted)
        starts.setdefault(lw[0], set()).add(lw)
        ends.setdefault(lw[-1], set()).add(lw)
        longest = max(longest, n)
        if top > (n, lw):
            # only a rule above lw in deglex can have a tail word containing lw
            for w, t in tails.items():
                if (len(w), w) > (n, lw) and any(_contains(tw, lw) for tw, _ in t):
                    work = {(len(tw), tw): tc for tw, tc in t}
                    tails[w] = t = tuple(_reduce(work, tails, longest).items())
                    rules[w] = _rule(generators, w, t)
        else:
            top = (n, lw)
        # resolve overlaps with the new rule, degree-bounded, in rule order
        lw_later = set(lw[1:])  # letters that can start a word lw overlaps
        lw_earlier = set(lw[:-1])  # letters that can end a word overlapping lw
        found = set()
        for a in lw_later:
            found.update(starts.get(a, ()))
        for a in lw_earlier:
            found.update(ends.get(a, ()))
        for w in sorted(found, key=order.__getitem__):
            if w[0] in lw_later:
                for work in _overlap_elements(lw, f, w, tails[w], degree_bound):
                    push(work)
            if w != lw and w[-1] in lw_earlier:
                for work in _overlap_elements(w, rules[w], lw, tail, degree_bound):
                    push(work)
    return NcIdeal(generators, degree_bound, quadratic_flag(relations), rules, tails)


def _contains(word, sub):
    k = len(sub)
    for i in range(len(word) - k + 1):
        if word[i:i + k] == sub:
            return True
    return False


def _overlap_elements(w1, g1: FreeElement, w2, t2: tuple, bound: int):
    """Work dicts of the S-elements ``g1 * w2[k:] - w1[:-k] * g2`` from
    proper overlaps.

    w1 is the leading word of the monic rule g1, and t2 is the tail of the
    monic rule g2 with leading word w2; a proper overlap is a suffix of w1
    of length k equal to a prefix of w2.  The overlap word cancels, so the
    terms are g1's other words with g1's coefficients, then the tail's new
    words with the tail's, with zeros deleted, in that order.
    """
    out = []
    n1 = len(w1)
    for k in range(1, min(n1, len(w2))):
        if w1[n1 - k:] != w2[:k]:
            continue
        if n1 + len(w2) - k > bound:
            continue
        suffix, prefix = w2[k:], w1[:n1 - k]
        work = {}
        for w, c in g1.terms.items():
            if w != w1:
                nw = w + suffix
                work[(len(nw), nw)] = c.value
        for w, c in t2:
            nw = prefix + w
            nkey = (len(nw), nw)
            prev = work.get(nkey)
            if prev is None:
                work[nkey] = c
            else:
                s = plus(prev, c)
                if s:
                    work[nkey] = s
                else:
                    del work[nkey]
        if work:
            out.append(work)
    return out


def normal_form(ideal: NcIdeal, f: FreeElement) -> FreeElement:
    if f.generators != ideal.generators:
        raise GeneratorError("element and ideal over different generator sets")
    if f.degree() > ideal.degree_bound:
        raise DegreeBoundExceeded(
            f"degree {f.degree()} exceeds completion bound {ideal.degree_bound}; "
            "recomplete with a larger bound"
        )
    out = _reduce(_work(f), ideal.tails, ideal.longest)
    return FreeElement._raw(f.generators, {w: Scalar(c) for w, c in out.items()})


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
