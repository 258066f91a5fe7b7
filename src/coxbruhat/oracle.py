"""Brute-force ground truth, kept independent of the fast paths.

These deliberately avoid the algorithms they check: the interval oracle closes
downward by single-letter deletions over *all* reduced words instead of enumerating
subwords of one word; the coset-maximum oracle groups the interval by coset
representative and scans for maxima, ordered by membership in those intervals, instead
of recursing; word equality is decided by bounded braid-move/deletion rewriting instead
of the geometric representation.  They still build elements with ``normalize`` and
group cosets with ``_split``.  :func:`coset_max_candidates` instead reruns the fast
recursion, ``leq`` included, under every choice it could make, with coset stabilisers
taken from their definition (by braid rewriting at the length cap) rather than from
the recursion's root test.  :func:`verify` runs the fast paths against these oracles
and counts the disagreements.

The memo tables live in each system's instance dictionary: their keys and
values hold elements, which hold their system, so a table kept elsewhere
would keep every system alive.
"""

from __future__ import annotations

import itertools
import random
from operator import attrgetter
from typing import Iterable

from .bruhat import _check_interval_cap, leq, lower_interval
from .core import CoxeterSystem, Element, GenSet, Word, _check_letters, _fold_letters, demazure
from .coset_max import _fold, _validate, max_in_coset
from .errors import EmptyIntersection, NotUnique, SearchBudgetExceeded
from .parabolic import _require_min_rep, _split, check_min_rep, min_reps_in_order


def all_reduced_words(w: Element) -> tuple[Word, ...]:
    """Every reduced word of w, lexicographically sorted."""
    sys = w.system
    cache = vars(sys).setdefault("_redwords_cache", {})
    cached = cache.get(w)
    if cached is not None:
        return cached
    if w.length == 0:
        out: tuple[Word, ...] = ((),)
    else:
        acc = []
        for s in sorted(w.left_descents):
            rest = all_reduced_words(sys._step(w, s, True))
            acc.extend((s,) + r for r in rest)
        out = tuple(acc)
    cache[w] = out
    return out


def brute_interval(w: Element) -> frozenset[Element]:
    """[e, w] by fixpoint closure under single-letter deletions.

    Starting from w, every reduced word of every discovered element has each
    single letter deleted and the result normalised, until nothing new
    appears.  No subword enumeration is involved.
    """
    _check_interval_cap(w)
    sys = w.system
    cache = vars(sys).setdefault("_brute_cache", {})
    cached = cache.get(w)
    if cached is not None:
        return cached
    seen = {w}
    frontier = [w]
    while frontier:
        y = frontier.pop()
        for word in all_reduced_words(y):
            for i in range(len(word)):
                z = sys.normalize(word[:i] + word[i + 1:])
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
    out = frozenset(seen)
    cache[w] = out
    return out


def brute_coset_max(w: Element, x: Element, J: Iterable[int]) -> Element:
    """Unique maximum of [e, w] meet x W_J, scanning in descending ShortLex order.

    Raises NotUnique if several maximal elements show up (which would
    falsify the theorem the fast path relies on) and EmptyIntersection if x
    is not below w.
    """
    w.system._check_mine(x)
    J = check_min_rep(x, J)
    cache = vars(w.system).setdefault("_brute_cosets_cache", {})
    groups = cache.get((w, J))
    if groups is None:  # the interval by coset representative, once per (w, J)
        groups = cache[w, J] = {}
        for y in sorted(brute_interval(w), key=attrgetter("length", "word"), reverse=True):
            groups.setdefault(_split(y, J)[0], []).append(y)
    members = groups.get(x)
    if not members:
        raise EmptyIntersection(f"[e,{w}] meet {x}W_J is empty")
    maxima = [y for y in members if not any(y is not z and y in brute_interval(z) for z in members)]
    if len(maxima) != 1:
        raise NotUnique(f"{len(maxima)} maximal elements in [e,{w}] meet {x}W_J")
    if not brute_interval(maxima[0]).issuperset(members):
        raise NotUnique("unique maximal element does not dominate the intersection")
    return maxima[0]


def coset_max_candidates(w: Element, x: Element, J: Iterable[int]) -> frozenset[Element]:
    """Maxima produced by every tie-break choice of s at every level.

    The recursion is deterministic (smallest s); this explores all s in
    D_L(v) instead and collects the results.  Verification sweeps assert
    the set is exactly {max_in_coset(w, x, J).maximum}.
    """
    return _candidates(w, x, _validate(w, x, J))


def _candidates(w: Element, x: Element, J: GenSet) -> frozenset[Element]:
    """coset_max_candidates for checked arguments, memoised per (w, x, J).  Each
    recursive call's x is checked to lie in W^J and below its w, as the public
    entry checks its own."""
    sys = w.system
    cache = vars(sys).setdefault("_candidates_cache", {})
    key = (w, x, J)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if x.length == 0:
        out = frozenset((_fold(w, J),))
    else:
        v, u = _split(w, sys._all_gens - x.left_descents, True)
        prefix_max = _fold(u, frozenset(_coset_stabilizers(x, J)))
        acc = set()
        for s in sorted(v.left_descents):
            sx = sys._step(x, s, True)
            _require_min_rep(sx, J)
            if not leq(sx, v):
                raise EmptyIntersection(f"{sx} is not below {v}, so [e,w] meet xW_J is empty")
            for inner in _candidates(v, sx, J):
                acc.add(_fold_letters(prefix_max, sys._step(inner, s, True).word))
        out = frozenset(acc)
    cache[key] = out
    return out


def _coset_stabilizers(x: Element, J: GenSet) -> list[int]:
    """Generators t with t x W_J = x W_J, for x in W^J, from the definition.

    Below the length cap t x is built and its coset representative compared
    with x.  At the cap t x may be too long to build, so Deodhar's lemma
    decides instead: t stabilises exactly when t x = x t2 for some t2 in J,
    which braid rewriting checks on words alone.
    """
    sys = x.system
    if x.length < sys.length_cap:
        return [t for t in range(sys.rank) if _split(sys._step(x, t, True), J)[0] is x]
    return [t for t in range(sys.rank)
            if any(braid_equal(sys, (t,) + x.word, x.word + (t2,)) for t2 in J)]


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise SearchBudgetExceeded("braid-move search budget exhausted")


def _braid_class(sys: CoxeterSystem, word: Word, budget: _Budget) -> set[Word]:
    """All words reachable from word by braid moves alone."""
    seen = {word}
    queue = [word]
    while queue:
        cur = queue.pop()
        n = len(cur)
        for i in range(n - 1):
            a, b = cur[i], cur[i + 1]
            if a == b:
                continue
            m = sys.m(a, b)
            if m == 0 or i + m > n:
                continue
            run = cur[i:i + m]
            if all(run[k] == (a if k % 2 == 0 else b) for k in range(m)):
                swapped = tuple(b if k % 2 == 0 else a for k in range(m))
                new = cur[:i] + swapped + cur[i + m:]
                if new not in seen:
                    budget.spend()
                    seen.add(new)
                    queue.append(new)
    return seen


def _tits_reduce(sys: CoxeterSystem, word: Word, budget: _Budget) -> Word:
    """Canonical reduced word by exhaustive braid moves and pair deletions.

    A word is reduced exactly when no braid-equivalent word carries an equal
    adjacent pair; otherwise delete such a pair and recurse.  Among reduced
    words the lexicographically least class member is returned.
    """
    cls = sorted(_braid_class(sys, word, budget))
    for cand in cls:
        for i in range(len(cand) - 1):
            if cand[i] == cand[i + 1]:
                return _tits_reduce(sys, cand[:i] + cand[i + 2:], budget)
    return cls[0] if cls else ()


def braid_equal(
    sys: CoxeterSystem,
    word1: Iterable[int],
    word2: Iterable[int],
    *,
    budget: int = 200_000,
) -> bool:
    """Do two words represent the same element?  Pure rewriting, no matrices.

    Bounded search: intended for words of length at most ~10; raises
    SearchBudgetExceeded beyond the budget.
    """
    w1 = tuple(word1)
    w2 = tuple(word2)
    _check_letters(w1 + w2, sys.rank)
    b = _Budget(budget)
    return _tits_reduce(sys, w1, b) == _tits_reduce(sys, w2, b)


def verify_interval_product(w: Element, u: Element) -> bool:
    """Check [e, w*u] (Demazure) = {a b : a <= w, b <= u} elementwise."""
    sys = w.system
    sys._check_mine(u)
    star = demazure(w, u)
    below_u = lower_interval(u).members
    products = {a * b for a in lower_interval(w).members for b in below_u}
    return products == lower_interval(star).members


def verify(
    sys: CoxeterSystem, *, max_len: int, samples: int, seed: int
) -> list[tuple[str, int, str]]:
    """Cross-check the fast paths against the oracles above.

    Returns one ``(name, mismatches, coverage)`` record per check, in the
    order ``words`` (canonical words against braid rewriting),
    ``intervals``, ``coset-maxima`` and ``interval-product``; ``coverage``
    says what was checked, e.g. ``"24 elements"``.  Words up to ``max_len``
    (capped at the length cap) are checked exhaustively while there are at
    most 20000 of them and sampled otherwise; every sample is drawn from
    ``random.Random(seed)``, so equal arguments give equal records.  No check
    builds an element longer than the length cap: ``interval-product`` keeps
    only pairs whose lengths sum to at most both caps.
    """
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in (max_len, samples)):
        raise ValueError(f"max_len and samples must be nonnegative ints, got {max_len!r}, {samples!r}")
    rng = random.Random(seed)
    max_len = min(max_len, sys.length_cap)
    records = []

    words: list[Word] = []
    total = sum(sys.rank ** k for k in range(max_len + 1))
    if total <= 20000:
        for k in range(max_len + 1):
            words.extend(itertools.product(range(sys.rank), repeat=k))
    else:
        words = [tuple(rng.randrange(sys.rank) for _ in range(rng.randint(0, max_len)))
                 for _ in range(samples)]
    bad = 0
    for word in words:
        if not braid_equal(sys, word, sys.normalize(word).word):
            bad += 1
    pairs = min(samples, len(words) ** 2)
    for _ in range(pairs):
        w1, w2 = rng.choice(words), rng.choice(words)
        if (sys.normalize(w1) is sys.normalize(w2)) != braid_equal(sys, w1, w2):
            bad += 1
    records.append(("words", bad, f"{len(words)} words, {pairs} pairs"))

    elems = sys.elements(min(max_len, sys.interval_cap))
    if len(elems) > 400:
        elems = rng.sample(elems, 400)
    bad = sum(1 for w in elems if lower_interval(w).members != brute_interval(w))
    records.append(("intervals", bad, f"{len(elems)} elements"))

    bad = 0
    triples = 0
    subsets = [frozenset(J) for size in range(sys.rank + 1)
               for J in itertools.combinations(range(sys.rank), size)]
    for w in elems:
        for J in subsets if len(subsets) <= 16 else rng.sample(subsets, 16):
            for x in min_reps_in_order(w, J):
                triples += 1
                res = max_in_coset(w, x, J)
                if brute_coset_max(w, x, J) is not res.maximum:
                    bad += 1
                if coset_max_candidates(w, x, J) != frozenset((res.maximum,)):
                    bad += 1
    records.append(("coset-maxima", bad, f"{triples} triples"))

    bad = 0
    count = 0
    for _ in range(samples):
        w, u = rng.choice(elems), rng.choice(elems)
        if w.length + u.length <= min(sys.interval_cap, sys.length_cap):
            count += 1
            if not verify_interval_product(w, u):
                bad += 1
    records.append(("interval-product", bad, f"{count} pairs"))
    return records
