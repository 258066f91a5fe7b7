"""Brute-force ground truth, kept independent of the fast paths.

These deliberately avoid the algorithms they check: the interval oracle
closes downward by single-letter deletions over *all* reduced words instead
of enumerating subwords of one word; the coset-maximum oracle filters the
interval and scans for maxima instead of recursing; word equality is decided
by bounded braid-move/deletion rewriting instead of the geometric
representation.  :func:`coset_max_candidates` instead reruns the fast
recursion under every choice it could make.

The memo tables live in each system's instance dictionary: their keys and
values hold elements, which hold their system, so a table kept elsewhere
would keep every system alive.
"""

from __future__ import annotations

from typing import Iterable

from .bruhat import leq, lower_interval
from .core import CoxeterSystem, Element, Word, demazure
from .coset_max import _stabilizers, _validate, max_in_parabolic
from .errors import EmptyIntersection, IntervalTooLarge, NotUnique, SearchBudgetExceeded
from .parabolic import check_min_rep, decompose


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
            rest = all_reduced_words(sys._lmul_gen(s, w))
            acc.extend((s,) + r for r in rest)
        out = tuple(acc)
    cache[w] = out
    return out


def brute_interval(w: Element, *, cap: int | None = None) -> frozenset[Element]:
    """[e, w] by fixpoint closure under single-letter deletions.

    Starting from w, every reduced word of every discovered element has each
    single letter deleted and the result normalised, until nothing new
    appears.  No subword enumeration is involved.
    """
    sys = w.system
    if cap is None:
        cap = sys.interval_cap
    if w.length > cap:
        raise IntervalTooLarge(f"length {w.length} exceeds interval cap {cap}")
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
    """Unique maximum of [e, w] meet x W_J by filtering and scanning.

    Raises NotUnique if several maximal elements show up (which would
    falsify the theorem the fast path relies on) and EmptyIntersection if x
    is not below w.
    """
    w.system._check_mine(x)
    J = check_min_rep(x, J)
    xinv = x.inverse()
    members = [y for y in brute_interval(w) if (xinv * y).support <= J]
    if not members:
        raise EmptyIntersection(f"[e,{w}] meet {x}W_J is empty")
    maxima = [y for y in members if not any(y is not z and leq(y, z) for z in members)]
    if len(maxima) != 1:
        raise NotUnique(f"{len(maxima)} maximal elements in [e,{w}] meet {x}W_J")
    q = maxima[0]
    if not all(leq(z, q) for z in members):
        raise NotUnique("unique maximal element does not dominate the intersection")
    return q


def coset_max_candidates(w: Element, x: Element, J: Iterable[int]) -> frozenset[Element]:
    """Maxima produced by every tie-break choice of s at every level.

    The recursion is deterministic (smallest s); this explores all s in
    D_L(v) instead and collects the results.  Verification sweeps assert
    the set is exactly {max_in_coset(w, x, J).maximum}.
    """
    sys = w.system
    J = _validate(w, x, J)
    cache = vars(sys).setdefault("_candidates_cache", {})
    key = (w, x, J)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if x.length == 0:
        out = frozenset((max_in_parabolic(w, J),))
    else:
        outside = frozenset(range(sys.rank)) - x.left_descents
        d = decompose(w, outside, "left")
        prefix_max = max_in_parabolic(d.u, _stabilizers(x, J))
        acc = set()
        for s in sorted(d.v.left_descents):
            sx = sys._lmul_gen(s, x)
            for inner in coset_max_candidates(d.v, sx, J):
                acc.add(demazure(prefix_max, sys._lmul_gen(s, inner)))
        out = frozenset(acc)
    cache[key] = out
    return out


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
    for s in w1 + w2:
        if not 0 <= s < sys.rank:
            raise ValueError(f"generator index {s!r} out of range for rank {sys.rank}")
    b = _Budget(budget)
    return _tits_reduce(sys, w1, b) == _tits_reduce(sys, w2, b)


def verify_interval_product(w: Element, u: Element) -> bool:
    """Check [e, w*u] (Demazure) = {a b : a <= w, b <= u} elementwise."""
    sys = w.system
    sys._check_mine(u)
    star = demazure(w, u)
    products = {
        a * b
        for a in lower_interval(w).members
        for b in lower_interval(u).members
    }
    return products == lower_interval(star).members
