"""Bruhat order: comparisons, lower intervals, covers, Poincare polynomials.

``leq`` decides u <= w by the standard descent recursion: pick a left
descent s of w; if s is also a left descent of u compare (su, sw), else
compare (u, sw).  Lower intervals use the subword characterisation -- the
interval below w is exactly the set of elements of subwords of one reduced
word of w -- computed as a left-to-right closure so equal subwords are
merged early.  Both are memoised per system.  Covers come from one reduced
word alone (its one-letter deletions that stay reduced), so the interval cap
does not limit them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .core import Element
from .errors import IntervalTooLarge
from .polynomial import IntPolynomial


@dataclass(frozen=True)
class Interval:
    """The lower Bruhat interval [e, top]; ``ranks`` is its one ordered store."""

    top: Element
    members: frozenset[Element]
    ranks: tuple[tuple[Element, ...], ...]  # ranks[k] = members of length k, ShortLex sorted

    @property
    def rank_sizes(self) -> tuple[int, ...]:  # rank_sizes[k] = number of members of length k
        return tuple(map(len, self.ranks))

    @cached_property
    def poincare(self) -> IntPolynomial:
        """Rank generating function, built on first use and kept with the interval."""
        return IntPolynomial.from_coeffs(self.rank_sizes)

    def sorted_members(self) -> list[Element]:
        return list(self)

    def at_length(self, k: int) -> frozenset[Element]:
        return frozenset(self.ranks[k]) if 0 <= k < len(self.ranks) else frozenset()

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, w: Element) -> bool:
        return w in self.members

    def __iter__(self):
        return (y for row in self.ranks for y in row)


def leq(u: Element, w: Element) -> bool:
    """Bruhat order comparison u <= w."""
    sys = u.system
    sys._check_mine(w)
    if u is w:
        return True
    if u.length > w.length:
        return False
    if u.length == 0:
        return True
    cache = sys._leq_cache
    key = (u, w)
    hit = cache.get(key)
    if hit is not None:
        return hit
    s = min(w.left_descents)
    sw = sys._lmul_gen(s, w)
    if s in u.left_descents:
        res = leq(sys._lmul_gen(s, u), sw)
    else:
        res = leq(u, sw)
    cache[key] = res
    return res


def lower_interval(w: Element, *, cap: int | None = None) -> Interval:
    """All elements u <= w, grouped by length and ShortLex sorted once here.

    Enumerates the subwords of the canonical word of w (as a closure over
    prefixes, deduplicating as it goes).  Raises IntervalTooLarge when
    length(w) exceeds the cap (the system's interval_cap by default).
    """
    sys = w.system
    if cap is None:
        cap = sys.interval_cap
    if w.length > cap:
        raise IntervalTooLarge(f"length {w.length} exceeds interval cap {cap}")
    cached = sys._interval_cache.get(w)
    if cached is not None:
        return cached
    members = {sys.identity}
    for s in w.word:
        members |= {sys._mul_gen(u, s) for u in members}
    rows: list[list[Element]] = [[] for _ in range(w.length + 1)]
    for u in members:
        rows[len(u.word)].append(u)
    ranks = tuple(tuple(sorted(row, key=attrgetter("word"))) for row in rows)  # ShortLex
    itv = Interval(top=w, members=frozenset(members), ranks=ranks)
    sys._interval_cache[w] = itv
    return itv


def covers(w: Element) -> frozenset[Element]:
    """Elements u <= w of length length(w) - 1: by the subword property and
    strong exchange, the one-letter deletions of w's word that stay reduced."""
    sys, word = w.system, w.word
    deletions = (sys.normalize(word[:i] + word[i + 1:]) for i in range(len(word)))
    return frozenset(u for u in deletions if u.length == len(word) - 1)


def poincare(w: Element) -> IntPolynomial:
    """Rank generating function of [e, w]."""
    return lower_interval(w).poincare
