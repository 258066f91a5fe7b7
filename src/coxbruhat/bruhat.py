"""Bruhat order: comparisons, lower intervals, covers, Poincare polynomials.

``leq`` decides u <= w by walking the standard descent chain: pick a left
descent s of w; if s is also a left descent of u go on with (su, sw), else
with (u, sw); it runs on u's root sums and builds no element.  Lower intervals
use the subword characterisation -- the interval below w is exactly the set
of elements of subwords of one reduced word of w -- computed as a
left-to-right closure so equal subwords are merged early.  Both are memoised
per system.  Covers are lifted one descent at a time (Björner-Brenti, Prop.
2.2.7): along the prefixes of one reduced word, so the interval cap does not
limit them, or along the interval's ranks.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .core import Element, Record, _fill
from .errors import IntervalTooLarge
from .polynomial import IntPolynomial


class Interval(Record):
    """The lower Bruhat interval [e, top]; ``ranks`` is its only store, and
    ``members`` and the iteration order are read from it."""

    __slots__ = ("top", "ranks", "__dict__")

    def __init__(self, top, ranks):
        _fill(self, (top, ranks))  # ranks[k] = members of length k, ShortLex sorted

    @property
    def members(self) -> frozenset[Element]:
        return frozenset(self)

    @property
    def rank_sizes(self) -> tuple[int, ...]:  # rank_sizes[k] = number of members of length k
        return tuple(map(len, self.ranks))

    @cached_property
    def poincare(self) -> IntPolynomial:
        """Rank generating function, built on first use and kept with the interval."""
        return IntPolynomial.from_coeffs(self.rank_sizes)

    def __len__(self) -> int:
        return sum(map(len, self.ranks))

    def __iter__(self):
        return (y for row in self.ranks for y in row)


def leq(u: Element, w: Element) -> bool:
    """Bruhat order comparison u <= w, memoised per top-level pair: the descent
    chain reads w's word, each letter min D_L of what is left of w, against u's
    left root sums, peeling a letter whose sum is negative as ``_canonical`` does."""
    sys = u.system
    sys._check_mine(w)
    if u is w or u.length == 0:
        return True
    if u.length >= w.length:
        return False
    res = sys._leq_cache.get((u, w))
    if res is None:
        v, left, nbrs, n = list(u._lsum), u.length, sys._nbrs, w.length
        for i, s in enumerate(w.word, 1):  # i letters of w read, n - i to go
            x = v[s]
            if x < 0.0:  # s is a left descent of what is left of u: peel it
                for k, c in nbrs[s]:
                    v[k] += c * x
                v[s], left = -x, left - 1
                if not left:
                    break
            elif left > n - i:
                break
        res = sys._leq_cache[u, w] = not left
    return res


def _check_interval_cap(w: Element) -> None:
    """Raise IntervalTooLarge when length(w) exceeds the system's interval_cap."""
    if w.length > w.system.interval_cap:
        raise IntervalTooLarge(f"length {w.length} exceeds interval cap {w.system.interval_cap}")


def lower_interval(w: Element) -> Interval:
    """All elements u <= w, grouped by length and ShortLex sorted once here.

    Enumerates the subwords of w's canonical word as a closure over prefixes,
    adding only ascents u*s: the closure is a lower ideal, so it has u*s < u.
    Members are multiplied by length, so tail(u)*s (u without its first
    letter, times s) is built before u*s and lends it its word.
    Raises IntervalTooLarge when length(w) exceeds the system's interval_cap.
    """
    sys = w.system
    _check_interval_cap(w)
    cached = sys._interval_cache.get(w)
    if cached is not None:
        return cached
    seen, rows = {sys.identity}, [[sys.identity]]
    for s in w.word:
        rows.append([])
        for k in range(len(rows) - 1):  # rows[k + 1] gains products u*s, which skip s
            new = [x for u in rows[k] if (u._rsum or sys._right_sums(u))[s] >= 0.0
                   and (x := u._mul[s] or sys._step(u, s)) not in seen]
            seen.update(new)
            rows[k + 1] += new
    ranks = tuple(tuple(sorted(row, key=attrgetter("word"))) for row in rows)  # ShortLex
    itv = Interval(w, ranks)
    sys._interval_cache[w] = itv
    return itv


def _lift_covers(y: Element, s: int, down) -> list[Element]:
    """The covers of y from ``down``, the covers of ys, for s a right descent
    of y: ys and each us with u in ``down`` and us > u (lifting property)."""
    sys = y.system
    return [y._mul[s] or sys._step(y, s)] + [u._mul[s] or sys._step(u, s) for u in down
                                              if (u._rsum or sys._right_sums(u))[s] >= 0.0]


def covers(w: Element) -> frozenset[Element]:
    """Elements u <= w of length length(w) - 1, lifted one descent at a time
    along the prefixes of w's word (Björner-Brenti, Prop. 2.2.7)."""
    sys = w.system
    y, down = sys.identity, []
    for s in w.word:
        y = sys._step(y, s)
        down = _lift_covers(y, s, down)
    return frozenset(down)


def poincare(w: Element) -> IntPolynomial:
    """Rank generating function of [e, w]."""
    return lower_interval(w).poincare
