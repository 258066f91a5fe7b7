"""The maximum of a lower Bruhat interval intersected with a parabolic coset.

For w in W, J a subset of the generators and x a minimal representative
below w, the set [e, w] meet x W_J has a unique maximal element q, and
[e, w] meet x W_J is isomorphic as a graded poset to [e, x^-1 q].  A single
query (:func:`max_in_coset`, and ``max-coset --trace``) computes q by the
paper's recursion on the length of x:

* base x = e: q is the Demazure fold of the J-letters of the canonical word
  of w, taken in order;
* step: split w = u v on the left with respect to the generators that are
  not left descents of x; collect the generators t whose left action fixes
  the coset (t x in x W_J); pick a left descent s of v; then
  q = (max of [e,u] in the subgroup of those coset stabilizers) folded with
  s times the recursive maximum for (v, s x, J).

The chosen s is the smallest left descent of v, but the result is
independent of the choice; :func:`.oracle.coset_max_candidates` explores
every choice and is used for verification.  Results, and the coset
stabilizers of each (x, J), are memoised per system; a result rebuilds its
per-level trace through memo hits on first read.

Sweeps over every x (:func:`shifted_max_set` and the Poincare
decompositions) read the whole table x -> q instead, built without the
recursion by extending along w's word.  For a left ascent s of w,
[e, s w] = [e, w] union s [e, w] (lifting property, Björner-Brenti
Prop. 2.2.7), so the maximum for s w in x W_J is the longer of q_w(x) and
s q_w(x'), where x' is the minimal representative of s x W_J (x itself when
s x is not in W^J, s x otherwise, by Deodhar's lemma); the second candidate
drops out when s is a left descent of q_w(x'), and the theorem says one
candidate dominates the other.  Starting from {e: e}, the letters of w's
canonical word are applied from right to left, and the table of every
suffix is memoised per (w, J).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping

from .bruhat import _check_interval_cap, leq
from .core import SIGN_TOL, Element, GenSet, demazure
from .errors import EmptyIntersection, InternalAssertionFailed
from .parabolic import _split, check_chain, check_min_rep


@dataclass(frozen=True)
class TraceStep:
    """One level of the recursion, at the current representative x."""

    x: Element
    left_descents: GenSet      # D_L(x), driving the split of w
    u: Element                 # prefix of w = u v, supported away from D_L(x)
    v: Element                 # suffix, no left descent outside D_L(x) remains
    coset_stabilizers: GenSet  # generators t with t x W_J = x W_J
    s: int                     # chosen left descent of v
    prefix_max: Element        # max of [e, u] inside the stabilizer subgroup
    suffix_max: Element        # recursive max for (v, s x, J)
    maximum: Element           # prefix_max folded with s * suffix_max


@dataclass(frozen=True)
class CosetMaxResult:
    """Maximum q of [e, w] meet x W_J, with shift = x^-1 q in W_J.

    For the relative variant, K is the larger generator set the recursion
    ran in and shift lies in W^J meet W_K.
    """

    w: Element
    x: Element
    J: GenSet
    maximum: Element
    shift: Element
    K: GenSet | None = None

    @cached_property
    def trace(self) -> tuple[TraceStep, ...]:
        """One step per level of the recursion, from x down to x = e."""
        w, x, J = self.w, self.x, self.K or self.J
        steps = []
        while x.length:
            step = TraceStep(*_level(w, x, J))
            steps.append(step)
            w, x = step.v, x.system._step(x, step.s, True)
        return tuple(steps)


@dataclass(frozen=True)
class ShiftedMaxSet:
    """All shifts x^-1 q as x runs over the minimal representatives below w."""

    w: Element
    J: GenSet
    pairs: Mapping[Element, Element]  # x -> shift, in ShortLex order of x
    values: frozenset[Element]


def max_in_parabolic(w: Element, J: Iterable[int]) -> Element:
    """Maximum of [e, w] meet W_J: the Demazure fold of w's J-letters."""
    return _fold(w, w.system.check_genset(J))


def _fold(w: Element, J: GenSet) -> Element:
    """max_in_parabolic for a checked J."""
    sys = w.system
    q = sys.identity
    for s in w.word:
        if s in J and s not in q.right_descents:
            q = sys._step(q, s)
    return q


def _stabilizers(x: Element, J: GenSet) -> GenSet:
    """Generators t with t x W_J = x W_J: those whose root x^-1(alpha_t) has support in J."""
    sys = x.system
    stab = sys._stab_cache.get((x, J))
    if stab is None:  # column t of x's inverse matrix is x^-1(alpha_t)
        rows = [r for j, r in enumerate(x._imat) if j not in J]
        stab = frozenset(t for t in J | x.support if all(abs(r[t]) < SIGN_TOL for r in rows))
        sys._stab_cache[x, J] = stab
    return stab


def _validate(w: Element, x: Element, J: Iterable[int]) -> GenSet:
    w.system._check_mine(x)
    J = check_min_rep(x, J)
    if not leq(x, w):
        raise EmptyIntersection(f"{x} is not below {w}, so [e,w] meet xW_J is empty")
    return J


def max_in_coset(w: Element, x: Element, J: Iterable[int]) -> CosetMaxResult:
    """Maximum of [e, w] meet x W_J, with its shift and recursion trace."""
    return _max_in_coset(w, x, _validate(w, x, J))


def _max_in_coset(w: Element, x: Element, J: GenSet) -> CosetMaxResult:
    """max_in_coset for a triple the caller has checked: x in W^J, x <= w."""
    sys = w.system
    key = (w, x, J)
    hit = sys._cosetmax_cache.get(key)
    if hit is not None:
        return hit

    q = _fold(w, J) if x.length == 0 else _level(w, x, J)[-1]
    res = CosetMaxResult(w=w, x=x, J=J, maximum=q, shift=_checked_shift(w, x, q, J))
    sys._cosetmax_cache[key] = res
    return res


def _checked_shift(w: Element, x: Element, q: Element, J: GenSet) -> Element:
    """x^-1 q, once q is checked to lie in [e, w] meet x W_J, length-additively."""
    v, shift = _split(q, J)  # q = x * shift exactly when q lies in x W_J
    if not leq(q, w) or v is not x:
        raise InternalAssertionFailed("computed maximum is not in [e,w] meet xW_J")
    if not (shift.support <= J) or q.length != x.length + shift.length:
        raise InternalAssertionFailed("shift is not a length-additive W_J factor")
    return shift


def _level(w: Element, x: Element, J: GenSet) -> tuple:
    """The fields of the TraceStep for x != e; the inner maximum comes from the memo."""
    sys = w.system
    dl = x.left_descents
    v, u = _split(w, sys._all_gens - dl, left=True)  # w = u * v
    stab = _stabilizers(x, J)
    if not v.left_descents:
        raise InternalAssertionFailed("suffix of the split has no left descent")
    s = min(v.left_descents)
    prefix_max = _fold(u, stab)
    sx = sys._step(x, s, True)
    if sx.right_descents & J:
        raise InternalAssertionFailed("s*x left the minimal representatives")
    if not leq(sx, v):
        raise InternalAssertionFailed("s*x is not below the suffix of the split")
    suffix_max = _max_in_coset(v, sx, J).maximum
    sq = sys._step(suffix_max, s, True)
    if sq.length <= suffix_max.length:
        raise InternalAssertionFailed("s shortened the recursive maximum")
    return x, dl, u, v, stab, s, prefix_max, suffix_max, demazure(prefix_max, sq)


def coset_shift(w: Element, x: Element, J: Iterable[int]) -> Element:
    """The element x^-1 q of W_J; [e,w] meet xW_J is isomorphic to [e, shift]."""
    return max_in_coset(w, x, J).shift


def _shift_table(w: Element, J: GenSet) -> tuple[dict, dict]:
    """(maxima, shifts) over x in [e, w]^J for a checked J: maxima maps x to the
    maximum q of [e, w] meet x W_J, and shifts, in ShortLex order of x, maps x
    to x^-1 q after the checks :func:`max_in_coset` makes.

    Raises IntervalTooLarge when length(w) exceeds the system's interval_cap.
    """
    _check_interval_cap(w)
    memo = w.system._shift_tables
    maxima, shifts = memo.get((w, J)) or (_maxima(w, J), None)
    if shifts is None:
        shifts = {x: _checked_shift(w, x, maxima[x], J)
                  for x in sorted(maxima, key=attrgetter("length", "word"))}
        memo[w, J] = (maxima, shifts)
    return maxima, shifts


def _maxima(w: Element, J: GenSet) -> dict[Element, Element]:
    """x -> q_w(x) over [e, w]^J, extended letter by letter from the longest
    suffix of w's word with a memoised table; each new suffix table is memoised."""
    sys = w.system
    memo = sys._shift_tables
    suffixes = []
    while (entry := memo.get((w, J))) is None and w.length:
        suffixes.append(w)
        w = sys._step(w, w.word[0], True)  # drop the first letter: a factor step
    table = entry[0] if entry else {w: w}
    for y in reversed(suffixes):
        s = y.word[0]
        new = dict(table)
        for x, m in table.items():
            if s in m.left_descents:
                continue  # s times [e, w] meet x W_J lies below m <= w: nothing new
            sx = sys._step(x, s, True)
            if not (sx.right_descents & J):
                x = sx  # s x W_J is another coset, with minimal representative s x
            sm = sys._step(m, s, True)
            old = new.get(x)
            if old is None or old.length < sm.length:
                new[x] = sm
            elif old.length == sm.length and old is not sm:
                raise InternalAssertionFailed("two coset maxima candidates of equal length")
        table = new
        memo[y, J] = (table, None)
    return table


def shifted_max_set(w: Element, J: Iterable[int]) -> ShiftedMaxSet:
    """Shifts for every minimal representative below w, ShortLex ordered."""
    J = w.system.check_genset(J)
    pairs = dict(_shift_table(w, J)[1])
    return ShiftedMaxSet(w=w, J=J, pairs=pairs, values=frozenset(pairs.values()))


def max_in_relative_coset(
    w: Element, x: Element, J: Iterable[int], K: Iterable[int]
) -> CosetMaxResult:
    """Relative variant for a chain J inside K.

    For w in W^J and x in W^K below w, the set [e,w]^J meet x (W^J meet W_K)
    has the unique maximum coset_rep(q_K, J) where q_K is the plain maximum
    for (w, x, K); the shift x^-1 q lies in W^J meet W_K.
    """
    J, K = check_chain(w, J, K)
    K = _validate(w, x, K)
    return _max_in_relative_coset(w, x, _max_in_coset(w, x, K).maximum, J, K)


def _max_in_relative_coset(
    w: Element, x: Element, q_K: Element, J: GenSet, K: GenSet
) -> CosetMaxResult:
    """The relative maximum from q_K, the maximum of [e, w] meet x W_K, for a
    checked chain J inside K and x in W^K below w."""
    q = _split(q_K, J)[0]
    v, shift = _split(q, K)  # q lies in x W_K, so this is x * shift exactly when v is x
    if v is not x or not (shift.support <= K) or (shift.right_descents & J):
        raise InternalAssertionFailed("relative shift is not in W^J meet W_K")
    if q.length != x.length + shift.length or not leq(q, w) or (q.right_descents & J):
        raise InternalAssertionFailed("relative maximum is not a J-minimal element of [e,w]")
    return CosetMaxResult(w=w, x=x, J=J, maximum=q, shift=shift, K=K)


def relative_shift(w: Element, x: Element, J: Iterable[int], K: Iterable[int]) -> Element:
    return max_in_relative_coset(w, x, J, K).shift
