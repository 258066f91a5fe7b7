"""The maximum of a lower Bruhat interval intersected with a parabolic coset.

For w in W, J a subset of the generators and x a minimal representative
below w, the set [e, w] meet x W_J has a unique maximal element q, and
[e, w] meet x W_J is isomorphic as a graded poset to [e, x^-1 q].  A single
query (:func:`max_in_coset`, and ``max-coset --trace``) computes q by the
paper's recursion on the length of x, unrolled into one loop:

* base x = e: q is the Demazure fold of the J-letters of the canonical word
  of w, taken in order;
* step: split w = u v on the left with respect to the generators that are
  not left descents of x; collect the generators t whose left action fixes
  the coset (t x in x W_J); pick a left descent s of v; then
  q = (max of [e,u] in the subgroup of those coset stabilizers) folded with
  s times the recursive maximum for (v, s x, J).

The chosen s is the smallest left descent of v, but the result is
independent of the choice; :func:`.oracle.coset_max_candidates` explores
every choice and is used for verification.  The loop walks down the levels
(w, x) -> (v, s x) to x = e, then folds the maxima back up, checking each
level's maximum against its coset.  The coset stabilizers are read off the
roots x^-1(alpha_t), the columns of the matrix of x^-1: the fold-up pass
carries the sum of that matrix's rows outside J from the identity, one generator
per level, so no t x is built and an x at the length cap is answered.  The same
pass records the levels the result's trace reads.  Neither results nor
stabilizers are memoised.

Sweeps over every x (:func:`shifted_max_set` and the Poincare
decompositions) read the whole table x -> q instead, built without the
recursion by extending along w's word.  For a left ascent s of w,
[e, s w] = [e, w] union s [e, w] (lifting property, Björner-Brenti
Prop. 2.2.7), so the maximum for s w in x W_J is the longer of q_w(x) and
s q_w(x'), where x' is the minimal representative of s x W_J (x itself when
s x is not in W^J, s x otherwise, by Deodhar's lemma); the second candidate
drops out when s is a left descent of q_w(x'), and the theorem says one
candidate dominates the other.  Starting from e -> e, ``_shift_table`` applies the
letters of w's canonical word from right to left and memoises every suffix's table
per (w, J) as aligned tuples (xs, qs, shifts), each shift checked where it is made.
A relative maximum, for a chain J inside K, is one ``_relative_step`` from q_K.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Iterable

from .bruhat import _check_interval_cap, leq
from .core import Element, GenSet, Record, _fill, _fold_letters
from .errors import EmptyIntersection, InternalAssertionFailed
from .parabolic import _split, check_chain, check_min_rep

#: Zero test for the stabiliser row in ``_max_in_coset``, sums of root coordinates of
#: one sign: an exact one is 0 or at least 1 in size (Björner-Brenti 4.6), and the
#: floats keep that margin to 1e-9 (tests/test_root_margins.py).
ZERO_TOL = 1e-8


class TraceStep(Record):
    """One level of the recursion, at the current representative x."""

    __slots__ = ("x",
                 "left_descents",      # D_L(x), driving the split of w
                 "u",                  # prefix of w = u v, supported away from D_L(x)
                 "v",                  # suffix, no left descent outside D_L(x) remains
                 "coset_stabilizers",  # generators t with t x W_J = x W_J
                 "s",                  # chosen left descent of v
                 "prefix_max",         # max of [e, u] inside the stabilizer subgroup
                 "suffix_max",         # recursive max for (v, s x, J)
                 "maximum")            # prefix_max folded with s * suffix_max

    def __init__(self, x, left_descents, u, v, coset_stabilizers, s, prefix_max, suffix_max,
                 maximum):
        _fill(self, (x, left_descents, u, v, coset_stabilizers, s, prefix_max, suffix_max, maximum))


class CosetMaxResult(Record):
    """Maximum q of [e, w] meet x W_J, with shift = x^-1 q in W_J.

    For the relative variant, K is the larger generator set the recursion
    ran in and shift lies in W^J meet W_K.
    """

    # _levels: the TraceStep fields of each level, from x down to x = e (q_K's for a
    # relative maximum).  The dict holds the trace.
    __slots__ = ("w", "x", "J", "maximum", "shift", "K", "_levels", "__dict__")

    def __init__(self, w, x, J, maximum, shift, K=None, _levels=()):
        _fill(self, (w, x, J, maximum, shift, K, _levels))

    @cached_property
    def trace(self) -> tuple[TraceStep, ...]:
        """One step per level of the recursion, from x down to x = e."""
        return tuple(TraceStep(*fields) for fields in self._levels)


class ShiftedMaxSet(Record):
    """All shifts x^-1 q as x runs over the minimal representatives below w."""

    __slots__ = ("w", "J", "pairs", "values")

    def __init__(self, w, J, pairs, values):
        _fill(self, (w, J, pairs, values))  # pairs: x -> shift, in ShortLex order of x


def max_in_parabolic(w: Element, J: Iterable[int]) -> Element:
    """Maximum of [e, w] meet W_J: the Demazure fold of w's J-letters."""
    return _fold(w, w.system.check_genset(J))


def _fold(w: Element, J: GenSet) -> Element:
    """max_in_parabolic for a checked J."""
    return _fold_letters(w.system.identity, [s for s in w.word if s in J])


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
    """max_in_coset for a triple the caller has checked: x in W^J, x <= w.

    Walks down the levels (w, x) -> (v, s x) to x = e, guarding only that s shortens x,
    then folds the maxima back up from the base; _checked_shift checks each level's q'.
    The guard ends the loop and keeps s x in W^J, as D_R(s x) lies in D_R(x); q' <= v
    and q' = (s x) shift length-additively give s x <= v (Björner-Brenti Thm 2.2.2).
    The fold-up pass carries the sum of the rows outside J of the matrix of
    x_i^-1 = (s x_i)^-1 s, whose entry t sums the coordinates outside J of the root
    x_i^-1(alpha_t).  They share one sign, so t stabilizes x_i W_J, the root having
    support in J, exactly when that entry is zero; for t outside J and supp(x_i) it is >= 1.
    """
    sys = w.system
    down = []
    wi, xi = w, x
    while xi.length:
        dl = xi.left_descents
        v, u = _split(wi, sys._all_gens - dl, left=True)  # wi = u * v
        if not v.left_descents:
            raise InternalAssertionFailed("suffix of the split has no left descent")
        s = min(v.left_descents)
        sx = sys._step(xi, s, True)
        if sx.length > xi.length:  # x gets shorter at every level: the loop ends
            raise InternalAssertionFailed("s is not a left descent of x")
        down.append((wi, xi, dl, u, v, s))
        wi, xi = v, sx
    q = _fold(wi, J)
    shift = _checked_shift(wi, xi, q, J)
    up, row = [], [float(i not in J) for i in range(sys.rank)]  # x = e
    for wi, xi, dl, u, v, s in reversed(down):
        stab = frozenset(t for t, c in enumerate(sys._apply_right(s, row)) if abs(c) < ZERO_TOL)
        prefix_max = _fold(u, stab)
        sq = sys._step(q, s, True)
        if sq.length <= q.length:
            raise InternalAssertionFailed("s shortened the recursive maximum")
        outer = _fold_letters(prefix_max, sq.word) if prefix_max.length else sq  # e * sq = sq
        up.append((xi, dl, u, v, stab, s, prefix_max, q, outer))
        q, shift = outer, _checked_shift(wi, xi, outer, J)
    return CosetMaxResult(w, x, J, q, shift, None, tuple(reversed(up)))


def _checked_shift(w: Element, x: Element, q: Element, J: GenSet) -> Element:
    """x^-1 q, once q is checked to lie in [e, w] meet x W_J, length-additively."""
    v, shift = _split(q, J)  # q = x * shift exactly when q lies in x W_J
    if not leq(q, w) or v is not x:
        raise InternalAssertionFailed("computed maximum is not in [e,w] meet xW_J")
    if not J.issuperset(shift.word) or q.length != x.length + shift.length:
        raise InternalAssertionFailed("shift is not a length-additive W_J factor")
    return shift


def coset_shift(w: Element, x: Element, J: Iterable[int]) -> Element:
    """The element x^-1 q of W_J; [e,w] meet xW_J is isomorphic to [e, shift]."""
    return max_in_coset(w, x, J).shift


def _shift_table(w: Element, J: GenSet) -> tuple[tuple, tuple, tuple]:
    """The memoised (xs, qs, shifts) of (w, J) for a checked J, aligned tuples: [e, w]^J
    in ShortLex order, each x's maximum q of [e, w] meet x W_J, and x^-1 q.

    A new table extends the longest memoised suffix table of w's word letter by letter,
    through a transient dict x -> q, and memoises each table it makes.
    _checked_shift checks each entry in the table y that makes it, as max_in_coset
    does: q <= y, q lies in x W_J, and q = x shift length-additively, shift in W_J.
    A longer table carries the entry with that shift.  Each y' = s y on the way adds
    a left letter s outside D_L(y), so y < y' and q <= y' by transitivity
    (Björner-Brenti Def. 2.1.1, Thm 2.2.2); the other facts do not depend on y.
    Raises IntervalTooLarge when length(w) exceeds the system's interval_cap.
    """
    _check_interval_cap(w)
    memo = w.system._shift_tables
    if (entry := memo.get((w, J))) is not None:
        return entry
    sys, suffixes = w.system, []
    while (entry := memo.get((w, J))) is None and w.length:
        suffixes.append(w)
        w = sys._step(w, w.word[0], True)  # drop the first letter: a factor step
    if entry is None:  # w is e, and [e, e] meets only the coset W_J
        entry = memo[w, J] = ((w,), (w,), (_checked_shift(w, w, w, J),))
    xs, qs, shifts = entry
    for y in reversed(suffixes):
        s = y.word[0]
        table, made = dict(zip(xs, qs)), {}  # x -> q, for the coset lookups; x -> new shift
        for x, q in zip(xs, qs):
            if s in q.left_descents:
                continue  # s times [e, w] meet x W_J lies below q <= w: nothing new
            sx = sys._step(x, s, True)
            if not (sx.right_descents & J):
                x = sx  # s x W_J is another coset, with minimal representative s x
            sq = sys._step(q, s, True)
            old = table.get(x)
            if old is None or old.length < sq.length:
                table[x], made[x] = sq, _checked_shift(y, x, sq, J)
            elif old.length == sq.length and old is not sq:
                raise InternalAssertionFailed("two coset maxima candidates of equal length")
        if len(table) == len(xs):  # no new coset: xs and its order stay
            qs, shifts = tuple(table.values()), tuple(map(made.get, xs, shifts))
        else:  # new cosets: the sort meets the old keys first, already in order
            made = dict(zip(xs, shifts)) | made
            xs = tuple(sorted(table, key=attrgetter("length", "word")))
            qs, shifts = tuple(map(table.get, xs)), tuple(map(made.get, xs))
        memo[y, J] = xs, qs, shifts
    return xs, qs, shifts


def shifted_max_set(w: Element, J: Iterable[int]) -> ShiftedMaxSet:
    """Shifts for every minimal representative below w, ShortLex ordered."""
    J = w.system.check_genset(J)
    xs, _, shifts = _shift_table(w, J)
    pairs = dict(zip(xs, shifts))
    return ShiftedMaxSet(w, J, pairs, frozenset(shifts))


def max_in_relative_coset(
    w: Element, x: Element, J: Iterable[int], K: Iterable[int]
) -> CosetMaxResult:
    """Relative variant for a chain J inside K.

    For w in W^J and x in W^K below w, the set [e,w]^J meet x (W^J meet W_K)
    has the unique maximum coset_rep(q_K, J) where q_K is the plain maximum
    for (w, x, K); the shift x^-1 q lies in W^J meet W_K.
    """
    J, K = check_chain(w, J, K)
    res = _max_in_coset(w, x, _validate(w, x, K))
    return CosetMaxResult(w, x, J, *_relative_step(w, x, res.maximum, J, K), K, res._levels)


def _relative_step(w: Element, x: Element, q_K: Element, J: GenSet,
                   K: GenSet) -> tuple[Element, Element]:
    """The relative maximum q and its shift x^-1 q from q_K, the maximum of [e, w] meet
    x W_K, for a checked chain J inside K and x in W^K below w.  Past
    _checked_shift(w, x, q, K), it checks only that q and its shift are J-minimal."""
    q = _split(q_K, J)[0]
    shift = _checked_shift(w, x, q, K)
    if (q.right_descents | shift.right_descents) & J:
        raise InternalAssertionFailed("relative maximum or its shift is not J-minimal")
    return q, shift


def relative_shift(w: Element, x: Element, J: Iterable[int], K: Iterable[int]) -> Element:
    return max_in_relative_coset(w, x, J, K).shift
