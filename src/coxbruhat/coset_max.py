"""The maximum of a lower Bruhat interval intersected with a parabolic coset.

For w in W, J a subset of the generators and x a minimal representative
below w, the set [e, w] meet x W_J has a unique maximal element q, and
[e, w] meet x W_J is isomorphic as a graded poset to [e, x^-1 q].  This
module computes q (and the shift x^-1 q in W_J) by recursion on the length
of x:

* base x = e: q is the Demazure fold of the J-letters of the canonical word
  of w, taken in order;
* step: split w = u v on the left with respect to the generators that are
  not left descents of x; collect the generators t whose left action fixes
  the coset (t x in x W_J); pick a left descent s of v; then
  q = (max of [e,u] in the subgroup of those coset stabilizers) folded with
  s times the recursive maximum for (v, s x, J).

The chosen s is the smallest left descent of v, but the result is
independent of the choice; :func:`.oracle.coset_max_candidates` explores
every choice and is used for verification.  Results carry the per-level
trace and are memoised per system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .bruhat import leq
from .core import Element, GenSet, demazure, demazure_word
from .errors import EmptyIntersection, InternalAssertionFailed
from .parabolic import check_chain, check_min_rep, coset_rep, decompose, min_reps_in_order


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
    trace: tuple[TraceStep, ...]
    K: GenSet | None = None


@dataclass(frozen=True)
class ShiftedMaxSet:
    """All shifts x^-1 q as x runs over the minimal representatives below w."""

    w: Element
    J: GenSet
    pairs: Mapping[Element, Element]  # x -> shift, in ShortLex order of x
    values: frozenset[Element]


def max_in_parabolic(w: Element, J: Iterable[int]) -> Element:
    """Maximum of [e, w] meet W_J: the Demazure fold of w's J-letters."""
    sys = w.system
    J = sys.check_genset(J)
    return demazure_word(sys, (s for s in w.word if s in J))


def _stabilizers(x: Element, J: GenSet) -> GenSet:
    """Generators t with t x W_J = x W_J: by Deodhar's lemma, those with t x not in W^J."""
    sys = x.system
    return frozenset(t for t in sorted(J | x.support)
                     if sys._lmul_gen(t, x).right_descents & J)


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

    if x.length == 0:
        q = max_in_parabolic(w, J)
        trace: tuple[TraceStep, ...] = ()
    else:
        dl = x.left_descents
        outside = frozenset(range(sys.rank)) - dl
        d = decompose(w, outside, "left")
        u, v = d.u, d.v
        stab = _stabilizers(x, J)
        if not v.left_descents:
            raise InternalAssertionFailed("suffix of the split has no left descent")
        s = min(v.left_descents)
        prefix_max = max_in_parabolic(u, stab)
        sx = sys._lmul_gen(s, x)
        if sx.right_descents & J:
            raise InternalAssertionFailed("s*x left the minimal representatives")
        if not leq(sx, v):
            raise InternalAssertionFailed("s*x is not below the suffix of the split")
        inner = _max_in_coset(v, sx, J)
        sq = sys._lmul_gen(s, inner.maximum)
        if sq.length <= inner.maximum.length:
            raise InternalAssertionFailed("s shortened the recursive maximum")
        q = demazure(prefix_max, sq)
        step = TraceStep(
            x=x,
            left_descents=dl,
            u=u,
            v=v,
            coset_stabilizers=stab,
            s=s,
            prefix_max=prefix_max,
            suffix_max=inner.maximum,
            maximum=q,
        )
        trace = (step,) + inner.trace

    d = decompose(q, J)  # q = x * d.u exactly when q lies in x W_J
    if not leq(q, w) or d.v is not x:
        raise InternalAssertionFailed("computed maximum is not in [e,w] meet xW_J")
    shift = d.u
    if not (shift.support <= J) or q.length != x.length + shift.length:
        raise InternalAssertionFailed("shift is not a length-additive W_J factor")
    res = CosetMaxResult(w=w, x=x, J=J, maximum=q, shift=shift, trace=trace)
    sys._cosetmax_cache[key] = res
    return res


def coset_shift(w: Element, x: Element, J: Iterable[int]) -> Element:
    """The element x^-1 q of W_J; [e,w] meet xW_J is isomorphic to [e, shift]."""
    return max_in_coset(w, x, J).shift


def shifted_max_set(w: Element, J: Iterable[int]) -> ShiftedMaxSet:
    """Shifts for every minimal representative below w, ShortLex ordered."""
    J = w.system.check_genset(J)
    # Each representative is in W^J and below w, so the checks of max_in_coset hold.
    pairs = {x: _max_in_coset(w, x, J).shift for x in min_reps_in_order(w, J)}
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
    inner = max_in_coset(w, x, K)  # validates x in W^K and x <= w
    q = coset_rep(inner.maximum, J)
    shift = x.inverse() * q
    if not (shift.support <= K) or (shift.right_descents & J):
        raise InternalAssertionFailed("relative shift is not in W^J meet W_K")
    if q.length != x.length + shift.length or not leq(q, w) or (q.right_descents & J):
        raise InternalAssertionFailed("relative maximum is not a J-minimal element of [e,w]")
    return CosetMaxResult(w=w, x=x, J=J, maximum=q, shift=shift, trace=inner.trace, K=K)


def relative_shift(w: Element, x: Element, J: Iterable[int], K: Iterable[int]) -> Element:
    return max_in_relative_coset(w, x, J, K).shift
