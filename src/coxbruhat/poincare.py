"""Poincare-polynomial decompositions along parabolic cosets.

The interval [e, w] is the disjoint union of its intersections with the
cosets x W_J, x running over the minimal representatives below w, and each
intersection is graded-isomorphic to [e, shift(x)].  Hence

    P_w(t) = sum over x of t^length(x) * P_shift(x)(t),

where P_y is the rank generating function of [e, y].  When the parabolic
factor u of w = v u equals the maximum of [e, w] meet W_J, the sum
collapses to the product P_w = P^J_v * P_u (the Billey-Postnikov case),
with P^J_v counting only J-minimal elements of [e, v].  All of it relativises
to a chain J inside K.
"""

from __future__ import annotations

from typing import Iterable

from .bruhat import poincare
from .core import Element, GenSet, Record, _fill
from .errors import InternalAssertionFailed
from .coset_max import _fold, _relative_step, _shift_table
from .parabolic import _split, check_chain, check_min_rep, min_reps_in_order
from .polynomial import IntPolynomial


class Term(Record):
    """One coset's contribution: shift * factor = t^length(x) * P_shifted_max."""

    __slots__ = ("x", "shift", "shifted_max", "factor")

    def __init__(self, x, shift, shifted_max, factor):
        _fill(self, (x, shift, shifted_max, factor))


class PoincareDecomposition(Record):
    """P_w (or P^J_w in the relative case) split along parabolic cosets."""

    __slots__ = ("w", "J", "terms", "total", "K", "factorization")

    def __init__(self, w, J, terms, total, K=None, factorization=None):
        _fill(self, (w, J, terms, total, K, factorization))

    def grouped(self) -> tuple[tuple[IntPolynomial, Element, IntPolynomial], ...]:
        """Terms merged by equal shifted maximum: (shift sum, element, factor)."""
        groups: dict[Element, tuple[IntPolynomial, IntPolynomial]] = {}  # -> (shift sum, factor)
        for t in self.terms:
            g = groups.get(t.shifted_max)
            groups[t.shifted_max] = (t.shift, t.factor) if g is None else (g[0] + t.shift, g[1])
        return tuple((shift, m, factor) for m, (shift, factor) in groups.items())

    def factored_str(self) -> str:
        return " + ".join(f"({shift})({factor})" for shift, _, factor in self.grouped())


class BPReport(Record):
    """Billey-Postnikov test for (w, J): is the parabolic factor u maximal?"""

    __slots__ = ("w", "J", "v", "u", "parabolic_max", "is_bp", "factorization")

    def __init__(self, w, J, v, u, parabolic_max, is_bp, factorization):
        # parabolic_max is the maximum of [e, w] meet W_J; factorization (P^J_v, P_u) when BP
        _fill(self, (w, J, v, u, parabolic_max, is_bp, factorization))


def _total(w: Element, terms: Iterable[Term]) -> IntPolynomial:
    """Sum of t^length(x) * factor over the terms, added into one coefficient list."""
    coeffs = [0] * (w.length + 1)  # every term is the graded size of a part of [e, w]
    for term in terms:
        for k, c in enumerate(term.factor.coeffs, term.x.length):
            coeffs[k] += c
    return IntPolynomial.from_coeffs(coeffs)


def relative_poincare(w: Element, J: Iterable[int]) -> IntPolynomial:
    """P^J_w: rank generating function of the J-minimal elements of [e, w]."""
    return _relative_poincare(w, check_min_rep(w, J))


def _relative_poincare(w: Element, J: GenSet) -> IntPolynomial:
    counts = [0] * (w.length + 1)
    for y in min_reps_in_order(w, J):
        counts[y.length] += 1
    return IntPolynomial.from_coeffs(counts)


def decompose_poincare(w: Element, J: Iterable[int]) -> PoincareDecomposition:
    """P_w as the sum of t^length(x) * P_shift(x) over minimal reps x <= w."""
    J = w.system.check_genset(J)
    memo = w.system._term_cache
    xs, _, shifts = _shift_table(w, J)
    terms = tuple(memo.get(xm) or _term(memo, *xm) for xm in zip(xs, shifts))
    return PoincareDecomposition(w, J, terms, _total(w, terms))


def _term(memo: dict, x: Element, m: Element) -> Term:
    """The term of decompose_poincare for x with shift m, stored in memo under (x, m)."""
    term = memo[x, m] = Term(x, IntPolynomial.t_power(x.length), m, poincare(m))
    return term


def bp_report(w: Element, J: Iterable[int]) -> BPReport:
    """Billey-Postnikov test, with the verified product when it holds."""
    J = w.system.check_genset(J)
    v, u = _split(w, J)
    parabolic_max = _fold(w, J)
    is_bp = u == parabolic_max
    factorization = None
    if is_bp:
        pv = _relative_poincare(v, J)
        pu = poincare(u)
        if pv * pu != poincare(w):
            raise InternalAssertionFailed("BP product does not match the Poincare polynomial")
        factorization = (pv, pu)
    return BPReport(w, J, v, u, parabolic_max, is_bp, factorization)


def relative_decompose_poincare(
    w: Element, J: Iterable[int], K: Iterable[int]
) -> PoincareDecomposition:
    """P^J_w summed along K-cosets, for a chain J inside K and w in W^J.

    Terms run over x in [e, w] meet W^K with factors P^J of the relative
    shifts.  When the shift at x = v (the K-minimal part of w) agrees with
    the shift at x = e, the sum collapses and the verified product
    (P^K_v, P^J_u) is attached.
    """
    J, K = check_chain(w, J, K)
    xs, qs, _ = _shift_table(w, K)
    shifts = [_relative_step(w, x, q_K, J, K)[1] for x, q_K in zip(xs, qs)]
    terms = tuple(Term(x, IntPolynomial.t_power(x.length), m, _relative_poincare(m, J))
                  for x, m in zip(xs, shifts))
    total = _total(w, terms)
    v = _split(w, K)[0]
    u = shifts[xs.index(v)]  # w's K-factor, checked J-minimal by the relative step for x = v
    factorization = None
    if u == shifts[0]:  # the shift at x = e, first in ShortLex order
        pv = _relative_poincare(v, K)
        pu = _relative_poincare(u, J)
        if pv * pu != total:
            raise InternalAssertionFailed("relative BP product does not match P^J_w")
        factorization = (pv, pu)
    return PoincareDecomposition(w, J, terms, total, K, factorization)
