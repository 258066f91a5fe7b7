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

from dataclasses import dataclass
from typing import Iterable

from .bruhat import poincare
from .core import Element, GenSet
from .errors import InternalAssertionFailed
from .coset_max import max_in_parabolic, max_in_relative_coset, shifted_max_set
from .parabolic import check_chain, check_min_rep, decompose, min_reps_in_order
from .polynomial import IntPolynomial


@dataclass(frozen=True)
class Term:
    """One coset's contribution: shift * factor = t^length(x) * P_shifted_max."""

    x: Element
    shift: IntPolynomial
    shifted_max: Element
    factor: IntPolynomial


@dataclass(frozen=True)
class PoincareDecomposition:
    """P_w (or P^J_w in the relative case) split along parabolic cosets."""

    w: Element
    J: GenSet
    terms: tuple[Term, ...]
    total: IntPolynomial
    K: GenSet | None = None
    factorization: tuple[IntPolynomial, IntPolynomial] | None = None

    def grouped(self) -> tuple[tuple[IntPolynomial, Element, IntPolynomial], ...]:
        """Terms merged by equal shifted maximum: (shift sum, element, factor)."""
        order: list[Element] = []
        shifts: dict[Element, IntPolynomial] = {}
        factors: dict[Element, IntPolynomial] = {}
        for term in self.terms:
            if term.shifted_max not in shifts:
                order.append(term.shifted_max)
                shifts[term.shifted_max] = term.shift
                factors[term.shifted_max] = term.factor
            else:
                shifts[term.shifted_max] = shifts[term.shifted_max] + term.shift
        return tuple((shifts[m], m, factors[m]) for m in order)

    def factored_str(self) -> str:
        return " + ".join(f"({shift})({factor})" for shift, _, factor in self.grouped())


@dataclass(frozen=True)
class BPReport:
    """Billey-Postnikov test for (w, J): is the parabolic factor u maximal?"""

    w: Element
    J: GenSet
    v: Element
    u: Element
    parabolic_max: Element  # maximum of [e, w] meet W_J
    is_bp: bool
    factorization: tuple[IntPolynomial, IntPolynomial] | None  # (P^J_v, P_u) when BP


def _total(w: Element, terms: Iterable[Term]) -> IntPolynomial:
    """Sum of t^length(x) * factor over the terms, added into one coefficient list."""
    coeffs = [0] * (w.length + 1)  # every term is the graded size of a part of [e, w]
    for term in terms:
        for k, c in enumerate(term.factor.coeffs, term.x.length):
            coeffs[k] += c
    return IntPolynomial.from_coeffs(coeffs)


def relative_poincare(w: Element, J: Iterable[int]) -> IntPolynomial:
    """P^J_w: rank generating function of the J-minimal elements of [e, w]."""
    J = check_min_rep(w, J)
    counts = [0] * (w.length + 1)
    for y in min_reps_in_order(w, J):
        counts[y.length] += 1
    return IntPolynomial.from_coeffs(counts)


def decompose_poincare(w: Element, J: Iterable[int]) -> PoincareDecomposition:
    """P_w as the sum of t^length(x) * P_shift(x) over minimal reps x <= w."""
    J = w.system.check_genset(J)
    sms = shifted_max_set(w, J)
    terms = tuple(
        Term(x=x, shift=IntPolynomial.t_power(x.length), shifted_max=m, factor=poincare(m))
        for x, m in sms.pairs.items()
    )
    return PoincareDecomposition(w=w, J=J, terms=terms, total=_total(w, terms))


def bp_report(w: Element, J: Iterable[int]) -> BPReport:
    """Billey-Postnikov test, with the verified product when it holds."""
    J = w.system.check_genset(J)
    d = decompose(w, J, "right")
    parabolic_max = max_in_parabolic(w, J)
    is_bp = d.u == parabolic_max
    factorization = None
    if is_bp:
        pv = relative_poincare(d.v, J)
        pu = poincare(d.u)
        if pv * pu != poincare(w):
            raise InternalAssertionFailed("BP product does not match the Poincare polynomial")
        factorization = (pv, pu)
    return BPReport(
        w=w, J=J, v=d.v, u=d.u, parabolic_max=parabolic_max, is_bp=is_bp,
        factorization=factorization,
    )


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
    terms = []
    shifts: dict[Element, Element] = {}
    for x in min_reps_in_order(w, K):
        m = max_in_relative_coset(w, x, J, K).shift
        shifts[x] = m
        factor = relative_poincare(m, J)
        terms.append(Term(x=x, shift=IntPolynomial.t_power(x.length), shifted_max=m, factor=factor))
    total = _total(w, terms)
    d = decompose(w, K, "right")
    factorization = None
    if shifts[d.v] == shifts[w.system.identity]:
        pv = relative_poincare(d.v, K)
        pu = relative_poincare(d.u, J)
        if pv * pu != total:
            raise InternalAssertionFailed("relative BP product does not match P^J_w")
        factorization = (pv, pu)
    return PoincareDecomposition(
        w=w, J=J, K=K, terms=tuple(terms), total=total, factorization=factorization,
    )
