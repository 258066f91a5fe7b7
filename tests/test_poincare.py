"""Poincare decompositions along cosets, BP detection, relative forms."""

from __future__ import annotations

import pickle

import pytest

from coxbruhat import (
    IntPolynomial,
    InternalAssertionFailed,
    IntervalTooLarge,
    NotMinimalRep,
    bp_report,
    coset_shift,
    coxeter_system,
    decompose,
    decompose_poincare,
    is_min_rep,
    leq,
    lower_interval,
    min_reps_leq,
    poincare_polynomial,
    relative_decompose_poincare,
    relative_poincare,
    shifted_max_set,
)
from conftest import all_gensets


def test_relative_poincare_examples(a3):
    w = a3.element("s1 s2 s3")
    assert str(relative_poincare(w, frozenset((0, 1)))) == "1+t+t^2+t^3"
    assert str(relative_poincare(w, frozenset((0,)))) == "1+2t+2t^2+t^3"
    # empty J gives the plain Poincare polynomial
    for y in a3.elements(4):
        assert relative_poincare(y, frozenset()) == poincare_polynomial(y)
    assert str(relative_poincare(a3.identity, frozenset((0, 1)))) == "1"
    with pytest.raises(NotMinimalRep):
        relative_poincare(a3.element("s1"), frozenset((0,)))


def test_decompose_poincare_running_example(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    dec = decompose_poincare(w, frozenset((0, 1)))
    assert [str(t.x) for t in dec.terms] == ["e", "s3", "s2 s3", "s1 s2 s3"]
    assert [str(t.shift) for t in dec.terms] == ["1", "t", "t^2", "t^3"]
    assert [str(t.factor) for t in dec.terms] == [
        "1+2t+2t^2+t^3", "1+2t+2t^2+t^3", "1+2t+t^2", "1+2t+t^2"]
    assert dec.factored_str() == "(1+t)(1+2t+2t^2+t^3) + (t^2+t^3)(1+2t+t^2)"
    assert str(dec.total) == "1+3t+5t^2+6t^3+4t^4+t^5"
    assert dec.total(1) == 20
    assert dec.total == poincare_polynomial(w)


def test_decompose_poincare_terms(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    dec = decompose_poincare(w, J)
    for term in dec.terms:
        assert term.shift == IntPolynomial.t_power(term.x.length)
        assert term.shifted_max is coset_shift(w, term.x, J)
        assert term.factor == poincare_polynomial(term.shifted_max)


def test_decompose_poincare_empty_j(a3):
    w = a3.element("s2 s1 s3")
    dec = decompose_poincare(w, frozenset())
    assert len(dec.terms) == len(lower_interval(w))
    assert all(t.factor == IntPolynomial.one() for t in dec.terms)
    assert dec.total == poincare_polynomial(w)
    assert dec.factored_str() == f"({poincare_polynomial(w)})(1)"


def test_decomposition_identity_exhaustive(a3, b3):
    for system, cap in ((a3, 6), (b3, 5)):
        for w in system.elements(cap):
            for J in all_gensets(system):
                dec = decompose_poincare(w, J)
                assert dec.total == poincare_polynomial(w)
                assert len(dec.terms) == len(min_reps_leq(w, J))


def test_grouped_merges_equal_maxima(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    dec = decompose_poincare(w, frozenset((0, 1)))
    groups = dec.grouped()
    assert len(groups) == 2
    (shift1, m1, _), (shift2, m2, _) = groups
    assert str(m1) == "s1 s2 s1" and str(shift1) == "1+t"
    assert str(m2) == "s2 s1" and str(shift2) == "t^2+t^3"


def test_bp_report_examples(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    rep = bp_report(w, frozenset((0, 1)))
    assert not rep.is_bp
    assert str(rep.u) == "s2 s1"
    assert str(rep.parabolic_max) == "s1 s2 s1"
    assert rep.factorization is None

    rep0 = bp_report(w, frozenset())
    assert rep0.is_bp
    assert rep0.factorization == (poincare_polynomial(w), IntPolynomial.one())

    rep1 = bp_report(a3.element("s3 s2 s1"), frozenset((0, 1)))
    assert rep1.is_bp
    assert rep1.u is rep1.parabolic_max
    pv, pu = rep1.factorization
    assert pv * pu == poincare_polynomial(a3.element("s3 s2 s1"))


def test_bp_iff_poincare_factorization(a3, b3):
    # BP holds exactly when the Poincare polynomial splits along the
    # parabolic decomposition
    for system, cap in ((a3, 6), (b3, 5)):
        for w in system.elements(cap):
            for J in all_gensets(system):
                rep = bp_report(w, J)
                d = decompose(w, J, "right")
                product = relative_poincare(d.v, J) * poincare_polynomial(d.u)
                assert rep.is_bp == (product == poincare_polynomial(w))
                assert rep.is_bp == (rep.factorization is not None)
                if rep.is_bp:
                    pv, pu = rep.factorization
                    assert pv * pu == poincare_polynomial(w)


def test_bp_implies_constant_shifts(a3):
    for w in a3.elements(6):
        for J in all_gensets(a3):
            rep = bp_report(w, J)
            if rep.is_bp:
                for x in min_reps_leq(w, J):
                    assert coset_shift(w, x, J) is rep.u


def test_a_corrupted_split_fails_the_bp_product_check():
    """The split of s3 s2 s1 for J = {s1, s2} planted as (e, s2 s1): u is still the
    parabolic maximum, so the test says BP, but P^J_e P_u misses P_w."""
    system = coxeter_system("A3")
    w, J = system.element("s3 s2 s1"), frozenset({0, 1})
    system._split_cache[w, J, False] = (system.identity, system.element("s2 s1"))
    with pytest.raises(InternalAssertionFailed, match="BP product does not match the Poincare"):
        bp_report(w, J)


def _planted_relative_table():
    """A3, w = s1 s2 s1 s3 = v u with v = s2 s1 in W^K and u = s2 s3, J = {s2} inside
    K = {s2, s3}.  The K-shift table of w is planted as the cosets of e and v only,
    each with its representative as maximum.  So both shifts are e, the factorisation
    branch runs, P^J_w reads 1 + t^2, and no relative step reads the K-split of w."""
    system = coxeter_system("A3")
    w, J, K = system.element("s1 s2 s1 s3"), frozenset({1}), frozenset({1, 2})
    e, v = system.identity, system.element("s2 s1")
    system._shift_tables[w, K] = ((e, v), (e, v), (e, e))
    return system, w, J, K, v


def test_a_corrupted_shift_table_fails_the_relative_product_check():
    system, w, J, K, _ = _planted_relative_table()
    with pytest.raises(InternalAssertionFailed, match="relative BP product does not match"):
        relative_decompose_poincare(w, J, K)


def test_a_corrupted_relative_split_fails_as_an_internal_error():
    """The K-split of w planted as (v, s3 s2) as well as the table: u is read off the
    table's shift at x = v, not off the split, so the planted factor changes nothing
    and the table fails the product check as without it."""
    system, w, J, K, v = _planted_relative_table()
    system._split_cache[w, K, False] = (v, system.element("s3 s2"))
    with pytest.raises(InternalAssertionFailed, match="relative BP product does not match"):
        relative_decompose_poincare(w, J, K)


def test_relative_decompose_derived_example(a3):
    w = a3.element("s1 s2 s3")
    J = frozenset((0,))
    K = frozenset((0, 1))
    dec = relative_decompose_poincare(w, J, K)
    assert dec.K == K
    assert {str(t.x): str(t.shifted_max) for t in dec.terms} == {
        "e": "s1 s2", "s3": "e", "s2 s3": "e", "s1 s2 s3": "e"}
    assert dec.total == relative_poincare(w, J)
    assert dec.factored_str() == "(1)(1+t+t^2) + (t+t^2+t^3)(1)"
    # shifts disagree between x = v and x = e, so no product factorization
    assert dec.factorization is None


def test_relative_identity_suite(a3):
    gensets = all_gensets(a3)
    for J in gensets:
        for K in gensets:
            if not J <= K:
                continue
            for w in a3.elements(6):
                if not is_min_rep(w, J):
                    continue
                dec = relative_decompose_poincare(w, J, K)
                assert dec.total == relative_poincare(w, J)
                shifts = {t.x: t.shifted_max for t in dec.terms}
                d = decompose(w, K, "right")
                if shifts[d.v] is shifts[a3.identity]:
                    assert dec.factorization is not None
                    pv, pu = dec.factorization
                    assert pv == relative_poincare(d.v, K)
                    assert pu == relative_poincare(d.u, J)
                    assert pv * pu == dec.total
                else:
                    assert dec.factorization is None


def test_relative_with_empty_j_matches_plain(a3):
    K = frozenset((1, 2))
    for w in a3.elements(6):
        rel = relative_decompose_poincare(w, frozenset(), K)
        plain = decompose_poincare(w, K)
        assert rel.total == plain.total
        assert [(t.x, t.shift, t.shifted_max, t.factor) for t in rel.terms] == [
            (t.x, t.shift, t.shifted_max, t.factor) for t in plain.terms]


def test_relative_with_k_equal_j(a3):
    J = frozenset((0, 1))
    for w in a3.elements(6):
        if not is_min_rep(w, J):
            continue
        dec = relative_decompose_poincare(w, J, J)
        assert dec.total == relative_poincare(w, J)
        assert all(t.shifted_max.is_identity for t in dec.terms)
        assert all(t.factor == IntPolynomial.one() for t in dec.terms)
        assert dec.factorization is not None


def test_reverse_order_embedding(a3):
    # x -> m is order-reversing on the minimal representatives below w
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    reps = sorted(min_reps_leq(w, J))
    for x1 in reps:
        for x2 in reps:
            if leq(x1, x2):
                assert leq(coset_shift(w, x2, J), coset_shift(w, x1, J))


@pytest.mark.parametrize("kind, word", [("A3", "s1 s2 s3 s2"), ("A~2", "s1 s2 s3 s1 s2")])
def test_sweeps_raise_past_the_interval_cap(kind, word):
    """Every whole-table call refuses a w longer than interval_cap, and answers at the cap."""
    system = coxeter_system(kind, interval_cap=len(word.split()) - 1)
    w = system.element(word)
    at_cap = system.element(" ".join(word.split()[1:]))
    assert w.length == system.interval_cap + 1 == at_cap.length + 1
    message = f"length {w.length} exceeds interval cap {system.interval_cap}"
    for call in (lambda y: shifted_max_set(y, [0]),
                 lambda y: decompose_poincare(y, [0]),
                 lambda y: relative_decompose_poincare(y, [], [0])):
        with pytest.raises(IntervalTooLarge, match=message):
            call(w)
        call(at_cap)


def test_slotted_terms_pickle():
    S = coxeter_system("A3")
    terms = decompose_poincare(S.element("s1 s2 s3 s2 s1"), [0, 1]).terms
    assert not hasattr(terms[0], "__dict__")
    back = pickle.loads(pickle.dumps(terms, pickle.HIGHEST_PROTOCOL))
    assert [(t.x.word, t.shift, t.shifted_max.word, t.factor) for t in back] == [
        (t.x.word, t.shift, t.shifted_max.word, t.factor) for t in terms]
