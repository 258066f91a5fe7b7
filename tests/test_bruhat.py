"""Bruhat order, lower intervals, covers, Poincare polynomials."""

from __future__ import annotations

import pytest

from coxbruhat import (
    IntervalTooLarge,
    covers,
    coxeter_system,
    leq,
    lower_interval,
    poincare_polynomial,
)
from coxbruhat.oracle import brute_interval


def test_leq_basics(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    assert leq(a3.identity, w)
    assert leq(w, w)
    assert leq(a3.element("s1 s3"), w)
    assert not leq(w, a3.element("s1 s3"))
    assert not leq(a3.element("s1 s2"), a3.element("s2 s1"))


def test_leq_walks_a_long_descent_chain():
    # Powers of a Coxeter element of an infinite group are reduced, so w has
    # length 1500, and leq takes 1499 descent steps: more than the default
    # recursion limit.  Only the top-level pair keeps the answer; the fast
    # exit for the longer u stores nothing.
    system = coxeter_system("A~2", length_cap=4000)
    w = system.normalize((0, 1, 2) * 500)
    ws = system.normalize(w.word[:-1])
    assert (w.length, ws.length) == (1500, 1499)
    assert leq(ws, w) and not leq(w, ws)
    assert system._leq_cache == {(ws, w): True}


def test_leq_is_a_partial_order(a3):
    elems = a3.elements(6)
    for u in elems:
        assert leq(u, u)
        for w in elems:
            if leq(u, w) and leq(w, u):
                assert u is w
            if leq(u, w):
                assert u.length <= w.length


def test_leq_matches_interval_membership(a3):
    # the recursion and the subword closure must agree on every pair
    elems = a3.elements(6)
    for w in elems:
        members = lower_interval(w).members
        for u in elems:
            assert leq(u, w) == (u in members)


def test_interval_of_running_example(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    itv = lower_interval(w)
    assert len(itv) == 20
    assert itv.rank_sizes == (1, 3, 5, 6, 4, 1)
    assert itv.top is w
    assert a3.element("s2 s3 s2 s1") in itv
    assert a3.element("s1 s2 s1") in itv
    # 3412 is the unique length-4 permutation not below 4231
    from coxbruhat import element_from_permutation
    assert element_from_permutation(a3, [3, 4, 1, 2]) not in itv
    assert [y.length for y in list(itv)] == sorted(y.length for y in itv)


def test_interval_against_oracle(a3, b3, i2inf):
    for w in a3.elements(6):
        assert lower_interval(w).members == brute_interval(w)
    for w in b3.elements(5):
        assert lower_interval(w).members == brute_interval(w)
    for w in i2inf.elements(6):
        assert lower_interval(w).members == brute_interval(w)


def test_interval_ranks(a3):
    itv = lower_interval(a3.element("s1 s2 s1"))
    assert {str(y) for y in itv.ranks[1]} == {"s1", "s2"}


def test_covers(a3):
    w = a3.element("s1 s2 s1")
    assert {str(y) for y in covers(w)} == {"s1 s2", "s2 s1"}
    assert covers(a3.identity) == frozenset()
    for y in covers(a3.element("s1 s2 s3 s2 s1")):
        assert y.length == 4 and leq(y, a3.element("s1 s2 s3 s2 s1"))


def test_poincare(a3):
    assert str(poincare_polynomial(a3.element("s1 s2 s1"))) == "1+2t+2t^2+t^3"
    p = poincare_polynomial(a3.element("s1 s2 s3 s2 s1"))
    assert str(p) == "1+3t+5t^2+6t^3+4t^4+t^5"
    assert p(1) == 20
    assert str(poincare_polynomial(a3.identity)) == "1"


def test_poincare_counts_interval(b3):
    for w in b3.elements(4):
        itv = lower_interval(w)
        p = poincare_polynomial(w)
        assert p(1) == len(itv)
        assert p.coeffs == itv.rank_sizes


def test_interval_cap():
    system = coxeter_system("I2:inf", interval_cap=3)
    w = system.element("s1 s2 s1 s2")
    with pytest.raises(IntervalTooLarge):
        lower_interval(w)
    assert len(lower_interval(system.element("s1 s2 s1"))) == 6


def test_interval_caching(a3):
    w = a3.element("s1 s2 s3")
    assert lower_interval(w) is lower_interval(w)


@pytest.mark.parametrize("kind, max_len", [("B3", None), ("H3", None), ("I2:7", None), ("A~2", 6)])
def test_leq_matches_brute_interval(kind, max_len):
    # brute_interval closes under letter deletions; it shares no code with leq
    system = coxeter_system(kind)
    elems = system.elements(max_len)
    for w in elems:
        below = brute_interval(w)
        for u in elems:
            assert leq(u, w) == (u in below), (str(u), str(w))
