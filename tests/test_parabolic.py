"""Parabolic decompositions, minimal coset representatives, chains."""

from __future__ import annotations

import pytest

from coxbruhat import (
    BadSubsetChain,
    InternalAssertionFailed,
    NotMinimalRep,
    coset_rep,
    coxeter_system,
    decompose,
    is_min_rep,
    leq,
    lower_interval,
    min_reps_leq,
    relative_rep,
)
from conftest import all_gensets


def test_decompose_right_example(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    d = decompose(w, J, "right")
    assert str(d.v) == "s1 s2 s3"
    assert str(d.u) == "s2 s1"
    assert d.side == "right"


def test_decompose_properties_exhaustive(a3):
    for w in a3.elements(6):
        for J in all_gensets(a3):
            for side in ("right", "left"):
                d = decompose(w, J, side)
                assert d.v.length + d.u.length == w.length
                assert d.u.support <= J
                if side == "right":
                    assert a3.multiply(d.v, d.u) is w
                    assert not (d.v.right_descents & J)
                else:
                    assert a3.multiply(d.u, d.v) is w
                    assert not (d.v.left_descents & J)


def test_decompose_is_unique(a3):
    # no other length-additive splitting with the same shape exists
    elems = a3.elements(6)
    for w in elems:
        for J in all_gensets(a3):
            d = decompose(w, J, "right")
            found = [
                (v, u)
                for v in elems
                if not (v.right_descents & J)
                for u in elems
                if u.support <= J
                and v.length + u.length == w.length
                and a3.multiply(v, u) is w
            ]
            assert found == [(d.v, d.u)]


def test_coset_rep(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    assert str(coset_rep(w, J)) == "s1 s2 s3"
    for y in a3.elements(6):
        for J in all_gensets(a3):
            rep = coset_rep(y, J)
            assert is_min_rep(rep, J)
            assert coset_rep(rep, J) is rep
            # y and its rep generate the same coset
            assert a3.multiply(rep.inverse(), y).support <= J


def test_coset_rep_s5_example(a4):
    J = a4.parse_genset("s1,s2,s4")
    assert coset_rep(a4.element("s4 s3 s4 s1 s2 s1"), J) == a4.element("s4 s3")


def test_is_min_rep_sides(a3):
    w = a3.element("s2 s1")
    assert is_min_rep(w, frozenset((2,)))
    assert not is_min_rep(w, frozenset((0,)))
    assert not is_min_rep(w, frozenset((1,)), side="left")
    assert is_min_rep(w, frozenset((0,)), side="left")
    with pytest.raises(ValueError, match="side must be 'right' or 'left'"):
        is_min_rep(w, frozenset((0,)), side="up")


def test_min_reps_leq_matches_filter(a3, b3):
    for system, max_len in ((a3, 6), (b3, 4)):
        for w in system.elements(max_len):
            members = lower_interval(w).members
            for J in all_gensets(system):
                expected = {y for y in members if is_min_rep(y, J)}
                assert min_reps_leq(w, J) == expected


def test_min_reps_leq_running_example(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    reps = min_reps_leq(w, frozenset((0, 1)))
    assert {str(x) for x in reps} == {"e", "s3", "s2 s3", "s1 s2 s3"}


def test_relative_rep(a3):
    J = frozenset((0,))
    K = frozenset((0, 1))
    w = a3.element("s2 s3")
    v, u = relative_rep(w, J, K)
    assert a3.multiply(v, u) is w
    assert v.length + u.length == w.length
    assert not (v.right_descents & K)
    assert u.support <= K and is_min_rep(u, J)


def test_relative_rep_exhaustive(a3):
    gensets = all_gensets(a3)
    for J in gensets:
        for K in gensets:
            if not J <= K:
                continue
            for w in a3.elements(6):
                if not is_min_rep(w, J):
                    continue
                v, u = relative_rep(w, J, K)
                assert a3.multiply(v, u) is w
                assert v.length + u.length == w.length
                assert not (v.right_descents & K)
                assert u.support <= K
                assert is_min_rep(u, J)


def test_relative_rep_errors(a3):
    with pytest.raises(BadSubsetChain):
        relative_rep(a3.element("s3"), frozenset((0,)), frozenset((1, 2)))
    with pytest.raises(NotMinimalRep):
        relative_rep(a3.element("s1"), frozenset((0,)), frozenset((0, 1)))


def test_a_corrupted_split_fails_the_relative_rep_check():
    """The K-split of s1 s2 s1 s3 (= s2 s1 * s2 s3) planted as (s2 s1, s3 s2), whose
    factor ends in s2, a letter of J."""
    system = coxeter_system("A3")
    w, J, K = system.element("s1 s2 s1 s3"), frozenset({1}), frozenset({1, 2})
    system._split_cache[w, K, False] = (system.element("s2 s1"), system.element("s3 s2"))
    with pytest.raises(InternalAssertionFailed, match="relative factor left the J-minimal"):
        relative_rep(w, J, K)


def test_decompose_rejects_bad_side(a3):
    with pytest.raises(ValueError):
        decompose(a3.element("s1"), frozenset((0,)), "up")


def test_min_reps_are_prefix_closed_under_leq(a3):
    # W^J is a lower set inside each interval: x' <= x in W^J stays in W^J
    J = frozenset((0, 1))
    w = a3.element("s1 s2 s3 s2 s1")
    reps = min_reps_leq(w, J)
    for x in reps:
        for y in lower_interval(x).members:
            if is_min_rep(y, J):
                assert y in reps
