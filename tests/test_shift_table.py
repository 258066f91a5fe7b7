"""Shift tables built along w's word, against the recursion and the brute oracle.

``coset_max._shift_table(w, J)`` extends the table x -> q of the maxima of
[e, w] meet x W_J one letter of w's canonical word at a time, with no coset
recursion.  These tests compare it, entry by entry and in order, with the
recursion ``_max_in_coset`` on whole finite groups and on long affine words,
with ``oracle.brute_coset_max`` on short affine words, and check that its
tie check and its per-entry checks fire on a corrupted table.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import (
    InternalAssertionFailed,
    coset_rep,
    coxeter_system,
    is_min_rep,
    max_in_relative_coset,
    relative_decompose_poincare,
)
from coxbruhat.coset_max import _max_in_coset, _shift_table
from coxbruhat.oracle import brute_coset_max, brute_interval
from coxbruhat.parabolic import min_reps_in_order
from conftest import all_gensets


def _assert_table_is_the_recursion(w, J):
    maxima, shifts = _shift_table(w, J)
    assert list(shifts) == min_reps_in_order(w, J), (str(w), sorted(J))
    assert maxima.keys() == shifts.keys()
    for x, shift in shifts.items():
        res = _max_in_coset(w, x, J)
        assert (maxima[x], shift) == (res.maximum, res.shift), (str(w), str(x), sorted(J))


@pytest.mark.parametrize("kind", ["A4", "B3", "H3", "D4", "I2:7"])
def test_table_is_the_recursion_on_every_triple(kind):
    system = coxeter_system(kind)
    for w in system.elements():
        for J in all_gensets(system):
            _assert_table_is_the_recursion(w, J)


def test_table_is_the_brute_maximum_on_short_affine_words(aff2):
    for w in aff2.elements(8):
        interval = brute_interval(w)
        for J in all_gensets(aff2):
            maxima = _shift_table(w, J)[0]
            assert maxima.keys() == {coset_rep(y, J) for y in interval}
            for x, q in maxima.items():
                assert brute_coset_max(w, x, J) is q, (str(w), str(x), sorted(J))


@pytest.mark.parametrize("kind, lengths, seed", [("A~3", (18, 20), 3), ("A~4", (18, 19), 4)])
def test_table_is_the_recursion_on_long_affine_words(kind, lengths, seed):
    system = coxeter_system(kind, interval_cap=max(lengths))
    rng = random.Random(seed)
    gensets = all_gensets(system)
    for length in lengths:
        w = system.identity
        while w.length < length:
            s = rng.randrange(system.rank)
            if s not in w.right_descents:
                w = w * system.generator(s)
        for J in rng.sample(gensets, 4):
            _assert_table_is_the_recursion(w, J)


def test_relative_decomposition_is_the_recursion_on_every_chain(a4):
    gensets = all_gensets(a4)
    for w in a4.elements():
        for K in gensets:
            for J in (J for J in gensets if J <= K and is_min_rep(w, J)):
                dec = relative_decompose_poincare(w, J, K)
                assert [t.x for t in dec.terms] == min_reps_in_order(w, K)
                for t in dec.terms:
                    assert t.shifted_max is max_in_relative_coset(w, t.x, J, K).shift


def test_equal_length_candidates_that_differ_raise():
    """The suffix table of s2 s1, corrupted to q(s1) = s2: extending by s1 from
    q(e) = e gives the candidate s1 for the coset of s1, of the same length."""
    system = coxeter_system("A2")
    J = frozenset()
    w = system.element("s1 s2 s1")
    suffix = system.normalize(w.word[1:])
    assert str(suffix) == "s2 s1"
    _shift_table(suffix, J)[0][system.generator(0)] = system.generator(1)
    with pytest.raises(InternalAssertionFailed, match="equal length"):
        _shift_table(w, J)


def test_entries_are_checked_before_they_are_returned():
    """A table entry outside its coset fails the check that _split(q, J) gives back x."""
    system = coxeter_system("A3")
    w, J = system.element("s1 s2 s3 s2 s1"), frozenset({0, 1})
    maxima = dict(_shift_table(w, J)[0])
    maxima[system.identity] = system.element("s2 s3")  # below w, in the coset of s2 s3
    system._shift_tables[w, J] = (maxima, None)
    with pytest.raises(InternalAssertionFailed, match="not in"):
        _shift_table(w, J)
