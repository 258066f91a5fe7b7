"""Shift tables built along w's word, against the recursion and the brute oracle.

``coset_max._shift_table(w, J)`` extends the table of the maxima q of
[e, w] meet x W_J one letter of w's canonical word at a time, with no coset
recursion, and memoises the table of every suffix it meets, as three aligned
tuples (xs, qs, shifts).  These tests compare every memoised table, entry by
entry and in order, with the recursion ``_max_in_coset`` on whole finite
groups and on long affine words, and with ``oracle.brute_coset_max`` on short
affine words.  They check that each entry is checked once, in the table that
makes it, and that the tie check and the entry checks fire on a corrupted
suffix table, planted in place of the memoised one.
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
from coxbruhat import coset_max
from coxbruhat.coset_max import _max_in_coset, _shift_table
from coxbruhat.oracle import brute_coset_max, brute_interval
from coxbruhat.parabolic import min_reps_in_order
from conftest import all_gensets


def _assert_memo_is_the_recursion(system):
    """Every memoised table, suffix tables included, is complete: it is three
    aligned tuples, its representatives are in ShortLex order, and its maxima and
    shifts agree with the recursion entry by entry.  A table whose letter made no
    new coset holds its suffix table's representatives tuple itself."""
    for (w, J), entry in list(system._shift_tables.items()):
        assert type(entry) is tuple and [type(t) for t in entry] == [tuple] * 3
        xs, qs, shifts = entry
        assert len(xs) == len(qs) == len(shifts)
        assert list(xs) == min_reps_in_order(w, J), (str(w), sorted(J))
        if w.length:
            tail_xs = system._shift_tables[system.normalize(w.word[1:]), J][0]
            assert (xs is tail_xs) == (len(xs) == len(tail_xs))
        for x, q, shift in zip(xs, qs, shifts):
            res = _max_in_coset(w, x, J)
            assert (q, shift) == (res.maximum, res.shift), (str(w), str(x), sorted(J))


@pytest.mark.parametrize("kind", ["A4", "B3", "H3", "D4", "I2:7"])
def test_table_is_the_recursion_on_every_triple(kind):
    system = coxeter_system(kind)
    elements, gensets = system.elements(), all_gensets(system)
    for w in elements:
        for J in gensets:
            _shift_table(w, J)
    assert len(system._shift_tables) == len(elements) * len(gensets)
    _assert_memo_is_the_recursion(system)


def test_table_is_the_brute_maximum_on_short_affine_words(aff2):
    for w in aff2.elements(8):
        interval = brute_interval(w)
        for J in all_gensets(aff2):
            xs, qs, _ = _shift_table(w, J)
            assert set(xs) == {coset_rep(y, J) for y in interval}
            for x, q in zip(xs, qs):
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
            _shift_table(w, J)
    _assert_memo_is_the_recursion(system)


def test_relative_decomposition_is_the_recursion_on_every_chain(a4):
    gensets = all_gensets(a4)
    for w in a4.elements():
        for K in gensets:
            for J in (J for J in gensets if J <= K and is_min_rep(w, J)):
                dec = relative_decompose_poincare(w, J, K)
                assert [t.x for t in dec.terms] == min_reps_in_order(w, K)
                for t in dec.terms:
                    assert t.shifted_max is max_in_relative_coset(w, t.x, J, K).shift


def _plant(system, w, J, x, q):
    """Replace the memoised table of (w, J) by one whose maximum for x is q."""
    xs, qs, shifts = _shift_table(w, J)
    i = xs.index(x)
    system._shift_tables[w, J] = xs, qs[:i] + (q,) + qs[i + 1:], shifts


def test_equal_length_candidates_that_differ_raise():
    """The suffix table of s2 s1, corrupted to q(s1) = s2: extending by s1 from
    q(e) = e gives the candidate s1 for the coset of s1, of the same length."""
    system = coxeter_system("A2")
    J = frozenset()
    w = system.element("s1 s2 s1")
    suffix = system.normalize(w.word[1:])
    assert str(suffix) == "s2 s1"
    _plant(system, suffix, J, system.generator(0), system.generator(1))
    with pytest.raises(InternalAssertionFailed, match="equal length"):
        _shift_table(w, J)


def test_entries_are_checked_before_they_are_returned():
    """The suffix table of s2 s3 s2 s1, corrupted to q(e) = s2 s3: extending by s1
    makes the longer candidate s1 s2 s3 for the coset W_J, which lies outside it."""
    system = coxeter_system("A3")
    w, J = system.element("s1 s2 s3 s2 s1"), frozenset({0, 1})
    suffix = system.normalize(w.word[1:])
    assert str(suffix) == "s2 s3 s2 s1"
    _plant(system, suffix, J, system.identity, system.element("s2 s3"))
    with pytest.raises(InternalAssertionFailed, match="not in"):
        _shift_table(w, J)


def _made(system, w, J):
    """The (w, x) of the entries the table of w makes: those that differ from
    the suffix table's, or the identity's entry when w is e."""
    xs, qs, _ = system._shift_tables[w, J]
    if not w.length:
        return {(w, w)}
    below = dict(zip(*system._shift_tables[system.normalize(w.word[1:]), J][:2]))
    return {(w, x) for x, q in zip(xs, qs) if below.get(x) is not q}


@pytest.mark.parametrize("kind, word, J", [
    ("H3", "s1 s2 s1 s3 s2 s1 s3 s2 s3", {0}),
    ("H3", "s1 s2 s1 s3 s2 s1 s3 s2 s3", {1, 2}),
    ("A~3", "s1 s2 s3 s4 s1 s2 s3 s4 s1 s2 s3", {0, 2}),
    ("D4", "s1 s2 s3 s4 s2 s1 s2", set()),
])
def test_each_entry_is_checked_once_where_it_is_made(monkeypatch, kind, word, J):
    """_checked_shift runs once for each entry a table makes, and never for an
    entry a longer table carries or for a memoised table."""
    system, J = coxeter_system(kind), frozenset(J)
    checked = coset_max._checked_shift
    calls = []
    monkeypatch.setattr(coset_max, "_checked_shift",
                        lambda w, x, q, J: calls.append((w, x)) or checked(w, x, q, J))
    w = system.element(word)
    suffix = system.normalize(w.word[1:])  # w's table extends this one by w.word[0]
    _shift_table(suffix, J)
    made = set().union(*(_made(system, y, K) for y, K in system._shift_tables))
    assert len(calls) == len(made) and set(calls) == made
    calls.clear()
    _shift_table(w, J)  # carried entries keep their checked shifts
    assert len(calls) == len(_made(system, w, J)) and set(calls) == _made(system, w, J)
    calls.clear()
    _shift_table(suffix, J), _shift_table(w, J)
    assert calls == []
