"""Right products read their word off a known neighbour with one peel.

``CoxeterSystem._step`` gives x = w*s the word (t,) + w.word, (t,) +
(tail(w)*s).word or tail(w).word, t = min D_L(x), and checks one peel of x's
root sums against that neighbour's.  Only a right product whose neighbour
tail(w)*s is not interned, and every left product, peels its whole word off
its left root sums (``_canonical``).  Each new element carries root sums
derived from its neighbour's.  These tests check the words and the carried
sums against ``_canonical`` and against the column sums of the matrices of the
element and its inverse, rebuilt along its word, count the fallbacks, and
corrupt a neighbour's sums to see the check fire.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import InternalAssertionFailed, coxeter_system
from coxbruhat.bruhat import lower_interval
from test_construction import _generator_matrices, _product, _rebuilt

TOL = 1e-9


def _column_sums(mat):
    return [sum(col) for col in zip(*mat)]


def _matrices_of(gens, word, memo):
    """The matrices of a word and its inverse, multiplied out one generator at a
    time off its prefix."""
    if word not in memo:
        mat, imat = _matrices_of(gens, word[:-1], memo)
        memo[word] = _product(mat, gens[word[-1]]), _product(gens[word[-1]], imat)
    return memo[word]


def _bad_elements(system, elements):
    """Elements whose word is not the peel of their rebuilt inverse matrix, or whose
    carried root sums stray from the column sums of it and of the rebuilt matrix."""
    bad, gens = [], _generator_matrices(system)
    memo = {(): _rebuilt(system, gens, ())}
    for el in elements:
        mat, imat = _matrices_of(gens, el.word, memo)
        lsum, rsum = _column_sums(imat), _column_sums(mat)
        carried = el._lsum, el._rsum or system._right_sums(el)
        drift = max(abs(a - b) for sums, ref in zip(carried, (lsum, rsum)) for a, b in zip(sums, ref))
        if system._canonical(lsum, el.length) != el.word or drift > TOL:
            bad.append(el.word)
    return bad


@pytest.mark.parametrize("kind", ["H3", "B4", "D5", "F4", "H4", "I2:7"])
def test_every_element_of_a_finite_group(kind):
    system = coxeter_system(kind)
    bad = _bad_elements(system, system.elements())
    assert not bad, f"{len(bad)} elements differ, first {bad[:3]}"


def _count_peels(system):
    """Wrap the system's _canonical; the returned list gets one entry a call."""
    canonical, calls = system._canonical, []

    def counted(lsum, n):
        calls.append(n)
        return canonical(lsum, n)

    system._canonical = counted
    return calls


def _reduced_word(kind, length, rng):
    """A random reduced word of the given length, built on a system of its own."""
    system = coxeter_system(kind)
    w = system.identity
    while w.length < length:
        w = system._step(w, rng.choice([t for t in range(system.rank) if t not in w.right_descents]))
    return w.word


@pytest.mark.parametrize("kind", ["A~2", "A~3", "A~4"])
def test_affine_intervals_rarely_fall_back_to_the_full_peel(kind):
    rng = random.Random(kind)
    new = calls = 0
    for length in (16, 20, 24):  # 24 is the default interval_cap
        system = coxeter_system(kind)
        w = system.normalize(_reduced_word(kind, length, rng))
        peeled = _count_peels(system)
        known = len(system._elements)
        itv = lower_interval(w)
        new += len(system._elements) - known
        calls += len(peeled)
        del system._canonical
        bad = _bad_elements(system, itv)
        assert not bad, f"{kind} length {length}: {len(bad)} members differ, first {bad[:3]}"
    assert new > 1000
    assert calls <= new / 100


def _corrupted(el, index, by=0.01):
    """Shift one of el's carried left root sums."""
    lsum = el._lsum
    el._lsum = lsum[:index] + (lsum[index] + by,) + lsum[index + 1:]


# (w, s, word of w*s, the neighbour whose sums get corrupted, the index):
# in B3, s3*s1 = s1*s3 takes (t,) + w.word with t = s1 < s3; (s1 s3)*s1 = s3
# is tail(w); (s2 s1)*s3 = s2*(s1 s3) takes (t,) + (tail(w)*s).word.  The
# first two neighbours are w itself, whose sums x's are derived from, so the
# corrupted entry is one the peel moves: t, and w's first letter.
BRANCHES = {
    "t*w": ("s3", 0, (0, 2), "w", 0),
    "tail(w)": ("s1 s3", 0, (2,), "w", 0),
    "t*(tail(w)*s)": ("s2 s1", 2, (1, 0, 2), "s1 s3", 1),
}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_each_branch_takes_the_canonical_word(branch):
    text, s, word, near, _ = BRANCHES[branch]
    system = coxeter_system("B3")
    w = system.element(text)
    if near != "w":
        system.element(near)
    calls = _count_peels(system)
    x = system._step(w, s)
    assert (x.word, calls) == (word, [])
    del system._canonical
    imat = _rebuilt(system, _generator_matrices(system), word)[1]
    assert system._canonical(_column_sums(imat), x.length) == word


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_a_corrupted_neighbour_fails_the_one_peel_check(branch):
    text, s, _, near, index = BRANCHES[branch]
    system = coxeter_system("B3")
    w = system.element(text)
    _corrupted(w if near == "w" else system.element(near), index)
    with pytest.raises(InternalAssertionFailed, match="one-peel word"):
        system._step(w, s)


def test_an_unknown_neighbour_falls_back_to_the_full_peel():
    system = coxeter_system("B3")
    w = system.element("s2 s1")
    assert (0, 2) not in system._elements  # tail(w)*s = s1*s3 is not interned
    calls = _count_peels(system)
    assert system._step(w, 2).word == (1, 0, 2)
    assert calls == [3]
