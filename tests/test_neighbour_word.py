"""Right products read their word off a known neighbour, and a root only when new.

``CoxeterSystem._step`` gives x = w*s the word (t,) + w.word, (t,) +
(tail(w)*s).word or tail(w).word, t = min D_L(x), when y = tail(w)*s is
interned: x = a*y for a = w.word[0], so x's left root sums are y's moved by one
row; they give t and are checked against the sums of x when x is already
interned, which then reads no root, or against the sums reflected by the root
w(alpha_s) when x is new.  A right product whose neighbour tail(w)*s is not
interned, and every left product, peels its whole word off its left root sums
(``_canonical``), which must reach the identity.  These tests check the words
and the stored sums against ``_canonical`` and against the column sums of the
matrices of the element and its inverse, rebuilt along its word, count the
full peels and the root reads, and corrupt a neighbour's, a known product's or
w's own sums to see the checks fire.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import InternalAssertionFailed, coxeter_system
from coxbruhat.bruhat import lower_interval
from coxbruhat.dot import hasse_graph
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
    interned = dict(system._elements)
    with pytest.raises(InternalAssertionFailed, match="one-peel word"):
        system._step(w, s)
    assert system._elements == interned and w._mul[s] is None  # the check runs before _intern


# (w, s, word of w*s, peel lengths) with tail(w)*s not interned: (s2 s1)*s3 =
# s2*(s1 s3), s1*(s2 s1) = s1 s2 s1 is (t,) + w.word, (s1 s2 s1)*s2 = s2 s1 is tail(w).
@pytest.mark.parametrize("text, s, word, peels", [
    ("s2 s1", 2, (1, 0, 2), [3]),
    ("s2 s1", 1, (0, 1, 0), [3]),
    ("s1 s2 s1", 1, (1, 0), [2]),
], ids=["t*(tail(w)*s)", "t*w", "tail(w)"])
def test_an_unknown_neighbour_falls_back_to_the_full_peel(text, s, word, peels):
    system = coxeter_system("B3")
    w = system.element(text)
    tail = system._elements.get(w.word[1:])
    assert tail is None or tail._mul[s] is None
    calls = _count_peels(system)
    assert system._step(w, s).word == word
    assert calls == peels


def _count_roots(system):
    """Wrap the system's _root; the returned list gets one entry a call."""
    root, calls = system._root, []

    def counted(s, letters):
        calls.append(s)
        return root(s, letters)

    system._root = counted
    return calls


@pytest.mark.parametrize("kind, length", [("A5", 12), ("B4", 14), ("D5", 12)])
def test_intervals_and_hasse_graphs_read_a_root_only_for_new_elements(kind, length):
    rng = random.Random(kind)
    for _ in range(3):
        system = coxeter_system(kind)
        w = system.normalize(_reduced_word(kind, length, rng))
        roots, known = _count_roots(system), len(system._elements)
        lower_interval(w)
        assert len(roots) <= len(system._elements) - known
        hasse_graph(w, rng.sample(range(system.rank), system.rank // 2))
        assert len(roots) <= len(system._elements)


def test_enumerating_h4_reads_a_root_only_for_new_elements():
    system = coxeter_system("H4")
    roots, known = _count_roots(system), len(system._elements)
    assert len(system.elements()) == 14400
    assert len(roots) <= len(system._elements) - known


def _with_known_product(branch):
    """B3 with w, y = tail(w)*s and x = w*s interned, w's slot for s empty: x is
    normalised first, since a walk to w*s would fill that slot."""
    text, s, word, _, _ = BRANCHES[branch]
    system = coxeter_system("B3")
    x = system.normalize(word)
    w = system.element(text)
    y = system.element(NEIGHBOURS[branch])
    assert w._mul[s] is None  # y is w itself or is found in tail(w)'s slot
    assert y is w or system._elements[w.word[1:]]._mul[s] is y
    return system, w, s, x, y


# tail(w)*s per branch: e*s1, s3*s1 = s1*s3 (w itself) and s1*s3.
NEIGHBOURS = {"t*w": "s1", "tail(w)": "s1 s3", "t*(tail(w)*s)": "s1 s3"}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_a_known_product_reads_no_root(branch):
    system, w, s, x, _ = _with_known_product(branch)
    roots = _count_roots(system)
    assert system._step(w, s) is x
    assert roots == []


@pytest.mark.parametrize("corrupt", ["tail(w)*s", "w*s"])
@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_a_known_product_checks_the_moved_sums(branch, corrupt):
    system, w, s, x, y = _with_known_product(branch)
    _corrupted(y if corrupt == "tail(w)*s" else x, 1)
    with pytest.raises(InternalAssertionFailed, match="one-peel word"):
        system._step(w, s)


def test_moved_sums_with_no_left_descent_fail_the_check():
    system, w, s, _, y = _with_known_product("t*(tail(w)*s)")
    y._lsum = (10.0, -1.0, 10.0)  # moved by S_a, a = s2: every sum positive
    with pytest.raises(InternalAssertionFailed, match="one-peel word"):
        system._step(w, s)


# (w, s) with tail(w)*s not interned, as above: w's corrupted first sum is
# reflected into the product's, so the full peel does not reach the identity.
@pytest.mark.parametrize("text, s", [("s2 s1", 1), ("s1 s2 s1", 1)])
def test_an_unknown_neighbour_fails_the_full_peel_check(text, s):
    system = coxeter_system("B3")
    w = system.element(text)
    tail = system._elements.get(w.word[1:])
    assert tail is None or tail._mul[s] is None
    _corrupted(w, 0)
    with pytest.raises(InternalAssertionFailed, match="did not reach the identity"):
        system._step(w, s)
