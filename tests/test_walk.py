"""Words become elements without canonicalising their prefixes.

``normalize`` and ``multiply`` follow filled neighbour slots up to the first
empty one and then make one backward pass of the left root sums over the whole
word, which also counts the length, so only the result is canonicalised and
interned; like every element, it holds no matrix.  The result's right sums
are read along its canonical word on first use (``_right_sums``); only a walk
that might pass the length cap carries them forward, letter by letter.
``_step`` reads the word of a product whose letter ends the canonical word on
that side straight off that word.  These tests check both shortcuts against
the per-letter generator step and against ``_canonical`` itself, and the
walked root sums, and those of a walk result's left products, against the
column sums of the matrices of w^-1 and w rebuilt along the walked word.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import (
    CoxeterSystem,
    InternalAssertionFailed,
    LengthCapExceeded,
    bruhat,
    coxeter_matrix,
    coxeter_system,
)
from coxbruhat.core import Element
from test_construction import _generator_matrices, _rebuilt

KINDS = ("A~2", "A~3", "H4", "F4", "B4", "I2:7")
TOL = 1e-9


def _column_sums(mat):
    return [sum(col) for col in zip(*mat)]


def _rebuilt_sums(w):
    """Column sums of the matrices of w^-1 and w, multiplied out along w's word by
    the tests' own code: what ``_lsum`` and ``_rsum`` should hold."""
    mat, imat = _rebuilt(w.system, _generator_matrices(w.system), w.word)
    return _column_sums(imat), _column_sums(mat)


def _drift(w):
    """Largest carried root sum of w off its rebuilt sums."""
    carried = w._lsum, w._rsum or w.system._right_sums(w)
    return max(abs(a - b) for sums, rebuilt in zip(carried, _rebuilt_sums(w))
               for a, b in zip(sums, rebuilt))


def _random_word(rng, system, lo, hi):
    return tuple(rng.randrange(system.rank) for _ in range(rng.randint(lo, hi)))


def _fold(system, word):
    out = system.identity
    for s in word:
        out = system._step(out, s)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_every_interned_word_is_the_canonical_word_of_its_matrix(kind):
    """The matrix is the inverse matrix rebuilt along the interned word."""
    system = coxeter_system(kind)
    rng = random.Random(11)
    for _ in range(150):
        u = system.normalize(_random_word(rng, system, 0, 30))
        w = system.normalize(_random_word(rng, system, 0, 30))
        bruhat.leq(u, w)
        w.inverse()
        u * w
    bad = [el.word for el in system._elements.values()
           if system._canonical(_rebuilt_sums(el)[0], el.length) != el.word]
    assert not bad, f"{len(bad)} interned words differ, first {bad[:3]}"


@pytest.mark.parametrize("kind", KINDS)
def test_walk_agrees_with_a_per_letter_fold(kind):
    walked, folded = coxeter_system(kind), coxeter_system(kind)
    rng = random.Random(5)
    for _ in range(100):
        a = _random_word(rng, walked, 0, 30)
        b = _random_word(rng, walked, 0, 30)
        assert walked.normalize(a).word == _fold(folded, a).word
        product = walked.normalize(a) * walked.normalize(b)
        assert product.word == _fold(folded, a + b).word


def test_cap_on_an_intermediate_length_before_and_after_the_walk_starts():
    word = (0, 1, 2, 0, 0)  # s1 s2 s3 s1 s1: length 4 on the way, 3 at the end
    cold = coxeter_system("A3", length_cap=3)
    with pytest.raises(LengthCapExceeded, match="length 4 exceeds length_cap=3"):
        cold.normalize(word)  # s1's slot for s2 is empty; the walk carries from s1 and raises
    assert sorted(cold._elements) == [(), (0,), (1,), (2,)]  # a failed walk interns nothing

    warm = coxeter_system("A3", length_cap=3)
    _fold(warm, word[:3])  # fills the slots of every prefix
    known = len(warm._elements)
    with pytest.raises(LengthCapExceeded, match="length 4 exceeds length_cap=3"):
        warm.normalize(word)  # the walk carries from s1 s2 s3 and raises
    with pytest.raises(LengthCapExceeded, match="length 4 exceeds length_cap=3"):
        warm.normalize(word[:4])  # one letter left: the generator step raises
    assert len(warm._elements) == known


def test_bad_letter_late_in_the_word_is_rejected_before_any_step():
    system = coxeter_system("A3", length_cap=3)
    with pytest.raises(ValueError, match="generator index 7 out of range for rank 3"):
        system.normalize((0, 1, 2, 0, 1, 0, 7))  # passes the cap before the bad letter
    assert len(system._elements) == 1 + system.rank


@pytest.mark.parametrize("kind", KINDS)
def test_factor_steps_peel_nothing(kind):
    system = coxeter_system(kind)
    rng = random.Random(3)
    words = [system.normalize(_random_word(rng, system, 20, 40)).word for _ in range(20)]
    canonical, calls = system._canonical, []

    def counted(lsum, length):
        calls.append(length)
        return canonical(lsum, length)

    system._canonical = counted
    steps = []
    for word in words:
        w = system._elements[word]
        steps.append((system._step(w, word[-1]), word[:-1]))
        steps.append((system._step(w, word[0], True), word[1:]))
    assert calls == []
    del system._canonical
    for out, word in steps:
        assert out.word == word
        assert system._canonical(_rebuilt_sums(out)[0], out.length) == word


def _reduced_word(kind, length, seed):
    """A random reduced word of the given length, built on a system of its own."""
    system, rng = coxeter_system(kind), random.Random(seed)
    w = system.identity
    while w.length < length:
        w = system._step(w, rng.choice([s for s in range(system.rank) if s not in w.right_descents]))
    return w.word


def test_a_walked_element_holds_no_inverse_matrix():
    """Only the word and two sum rows: no slot holds a matrix, and reading descents,
    support and a leq builds no element."""
    system = coxeter_system("A~3")
    w = system.normalize(_reduced_word("A~3", 60, seed=2) + (1, 1))
    assert w.length == 60
    known = len(system._elements)
    w.left_descents, w.right_descents, w.support, bruhat.leq(system.generator(0), w)
    assert len(system._elements) == known
    held = [getattr(w, name) for name in Element.__slots__]
    assert not [v for v in held if isinstance(v, tuple) and v and isinstance(v[0], (tuple, list))]
    assert all(len(sums) == system.rank for sums in (w._lsum, w._rsum))


def _check_walked(w):
    """w's walked root sums match the column sums of the matrices of w^-1 and w
    rebuilt from its walked word."""
    drift = _drift(w)
    assert drift <= TOL, f"{w}: drift {drift}"


@pytest.mark.parametrize("kind, lo, hi", [
    ("A~2", 40, 64), ("A~3", 40, 64), ("A~4", 40, 64), ("H4", 40, 60), ("F4", 16, 24)])
def test_walked_sums_match_the_matrices_of_the_walked_word(kind, lo, hi):
    rng = random.Random(kind)
    for seed in range(8):
        system = coxeter_system(kind)
        w = system.normalize(_reduced_word(kind, rng.randint(lo, hi), seed))
        # b undoes the last 12 letters of w, so w*b is shorter than its letters
        b = system.normalize(w.word[:-13:-1] + _random_word(rng, system, 0, 8))
        _check_walked(w)
        _check_walked(b)
        ab = w * b  # a walk from a walked start
        _check_walked(ab)
        assert ab.length < w.length + b.length


def test_a_corrupted_sum_vector_fails_the_peel():
    system = coxeter_system("H3")
    for w in system.elements()[1:60]:
        lsum = w._lsum
        for t in range(system.rank):
            corrupted = lsum[:t] + (lsum[t] + 0.01,) + lsum[t + 1:]
            with pytest.raises(InternalAssertionFailed):
                system._canonical(corrupted, w.length)


@pytest.mark.parametrize("kind", ["A~3", "H4", "F4"])
def test_steps_from_a_walked_element_match_a_fold(kind):
    folded = coxeter_system(kind)
    for seed in range(4):
        walked, word = coxeter_system(kind), _reduced_word(kind, 20, seed) + (0, 0)
        w = walked.normalize(word)
        for s in range(walked.rank):
            for left in (False, True):
                out = walked._step(w, s, left)
                ref = _fold(folded, (s,) + word if left else word + (s,))
                assert out.word == ref.word
                drift = max(_drift(out), _drift(ref))
                assert drift <= TOL, f"{kind}: {out}"


def _count_steps(system):
    """Wrap the system's _step; the returned list gets one entry a call."""
    step, calls = system._step, []

    def counted(w, s, left=False):
        calls.append(s)
        return step(w, s, left)

    system._step = counted
    return calls


@pytest.mark.parametrize("kind", ["A~3", "H4"])
def test_a_walk_interns_only_its_result(kind):
    word = _reduced_word(kind, 40, seed=7)
    system = coxeter_system(kind)
    steps, before = _count_steps(system), set(system._elements.values())
    w = system.normalize(word)
    assert w.word == word
    assert [el for el in system._elements.values() if el not in before] == [w]
    assert len(steps) <= 1

    known = len(system._elements)
    assert system.normalize(word) is w  # a repeat walk interns nothing
    assert len(system._elements) == known

    b = system.normalize(_reduced_word(kind, 12, seed=8))
    before = set(system._elements.values())
    ab = w * b
    assert [el for el in system._elements.values() if el not in before] == [ab]


def _walk_result():
    word = _reduced_word("A~3", 60, seed=5)
    system = coxeter_system("A~3")
    w = system.normalize(word)
    assert w.length == 60
    return system, word, w


def test_walk_result_sums_along_its_word():
    """A walk result has no neighbour; its left sums were carried along the walk,
    its right sums are read along its word."""
    system, _, w = _walk_result()
    assert w._mul == [None] * (2 * system.rank)
    _check_walked(w)


def test_left_product_of_a_walk_result():
    """A left product reflects the walk result's right root sums by w^-1(alpha_s)."""
    system, word, w = _walk_result()
    for s in range(system.rank):
        sw = system._step(w, s, left=True)
        assert sw is system.normalize((s,) + word)
        _check_walked(sw)
    _check_walked(w)


def test_a_long_affine_walk_keeps_its_sums_in_tolerance():
    """Right steps to length 2,500 in A~2 keep the carried sums within the peel's
    tolerance: each step reads its root afresh along the word."""
    system = CoxeterSystem(coxeter_matrix("A~2"), length_cap=2500)
    rng = random.Random(1)
    w = system.identity
    while w.length < 2500:
        w = system._step(w, rng.choice([s for s in range(system.rank) if s not in w.right_descents]))
    assert w.length == 2500


@pytest.mark.parametrize("kind", ["A~2", "A~3", "A~4", "H4", "F4"])
def test_a_walk_result_reads_its_right_sums_on_first_use(kind):
    rng = random.Random(kind)
    for seed in range(4):
        system = coxeter_system(kind)
        if kind == "F4":  # no reduced word is this long: fold random letters
            word = _random_word(rng, system, 40, 64)
        else:
            word = _reduced_word(kind, rng.randint(40, 60), seed)
        w = system.normalize(word)
        assert w.length > 1 and w._rsum is None
        w.right_descents
        drift = max(abs(a - b) for a, b in zip(w._rsum, _rebuilt_sums(w)[1]))
        assert drift <= TOL, f"{kind}: {w}"


def test_right_sums_reject_a_word_with_a_descent():
    """Every letter of a canonical word is an ascent of the prefix before it; a
    doubled letter is not."""
    system, word, w = _walk_result()
    for k in (1, 30, 59):
        bad = Element(system, word[:k] + word[k - 1:], w._lsum, None)
        with pytest.raises(InternalAssertionFailed, match="right descent"):
            bad.right_descents
    assert w.right_descents  # the walk result itself reads fine


def test_a_walk_of_exactly_length_cap_letters():
    system = coxeter_system("A~3")
    word = (0, 1, 2, 3) * 16
    w = system.normalize(word)
    assert w.length == len(word) == system.length_cap
    assert w._rsum is None  # no prefix can pass the cap: no forward pass
    assert w.word == _fold(coxeter_system("A~3"), word).word


def test_a_long_word_whose_prefixes_stay_under_the_cap():
    base = _reduced_word("A~3", 8, seed=1)
    system = CoxeterSystem(coxeter_matrix("A~3"), length_cap=10)
    w = system.normalize(base + (0, 0) * 6)  # 20 letters, no prefix longer than 9
    assert w.word == _fold(coxeter_system("A~3"), base).word
    assert w._rsum is not None  # carried forward to check the cap, and kept
    _check_walked(w)


def test_a_prefix_over_the_cap_raises_at_its_length():
    up = _reduced_word("A~3", 11, seed=2)
    system = CoxeterSystem(coxeter_matrix("A~3"), length_cap=10)
    with pytest.raises(LengthCapExceeded, match="length 11 exceeds length_cap=10"):
        system.normalize(up + up[::-1])  # back to e, through a prefix of length 11
    assert len(system._elements) == 1 + system.rank
