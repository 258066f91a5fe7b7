"""Words become elements without canonicalising their prefixes.

``normalize`` and ``multiply`` step through known elements up to the first
new one and then walk the rest of the word on one pair of matrices, so only
the result is canonicalised.  ``_step`` reads the word of a product whose
letter ends the canonical word on that side straight off that word.  These
tests check both shortcuts against the per-letter generator step and against
``_canonical`` itself.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import LengthCapExceeded, bruhat, coxeter_system

KINDS = ("A~2", "A~3", "H4", "F4", "B4", "I2:7")


def _random_word(rng, system, lo, hi):
    return tuple(rng.randrange(system.rank) for _ in range(rng.randint(lo, hi)))


def _fold(system, word):
    out = system.identity
    for s in word:
        out = system._step(out, s)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_every_interned_word_is_the_canonical_word_of_its_matrix(kind):
    system = coxeter_system(kind)
    rng = random.Random(11)
    for _ in range(150):
        u = system.normalize(_random_word(rng, system, 0, 30))
        w = system.normalize(_random_word(rng, system, 0, 30))
        bruhat.leq(u, w)
        w.inverse()
        u * w
    bad = [el.word for el in system._elements.values()
           if system._canonical(el._imat, el.length) != el.word]
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
        cold.normalize(word)  # s1 s2 is the first new element; the walk raises
    assert sorted(cold._elements) == [(), (0,), (0, 1), (1,), (2,)]

    warm = coxeter_system("A3", length_cap=3)
    warm.normalize(word[:3])
    known = len(warm._elements)
    with pytest.raises(LengthCapExceeded, match="length 4 exceeds length_cap=3"):
        warm.normalize(word)  # every prefix is known; the generator step raises
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

    def counted(imat, length):
        calls.append(length)
        return canonical(imat, length)

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
        assert system._canonical(out._imat, out.length) == word
