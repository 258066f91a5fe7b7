"""Interning is the element's identity: one object per element and system.

Elements compare and hash by object identity, so these tests pin down what
that rests on: every way of reaching an element returns the same object,
elements of two systems never meet, and a memo entry stays in its system.
"""

from __future__ import annotations

import pytest

from coxbruhat import coxeter_system, demazure, leq, max_in_coset
from coxbruhat.oracle import all_reduced_words


def test_same_word_in_two_systems_gives_unequal_elements():
    one, two = coxeter_system("A3"), coxeter_system("A3")
    for a, b in zip(one.elements(), two.elements()):
        assert a.word == b.word
        assert a != b
        assert len({a, b}) == 2
    assert len(set(one.elements()) | set(two.elements())) == 2 * 24


def test_calls_mixing_two_systems_raise_value_error():
    one, two = coxeter_system("A3"), coxeter_system("A3")
    w1, w2 = one.element("s1 s2 s3"), two.element("s1 s2 s3")
    x1, x2 = one.element("s3"), two.element("s3")
    J = frozenset((0, 1))
    calls = [
        lambda: leq(x1, w2),
        lambda: leq(x2, w1),
        lambda: w1 * w2,
        lambda: one.multiply(w1, w2),
        lambda: demazure(w1, w2),
        lambda: w1.star(w2),
        lambda: max_in_coset(w1, x2, J),
        lambda: max_in_coset(w2, x1, J),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_leq_memo_stays_in_its_system():
    one, two = coxeter_system("A3"), coxeter_system("A3")
    assert leq(one.element("s1 s3"), one.element("s1 s2 s3 s2 s1"))
    assert one._leq_cache
    assert two._leq_cache == {}


@pytest.mark.parametrize("name, max_length", [("B3", None), ("H3", None), ("A~2", 6)])
def test_every_reduced_word_normalizes_to_the_interned_element(name, max_length):
    system = coxeter_system(name)
    for w in system.elements(max_length):
        for word in all_reduced_words(w):
            assert system.normalize(word) is w
        assert w.inverse().inverse() is w
        assert system.normalize(w.word[::-1]) is w.inverse()


def test_intern_keeps_the_first_object_for_a_word():
    """A second interning of the same word while the first is still being
    built (as a racing caller would) must not leave two objects behind."""
    system = coxeter_system("A3")
    create = system._create
    word = (0, 1, 2)
    inner = []

    def create_racing(w):
        if w == word and not inner:
            inner.append(None)
            inner[0] = system._intern(w)
        return create(w)

    system._create = create_racing
    outer = system._intern(word)
    assert inner[0] is outer
    assert system.element("s1 s2 s3") is outer
