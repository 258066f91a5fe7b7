"""Element engine: canonical words, descents, products, caps."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbruhat import (
    LengthCapExceeded,
    coxeter_system,
    demazure,
    demazure_word,
    element_from_permutation,
    is_type_a,
    leq,
)


def test_parse_word_identity_tokens(a3):
    assert a3.parse_word("e") == ()
    assert a3.parse_word("∅") == ()
    assert a3.parse_word("s1 s2") == (0, 1)
    with pytest.raises(ValueError):
        a3.parse_word("s9")


def test_parse_genset(a3):
    assert a3.parse_genset("") == frozenset()
    assert a3.parse_genset("-") == frozenset()
    assert a3.parse_genset("s1,s3") == frozenset((0, 2))
    assert a3.parse_genset("s3 s1") == frozenset((0, 2))
    assert a3.genset_str(frozenset()) == "-"
    assert a3.genset_str(frozenset((2, 0))) == "s1,s3"


def test_canonical_form_examples(a3):
    # two spellings of the permutation 4213
    w = a3.element("s3 s1 s2 s1")
    assert str(w) == "s1 s3 s2 s1"
    assert w.length == 4
    assert w == a3.element("s1 s3 s2 s1")
    # the braid relation folds a non-canonical spelling
    assert a3.element("s2 s1 s2") == a3.element("s1 s2 s1")
    # non-reduced input folds to the reduced element
    assert a3.element("s1 s1") == a3.identity
    assert a3.element("s1 s2 s2 s1") == a3.identity


def test_interning(a3):
    assert a3.element("s2 s1 s2") is a3.element("s1 s2 s1")
    assert a3.element("e") is a3.identity


def test_descents(a3):
    w = a3.element("s1 s2")
    assert w.right_descents == frozenset((1,))
    assert w.left_descents == frozenset((0,))
    # descent <=> multiplying on that side drops the length
    for y in a3.elements(6):
        for s in range(3):
            right = a3.multiply(y, a3.generator(s))
            left = a3.multiply(a3.generator(s), y)
            assert (s in y.right_descents) == (right.length < y.length)
            assert (s in y.left_descents) == (left.length < y.length)


def test_inverse(a3):
    w = a3.element("s1 s2 s3")
    assert w.inverse() == a3.element("s3 s2 s1")
    for y in a3.elements(6):
        assert y.inverse().inverse() is y
        assert y.inverse().length == y.length
        assert a3.multiply(y, y.inverse()) is a3.identity


def test_support(a3):
    assert a3.element("s1 s3").support == frozenset((0, 2))
    # support is a property of the element: s1 s3 s1 normalizes to s3
    assert a3.element("s1 s3 s1").support == frozenset((2,))
    assert a3.identity.support == frozenset()


def test_shortlex_ordering(a3):
    # ordering is by (length, word), used only for deterministic output
    elems = sorted(a3.elements(6))
    assert elems[0] is a3.identity
    lengths = [y.length for y in elems]
    assert lengths == sorted(lengths)


def test_elements_counts(a3, b3, i25):
    assert len(a3.elements(6)) == 24
    assert len(b3.elements(9)) == 48
    assert len(i25.elements(5)) == 10
    by_len = {}
    for y in a3.elements(6):
        by_len[y.length] = by_len.get(y.length, 0) + 1
    assert by_len == {0: 1, 1: 3, 2: 5, 3: 6, 4: 5, 5: 3, 6: 1}


def test_length_cap():
    system = coxeter_system("I2:inf", length_cap=5)
    w = system.element("s1 s2 s1 s2 s1")
    with pytest.raises(LengthCapExceeded):
        system.multiply(w, system.generator(1))
    # non-increasing products stay legal at the cap
    assert system.multiply(w, system.generator(0)).length == 4


def test_cross_system_mixing(a3, b3):
    with pytest.raises(ValueError):
        a3.multiply(a3.generator(0), b3.generator(0))


def test_permutation_map(a3, b3, a4):
    assert is_type_a(a3) and is_type_a(a4) and not is_type_a(b3)
    w = element_from_permutation(a3, [4, 2, 3, 1])
    # length = inversion count of the permutation (5 here)
    assert str(w) == "s1 s2 s3 s2 s1"
    assert w.length == 5
    assert element_from_permutation(a3, [1, 2, 3, 4]) is a3.identity
    # one inversion per adjacent swap
    assert element_from_permutation(a3, [1, 2, 4, 3]) == a3.element("s3")
    with pytest.raises(ValueError):
        element_from_permutation(a3, [1, 2, 2, 4])
    with pytest.raises(ValueError):
        element_from_permutation(a3, [1, 2, 3])
    with pytest.raises(ValueError):
        element_from_permutation(b3, [1, 2, 3, 4])


def test_permutation_map_is_bijective(a3):
    import itertools

    seen = {element_from_permutation(a3, p) for p in itertools.permutations(range(1, 5))}
    assert len(seen) == 24


def test_demazure_absorbs_descents(a3):
    s1, s2 = a3.generator(0), a3.generator(1)
    assert demazure(s1, s1) == s1
    assert demazure(s1, a3.element("s1 s2")) == a3.element("s1 s2")
    assert demazure_word(a3, (0, 1, 0, 1)) == a3.element("s1 s2 s1")
    # the fold of the two sides of a braid relation agree
    assert demazure_word(a3, (1, 2, 1)) == demazure_word(a3, (2, 1, 2))


def test_demazure_dominates_product(a3):
    for a in a3.elements(4):
        for b in a3.elements(4):
            fold = demazure(a, b)
            assert leq(a, fold) and leq(b, fold)
            assert leq(a3.multiply(a, b), fold)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=10))
def test_normalize_word_properties(word):
    system = coxeter_system("A3")
    w = system.normalize(word)
    assert w.length <= len(word)
    assert (w.length - len(word)) % 2 == 0
    assert system.normalize(w.word) is w
    assert system.normalize(reversed(word)) is w.inverse()
    fold = demazure_word(system, word)
    assert leq(w, fold)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=8),
       st.lists(st.integers(min_value=0, max_value=2), max_size=8))
def test_multiplication_matches_concatenation(word1, word2):
    system = coxeter_system("B3")
    prod = system.multiply(system.normalize(word1), system.normalize(word2))
    assert prod is system.normalize(tuple(word1) + tuple(word2))


def test_star_method_matches_demazure(a3):
    a, b = a3.element("s1 s2"), a3.element("s2 s1")
    assert a.star(b) == demazure(a, b)


def test_element_repr_and_str(a3):
    assert str(a3.identity) == "e"
    assert str(a3.element("s1 s2")) == "s1 s2"
    assert "s1 s2" in repr(a3.element("s1 s2"))
    assert repr(a3) == "CoxeterSystem(rank=3, names=['s1', 's2', 's3'])"


def test_element_against_a_non_element_raises_type_error(a3):
    s1 = a3.generator(0)
    with pytest.raises(TypeError):
        s1 * 2
    with pytest.raises(TypeError):
        s1 < (0,)
