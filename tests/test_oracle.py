"""Brute-force oracles: reduced words, interval closure, Tits rewriting."""

from __future__ import annotations

import itertools

import pytest

from coxbruhat import (
    EmptyIntersection,
    NotMinimalRep,
    NotUnique,
    SearchBudgetExceeded,
    coxeter_system,
    demazure,
    lower_interval,
    oracle,
)
from coxbruhat.oracle import (
    all_reduced_words,
    braid_equal,
    brute_coset_max,
    brute_interval,
    verify_interval_product,
)


def test_all_reduced_words(a3):
    w0 = a3.elements(6)[-1]
    words = all_reduced_words(w0)
    assert len(words) == 16
    assert len(set(words)) == 16
    for word in words:
        assert len(word) == 6
        assert a3.normalize(word) is w0
    assert all_reduced_words(a3.identity) == ((),)
    # s1 s3 = s3 s1 gives exactly two words
    assert sorted(all_reduced_words(a3.element("s1 s3"))) == [(0, 2), (2, 0)]


def test_brute_interval_examples(a3):
    assert brute_interval(a3.identity) == frozenset((a3.identity,))
    assert len(brute_interval(a3.element("s1 s2 s1"))) == 6
    assert len(brute_interval(a3.element("s1 s2 s3 s2 s1"))) == 20


def test_brute_coset_max_examples(a3, a4):
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    assert brute_coset_max(w, a3.element("s2 s3"), J) == a3.element("s2 s3 s2 s1")
    assert brute_coset_max(w, a3.identity, frozenset()) is a3.identity
    w5 = a4.element("s3 s1 s2 s4 s3 s2 s1")
    q5 = brute_coset_max(w5, a4.element("s4 s3"), a4.parse_genset("s1,s2,s4"))
    assert q5 == a4.element("s3 s1 s4 s3 s2 s1")


def test_brute_coset_max_errors(a3):
    with pytest.raises(NotMinimalRep):
        brute_coset_max(a3.element("s1 s2"), a3.element("s1"), frozenset((0,)))
    with pytest.raises(EmptyIntersection):
        brute_coset_max(a3.element("s1"), a3.element("s2"), frozenset((0,)))


def test_a_planted_left_split_empties_a_candidate_level():
    """The first level's split of w = s1 s2 away from D_L(x), x = s1 s2, planted as
    (v, u) = (s1, e): s = s1 takes x to s2, which is not below v."""
    a3 = coxeter_system("A3")
    w = x = a3.element("s1 s2")
    a3._split_cache[w, a3._all_gens - x.left_descents, True] = (a3.generator(0), a3.identity)
    with pytest.raises(EmptyIntersection, match="is not below"):
        oracle.coset_max_candidates(w, x, frozenset())


@pytest.mark.parametrize("below, match", [
    # s2 s1 <= s1 s2 s1 forgotten: s2 s1 is maximal too
    ("s2 s1", "2 maximal elements"),
    # s1 <= s1 s2 s1 forgotten, s1 <= s1 s2 <= s1 s2 s1 kept: the one maximal
    # element does not dominate s1
    ("s1", "does not dominate"),
])
def test_a_corrupted_leq_memo_fails_the_uniqueness_checks(below, match):
    """[e, s1 s2 s1] is the one coset W_J of J = {s1, s2}; one element below its
    maximum is dropped from the memoised brute-force interval of the maximum, after
    a first call has grouped the coset."""
    system = coxeter_system("A3")
    w = system.element("s1 s2 s1")
    J = frozenset({0, 1})
    assert brute_coset_max(w, system.identity, J) is w
    system._brute_cache[w] = system._brute_cache[w] - {system.element(below)}
    with pytest.raises(NotUnique, match=match):
        brute_coset_max(w, system.identity, J)


@pytest.mark.parametrize("below", ["s2 s1", "s1"])
def test_brute_coset_max_does_not_read_leq(below):
    """The oracle orders a coset by brute-force interval membership, so a corrupted
    leq memo pair leaves its answer as it was."""
    system = coxeter_system("A3")
    w = system.element("s1 s2 s1")
    system._leq_cache[system.element(below), w] = False
    assert brute_coset_max(w, system.identity, frozenset({0, 1})) is w


def test_braid_equal_examples(a3):
    assert braid_equal(a3, a3.parse_word("s3 s2 s3 s1"), a3.parse_word("s2 s3 s2 s1"))
    assert braid_equal(a3, (0, 2), (2, 0))
    assert not braid_equal(a3, (0,), (1,))
    # non-reduced words are handled by deletion
    assert braid_equal(a3, (0, 0), ())
    assert braid_equal(a3, (0, 1, 1, 0), ())
    assert not braid_equal(a3, (0, 0), (0,))


def test_commuting_generators_square_to_identity(a3):
    # (s1 s3)^2 = e
    prod = a3.element("s1 s3 s1 s3")
    assert prod is a3.identity


def test_braid_equal_matches_engine(a3, i2inf):
    for word1 in itertools.product(range(3), repeat=4):
        for word2 in itertools.product(range(3), repeat=4):
            expected = a3.normalize(word1) is a3.normalize(word2)
            assert braid_equal(a3, word1, word2) == expected
    for k1 in range(5):
        for word1 in itertools.product(range(2), repeat=k1):
            for k2 in range(5):
                for word2 in itertools.product(range(2), repeat=k2):
                    expected = i2inf.normalize(word1) is i2inf.normalize(word2)
                    assert braid_equal(i2inf, word1, word2) == expected


def test_braid_equal_budget(b3):
    long_word = tuple(itertools.islice(itertools.cycle((0, 1, 2)), 12))
    with pytest.raises(SearchBudgetExceeded):
        braid_equal(b3, long_word, long_word, budget=2)


def test_verify_interval_product(a3):
    w = a3.element("s1 s2 s3")
    u = a3.element("s2 s1")
    assert verify_interval_product(w, u)
    # the fold w * u tops the product interval, witnessing s2 s3 s1
    fold = demazure(w, u)
    assert a3.element("s2 s3 s1") in lower_interval(fold).members
    assert verify_interval_product(a3.identity, u)
    assert verify_interval_product(u, a3.identity)


def test_brute_interval_matches_engine_on_b3(b3):
    for w in b3.elements(5):
        assert brute_interval(w) == lower_interval(w).members


def test_verify_makes_the_same_leq_calls_on_every_fresh_system(monkeypatch):
    # brute_coset_max scans in ShortLex order, not in the address order of a
    # set, so how soon its scans stop does not depend on where elements live.
    calls = []
    real_leq = oracle.leq

    def counting_leq(u, w):
        calls[-1] += 1
        return real_leq(u, w)

    monkeypatch.setattr(oracle, "leq", counting_leq)
    for _ in range(4):
        calls.append(0)
        oracle.verify(coxeter_system("A3"), max_len=3, samples=10, seed=0)
    assert calls[0] > 0
    assert calls == calls[:1] * 4
