"""Canonical words and descents against braid-move rewriting, no matrices.

``oracle._tits_reduce`` finds the ShortLex-least reduced word of any word by
braid moves and deletions of equal adjacent letters alone, so it checks the
greedy peel of ``CoxeterSystem._canonical`` and the sign test of the
descent sets without sharing any arithmetic with them.  Every test
builds its own system, so each element it meets is canonicalised afresh.
"""

from __future__ import annotations

import itertools

import pytest

from coxbruhat import InternalAssertionFailed, coxeter_system
from coxbruhat.oracle import _Budget, _tits_reduce


def rewrite(S, word):
    return _tits_reduce(S, tuple(word), _Budget(200_000))


@pytest.mark.parametrize(
    "kind, length", [("H3", 6), ("B3", 6), ("F4", 5), ("A~2", 7), ("I2:7", 8)]
)
def test_every_word_normalises_to_its_rewritten_form(kind, length):
    S = coxeter_system(kind)
    bad = [
        word
        for word in itertools.product(range(S.rank), repeat=length)
        if S.normalize(word).word != rewrite(S, word)
    ]
    assert not bad, f"{len(bad)} words differ, first {bad[:3]}"


@pytest.mark.parametrize("kind", ["B3", "H3", "A~2", "F4"])
def test_descents_are_the_letters_that_shorten_the_word(kind):
    S = coxeter_system(kind)
    bad = []
    for w in S.elements(8):
        left = {s for s in range(S.rank) if len(rewrite(S, (s,) + w.word)) < w.length}
        right = {s for s in range(S.rank) if len(rewrite(S, w.word + (s,))) < w.length}
        if w.left_descents != left or w.right_descents != right:
            bad.append(w)
    assert not bad, f"{len(bad)} elements with wrong descents, first {bad[:3]}"


def test_canonical_checks_its_peel():
    S = coxeter_system("B3")
    lsum = list(S.generator(0)._lsum)
    with pytest.raises(InternalAssertionFailed, match="no left descent"):
        S._canonical(lsum, 2)
    with pytest.raises(InternalAssertionFailed, match="did not reach the identity"):
        S._canonical(lsum, 0)
