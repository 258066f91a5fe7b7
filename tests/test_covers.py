"""Covers lifted along one reduced word, against the brute-force interval
oracle and, past the interval cap, against one-letter deletions."""

from __future__ import annotations

import random

import pytest

from coxbruhat import covers, coxeter_system, leq
from coxbruhat.cli import main
from coxbruhat.oracle import brute_interval

#: (s1 s2 s3)^10, a reduced word of length 30 in A~2 (past the default interval cap)
LONG_AFFINE_WORD = " ".join(["s1 s2 s3"] * 10)


def _brute_covers(w):
    return frozenset(y for y in brute_interval(w) if y.length == w.length - 1)


def _deletion_covers(w):
    """By the subword property and strong exchange, the covers of w are the
    one-letter deletions of one reduced word of w that stay reduced."""
    system, word = w.system, w.word
    deletions = (system.normalize(word[:i] + word[i + 1:]) for i in range(len(word)))
    return frozenset(u for u in deletions if u.length == len(word) - 1)


def _random_reduced(system, length, rng):
    """An element of the given length, grown one ascent at a time."""
    w = system.identity
    while w.length < length:
        w = w * system.generator(rng.choice(sorted(set(range(system.rank)) - w.right_descents)))
    return w


@pytest.mark.parametrize("kind, max_length", [
    ("A4", None), ("B3", None), ("H3", None), ("I2:7", 8), ("A~2", 8),
])
def test_covers_match_brute_interval(kind, max_length):
    system = coxeter_system(kind)
    for w in system.elements(max_length):
        assert covers(w) == _brute_covers(w), f"{kind}: covers of {w}"


@pytest.mark.parametrize("kind, lengths", [
    ("A~2", (40, 52, 64)), ("A~3", (40, 52, 64)), ("A~4", (40, 52, 64)), ("H4", (40, 50, 60)),
])
def test_covers_match_deletions_past_interval_cap(kind, lengths):
    system = coxeter_system(kind)
    rng = random.Random(kind)
    for length in lengths:
        w = _random_reduced(system, length, rng)
        assert w.length == length > system.interval_cap
        assert covers(w) == _deletion_covers(w), f"{kind}: covers of {w}"


def test_covers_past_interval_cap(aff2):
    w = aff2.element(LONG_AFFINE_WORD)
    assert w.length == 30 > aff2.interval_cap
    down = covers(w)
    assert down
    for c in down:
        assert c.length == 29
        assert leq(c, w)


def test_cli_covers_past_interval_cap(capsys):
    code = main(["--type", "A~2", "covers", "--w", LONG_AFFINE_WORD])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()
