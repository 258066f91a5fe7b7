"""Covers from one reduced word, against the brute-force interval oracle."""

from __future__ import annotations

import pytest

from coxbruhat import covers, coxeter_system, leq
from coxbruhat.cli import main
from coxbruhat.oracle import brute_interval

#: (s1 s2 s3)^10, a reduced word of length 30 in A~2 (past the default interval cap)
LONG_AFFINE_WORD = " ".join(["s1 s2 s3"] * 10)


def _brute_covers(w):
    return frozenset(y for y in brute_interval(w) if y.length == w.length - 1)


@pytest.mark.parametrize("kind, max_length", [
    ("A4", None), ("B3", None), ("H3", None), ("I2:7", 8), ("A~2", 8),
])
def test_covers_match_brute_interval(kind, max_length):
    system = coxeter_system(kind)
    for w in system.elements(max_length):
        assert covers(w) == _brute_covers(w), f"{kind}: covers of {w}"


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
