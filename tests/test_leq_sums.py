"""``leq`` on root sums against the descent chain on elements.

``bruhat.leq`` walks w's word against u's left root sums and builds no
element.  The reference below is the chain it replaced: step both elements
down by ``min D_L(w)`` with generator products until one of the end cases
decides (lifting property, Björner-Brenti Prop. 2.2.7).
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import coxeter_system, leq, lower_interval


def _chain_leq(u, w):
    """The element chain: (u, w) -> (su, sw) or (u, sw) for s = min D_L(w)."""
    system = u.system
    while u is not w and 0 < u.length <= w.length:
        s = min(w.left_descents)
        w, u = system._step(w, s, True), (system._step(u, s, True) if s in u.left_descents else u)
    return u is w or u.length == 0


def _random_reduced(system, length, rng):
    """An element of the given length, grown one right ascent at a time."""
    w = system.identity
    while w.length < length:
        w = w * system.generator(rng.choice(sorted(set(range(system.rank)) - w.right_descents)))
    return w


def _pairs(system, lengths, count, rng):
    """``count`` pairs (u, w) with w of a length in ``lengths``: half with u a
    subword of w (each letter kept with chance 0.7), half with u a random
    reduced word of at least half w's length and at most w's."""
    out = []
    for k in range(count):
        w = _random_reduced(system, rng.choice(lengths), rng)
        if k % 2:
            u = _random_reduced(system, rng.randint(w.length // 2, w.length), rng)
        else:
            u = system.normalize(s for s in w.word if rng.random() < 0.7)
        out.append((u, w))
    return out


@pytest.mark.parametrize("kind, lengths, count", [
    ("A~2", range(40, 65), 200), ("A~3", range(40, 65), 200), ("A~4", range(40, 65), 200),
    ("H4", range(40, 61), 100), ("F4", range(8, 25), 200), ("B4", range(4, 17), 200),
    ("D5", range(6, 21), 200),
])
def test_leq_matches_the_element_chain(kind, lengths, count):
    system = coxeter_system(kind)
    pairs = _pairs(system, lengths, count, random.Random(kind))
    answers = [leq(u, w) for u, w in pairs]
    assert any(answers) and not all(answers)
    for (u, w), got in zip(pairs, answers):
        assert got == _chain_leq(u, w), (kind, str(u), str(w))
        assert leq(u, w) == got  # a memo hit


@pytest.mark.parametrize("kind, max_len", [("B3", None), ("H3", None), ("A~2", 6)])
def test_leq_matches_interval_membership_on_every_pair(kind, max_len):
    system = coxeter_system(kind)
    elems = system.elements(max_len)
    for w in elems:
        members = lower_interval(w).members
        for u in elems:
            assert leq(u, w) == (u in members), (str(u), str(w))


def test_leq_interns_no_element():
    system = coxeter_system("A~3")
    pairs = _pairs(system, range(40, 65), 40, random.Random(3))
    known = len(system._elements)
    answers = [leq(u, w) for u, w in pairs] + [leq(w, u) for u, w in pairs]
    assert len(system._elements) == known
    assert any(answers) and not all(answers)


def test_leq_keeps_one_memo_entry_per_compared_pair():
    system = coxeter_system("A~4")
    pairs = _pairs(system, range(40, 65), 20, random.Random(4))
    for u, w in pairs:
        leq(u, w)
    # the fast exits (u = e, u = w, u not shorter than w) store nothing
    expected = {(u, w) for u, w in pairs if 0 < u.length < w.length}
    assert set(system._leq_cache) == expected


def test_leq_of_a_suffix_and_of_a_prefix():
    # w = s*u with s a left ascent of u: the chain never peels s from u, and
    # u has exactly as many letters left as w when the first letter is read
    system = coxeter_system("A~3")
    w = _random_reduced(system, 48, random.Random(5))
    for k in range(1, w.length):
        suffix, prefix = system.normalize(w.word[k:]), system.normalize(w.word[:k])
        assert leq(suffix, w) and leq(prefix, w)
        assert not leq(w, suffix) and not leq(w, prefix)
