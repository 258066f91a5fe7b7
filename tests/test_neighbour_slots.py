"""Generator products stored on each element agree with word normalisation."""

from __future__ import annotations

import random

import pytest

from coxbruhat import coxeter_system


@pytest.mark.parametrize("name, max_length", [("B3", None), ("H3", None), ("A~2", 8)])
def test_neighbour_slots_match_normalize(name, max_length):
    system = coxeter_system(name)
    ref = coxeter_system(name)  # a second system, its slots filled in its own order
    elems = system.elements(max_length)
    pairs = [(w, s) for w in elems for s in range(system.rank)]
    random.Random(0).shuffle(pairs)
    for w, s in pairs:
        right = system._step(w, s)
        left = system._step(w, s, left=True)
        assert right is system.normalize(w.word + (s,))
        assert left is system.normalize((s,) + w.word)
        assert right.word == ref.normalize(w.word + (s,)).word
        assert left.word == ref.normalize((s,) + w.word).word
        assert system._step(right, s) is w
        assert system._step(left, s, left=True) is w
