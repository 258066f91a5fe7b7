"""The float margins that let descents be read by sign alone.

A root's coordinate sum is at least 1 in size, and each root coordinate is 0
or at least 1 in size: from a simple root, a step up in depth raises one
coordinate, a zero one to at least its bonded neighbours' (Björner-Brenti
4.6).  Descent tests therefore compare root sums with 0.0, and ``coset_max``
needs a tolerance only to tell a zero coordinate from a nonzero one.  These
tests pin that the floats keep both margins, to 1e-9, on whole finite groups
and on long affine walks.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import coxeter_system

EPS = 1e-9


def _violations(system, elements):
    """(element, what, value) for each root sum below 1 in size and each root
    coordinate neither near 0 nor at least 1 in size."""
    out = []
    for x in elements:
        for what, sums in (("lsum", x._lsum), ("rsum", x._rsum or system._right_sums(x))):
            out += [(x, what, v) for v in sums if abs(v) < 1 - EPS]
        for t in range(system.rank):
            out += [(x, f"root {t}", c) for c in system._root(t, x.word) if EPS < abs(c) < 1 - EPS]
    return out


def _reduced_walk(system, steps, rng):
    """The elements of a random reduced right walk from the identity."""
    w, out = system.identity, []
    for _ in range(steps):
        w = w * system.generator(rng.choice([s for s in range(system.rank)
                                             if s not in w.right_descents]))
        out.append(w)
    return out


@pytest.mark.parametrize("kind", ["A5", "B4", "D5", "F4", "H3", "H4", "I2:7"])
def test_finite_groups_keep_the_margins(kind):
    system = coxeter_system(kind)
    assert _violations(system, system.elements()) == []


@pytest.mark.parametrize("kind, seed", [("A~2", 0), ("A~3", 1), ("A~4", 2)])
def test_affine_walks_keep_the_margins(kind, seed):
    system = coxeter_system(kind, length_cap=300)
    walk = _reduced_walk(system, 300, random.Random(seed))
    assert walk[-1].length == 300
    assert _violations(system, walk) == []


def test_a_thin_margin_is_reported():
    system = coxeter_system("A2")
    x = system.element("s1 s2")
    x._rsum, rsum = (0.5, -1.0), x._rsum
    try:
        assert [(what, v) for _, what, v in _violations(system, [x])] == [("rsum", 0.5)]
    finally:
        x._rsum = rsum
