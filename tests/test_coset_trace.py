"""The recursion trace of a coset maximum.

The loop that finds the maximum walks down the levels (w, x) -> (v, s x) to
x = e and folds the maxima back up; the same pass gives the trace.  These
tests check that the levels chain together, match a fresh system's and the
relative variant's, and that a long x needs no recursion.
"""

from __future__ import annotations

import random
import sys

import pytest

from coxbruhat import (
    CoxeterSystem,
    coset_rep,
    coxeter_matrix,
    coxeter_system,
    is_min_rep,
    max_in_coset,
    max_in_parabolic,
    max_in_relative_coset,
    min_reps_leq,
)
from conftest import all_gensets

KINDS = ["A3", "B3", "H3"]


def _triples(system):
    for w in system.elements():
        for J in all_gensets(system):
            for x in sorted(min_reps_leq(w, J)):
                yield w, x, J


STEP_FIELDS = ("x", "left_descents", "u", "v", "coset_stabilizers", "s", "prefix_max",
               "suffix_max", "maximum")


def _words(trace):
    """A trace with every element replaced by its word, comparable across systems."""
    return [tuple(getattr(v, "word", v) for v in (getattr(step, f) for f in STEP_FIELDS))
            for step in trace]


@pytest.mark.parametrize("kind", KINDS)
def test_trace_read_after_a_sweep_chains_and_equals_a_fresh_systems(kind):
    """Sweep every triple and read each result's trace."""
    system = coxeter_system(kind)
    fresh = coxeter_system(kind)
    for w, x, J in _triples(system):
        res = max_in_coset(w, x, J)
        _check_chain(res)
        fw, fx = fresh.normalize(w.word), fresh.normalize(x.word)
        assert _words(res.trace) == _words(max_in_coset(fw, fx, J).trace), (kind, str(w), str(x), J)


def _check_chain(res):
    trace = res.trace
    assert len(trace) == res.x.length
    if not trace:
        return
    assert trace[0].x is res.x
    assert trace[0].maximum is res.maximum
    for outer, inner in zip(trace, trace[1:]):
        assert outer.suffix_max is inner.maximum
        assert inner.x is res.x.system._step(outer.x, outer.s, left=True)
    last = trace[-1]
    assert last.suffix_max is max_in_parabolic(last.v, res.J)


@pytest.mark.parametrize("kind", KINDS)
def test_relative_trace_is_the_trace_over_k(kind):
    system = coxeter_system(kind)
    gensets = all_gensets(system)
    for w in system.elements():
        for K in gensets:
            chain = [J for J in gensets if J <= K and is_min_rep(w, J)]
            for x in min_reps_leq(w, K) if chain else ():
                trace = max_in_coset(w, x, K).trace
                for J in chain:
                    assert max_in_relative_coset(w, x, J, K).trace == trace


def test_a_long_x_needs_no_recursion():
    """More levels than a recursion of two frames per level fits in the default stack."""
    system = CoxeterSystem(coxeter_matrix("A~2"), length_cap=700)
    rng = random.Random(2)
    w = system.identity
    while w.length < 600:
        s = rng.randrange(system.rank)
        if s not in w.right_descents:
            w = system._step(w, s)
    x = coset_rep(w, [0])
    assert x.length > sys.getrecursionlimit() // 2
    _check_chain(max_in_coset(w, x, [0]))
