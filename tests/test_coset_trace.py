"""The recursion trace of a coset maximum, rebuilt on first read.

The memo holds results without traces; reading ``.trace`` walks the
recursion again from (w, x, J) down to x = e through memo hits.  These tests
check that the rebuilt levels chain together, match a fresh system's and the
relative variant's, and that a sweep that reads no trace stores none.
The sweeps call max_in_coset on every triple: the shift tables of
shifted_max_set do not use the recursion memo.
"""

from __future__ import annotations

import pytest

from coxbruhat import (
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


def _sweep(system):
    """Warm the recursion memos: max_in_coset over every (w, x, J)."""
    for w, x, J in _triples(system):
        max_in_coset(w, x, J)


def _words(trace):
    """A trace with every element replaced by its word, comparable across systems."""
    return [tuple(getattr(v, "word", v) for v in vars(step).values()) for step in trace]


@pytest.mark.parametrize("kind", KINDS)
def test_trace_read_after_a_sweep_chains_and_equals_a_fresh_systems(kind):
    swept = coxeter_system(kind)
    _sweep(swept)
    entries = len(swept._cosetmax_cache)
    fresh = coxeter_system(kind)
    for w, x, J in _triples(swept):
        res = max_in_coset(w, x, J)
        trace = res.trace
        assert trace is res.trace
        assert len(trace) == x.length
        fw, fx = fresh.normalize(w.word), fresh.normalize(x.word)
        assert _words(trace) == _words(max_in_coset(fw, fx, J).trace), (kind, str(w), str(x), J)
        if not trace:
            continue
        assert trace[0].x is x
        assert trace[0].maximum is res.maximum
        for outer, inner in zip(trace, trace[1:]):
            assert outer.suffix_max is inner.maximum
            assert inner.x is swept._step(outer.x, outer.s, left=True)
        last = trace[-1]
        assert last.suffix_max is max_in_parabolic(last.v, J)
    assert len(swept._cosetmax_cache) == entries  # every level was a memo hit


@pytest.mark.parametrize("kind", KINDS)
def test_relative_trace_is_the_trace_over_k(kind):
    system = coxeter_system(kind)
    gensets = all_gensets(system)
    for w in system.elements():
        for K in gensets:
            for J in (J for J in gensets if J <= K and is_min_rep(w, J)):
                for x in min_reps_leq(w, K):
                    rel = max_in_relative_coset(w, x, J, K)
                    assert rel.trace == max_in_coset(w, x, K).trace


@pytest.mark.parametrize("kind", KINDS)
def test_a_sweep_that_reads_no_trace_stores_none(kind):
    system = coxeter_system(kind)
    _sweep(system)
    results = list(system._cosetmax_cache.values())
    assert results
    assert not [r for r in results if "trace" in vars(r)]
    read = max(results, key=lambda r: r.x.length)
    assert read.trace
    assert [r for r in results if "trace" in vars(r)] == [read]
