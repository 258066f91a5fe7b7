"""Without a forward matrix, the sums carried in its place stay accurate.

An element holds one matrix, that of w^-1 (``Element._imat``), and two rows of
root sums; the matrix of w is never built.  Its column sums, the right root
sums ``_rsum``, are carried: a right product moves them like one more row of
w's matrix, a left product reads them off column s of w's inverse matrix.
These tests check, against matrices of w and w^-1 rebuilt along the canonical
word, that the inverse matrix and both sum rows have not drifted: on
enumerated elements, each made one step off a shorter neighbour, and on a walk
result, which has no neighbour, and its left products.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import coxeter_system
from test_construction import TOL, _worst_drift


def _reduced_word(system, length, seed):
    """A reduced word of the given length, by random right ascents."""
    rng = random.Random(seed)
    w = system.identity
    while w.length < length:
        w = system._step(w, rng.choice([s for s in range(system.rank) if s not in w.right_descents]))
    return w.word


def _walk_result():
    word = _reduced_word(coxeter_system("A~3"), 60, seed=5)
    system = coxeter_system("A~3")
    w = system.normalize(word)
    assert w.length == 60
    return system, word, w


def test_walk_result_matrix_along_its_word():
    """A walk result has no neighbour, so its inverse matrix is built along its word."""
    system, _, w = _walk_result()
    assert w._invmat is None and w._rmul == [None] * system.rank
    assert _worst_drift(system, [w]) < TOL


@pytest.mark.parametrize("name, max_length", [("B4", None), ("F4", None), ("A~2", 12)])
def test_enumerated_matrices_from_their_neighbours(name, max_length):
    """In ShortLex order each element is a step off a shorter neighbour, which gives
    it its inverse matrix and both sum rows."""
    system = coxeter_system(name)
    elements = system.elements(max_length)
    assert all(w._invmat is not None for w in elements)
    assert _worst_drift(system, elements) < TOL


def test_left_product_of_a_walk_result():
    """A left product reads its right root sums off the walk result's inverse matrix."""
    system, word, w = _walk_result()
    left = []
    for s in range(system.rank):
        sw = system._step(w, s, left=True)
        assert sw is system.normalize((s,) + word)
        assert sw._invmat is not None
        left.append(sw)
    assert _worst_drift(system, [w, *left]) < TOL
