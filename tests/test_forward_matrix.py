"""The matrix of w is built only when a left product reads it.

Right products carry the inverse matrix and both root sums, walks only the
sums; the forward matrix ``Element._mat`` is built on first read, from a right
neighbour that holds one or along the canonical word.  These tests check that
nothing else builds it, that the built matrix matches a rebuild along the
canonical word, and that the right root sums carried without it agree with
its column sums.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import coxeter_system
from test_construction import _generator_matrices, _rebuilt

TOL = 1e-9


def _reduced_word(system, length, seed):
    """A reduced word of the given length, by random right ascents."""
    rng = random.Random(seed)
    w = system.identity
    while w.length < length:
        w = system._step(w, rng.choice([s for s in range(system.rank) if s not in w.right_descents]))
    return w.word


def _holders(system):
    return [w for w in system._elements.values() if w._fmat is not None]


def _check_on_demand(system, elements):
    """Each element's matrix, built on first read, against a rebuild; and its right sums."""
    gens = _generator_matrices(system)
    for w in elements:
        mat = w._mat
        ref = _rebuilt(system, gens, w.word)[0]
        drift = max(abs(x - y) for row, ref_row in zip(mat, ref) for x, y in zip(row, ref_row))
        assert drift <= TOL, f"{w}: drift {drift}"
        sums = [sum(col) for col in zip(*mat)]
        assert max(abs(x - y) for x, y in zip(w._root_sums()[1], sums)) <= TOL, str(w)


def test_enumeration_builds_no_forward_matrix():
    system = coxeter_system("H3")
    assert len(system.elements()) == 120
    assert _holders(system) == [system.identity]


def test_normalize_builds_no_forward_matrix():
    word = _reduced_word(coxeter_system("A~3"), 60, seed=5)
    system = coxeter_system("A~3")
    w = system.normalize(word)
    assert w.length == 60
    assert _holders(system) == [system.identity]


def test_walk_result_matrix_along_its_word():
    """A walk result has no neighbour, so its matrix is built along its canonical word."""
    word = _reduced_word(coxeter_system("A~3"), 60, seed=5)
    system = coxeter_system("A~3")
    w = system.normalize(word)
    assert w._rmul == [None] * system.rank
    _check_on_demand(system, [w])


@pytest.mark.parametrize("name, max_length", [("B4", None), ("F4", None), ("A~2", 12)])
def test_enumerated_matrices_from_their_neighbours(name, max_length):
    """In ShortLex order each element finds a shorter right neighbour with a matrix."""
    system = coxeter_system(name)
    elements = system.elements(max_length)
    _check_on_demand(system, elements)


def test_left_product_of_a_walk_result():
    word = _reduced_word(coxeter_system("A~3"), 60, seed=5)
    system = coxeter_system("A~3")
    w = system.normalize(word)
    for s in range(system.rank):
        sw = system._step(w, s, left=True)
        assert sw is system.normalize((s,) + word)
        assert sw._fmat is not None
    _check_on_demand(system, [system._step(w, s, left=True) for s in range(system.rank)])
