"""Elements built one generator step from a neighbour keep accurate matrices and sums.

An element holds one matrix, that of w^-1, and two rows of root sums.  A
generator step (w*s or s*w from w) gives a new element its inverse matrix and
both sum rows from w; a left step reads its right root sums off column s of
w's inverse matrix.  Walks (``normalize``, ``multiply``) intern their result
with its two sum rows only, and its inverse matrix is built on first read
(``Element._imat``): one step off a neighbour that holds one, or along the
canonical word.  These tests rebuild the matrices of w and w^-1 along the
canonical word, independently of the system's own matrix code, and check that
the inverse matrix and the column sums of both have not drifted.
"""

from __future__ import annotations

import math
import random

import pytest

from coxbruhat import bruhat, coxeter_system

TOL = 1e-9


def _generator_matrices(system):
    """S_s for every generator: column j is s(alpha_j) in the simple roots."""
    n = system.rank
    out = []
    for s in range(n):
        m = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        m[s][s] = -1.0
        for j in range(n):
            mij = system.matrix[s][j]
            if j != s and mij != 2:
                m[s][j] = 2.0 if mij == 0 else 2.0 * math.cos(math.pi / mij)
        out.append(m)
    return out


def _product(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _rebuilt(system, gens, word):
    """Matrices of w and w^-1 multiplied out along the word."""
    n = system.rank
    mat = imat = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for s in word:
        mat = _product(mat, gens[s])
        imat = _product(gens[s], imat)
    return mat, imat


def _worst_drift(system, elements):
    """Largest entry of an inverse matrix, or carried root sum (``_lsum``, ``_rsum``),
    off the rebuilt matrices or their column sums."""
    gens = _generator_matrices(system)
    worst = 0.0
    for w in elements:
        mat, imat = _rebuilt(system, gens, w.word)
        for row, ref_row in zip(w._imat, imat):
            worst = max(worst, max(abs(x - y) for x, y in zip(row, ref_row)))
        for sums, ref in ((w._lsum, imat), (w._rsum, mat)):
            worst = max(worst, max(abs(x - sum(col)) for x, col in zip(sums, zip(*ref))))
    return worst


def _record_new_elements(system, made):
    """Wrap the generator step; note (side, direction) of each new element."""
    step = system._step

    def watched(w, s, left=False):
        before = len(system._elements)
        out = step(w, s, left)
        if len(system._elements) > before:
            side = "left" if left else "right"
            made.add((side, "up" if out.length > w.length else "down"))
        return out

    system._step = watched


@pytest.mark.parametrize("name, max_length", [("H3", None), ("B4", None), ("F4", None), ("A~2", 12)])
def test_matrices_match_a_rebuild_along_the_canonical_word(name, max_length):
    system = coxeter_system(name)
    made = set()
    _record_new_elements(system, made)
    rng = random.Random(7)

    def random_element():
        return system.normalize(rng.randrange(system.rank) for _ in range(rng.randint(0, 14)))

    for _ in range(300):
        u, w = random_element(), random_element()
        bruhat.leq(u, w)
        w.inverse()
        system.multiply(u, w)
        system._step(u, rng.randrange(system.rank), left=True)
        if w.word:  # a left down-step: leq builds no element
            system._step(w, w.word[0], left=True)
    elems = system.elements(max_length)
    for _ in range(2000):
        a, b = rng.choice(elems), rng.choice(elems)
        bruhat.leq(a, b)
        system.multiply(a, b.inverse())

    assert made == {("right", "up"), ("right", "down"), ("left", "up"), ("left", "down")}
    assert _worst_drift(system, system._elements.values()) < TOL

