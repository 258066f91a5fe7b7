"""Elements built one generator step from a neighbour keep accurate root sums.

An element holds no matrix, only its word and two rows of root sums, the
column sums of the matrices of w^-1 and w.  A generator step (w*s or s*w from
w) moves the sums on its own side as a row and reflects the other side's by
the root w(alpha_s) or w^-1(alpha_s), read along w's canonical word
(``CoxeterSystem._root``).  Walks (``normalize``, ``multiply``) carry the two
sum rows along the rest of the word.  These tests rebuild the matrices of w
and w^-1 along the canonical word, independently of the system's own code, and
check the roots against their columns and the carried sums against their
column sums.
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
    """Largest carried root sum (``_lsum``, ``_rsum``) off the column sums of the
    rebuilt matrices of w^-1 and w."""
    gens = _generator_matrices(system)
    worst = 0.0
    for w in elements:
        mat, imat = _rebuilt(system, gens, w.word)
        for sums, ref in ((w._lsum, imat), (w._rsum or system._right_sums(w), mat)):
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
        if u.word:  # a right down-step: a walk interns no prefix
            system._step(u, u.word[-1])
    elems = system.elements(max_length)
    for _ in range(2000):
        a, b = rng.choice(elems), rng.choice(elems)
        bruhat.leq(a, b)
        system.multiply(a, b.inverse())

    assert made == {("right", "up"), ("right", "down"), ("left", "up"), ("left", "down")}
    assert _worst_drift(system, system._elements.values()) < TOL


@pytest.mark.parametrize("name, max_length", [("B4", None), ("F4", None), ("A~2", 12)])
def test_enumerated_sums_from_their_neighbours(name, max_length):
    """In ShortLex order each element is a step off a shorter neighbour, which gives
    it both sum rows."""
    system = coxeter_system(name)
    assert _worst_drift(system, system.elements(max_length)) < TOL


def _reduced_word(system, length, rng):
    """A random reduced word of the given length, by right ascents."""
    w = system.identity
    while w.length < length:
        w = system._step(w, rng.choice([s for s in range(system.rank) if s not in w.right_descents]))
    return w.word


def _root_cases():
    for name in ("H3", "B4", "F4"):
        system = coxeter_system(name)
        yield name, system, [w.word for w in system.elements()]
    rng = random.Random(13)
    for name in ("A~2", "A~3", "A~4"):
        system = coxeter_system(name)
        yield name, system, [_reduced_word(system, rng.randint(40, 63), rng) for _ in range(6)]


def test_roots_are_columns_of_the_rebuilt_matrices():
    """w(alpha_s) along the reversed word and w^-1(alpha_s) along the word are column s
    of the matrices of w and w^-1."""
    for name, system, words in _root_cases():
        gens, worst = _generator_matrices(system), 0.0
        for word in words:
            mat, imat = _rebuilt(system, gens, word)
            for s in range(system.rank):
                for root, ref in ((system._root(s, reversed(word)), mat),
                                  (system._root(s, word), imat)):
                    worst = max(worst, max(abs(x - row[s]) for x, row in zip(root, ref)))
        assert worst < TOL, f"{name}: {worst}"
