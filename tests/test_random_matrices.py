"""Random Coxeter matrices against the brute-force oracles.

Ranks 3 to 5 with every bond drawn from 2, 3, 4, 5, 6, 7 and infinity, so bonds
that no preset puts side by side (6, 7 and infinity among them) meet in one
system.  Words of 5 to 12 letters are normalised and compared with braid
rewriting; for a normalised w of length at most 7 the lower interval, ``leq``,
the covers and, for every J, the shift table and the Poincare decomposition are
compared with the brute-force interval and coset maxima.  The examples are
derandomised, so every run draws the same matrices and words.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import attrgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from coxbruhat import CoxeterSystem, covers, decompose_poincare, leq, lower_interval, max_in_coset
from coxbruhat.coset_max import _shift_table
from coxbruhat.oracle import braid_equal, brute_coset_max, brute_interval

BONDS = (2, 3, 4, 5, 6, 7, 0)  # 0 is an infinite bond


@st.composite
def matrices_and_words(draw):
    rank = draw(st.integers(3, 5))
    m = [[1] * rank for _ in range(rank)]
    for i, j in itertools.combinations(range(rank), 2):
        m[i][j] = m[j][i] = draw(st.sampled_from(BONDS))
    word = draw(st.lists(st.integers(0, rank - 1), min_size=5, max_size=12))
    return m, tuple(word)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(matrices_and_words())
def test_fast_paths_match_the_oracles(case):
    m, word = case
    system = CoxeterSystem(m)
    w = system.normalize(word)
    assert braid_equal(system, word, w.word)
    if w.length > 7:
        return
    below = brute_interval(w)
    assert lower_interval(w).members == below
    assert all(leq(u, w) for u in below)
    assert covers(w) == {u for u in below if u.length == w.length - 1}
    sizes = Counter(u.length for u in below)
    ranks = [sizes[k] for k in range(w.length + 1)]
    shortlex = attrgetter("length", "word")
    for k in range(system.rank + 1):
        for J in map(frozenset, itertools.combinations(range(system.rank), k)):
            xs, qs, _ = _shift_table(w, J)
            assert list(xs) == sorted((u for u in below if not u.right_descents & J), key=shortlex)
            for x, q in zip(xs, qs):
                assert q is max_in_coset(w, x, J).maximum is brute_coset_max(w, x, J)
            assert list(decompose_poincare(w, J).total.coeffs) == ranks
