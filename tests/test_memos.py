"""The split and Poincare-term memos: hits give what misses give, and checks still run.

``parabolic._split(w, J, left)`` keeps its ``(v, u)`` per ``(w, J, left)`` and
``decompose_poincare`` keeps one ``Term`` per ``(x, shifted maximum)``, both in
the system and emptied by ``clear_caches()``.  These tests compare cold
answers (right after ``clear_caches()``) and warm ones with a fresh system's,
check that a corrupted split entry still trips the per-entry checks of the
sweeps, that relative decompositions never read a plain term, and that a
caller's change to a returned result does not reach the shift-table memo.
"""

from __future__ import annotations

import pytest

from coxbruhat import (
    InternalAssertionFailed,
    IntPolynomial,
    bp_report,
    coxeter_system,
    decompose_poincare,
    is_min_rep,
    max_in_relative_coset,
    relative_decompose_poincare,
    relative_poincare,
    shifted_max_set,
)
from coxbruhat.coset_max import _shift_table
from coxbruhat.parabolic import _split
from conftest import all_gensets

KINDS = ["A4", "B3", "H3", "D4", "I2:7"]


def _words(elements):
    return tuple(y.word for y in elements)


def _coeffs(factorization):
    return None if factorization is None else tuple(p.coeffs for p in factorization)


def _plain(dec, sms, bp):
    """The three sweep results for one (w, J) as words and coefficients, field by field."""
    return (
        (dec.w.word, dec.J, dec.K, dec.total.coeffs, _coeffs(dec.factorization),
         tuple((t.x.word, t.shift.coeffs, t.shifted_max.word, t.factor.coeffs)
               for t in dec.terms)),
        (sms.w.word, sms.J, tuple((x.word, m.word) for x, m in sms.pairs.items()),
         frozenset(m.word for m in sms.values)),
        (bp.w.word, bp.J, bp.v.word, bp.u.word, bp.parabolic_max.word, bp.is_bp,
         _coeffs(bp.factorization)),
    )


def _sweeps(w, J):
    return decompose_poincare(w, J), shifted_max_set(w, J), bp_report(w, J)


def _check_split(w, J, left, v, u):
    """w = v u (u v when left), length-additively, with u in W_J and v in W^J."""
    assert (u * v if left else v * u) is w
    assert v.length + u.length == w.length
    assert u.support <= J
    assert not ((v.left_descents if left else v.right_descents) & J)


@pytest.mark.parametrize("kind", KINDS)
def test_warm_answers_are_the_cold_answers(kind):
    system, fresh = coxeter_system(kind), coxeter_system(kind)
    for w, w_fresh in zip(system.elements(), fresh.elements()):
        for J in all_gensets(system):
            expected = _plain(*_sweeps(w_fresh, J))
            system.clear_caches()
            cold = _sweeps(w, J)
            warm = _sweeps(w, J)
            assert _plain(*cold) == expected, (kind, str(w), sorted(J))
            assert _plain(*warm) == expected, (kind, str(w), sorted(J))
            for before, after in zip(cold[0].terms, warm[0].terms):
                assert after is before
                assert system._term_cache[after.x, after.shifted_max] is after


@pytest.mark.parametrize("kind", KINDS)
def test_warm_splits_are_the_cold_splits(kind):
    system, fresh = coxeter_system(kind), coxeter_system(kind)
    for w, w_fresh in zip(system.elements(), fresh.elements()):
        for J in all_gensets(system):
            for left in (False, True):
                expected = _words(_split(w_fresh, J, left))
                system.clear_caches()
                cold = _split(w, J, left)
                warm = _split(w, J, left)
                assert warm is cold and system._split_cache[w, J, left] is cold
                assert _words(cold) == expected, (kind, str(w), sorted(J), left)
                _check_split(w, J, left, *cold)


def _corrupted_split(system, w, J, corrupt):
    """Memoise _split(q, J) for q, the table's maximum for the coset of x, with
    no checked shifts in the system, then corrupt that entry."""
    xs, qs, _ = _shift_table(w, J)
    x, q = max(zip(xs, qs), key=lambda xq: xq[0].length)
    system.clear_caches()
    v, u = _split(q, J)
    assert v is x and u.length
    system._split_cache[q, J, False] = corrupt(system, v, u)


@pytest.mark.parametrize("corrupt, match", [
    (lambda system, v, u: (system.identity, u), "not in"),  # another coset
    (lambda system, v, u: (v, system.identity), "length-additive"),  # a shorter factor
])
def test_a_corrupted_split_fails_the_entry_checks(corrupt, match):
    system = coxeter_system("A3")
    w, J = system.element("s1 s2 s3 s2 s1"), frozenset({0, 1})
    _corrupted_split(system, w, J, corrupt)
    with pytest.raises(InternalAssertionFailed, match=match):
        shifted_max_set(w, J)
    with pytest.raises(InternalAssertionFailed, match=match):
        decompose_poincare(w, J)


def test_a_corrupted_split_fails_the_relative_checks():
    system = coxeter_system("A3")
    w, J, K = system.element("s1 s2 s3 s2 s1"), frozenset({1}), frozenset({0, 1})
    xs, qs, _ = _shift_table(w, K)
    relative_decompose_poincare(w, J, K)  # memoises _split(q_K, J) for every entry
    x, q_K = max(zip(xs, qs), key=lambda xq: xq[0].length)
    system._split_cache[q_K, J, False] = (system.identity, system.identity)
    with pytest.raises(InternalAssertionFailed, match="not in"):
        relative_decompose_poincare(w, J, K)


def test_a_corrupted_relative_split_fails_the_length_check():
    """The K-split of a relative maximum q corrupted to (x, e): q is in x W_K and
    below w, and e lies in W^J meet W_K, but q is longer than x."""
    system = coxeter_system("A3")
    w, J, K = system.element("s1 s2 s3 s2 s1"), frozenset({1}), frozenset({0, 1})
    x, q = next((x, q) for x, q_K in zip(*_shift_table(w, K)[:2])
                if (q := _split(q_K, J)[0]) is not q_K and q is not x)
    system._split_cache[q, K, False] = (x, system.identity)
    with pytest.raises(InternalAssertionFailed, match="length-additive"):
        max_in_relative_coset(w, x, J, K)


def test_a_corrupted_relative_j_split_fails_the_j_minimality_check():
    """The J-split of q_K corrupted to (q_K, e): q = q_K passes every check of the
    K-coset, since it is the maximum there, but it has a right descent in J."""
    system = coxeter_system("A3")
    w, J, K = system.element("s1 s2 s3 s2 s1"), frozenset({1}), frozenset({0, 1})
    x, q_K = next((x, q_K) for x, q_K in zip(*_shift_table(w, K)[:2]) if q_K.right_descents & J)
    system._split_cache[q_K, J, False] = (q_K, system.identity)
    with pytest.raises(InternalAssertionFailed, match="J-minimal"):
        max_in_relative_coset(w, x, J, K)


def test_relative_terms_never_read_plain_terms(a4):
    gensets = all_gensets(a4)
    for w in a4.elements():
        for J in gensets:
            decompose_poincare(w, J)
    shared = 0
    for w in a4.elements():
        for K in gensets:
            for J in (J for J in gensets if J <= K and is_min_rep(w, J)):
                for t in relative_decompose_poincare(w, J, K).terms:
                    assert t.shift == IntPolynomial.t_power(t.x.length)
                    assert t.factor == relative_poincare(t.shifted_max, J), (
                        str(w), sorted(J), sorted(K), str(t.x))
                    plain = a4._term_cache.get((t.x, t.shifted_max))
                    shared += plain is not None and plain.factor != t.factor
    assert shared  # the plain memo holds keys that relative terms meet with other factors


@pytest.mark.parametrize("kind, word, J", [
    ("A3", "s1 s2 s3 s2 s1", {0, 1}),
    ("H3", "s1 s2 s1 s3 s2 s1 s3", {1}),
])
def test_results_are_isolated_from_the_memo(kind, word, J):
    """Clearing or writing to a returned ShiftedMaxSet.pairs leaves the memoised
    table, the next shifted_max_set and the next decompose_poincare as they were."""
    system, J = coxeter_system(kind), frozenset(J)
    w = system.element(word)
    first, dec = shifted_max_set(w, J), decompose_poincare(w, J)
    pairs, entry = dict(first.pairs), system._shift_tables[w, J]
    first.pairs.clear()
    again = shifted_max_set(w, J)
    again.pairs[system.identity] = w
    assert system._shift_tables[w, J] is entry and dict(zip(entry[0], entry[2])) == pairs
    assert shifted_max_set(w, J).pairs == pairs and first.pairs == {}
    assert decompose_poincare(w, J) == dec
    assert [(t.x, t.shifted_max) for t in dec.terms] == list(pairs.items())
