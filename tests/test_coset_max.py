"""The coset-maximum recursion and its invariants.

Exhaustive sweeps compare against the brute-force oracle and check the
structural properties of the shift map x -> m (graded isomorphism of the
coset fiber with a lower interval, antitone behaviour, the sandwich
between the two extreme shifts, and choice independence of the recursion).
"""

from __future__ import annotations

import pytest

from coxbruhat import (
    EmptyIntersection,
    InternalAssertionFailed,
    NotMinimalRep,
    coset_max_candidates,
    coset_rep,
    coset_shift,
    coxeter_system,
    decompose,
    is_min_rep,
    leq,
    lower_interval,
    max_in_coset,
    max_in_parabolic,
    max_in_relative_coset,
    min_reps_leq,
    relative_shift,
    shifted_max_set,
)
from coxbruhat.oracle import brute_coset_max, brute_interval
from conftest import all_gensets


def _fiber(w, x, J):
    """[e,w] meet xW_J, straight from the interval."""
    return sorted(y for y in lower_interval(w).members if coset_rep(y, J) is x)


def test_max_in_parabolic_base_case(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    # fold of the J-letters of w: s1 * s2 * s2 * s1 = s1 s2 s1
    assert str(max_in_parabolic(w, J)) == "s1 s2 s1"
    assert max_in_parabolic(w, frozenset()) is a3.identity
    assert max_in_parabolic(a3.identity, J) is a3.identity


def test_max_in_parabolic_is_brute_max(a3):
    for w in a3.elements(6):
        for J in all_gensets(a3):
            got = max_in_parabolic(w, J)
            assert got == brute_coset_max(w, a3.identity, J)


def test_shift_table_of_running_example(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    sms = shifted_max_set(w, J)
    table = {str(x): str(m) for x, m in sms.pairs.items()}
    assert table == {
        "e": "s1 s2 s1",
        "s3": "s1 s2 s1",
        "s2 s3": "s2 s1",
        "s1 s2 s3": "s2 s1",
    }
    assert {str(m) for m in sms.values} == {"s1 s2 s1", "s2 s1"}
    assert list(sms.pairs) == sorted(sms.pairs)


def test_blue_coset_of_running_example(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    x = a3.element("s2 s3")
    res = max_in_coset(w, x, J)
    assert str(res.maximum) == "s2 s3 s2 s1"
    assert res.maximum is a3.multiply(x, res.shift)
    assert coset_shift(w, x, J) is res.shift


def test_construction_table(a3):
    # the three recursion rows for w = s1 s2 s3 s2 s1, J = {s1, s2}
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    rows = {
        "s3": ("s3", "s1 s2", "s3 s2 s1", "s1", "s3", "s1", "s2 s1", "s3 s1 s2 s1"),
        "s2 s3": ("s2", "s1 s3", "s2 s3 s1", "s3", "s2", "s3", "s3 s1", "s2 s3 s2 s1"),
        "s1 s2 s3": ("s1", "s3 s2", "s1 s2 s3", "s2 s3", "s1", "s3 s2", "s2 s3", "w"),
    }
    for x_text, (dl, u, v, jprime, s, qp, qpp, q) in rows.items():
        x = a3.element(x_text)
        step = max_in_coset(w, x, J).trace[0]
        assert step.x is x
        assert step.left_descents == a3.parse_genset(dl.replace(" ", ","))
        assert step.u == a3.element(u)
        assert step.v == a3.element(v)
        assert a3.multiply(step.u, step.v) is w
        assert step.coset_stabilizers == a3.parse_genset(jprime.replace(" ", ","))
        assert a3.names[step.s] == s
        assert step.prefix_max == a3.element(qp)
        assert step.suffix_max == a3.element(qpp)
        assert step.maximum == (w if q == "w" else a3.element(q))


def test_s5_example(a4):
    w = a4.element("s3 s1 s2 s4 s3 s2 s1")
    J = a4.parse_genset("s1,s2,s4")
    x = a4.element("s4 s3")
    res = max_in_coset(w, x, J)
    assert res.maximum == a4.element("s3 s1 s4 s3 s2 s1")
    assert res.shift == a4.element("s4 s1 s2 s1")
    assert res.maximum is a4.multiply(x, res.shift)
    step = res.trace[0]
    assert step.left_descents == frozenset((3,))
    assert step.u == a4.element("s3 s1 s2")
    assert step.v == a4.element("s4 s3 s2 s1")
    assert step.coset_stabilizers == a4.parse_genset("s1,s3")
    assert a4.names[step.s] == "s4"
    assert step.prefix_max == a4.element("s3 s1")
    assert step.suffix_max == a4.element("s3 s2 s1")
    assert brute_coset_max(w, x, J) == res.maximum


def test_agrees_with_brute_force(a3):
    for w in a3.elements(6):
        for J in all_gensets(a3):
            for x in sorted(min_reps_leq(w, J)):
                res = max_in_coset(w, x, J)
                assert brute_coset_max(w, x, J) is res.maximum
                assert res.maximum is a3.multiply(x, res.shift)
                assert res.shift.support <= J
                assert leq(res.maximum, w)


def test_choice_independence(a3):
    for w in a3.elements(6):
        for J in all_gensets(a3):
            for x in sorted(min_reps_leq(w, J)):
                q = max_in_coset(w, x, J).maximum
                assert coset_max_candidates(w, x, J) == frozenset((q,))


def test_graded_isomorphism(a3):
    # y -> x^{-1} y maps the coset fiber onto [e, m], shifting lengths
    for w in a3.elements(6):
        for J in all_gensets(a3):
            for x in sorted(min_reps_leq(w, J)):
                m = coset_shift(w, x, J)
                fiber = _fiber(w, x, J)
                shifted = [a3.multiply(x.inverse(), y) for y in fiber]
                assert set(shifted) == lower_interval(m).members
                for y, z in zip(fiber, shifted):
                    assert z.length == y.length - x.length
                for y1, z1 in zip(fiber, shifted):
                    for y2, z2 in zip(fiber, shifted):
                        assert leq(y1, y2) == leq(z1, z2)


def test_shift_at_coset_rep_is_parabolic_part(a3, b3):
    for system in (a3, b3):
        for w in system.elements(6 if system is a3 else 5):
            for J in all_gensets(system):
                d = decompose(w, J, "right")
                assert coset_shift(w, d.v, J) is d.u


def test_antitone_and_sandwich(a3):
    for w in a3.elements(6):
        for J in all_gensets(a3):
            v = coset_rep(w, J)
            sms = shifted_max_set(w, J)
            top = sms.pairs[a3.identity]
            bottom = sms.pairs[v]
            for x1, m1 in sms.pairs.items():
                assert leq(bottom, m1) and leq(m1, top)
                for x2, m2 in sms.pairs.items():
                    if leq(x1, x2):
                        assert leq(m2, m1)


def test_generator_coset_trichotomy(a3, b3):
    # for x in W^J and s with sx > x: sx lands in W^J or in xW_J, never both
    for system in (a3, b3):
        for x in system.elements(6 if system is a3 else 5):
            for J in all_gensets(system):
                if not is_min_rep(x, J):
                    continue
                for s in range(system.rank):
                    if s in x.left_descents:
                        continue
                    sx = system._step(x, s, left=True)
                    in_quotient = is_min_rep(sx, J)
                    in_coset = coset_rep(sx, J) is x
                    assert in_quotient != in_coset


def test_stabilizers_for_single_generator_coset(a3, b3):
    # for x a single generator, the stabilizer set is exactly the
    # J-generators commuting with it
    for system in (a3, b3):
        for J in all_gensets(system):
            for s in range(system.rank):
                if s in J:
                    continue
                x = system.generator(s)
                w0 = system.elements(6 if system is a3 else 5)[-1]
                if not leq(x, w0):
                    continue
                step = max_in_coset(w0, x, J).trace[0]
                expected = frozenset(t for t in J if system.m(t, s) == 2)
                assert step.coset_stabilizers == expected


def test_factor_structure_lemma(a3):
    # every fiber element splits as a W_{J'} prefix under u times a
    # suffix below v staying in the coset
    from coxbruhat.oracle import all_reduced_words

    for w in a3.elements(6):
        for J in all_gensets(a3):
            for x in sorted(min_reps_leq(w, J)):
                if x.is_identity:
                    continue
                step = max_in_coset(w, x, J).trace[0]
                for y in _fiber(w, x, J):
                    assert any(
                        leq(y_u := a3.normalize(word[:k]), step.u)
                        and leq(y_v := a3.normalize(word[k:]), step.v)
                        and coset_rep(y_v, J) is x
                        and y_u.support <= step.coset_stabilizers
                        for word in all_reduced_words(y)
                        for k in range(len(word) + 1)
                    ), (w, x, sorted(J), y)


def test_memoization(a3):
    w = a3.element("s1 s2 s3 s2 s1")
    J = frozenset((0, 1))
    x = a3.element("s2 s3")
    first, again = max_in_coset(w, x, J), max_in_coset(w, x, J)
    assert again.maximum is first.maximum and again.shift is first.shift  # interned elements
    assert again == first


def test_errors(a3):
    w = a3.element("s1 s2")
    with pytest.raises(NotMinimalRep):
        max_in_coset(w, a3.element("s1"), frozenset((0,)))
    with pytest.raises(EmptyIntersection):
        max_in_coset(w, a3.element("s3"), frozenset((0, 1)))


@pytest.mark.parametrize("kind, w, x, J, v, match", [
    ("A2", "s2 s1", "s2 s1", (), "e", "no left descent"),
    ("A3", "s1 s3", "s3", (0,), "s1 s3", "not a left descent"),  # s = s1 lengthens x = s3
    # s x = s1 is not below v = s2: the next level's split of v leaves no left descent
    ("A2", "s2 s1", "s2 s1", (), "s2", "no left descent"),
    # s = s1 lengthens x = s3 to s1 s3, which is in W^J and below v; the next level
    # (s1 s3, s1 s3) steps back to x = s3, so without the guard the levels repeat forever
    ("A3", "s1 s3", "s3", (), "s1 s3", "not a left descent"),
])
def test_a_corrupted_level_split_fails_its_check(kind, w, x, J, v, match):
    """The first level's split w = u v, away from D_L(x), planted as (v, e): the
    down pass raises, or the level below it does."""
    system = coxeter_system(kind)
    w, x, J = system.element(w), system.element(x), frozenset(J)
    system._split_cache[w, system._all_gens - x.left_descents, True] = (
        system.element(v), system.identity)
    with pytest.raises(InternalAssertionFailed, match=match):
        max_in_coset(w, x, J)


def test_a_shortening_fold_up_step_fails_its_check():
    """s2 s1 corrupted to e in the left slot of s1: the base maximum of (s2 s1, e,
    {s1}) is s1, and the fold-up by s = s2 then shortens it."""
    system = coxeter_system("A2")
    system.generator(0)._mul[system.rank + 1] = system.identity
    with pytest.raises(InternalAssertionFailed, match="shortened"):
        max_in_coset(system.element("s2 s1"), system.element("s2"), frozenset({0}))


def test_dihedral_systems(i25, i2inf):
    for system, cap in ((i25, 5), (i2inf, 8)):
        for w in system.elements(cap):
            for J in all_gensets(system):
                for x in sorted(min_reps_leq(w, J)):
                    res = max_in_coset(w, x, J)
                    assert brute_coset_max(w, x, J) is res.maximum


def test_relative_max_derived_table(a3):
    # w = s1 s2 s3, J = {s1} inside K = {s1, s2}
    w = a3.element("s1 s2 s3")
    J = frozenset((0,))
    K = frozenset((0, 1))
    expect = {"e": "s1 s2", "s3": "e", "s2 s3": "e", "s1 s2 s3": "e"}
    for x_text, m_text in expect.items():
        x = a3.element(x_text)
        res = max_in_relative_coset(w, x, J, K)
        assert res.shift == a3.element(m_text), (x_text, str(res.shift))
        assert res.maximum is a3.multiply(x, res.shift)
        assert res.K == K
        assert relative_shift(w, x, J, K) is res.shift


def _relative_fiber(w, x, J, K):
    return sorted(
        y
        for y in brute_interval(w)
        if is_min_rep(y, J) and coset_rep(y, K) is x
    )


def test_relative_properties_exhaustive(a3):
    gensets = all_gensets(a3)
    for J in gensets:
        for K in gensets:
            if not J <= K:
                continue
            for w in a3.elements(6):
                if not is_min_rep(w, J):
                    continue
                d = decompose(w, K, "right")
                shifts = {}
                for x in sorted(min_reps_leq(w, K)):
                    res = max_in_relative_coset(w, x, J, K)
                    q, m = res.maximum, res.shift
                    shifts[x] = m
                    # q is the unique maximum of the relative fiber
                    fiber = _relative_fiber(w, x, J, K)
                    assert q in fiber
                    assert all(leq(y, q) for y in fiber)
                    # m lives in the right slice
                    assert m.support <= K and is_min_rep(m, J)
                    # graded isomorphism with the relative interval of m
                    shifted = {a3.multiply(x.inverse(), y) for y in fiber}
                    assert shifted == {
                        z for z in lower_interval(m).members if is_min_rep(z, J)
                    }
                    for y in fiber:
                        assert a3.multiply(x.inverse(), y).length == y.length - x.length
                # relative analogue of the shift at the coset representative
                assert shifts[d.v] is d.u
                # antitone plus sandwich
                for x1, m1 in shifts.items():
                    assert leq(shifts[d.v], m1) and leq(m1, shifts[a3.identity])
                    for x2, m2 in shifts.items():
                        if leq(x1, x2):
                            assert leq(m2, m1)


def test_relative_reduces_to_plain_when_j_empty(a3):
    K = frozenset((0, 1))
    for w in a3.elements(6):
        for x in sorted(min_reps_leq(w, K)):
            rel = max_in_relative_coset(w, x, frozenset(), K)
            plain = max_in_coset(w, x, K)
            assert rel.maximum is plain.maximum
            assert rel.shift is plain.shift


def test_relative_errors(a3):
    w = a3.element("s1 s2 s3")
    with pytest.raises(NotMinimalRep):
        max_in_relative_coset(a3.element("s1"), a3.identity, frozenset((0,)), frozenset((0, 1)))
    from coxbruhat import BadSubsetChain

    with pytest.raises(BadSubsetChain):
        max_in_relative_coset(w, a3.identity, frozenset((2,)), frozenset((0, 1)))
    with pytest.raises(EmptyIntersection):
        max_in_relative_coset(a3.element("s3"), a3.element("s2 s3"), frozenset((0,)), frozenset((0, 1)))
