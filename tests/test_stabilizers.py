"""Coset stabilisers in the recursion trace and memo, checked from their definition.

A generator t stabilises x W_J exactly when x^-1 t x lies in W_J, i.e. its
support is inside J.  The check multiplies the elements out and is
independent of how the recursion finds the stabilisers.  The recursion reads
them off the root x^-1(alpha_t); the rule it used before, by Deodhar's lemma
on the longer element t x, is kept here as a second reference.
"""

from __future__ import annotations

import pytest

from coxbruhat import (
    CoxeterSystem,
    InternalAssertionFailed,
    coxeter_matrix,
    coxeter_system,
    max_in_coset,
    min_reps_leq,
)
from coxbruhat.coset_max import _stabilizers
from coxbruhat.oracle import coset_max_candidates
from conftest import all_gensets


@pytest.mark.parametrize("kind", ["A3", "B3", "H3"])
def test_trace_stabilizers_match_definition(kind):
    system = coxeter_system(kind)
    seen = set()
    for w in system.elements():
        for J in all_gensets(system):
            for x in min_reps_leq(w, J):
                for step in max_in_coset(w, x, J).trace:
                    x_inv = step.x.inverse()
                    for t in J | step.x.support:
                        conj = x_inv * system.generator(t) * step.x
                        expected = conj.support <= J
                        assert (t in step.coset_stabilizers) == expected, (
                            f"{kind}: t={system.names[t]} x={step.x} J={system.genset_str(J)}")
                    seen.add((step.x, J))
    assert seen


@pytest.mark.parametrize("kind", ["A3", "B3", "H3"])
def test_memoised_stabilizers_match_definition(kind):
    system = coxeter_system(kind)
    for w in system.elements():
        for J in all_gensets(system):
            for x in min_reps_leq(w, J):
                max_in_coset(w, x, J)
    memo = system._stab_cache
    assert 0 < len(memo) <= len(system.elements()) * 2 ** system.rank
    for (x, J), stab in memo.items():
        x_inv = x.inverse()
        expected = {t for t in range(system.rank)
                    if (x_inv * system.generator(t) * x).support <= J}
        assert stab == expected, f"{kind}: x={x} J={system.genset_str(J)}"


def test_oracle_catches_a_wrong_memoised_stabilizer():
    """Empty stabiliser sets in the memo give wrong maxima that pass the recursion's
    own checks; coset_max_candidates does not read the memo and stays right."""
    system = coxeter_system("A3")
    reference = coxeter_system("A3")
    triples = [(w, x, J) for w in system.elements() for J in all_gensets(system)
               for x in min_reps_leq(w, J)]
    for w, x, J in triples:
        if x.length:
            system._stab_cache[x, J] = frozenset()
    wrong = 0
    for w, x, J in triples:
        ref = max_in_coset(reference.element(str(w)), reference.element(str(x)), J).maximum
        assert {str(q) for q in coset_max_candidates(w, x, J)} == {str(ref)}
        try:
            wrong += str(max_in_coset(w, x, J).maximum) != str(ref)
        except InternalAssertionFailed:
            pass
    assert wrong


def _stabilizers_by_deodhar(x, J):
    """t x W_J = x W_J exactly when t x is not in W^J (Deodhar's lemma); builds t x."""
    sys = x.system
    return frozenset(t for t in J | x.support if sys._step(x, t, True).right_descents & J)


@pytest.mark.parametrize("kind, max_length", [
    ("A4", None), ("B4", None), ("H3", None), ("D4", None), ("F4", None), ("I2:7", None),
    ("A~2", 8), ("A~3", 6),
])
def test_root_stabilizers_match_deodhar_rule(kind, max_length):
    system = coxeter_system(kind)
    pairs = 0
    for J in all_gensets(system):
        for x in system.elements(max_length):
            if not x.right_descents & J:  # x in W^J
                assert _stabilizers(x, J) == _stabilizers_by_deodhar(x, J), (
                    f"{kind}: x={x} J={system.genset_str(J)}")
                pairs += 1
    assert pairs


def test_stabilizers_at_the_length_cap_build_no_longer_element():
    system = CoxeterSystem(coxeter_matrix("A3"), length_cap=3)
    w = system.element("s1 s2 s3")
    result = max_in_coset(w, w, [])
    assert str(result.maximum) == "s1 s2 s3"
    assert result.shift is system.identity
    assert [step.coset_stabilizers for step in result.trace] == [frozenset()] * 3
