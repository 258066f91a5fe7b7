"""Coset stabilisers in the recursion trace and memo, checked from their definition.

A generator t stabilises x W_J exactly when x^-1 t x lies in W_J, i.e. its
support is inside J.  The check multiplies the elements out and is
independent of how the recursion finds the stabilisers.
"""

from __future__ import annotations

import pytest

from coxbruhat import (
    InternalAssertionFailed,
    coxeter_system,
    max_in_coset,
    min_reps_leq,
)
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
