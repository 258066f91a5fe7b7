"""Coset stabilisers in the recursion trace, checked from their definition.

A generator t stabilises x W_J exactly when x^-1 t x lies in W_J, i.e. its
support is inside J.  The check multiplies the elements out and is
independent of how the recursion finds the stabilisers.  The recursion reads
them off the root x^-1(alpha_t), a column of the matrix of x^-1: its fold-up
pass carries one row, the sum of that matrix's rows outside J, and t is a
stabiliser when the root's coordinates outside J, all of one sign, sum to zero.
Deodhar's lemma on the longer element t x is a second reference; at the length
cap, where t x cannot be built, the oracle decides it on words by braid
rewriting.  The stabilisers of (x, J) are those of the first level of
``max_in_coset(x, x, J)``.
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
from coxbruhat import coset_max, oracle
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


def _stabilizers(x, J):
    """The coset stabilisers the recursion finds at its first level, x itself."""
    return max_in_coset(x, x, J).trace[0].coset_stabilizers


@pytest.mark.parametrize("kind", ["A3", "B3", "H3", "D4", "F4"])
def test_memoised_stabilizers_match_definition(kind):
    """Every pair with x in W^J, not just those a query meets, checked at the
    first level of its trace."""
    system = coxeter_system(kind)
    pairs = 0
    for J in all_gensets(system):
        for x in system.elements():
            if x.length and not x.right_descents & J:  # x in W^J, x != e
                x_inv = x.inverse()
                expected = {t for t in range(system.rank)
                            if (x_inv * system.generator(t) * x).support <= J}
                assert _stabilizers(x, J) == expected, f"{kind}: x={x} J={system.genset_str(J)}"
                pairs += 1
    assert pairs


def test_oracle_catches_a_wrong_memoised_stabilizer(monkeypatch):
    """A negative root tolerance empties every stabiliser set the recursion reads,
    which gives wrong maxima that pass its own checks; coset_max_candidates finds
    the stabilisers by building t x and stays right."""
    system = coxeter_system("A3")
    triples = [(w, x, J) for w in system.elements() for J in all_gensets(system)
               for x in min_reps_leq(w, J)]
    refs = [max_in_coset(w, x, J).maximum for w, x, J in triples]
    monkeypatch.setattr(coset_max, "ZERO_TOL", -1.0)
    wrong = 0
    for (w, x, J), ref in zip(triples, refs):
        assert set(coset_max_candidates(w, x, J)) == {ref}
        try:
            result = max_in_coset(w, x, J)
        except InternalAssertionFailed:
            continue
        assert not any(step.coset_stabilizers for step in result.trace)
        wrong += result.maximum is not ref
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
            if x.length and not x.right_descents & J:  # x in W^J, x != e
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


def _capped_a3():
    """x = s1 s2 s3 in A3 with length_cap=3."""
    return CoxeterSystem(coxeter_matrix("A3"), length_cap=3).element("s1 s2 s3")


@pytest.mark.parametrize("J", [(), (0,), (1,)])
def test_candidates_at_the_length_cap(J):
    """t x is too long to build for x = s1 s2 s3 at length_cap=3; the oracle still
    finds the recursion's maximum."""
    x = _capped_a3()
    assert coset_max_candidates(x, x, J) == {max_in_coset(x, x, J).maximum}


@pytest.mark.parametrize("J, stab", [((0,), {1}), ((1,), {2})])
def test_oracle_stabilizers_at_the_length_cap_match_the_trace(J, stab):
    x = _capped_a3()
    found = oracle._coset_stabilizers(x, frozenset(J))
    assert set(found) == stab == max_in_coset(x, x, J).trace[0].coset_stabilizers


@pytest.mark.parametrize("kind", ["A3", "B3"])
def test_oracle_stabilizers_at_the_cap_match_those_below_it(kind):
    """At length_cap = length(x) the oracle decides by braid rewriting, below it by
    building t x; both rules agree for every x in W^J of the group."""
    reference = coxeter_system(kind)
    pairs = 0
    for cap in range(1, reference.elements()[-1].length + 1):
        capped = CoxeterSystem(coxeter_matrix(kind), length_cap=cap)
        for J in all_gensets(capped):
            for x in capped.elements():
                if x.length == cap and not x.right_descents & J:
                    expected = oracle._coset_stabilizers(reference.element(str(x)), J)
                    assert oracle._coset_stabilizers(x, J) == expected, f"{kind}: x={x}"
                    pairs += 1
    assert pairs
