"""Coset stabilisers in the recursion trace, checked from their definition.

A generator t stabilises x W_J exactly when x^-1 t x lies in W_J, i.e. its
support is inside J.  The check multiplies the elements out and is
independent of how the recursion finds the stabilisers.
"""

from __future__ import annotations

import pytest

from coxbruhat import coxeter_system, max_in_coset, min_reps_leq
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
