"""Outputs do not depend on the order in which elements were interned.

Elements hash by identity, so set iteration follows memory addresses.  A
system whose elements were interned in a shuffled order must still give the
same diagrams, shift tables, decompositions and BP verdicts as a fresh one.
"""

from __future__ import annotations

import random

import pytest

from coxbruhat import bp_report, coxeter_system, decompose_poincare, hasse_dot, shifted_max_set

JS = (frozenset({0}), frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))


def _outputs(system):
    out = []
    for w in system.elements():
        out.append(hasse_dot(w))
        out.append(hasse_dot(w, JS[1]))
        for J in JS:
            sms = shifted_max_set(w, J)
            out.append([(str(x), str(m)) for x, m in sms.pairs.items()])
            out.append([str(m) for m in sorted(sms.values)])
            out.append(decompose_poincare(w, J).factored_str())
            out.append(bp_report(w, J).is_bp)
    return out


@pytest.mark.parametrize("name, seed", [("A3", 1), ("B3", 2), ("H3", 3)])
def test_outputs_match_after_shuffled_interning(name, seed):
    fresh = coxeter_system(name)
    words = [w.word for w in coxeter_system(name).elements()]
    random.Random(seed).shuffle(words)
    shuffled = coxeter_system(name)
    for word in words:
        shuffled._intern(word)
    assert list(shuffled._elements) == [(), *((s,) for s in range(3))] + [
        word for word in words if len(word) > 1
    ]
    assert _outputs(fresh) == _outputs(shuffled)
