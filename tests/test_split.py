"""The unchecked parabolic split behind decompose, and the checks around it.

``parabolic._split(w, J, left)`` is what the coset recursion and the other
internal callers use once ``J`` is checked; ``decompose`` checks ``J`` and
``side`` and wraps it.  Each public entry checks its generator sets once.
``CoxeterSystem.clear_caches`` drops the memos and keeps the elements.
"""

from __future__ import annotations

import pytest

from coxbruhat import (
    bp_report,
    coset_rep,
    coxeter_system,
    decompose,
    decompose_poincare,
    max_in_coset,
    relative_decompose_poincare,
    relative_rep,
    shifted_max_set,
)
from coxbruhat.core import CoxeterSystem
from coxbruhat.parabolic import _split
from conftest import all_gensets


@pytest.mark.parametrize("kind", ["A4", "B3", "H3", "I2:7"])
def test_split_agrees_with_decompose(kind):
    system = coxeter_system(kind)
    for w in system.elements():
        for J in all_gensets(system):
            for side in ("right", "left"):
                d = decompose(w, J, side)
                v, u = _split(w, J, side == "left")
                assert (v, u) == (d.v, d.u), (kind, str(w), sorted(J), side)


def test_decompose_checks_j_before_side(a3):
    w = a3.element("s1 s2")
    with pytest.raises(ValueError, match="generator index"):
        decompose(w, [7], "up")
    with pytest.raises(ValueError, match="generator index"):
        decompose(w, [True], "right")
    with pytest.raises(ValueError, match="side must be"):
        decompose(w, [0], "up")
    with pytest.raises(ValueError, match="side must be"):
        decompose(w, [], "")


@pytest.fixture
def count_checks(monkeypatch):
    calls = []
    original = CoxeterSystem.check_genset

    def counted(self, gens):
        calls.append(gens)
        return original(self, gens)

    monkeypatch.setattr(CoxeterSystem, "check_genset", counted)

    def run(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    return run


def test_each_generator_set_is_checked_once(count_checks):
    system = coxeter_system("A3")
    w = system.element("s1 s2 s3 s2 s1")
    assert bp_report(w, [0, 1]).is_bp is False
    assert bp_report(w, [0]).is_bp is True
    assert count_checks(coset_rep, w, [0, 1]) == 1
    assert count_checks(bp_report, w, [0, 1]) == 1
    assert count_checks(bp_report, w, [0]) == 1
    assert count_checks(decompose_poincare, w, [0, 1]) == 1
    assert count_checks(relative_rep, system.element("s3 s2"), [0], [0, 1]) == 2
    for y in system.elements():
        for J, K in (([], [0]), ([0], [0, 1]), ([1], [0, 1, 2]), ([], [0, 1, 2])):
            if not y.right_descents & set(J):
                assert count_checks(relative_decompose_poincare, y, J, K) == 2


def _sweep(system):
    out = []
    for w in system.elements():
        for J in all_gensets(system):
            sms = shifted_max_set(w, J)
            out.append((w, J, tuple(sms.pairs.items()),
                        decompose_poincare(w, J).total, bp_report(w, J).is_bp))
            # the tables do not use the recursion, so run it too
            out.append(tuple(max_in_coset(w, x, J).maximum for x in sms.pairs))
    return out


def test_clear_caches_keeps_elements_and_results():
    system = coxeter_system("B3")
    first = _sweep(system)
    elements = dict(system._elements)
    memos = (system._leq_cache, system._interval_cache,
             system._shift_tables, system._split_cache, system._term_cache)
    assert all(memos)
    system.clear_caches()
    assert not any(memos)
    assert system._elements == elements
    assert _sweep(system) == first
    assert system._elements == elements


def test_clear_caches_drops_stored_traces():
    system = coxeter_system("A4")
    w = system.elements()[-1]
    x = system.element("s2 s3")
    before = max_in_coset(w, x, [0, 1])
    words = [str(step.maximum) for step in before.trace]
    system.clear_caches()
    after = max_in_coset(w, x, [0, 1])
    assert after is not before
    assert after.maximum is before.maximum and after.shift is before.shift
    assert [str(step.maximum) for step in after.trace] == words
