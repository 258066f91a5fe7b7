"""max_in_coset and shifted_max_set with warm elements.

Every form of J gives the same maximum and shift, the shift taken from the
decomposition that checks the coset equals x^-1 q, and the representatives
of shifted_max_set come in ShortLex order.
"""

from __future__ import annotations

import pytest

from coxbruhat import coxeter_system, max_in_coset, min_reps_leq, shifted_max_set
from conftest import all_gensets


def test_every_form_of_j_gives_the_memoised_result():
    system = coxeter_system("A4")
    w = system.elements()[-1]
    x = system.element("s2 s3")
    res = max_in_coset(w, x, frozenset((0, 1)))
    for J in ([0, 1], (1, 0), {0, 1}, frozenset((0, 1))):
        got = max_in_coset(w, x, J)
        assert got.maximum is res.maximum and got.shift is res.shift
        assert got == res
        assert got.J == frozenset((0, 1))


@pytest.mark.parametrize("name", ["a4", "b3", "h3"])
def test_shift_is_x_inverse_times_maximum(name, request):
    system = request.getfixturevalue(name)
    for w in system.elements():
        for J in all_gensets(system):
            for x in min_reps_leq(w, J):
                res = max_in_coset(w, x, J)
                assert res.shift is x.inverse() * res.maximum


@pytest.mark.parametrize("name", ["a4", "b3", "h3"])
def test_shifted_max_set_keys_in_shortlex_order(name, request):
    system = request.getfixturevalue(name)
    for w in system.elements():
        for J in all_gensets(system):
            assert list(shifted_max_set(w, J).pairs) == sorted(min_reps_leq(w, J))
