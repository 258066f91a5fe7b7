"""Oracle memo tables are freed with their system."""

from __future__ import annotations

import gc
import weakref

from coxbruhat import coset_max_candidates, coxeter_system, lower_interval
from coxbruhat.oracle import brute_coset_max, brute_interval


def test_system_is_collectable_after_oracle_calls():
    system = coxeter_system("B3")
    w = system.element("s1 s2 s3 s2 s1")
    x = system.element("s3")
    J = frozenset((0, 1))
    assert brute_interval(w) == lower_interval(w).members
    q = brute_coset_max(w, x, J)
    assert coset_max_candidates(w, x, J) == frozenset((q,))
    ref = weakref.ref(system)
    del system, w, x, q
    gc.collect()
    assert ref() is None
