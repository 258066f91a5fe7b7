"""Parabolic subgroups W_J: coset representatives and decompositions.

For J a subset of the generators, every w factors uniquely as w = v u with
u in W_J, v of minimal length in the coset w W_J (equivalently: v has no
right descent in J) and length(w) = length(v) + length(u); mirrored on the
left.  The minimal representative is found by greedily stripping descents
lying in J.
"""

from __future__ import annotations

from typing import Iterable

from .bruhat import lower_interval
from .core import Element, GenSet, Record, _fill
from .errors import BadSubsetChain, InternalAssertionFailed, NotMinimalRep


class ParabolicDecomposition(Record):
    """w = v u (side="right", u in W_J) or w = u v (side="left")."""

    __slots__ = ("v", "u", "side", "J")

    def __init__(self, v, u, side, J):
        _fill(self, (v, u, side, J))


def is_min_rep(w: Element, J: Iterable[int], side: str = "right") -> bool:
    """True when w is the minimal-length element of its W_J coset.

    side="right": minimal in w W_J (no right descent inside J);
    side="left": minimal in W_J w (no left descent inside J).
    """
    J = w.system.check_genset(J)
    if side == "right":
        return not (w.right_descents & J)
    if side == "left":
        return not (w.left_descents & J)
    raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def decompose(w: Element, J: Iterable[int], side: str = "right") -> ParabolicDecomposition:
    """Length-additive parabolic factorisation of w with respect to J."""
    J = w.system.check_genset(J)
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    v, u = _split(w, J, side == "left")
    return ParabolicDecomposition(v, u, side, J)


def _split(w: Element, J: GenSet, left: bool = False) -> tuple[Element, Element]:
    """(v, u) with w = v u (or w = u v when left) and u in W_J, for a checked J;
    memoised per (w, J, left)."""
    sys = w.system
    key = (w, J, left)
    hit = sys._split_cache.get(key)
    if hit is None:
        v, u = w, sys.identity
        while ds := (v.left_descents if left else v.right_descents) & J:
            t = min(ds)
            v, u = sys._step(v, t, left), sys._step(u, t, not left)
        hit = sys._split_cache[key] = (v, u)
    return hit


def coset_rep(w: Element, J: Iterable[int]) -> Element:
    """The minimal-length representative of the coset w W_J."""
    return _split(w, w.system.check_genset(J))[0]


def min_reps_leq(w: Element, J: Iterable[int]) -> frozenset[Element]:
    """All minimal coset representatives below w: [e, w] intersected with W^J."""
    return frozenset(min_reps_in_order(w, w.system.check_genset(J)))


def min_reps_in_order(w: Element, J: GenSet) -> list[Element]:
    """min_reps_leq(w, J) for a checked J, in the ShortLex order lower_interval stores."""
    return [u for u in lower_interval(w) if not (u.right_descents & J)]


def check_min_rep(w: Element, J: Iterable[int]) -> GenSet:
    """J as a checked generator set; raises NotMinimalRep unless w is in W^J."""
    return _require_min_rep(w, w.system.check_genset(J))


def _require_min_rep(w: Element, J: GenSet) -> GenSet:
    if w.right_descents & J:
        raise NotMinimalRep(f"{w} is not a minimal representative for J={w.system.genset_str(J)}")
    return J


def check_chain(w: Element, J: Iterable[int], K: Iterable[int]) -> tuple[GenSet, GenSet]:
    """(J, K) as checked generator sets for a relative call: J inside K, w in W^J."""
    sys = w.system
    J = sys.check_genset(J)
    K = sys.check_genset(K)
    if not J <= K:
        raise BadSubsetChain(f"J={sys.genset_str(J)} is not a subset of K={sys.genset_str(K)}")
    return _require_min_rep(w, J), K


def relative_rep(w: Element, J: Iterable[int], K: Iterable[int]) -> tuple[Element, Element]:
    """Split w in W^J as x y with x in W^K and y in W^J restricted to W_K.

    Requires J contained in K and w a minimal representative for J.  The
    factorisation is length additive and unique.
    """
    J, K = check_chain(w, J, K)
    v, u = _split(w, K)
    if u.right_descents & J:
        raise InternalAssertionFailed("relative factor left the J-minimal representatives")
    return v, u
