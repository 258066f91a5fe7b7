"""Graphviz (DOT) export of lower-interval Hasse diagrams."""

from __future__ import annotations

from typing import Iterable

from .bruhat import covers, lower_interval
from .core import Element
from .parabolic import coset_rep

#: Node colours cycle over the coset representatives in ShortLex order.
COLORS = ("black", "red", "blue", "green")


def coset_colors(members: Iterable[Element], J: Iterable[int] | None) -> dict[Element, str]:
    """Colour of each member by its coset x W_J ({} when J is None)."""
    if J is None:
        return {}
    J = frozenset(J)
    rep = {y: coset_rep(y, J) for y in members}
    rep_color = {x: COLORS[i % len(COLORS)] for i, x in enumerate(sorted(set(rep.values())))}
    return {y: rep_color[x] for y, x in rep.items()}


def hasse_dot(w: Element, J: Iterable[int] | None = None) -> str:
    """DOT text for the Hasse diagram of [e, w], coloured by coset when J is given."""
    itv = lower_interval(w)
    members = itv.sorted_members()
    color = coset_colors(members, J)
    lines = ["graph bruhat_interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for y in members:
        attr = f' [fontcolor={color[y]}]' if color else ""
        lines.append(f'  "{y}"{attr};')
    for k in range(w.length + 1):
        row = sorted(itv.at_length(k))
        if len(row) > 1:
            names = " ".join(f'"{y}";' for y in row)
            lines.append(f"  {{ rank=same; {names} }}")
    for y in members:
        for c in sorted(covers(y)):
            lines.append(f'  "{c}" -- "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
