"""Hasse diagrams of lower intervals: built once, rendered as DOT or by the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable

from .bruhat import Interval, covers, lower_interval
from .core import Element
from .parabolic import coset_rep

#: Node colours cycle over the coset representatives in ShortLex order.
COLORS = ("black", "red", "blue", "green")


@dataclass(frozen=True)
class HasseGraph:
    """[e, w] with its cover edges and, when J is given, a colour per W_J coset."""

    interval: Interval
    colors: dict[Element, str]  # {} when J is None
    edges: tuple[tuple[Element, Element], ...]  # (lower, upper), by upper then lower in ShortLex


def hasse_graph(w: Element, J: Iterable[int] | None = None) -> HasseGraph:
    """The Hasse graph of [e, w], the one source of both DOT and CLI output."""
    itv = lower_interval(w)
    colors: dict[Element, str] = {}
    if J is not None:
        J = frozenset(J)
        rep = {y: coset_rep(y, J) for y in itv}
        # Each representative is the first member of its coset in ShortLex order.
        index = {x: i for i, x in enumerate(dict.fromkeys(rep.values()))}
        colors = {y: COLORS[index[x] % len(COLORS)] for y, x in rep.items()}
    # Covers of y share one length, so sorting by word is ShortLex.
    edges = tuple((c, y) for y in itv for c in sorted(covers(y), key=attrgetter("word")))
    return HasseGraph(interval=itv, colors=colors, edges=edges)


def hasse_dot(w: Element, J: Iterable[int] | None = None) -> str:
    """DOT text for the Hasse diagram of [e, w], coloured by coset when J is given."""
    g = hasse_graph(w, J)
    lines = ["graph bruhat_interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for y in g.interval:
        attr = f' [fontcolor={g.colors[y]}]' if g.colors else ""
        lines.append(f'  "{y}"{attr};')
    for row in g.interval.ranks:
        if len(row) > 1:
            names = " ".join(f'"{y}";' for y in row)
            lines.append(f"  {{ rank=same; {names} }}")
    for c, y in g.edges:
        lines.append(f'  "{c}" -- "{y}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
