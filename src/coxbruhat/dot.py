"""Hasse diagrams of lower intervals: built once, rendered as DOT or by the CLI."""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable

from .bruhat import _lift_covers, lower_interval
from .core import Element, Record, _fill

#: Node colours cycle over the coset representatives in ShortLex order.
COLORS = ("black", "red", "blue", "green")


class HasseGraph(Record):
    """[e, w] with its cover edges and, when J is given, a colour per W_J coset."""

    __slots__ = ("interval", "colors", "edges")

    def __init__(self, interval, colors, edges):
        # colors is {} when J is None; edges are (lower, upper), by upper then lower in ShortLex
        _fill(self, (interval, colors, edges))


def hasse_graph(w: Element, J: Iterable[int] | None = None) -> HasseGraph:
    """The Hasse graph of [e, w], the one source of both DOT and CLI output."""
    sys = w.system
    itv = lower_interval(w)
    colors: dict[Element, str] = {}
    if J is not None:
        J = sys.check_genset(J)
        rep: dict[Element, Element] = {}
        Js = sorted(J)
        for y in itv:  # by rank, so y*t is placed before y for t = min(D_R(y) & J)
            rsum = y._rsum or sys._right_sums(y)
            for t in Js:
                if rsum[t] < 0.0:
                    rep[y] = rep[y._mul[t] or sys._step(y, t)]
                    break
            else:
                rep[y] = y
        # Each representative is the first member of its coset in ShortLex order.
        index = {x: i for i, x in enumerate(dict.fromkeys(rep.values()))}
        colors = {y: COLORS[index[x] % len(COLORS)] for y, x in rep.items()}
    down: dict[Element, list[Element]] = {sys.identity: []}
    for y in list(itv)[1:]:  # by rank, so y's prefix y*s is placed before y
        s = y.word[-1]
        down[y] = _lift_covers(y, s, down[y._mul[s] or sys._step(y, s)])
    # Covers of y share one length, so sorting by word is ShortLex.
    word = attrgetter("word")
    edges = tuple([(c, y) for y, cs in down.items() for c in sorted(cs, key=word)])
    return HasseGraph(itv, colors, edges)


def hasse_dot(w: Element, J: Iterable[int] | None = None) -> str:
    """DOT text for the Hasse diagram of [e, w], coloured by coset when J is given."""
    g = hasse_graph(w, J)
    name = {y: f'"{y}"' for y in g.interval}  # each quoted name rendered once
    lines = ["graph bruhat_interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for y, q in name.items():
        attr = f' [fontcolor={g.colors[y]}]' if g.colors else ""
        lines.append(f"  {q}{attr};")
    for row in g.interval.ranks:
        if len(row) > 1:
            names = " ".join(name[y] + ";" for y in row)
            lines.append(f"  {{ rank=same; {names} }}")
    lines += [f"  {name[c]} -- {name[y]};" for c, y in g.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
