"""The Hasse graph has one source: CLI text, JSON and DOT agree on all of B3.

It lifts covers and coset representatives along the interval's ranks, so it
is also checked against ``covers`` and ``coset_rep`` called one element at a
time.
"""

from __future__ import annotations

import json
import re

import pytest

from coxbruhat import coset_rep, covers, coxeter_system, lower_interval
from coxbruhat.cli import main
from coxbruhat.dot import COLORS, hasse_graph

EDGE = re.compile(r'^  "(.*)" -- "(.*)";$')
NODE = re.compile(r'^  "(.*)" \[fontcolor=(\w+)\];$')
RANK = re.compile(r"^  \{ rank=same; (.*) \}$")


def _hasse(capsys, w, fmt):
    assert main(["--type", "B3", "--format", fmt, "hasse", "--w", str(w), "--J", "s2"]) == 0
    return capsys.readouterr().out


def test_hasse_outputs_agree_on_b3(b3, capsys):
    for w in b3.elements():
        itv = lower_interval(w)
        assert list(itv) == sorted(itv.members)
        dot = _hasse(capsys, w, "dot").splitlines()
        dot_edges = [list(m.groups()) for m in map(EDGE.match, dot) if m]
        text_edges = [line.split(" -- ") for line in _hasse(capsys, w, "text").splitlines()]
        payload = json.loads(_hasse(capsys, w, "json"))
        assert text_edges == dot_edges
        assert payload["edges"] == dot_edges
        dot_colors = [list(m.groups()) for m in map(NODE.match, dot) if m]
        assert [[n["w"], n["color"]] for n in payload["nodes"]] == dot_colors
        rows = [re.findall(r'"([^"]*)";', m.group(1)) for m in map(RANK.match, dot) if m]
        expected = [[str(y) for y in itv.ranks[k]] for k in range(w.length + 1)]
        assert rows == [row for row in expected if len(row) > 1]


@pytest.mark.parametrize("kind, max_length", [
    ("A4", None), ("B3", None), ("H3", None), ("I2:7", 8), ("A~2", 8),
])
def test_hasse_graph_agrees_with_covers_and_coset_rep(kind, max_length):
    system = coxeter_system(kind)
    n = system.rank
    gensets = [(), (0,), (n - 1,), tuple(range(1, n)), tuple(range(n - 1))]
    for w in system.elements(max_length):
        itv = lower_interval(w)
        for J in gensets:
            g = hasse_graph(w, J)
            assert set(g.edges) == {(c, y) for y in itv for c in covers(y)}, f"{kind}: {w}"
            assert len(g.edges) == len(set(g.edges))
            reps = list(dict.fromkeys(coset_rep(y, J) for y in itv))
            expected = {y: COLORS[reps.index(coset_rep(y, J)) % len(COLORS)] for y in itv}
            assert g.colors == expected, f"{kind}: {w}, J={J}"
