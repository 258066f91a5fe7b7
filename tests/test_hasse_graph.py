"""The Hasse graph has one source: CLI text, JSON and DOT agree on all of B3."""

from __future__ import annotations

import json
import re

from coxbruhat import lower_interval
from coxbruhat.cli import main

EDGE = re.compile(r'^  "(.*)" -- "(.*)";$')
NODE = re.compile(r'^  "(.*)" \[fontcolor=(\w+)\];$')
RANK = re.compile(r"^  \{ rank=same; (.*) \}$")


def _hasse(capsys, w, fmt):
    assert main(["--type", "B3", "--format", fmt, "hasse", "--w", str(w), "--J", "s2"]) == 0
    return capsys.readouterr().out


def test_hasse_outputs_agree_on_b3(b3, capsys):
    for w in b3.elements():
        itv = lower_interval(w)
        assert itv.sorted_members() == sorted(itv.members)
        dot = _hasse(capsys, w, "dot").splitlines()
        dot_edges = [list(m.groups()) for m in map(EDGE.match, dot) if m]
        text_edges = [line.split(" -- ") for line in _hasse(capsys, w, "text").splitlines()]
        payload = json.loads(_hasse(capsys, w, "json"))
        assert text_edges == dot_edges
        assert payload["edges"] == dot_edges
        dot_colors = [list(m.groups()) for m in map(NODE.match, dot) if m]
        assert [[n["w"], n["color"]] for n in payload["nodes"]] == dot_colors
        rows = [re.findall(r'"([^"]*)";', m.group(1)) for m in map(RANK.match, dot) if m]
        expected = [[str(y) for y in sorted(itv.at_length(k))] for k in range(w.length + 1)]
        assert rows == [row for row in expected if len(row) > 1]
