"""Quick tests of the benchmark's answer checks.

Each check must pass a correct answer and reject a perturbed one.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as ref  # noqa: E402
import run  # noqa: E402
import workloads as wk  # noqa: E402

PROG = run.load_program()
cb = PROG.cb


def _table(kind, word, J):
    S = cb.coxeter_system(kind)
    sms = cb.shifted_max_set(S.normalize(word), J)
    return {x.word: m.word for x, m in sms.pairs.items()}


def _perturb_shift(pairs):
    """Replace the first nontrivial shift by the identity."""
    out = dict(pairs)
    x = next(x for x, m in out.items() if m)
    out[x] = ()
    return out


def test_reference_lengths_and_order():
    assert ref.inversions((2, 1, 4, 3)) == 2
    assert ref.perm_leq((1, 3, 2, 4), (3, 1, 4, 2))
    assert not ref.perm_leq((3, 1, 2, 4), (1, 4, 2, 3))
    # s0 s1 s2 s0 in A~2 is reduced of length 4; s0 s0 is the identity.
    assert ref.shi_length(ref.affine_of_word((0, 1, 2, 0), 2)) == 4
    assert ref.shi_length(ref.affine_of_word((0, 0), 2)) == 0
    assert ref.group_order("D5") == 1920 and sum(ref.degree_poincare("H3")) == 120


def test_type_a_coset_table():
    word, J = (0, 1, 2, 3, 0, 1, 2), frozenset({0, 2})
    pairs = _table("A4", word, J)
    sg = ref.symmetric_group(4)
    assert wk.check_coset_table_type_a(sg, word, J, pairs) == []
    assert wk.check_coset_table_type_a(sg, word, J, _perturb_shift(pairs))
    missing = dict(pairs)
    missing.pop(max(missing, key=len))
    assert wk.check_coset_table_type_a(sg, word, J, missing)


def test_coset_table_properties():
    word, J = (0, 1, 2, 3, 1, 0, 2, 1), frozenset({1, 2})
    pairs = _table("D4", word, J)
    S = cb.coxeter_system("D4")
    assert wk.check_coset_table_props(S, cb, word, J, pairs) == []
    assert wk.check_coset_table_props(S, cb, word, J, _perturb_shift(pairs))


def test_terms_sum():
    assert wk.check_terms_sum([((), [1, 1]), ((0,), [1])], [1, 2]) == []
    assert wk.check_terms_sum([((), [1, 1]), ((0,), [1])], [1, 3])


def test_sweep_checker_rejects_wrong_poincare_of_w0():
    wl = wk.CosetSweep()
    state = wl.setup(PROG)
    item = ("H3", len(state["H3"]) - 1, frozenset({0}))
    data = wl.extract(state, item, wl.op(PROG, state, item))
    checker = wl.checker(PROG)
    assert wl.checker(PROG)(item, data, random.Random(0)) == []
    wrong = dict(data, total=data["total"][:-1] + [2])
    assert wl.checker(PROG)(item, wrong, random.Random(0))
    # A repeated item must reproduce the answer checked in the first round.
    assert checker(item, data, random.Random(0)) == []
    assert checker(item, wrong, random.Random(0))


def test_long_words_checker():
    wl = wk.LongWords()
    state = wl.setup(PROG)
    checker = wl.checker(PROG)
    for kind, word in (("A~3", ref.random_affine_word(3, 40, random.Random(1))),
                       ("H4", wk._finite_word("H4", 40, random.Random(1)))):
        item = (kind, word, word[::2])
        wword, uword, below = wl.op(PROG, state, item)
        assert checker(item, (wword, uword, below), None) == []
        assert checker(item, (wword, uword, False), None)
        assert checker(item, (wword[:-1] + wword[-2:-1], uword, below), None)
        assert checker(item, (wword, uword[1:], below), None)


def _hasse(kind, word, J):
    S = cb.coxeter_system(kind)
    w = S.normalize(word)
    return w.word, cb.hasse_dot(w, J), list(cb.poincare_polynomial(w).coeffs)


def test_hasse_checks_type_a():
    J = frozenset({1, 3})
    wword, dot, coeffs = _hasse("A5", (0, 1, 2, 3, 4, 1, 2), J)
    nodes, edges, ranks = wk.parse_dot(dot)
    sg = ref.symmetric_group(5)
    assert wk.check_hasse_shape(wword, nodes, edges, ranks, coeffs) == []
    assert wk.check_hasse_type_a(sg, wword, J, nodes, edges, PROG.dot_colors) == []
    assert wk.check_hasse_type_a(sg, wword, J, nodes, edges[1:], PROG.dot_colors)
    recoloured = dict(nodes)
    recoloured[wword] = "purple"
    assert wk.check_hasse_type_a(sg, wword, J, recoloured, edges, PROG.dot_colors)
    fewer = dict(nodes)
    fewer.pop(edges[0][0])
    assert wk.check_hasse_shape(wword, fewer, edges, ranks, coeffs)
    assert wk.check_hasse_shape(wword, nodes, edges, ranks, coeffs[:-1] + [2])


def test_covers_by_deletion():
    wword, dot, _ = _hasse("D5", (0, 1, 2, 3, 4, 2, 1, 0), frozenset())
    nodes, edges, _ = wk.parse_dot(dot)
    S = cb.coxeter_system("D5")
    assert wk.check_covers_by_deletion(S, nodes, edges, sorted(nodes)) == []
    upper = edges[0][1]
    assert wk.check_covers_by_deletion(S, nodes, edges[1:], [upper])


def _cli_item(cmd_kind, cmd, seed=0):
    wl = wk.CliSession()
    argv, params = wl._argv(cmd_kind, cmd, random.Random(seed))
    item = (cmd_kind, cmd, argv, params)
    return wl, item, wl.op(PROG, None, item)


def _with_doc(data, edit):
    code, out, err = data
    doc = json.loads(out)
    edit(doc)
    return code, json.dumps(doc), err


def test_cli_checker():
    checker = wk.CliSession().checker(PROG)

    def rejects(kind, cmd, edit):
        _, item, data = _cli_item(kind, cmd)
        assert checker(item, data, random.Random(0)) == [], (kind, cmd)
        assert checker(item, _with_doc(data, edit), random.Random(0)), (kind, cmd)

    def last_m_to_e(doc):
        doc["rows"][-1]["m"] = "e" if doc["rows"][-1]["m"] != "e" else "s1"

    def flip_bp(doc):
        doc["rows"][-1]["is_bp"] = not doc["rows"][-1]["is_bp"]

    def bump_total(doc):
        doc["total_coeffs"][0] += 1

    def drop_edge(doc):
        doc["edges"].pop()

    rejects("A4", "mj-table", last_m_to_e)
    rejects("D4", "mj-table", last_m_to_e)
    rejects("A5", "max-coset", lambda d: d.update(q=d["x"]) if d["q"] != d["x"] else d.update(q="e"))
    rejects("A4", "poincare-decomp", bump_total)
    rejects("H3", "poincare-decomp", bump_total)
    rejects("A4", "poincare-decomp-K", bump_total)
    rejects("A4", "rel-max", lambda d: d.update(q="s1 s2 s3 s4 s3 s2 s1", m="e"))
    rejects("H3", "bp-scan", flip_bp)
    rejects("A4", "hasse", drop_edge)
    rejects("A3", "verify", lambda d: d.update(ok=False))
    # An ok report that skipped one (w, x, J) triple.
    rejects("A3", "verify", lambda d: d["report"].__setitem__(
        2, re.sub(r"\d+", lambda m: str(int(m.group()) - 1), d["report"][2])))


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == (
        [f"{n}.{k}" for n, k in run.PER_LAYER] + ["trace.overhead_pct"])
    assert {w["name"] for w in bench["workloads"]} == set(wk.WORKLOADS)
