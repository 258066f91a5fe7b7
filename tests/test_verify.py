"""``oracle.verify``: its records, their rendering by the CLI, and its failure path."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from coxbruhat import coxeter_system, oracle
from coxbruhat.cli import main

FLAGS = ("--type", "A3", "verify", "--max-len", "3", "--samples", "10")


def test_records_render_to_the_cli_report(capsys):
    records = oracle.verify(coxeter_system("A3"), max_len=6, samples=200, seed=0)
    assert [(name, bad) for name, bad, _ in records] == [
        ("words", 0), ("intervals", 0), ("coset-maxima", 0), ("interval-product", 0)]
    assert main(["--type", "A3", "verify"]) == 0
    assert capsys.readouterr().out == "".join(
        f"{name}: ok ({coverage})\n" for name, _, coverage in records)


def test_verify_at_a_length_cap_below_the_interval_cap(capsys):
    """No oracle builds an element past length_cap=3 (Deodhar's lemma at the cap,
    coset membership by coset_rep, product pairs within both caps)."""
    code = main(["--type", "A3", "--length-cap", "3", *FLAGS[2:]])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split(" (")[0] for line in lines] == [
        "words: ok", "intervals: ok", "coset-maxima: ok", "interval-product: ok"]


def test_sampled_subsets_follow_the_seed():
    # A5 has 32 subsets J, so each element is checked against 16 of them drawn
    # from the seed; the triple count pins the order of the draws.
    records = oracle.verify(coxeter_system("A5"), max_len=4, samples=20, seed=5)
    assert records == [("words", 0, "781 words, 20 pairs"), ("intervals", 0, "98 elements"),
                       ("coset-maxima", 0, "7492 triples"), ("interval-product", 0, "20 pairs")]


@pytest.mark.parametrize("counts", [{"max_len": -1, "samples": 5}, {"max_len": 3, "samples": -1}])
def test_negative_counts_rejected(counts):
    with pytest.raises(ValueError, match="nonnegative"):
        oracle.verify(coxeter_system("A2"), seed=0, **counts)


@pytest.fixture
def interval_missing_identity(monkeypatch):
    """Make the fast interval of s1 s2 s1 lose the identity, as seen by verify."""
    real = oracle.lower_interval

    def broken(w, *args, **kwargs):
        itv = real(w, *args, **kwargs)
        if w.word == (0, 1, 0):
            return SimpleNamespace(members=itv.members - {w.system.identity})
        return itv

    monkeypatch.setattr(oracle, "lower_interval", broken)


def test_failure_is_reported_in_text(capsys, interval_missing_identity):
    code = main(list(FLAGS))
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[1] == "intervals: FAIL (1 mismatches; 15 elements)"
    assert [line.split(":")[0] for line in lines] == [
        "words", "intervals", "coset-maxima", "interval-product"]


def test_failure_is_reported_in_json(capsys, interval_missing_identity):
    code = main(["--format", "json", *FLAGS])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["ok"] is False
    assert doc["report"][1] == "intervals: FAIL (1 mismatches; 15 elements)"
