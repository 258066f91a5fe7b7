"""``oracle.verify``: its records, their rendering by the CLI, and its failure path."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from coxbruhat import CosetMaxResult, CoxeterSystem, coxeter_system, oracle
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


def test_long_words_are_sampled(capsys):
    """I2:inf has 2^0 + ... + 2^14 = 32,767 words of length <= 14, more than the
    20,000 checked exhaustively, so the words check draws --samples of them."""
    assert main(["--type", "I2:inf", "verify", "--max-len", "14", "--samples", "10"]) == 0
    assert capsys.readouterr().out == (
        "words: ok (10 words, 10 pairs)\n"
        "intervals: ok (29 elements)\n"
        "coset-maxima: ok (900 triples)\n"
        "interval-product: ok (9 pairs)\n")


def test_sampled_subsets_follow_the_seed():
    # A5 has 32 subsets J, so each element is checked against 16 of them drawn
    # from the seed; the triple count pins the order of the draws.
    records = oracle.verify(coxeter_system("A5"), max_len=4, samples=20, seed=5)
    assert records == [("words", 0, "781 words, 20 pairs"), ("intervals", 0, "98 elements"),
                       ("coset-maxima", 0, "7492 triples"), ("interval-product", 0, "20 pairs")]


def test_many_elements_are_sampled():
    """The rank-8 universal group (every bond infinite) has 1 + 8 + 56 + 392 = 457
    elements of length <= 3, more than the 400 the intervals check takes."""
    system = CoxeterSystem([[1 if i == j else 0 for j in range(8)] for i in range(8)])
    records = oracle.verify(system, max_len=3, samples=5, seed=0)
    assert records[1] == ("intervals", 0, "400 elements")
    assert all(bad == 0 for _, bad, _ in records)


@pytest.mark.parametrize("counts", [
    {"max_len": -1, "samples": 5}, {"max_len": 3, "samples": -1},
    {"max_len": True, "samples": 5},  # once ran as max_len=1
    {"max_len": 3, "samples": 1.5},  # once a bare TypeError
    {"max_len": 2.0, "samples": 5}, {"max_len": 3, "samples": False},
])
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


@pytest.fixture
def three_letter_words_lose_their_last_letter(monkeypatch):
    """Make normalize drop the last letter of every three-letter word."""
    real = CoxeterSystem.normalize

    def broken(self, letters):
        letters = tuple(letters)
        return real(self, letters[:2] if len(letters) == 3 else letters)

    monkeypatch.setattr(CoxeterSystem, "normalize", broken)


def test_word_mismatches_are_counted(capsys, three_letter_words_lose_their_last_letter):
    """All 27 three-letter words disagree with braid rewriting, and 2 of the 10
    sampled pairs are equal under one test but not under the other."""
    assert main(list(FLAGS)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "words: FAIL (29 mismatches; 40 words, 10 pairs)"
    assert all(": ok (" in line for line in lines[1:])


@pytest.fixture
def coset_maximum_of_identity(monkeypatch):
    """Make max_in_coset answer e, not s1 s2 s1, for [e, s1 s2 s1] meet W_{s1,s2}."""
    real = oracle.max_in_coset

    def broken(w, x, J):
        res = real(w, x, J)
        if w.word == (0, 1, 0) and J == {0, 1}:
            return CosetMaxResult(res.w, res.x, res.J, w.system.identity, res.shift, res.K,
                                  res._levels)
        return res

    monkeypatch.setattr(oracle, "max_in_coset", broken)


def test_coset_maximum_mismatches_are_counted(capsys, coset_maximum_of_identity):
    """The one corrupted triple disagrees with the brute maximum and with the
    candidate set: 2 mismatches."""
    assert main(list(FLAGS)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "coset-maxima: FAIL (2 mismatches; 328 triples)"
    assert all(": ok (" in line for line in lines[:2] + lines[3:])
