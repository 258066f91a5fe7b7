#!/usr/bin/env python3
"""Repeat benchmark workloads in two interleaved sets and show how steady they are.

    python3 bench/steady.py                      # 10 seeds, every workload
    python3 bench/steady.py --runs 5 --workloads interval_export
    python3 bench/steady.py --other ../other-checkout

Each run is a fresh ``bench/run.py`` process, one at a time, with the run
length of BENCHMARK.json.  The runs go round-robin: for seed 1, 2, ...,
--runs, every workload once in set A and once in set B, A first for odd
seeds and B first for even ones.  So a slow spell of the machine falls on
both sets and on every workload alike.  Set A runs in this checkout, set B in
``--other`` (default: this checkout too), so two checkouts can be compared in
paired runs.  Raw results go to ``bench/out/steady-<time>.jsonl``.

For every end-to-end metric and set the table gives the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound, and then by how much set B's median is worse
than set A's.

The exit code is 1 when a run fails or is not correct, when the share of
failed operations differs between runs of a workload, when a spread exceeds
its bound, or when one set's median is worse than the other's by more than
the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_once(command, cwd, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {cwd}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "wall_s": wall, **json.loads(lines[-1]),
            "notes": [line for line in lines if line.startswith("#")]}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(new, old, better):
    """Share by which the new median is worse than the old one."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS per set")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--other", type=Path, default=ROOT,
                        help="checkout that makes set B (default: this one)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    trees = {"A": ROOT, "B": args.other.resolve()}

    OUT.mkdir(exist_ok=True)
    raw_path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.jsonl"
    runs = {(name, s): [] for name in names for s in trees}
    with open(raw_path, "w", encoding="utf-8") as raw:
        for seed in range(1, args.runs + 1):
            for name in names:
                for s in ("AB" if seed % 2 else "BA"):
                    rec = run_once(bench["command"], trees[s], name, seed, bench["run_seconds"])
                    rec["set"] = s
                    raw.write(json.dumps(rec) + "\n")
                    raw.flush()
                    runs[name, s].append(rec)
                    print(f"{name} seed {seed} set {s}: {rec['wall_s']:.1f} s wall, "
                          f"correct={rec['correct']} failed={rec['failed']}/{rec['attempted']}",
                          file=sys.stderr)

    bad = []
    print(f"raw runs: {raw_path.relative_to(ROOT)}; set A {trees['A']}, set B {trees['B']}")
    print(f"{'workload':16s} {'metric':12s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for name in names:
        recs = runs[name, "A"] + runs[name, "B"]
        shares = {r["failed"] / r["attempted"] for r in recs}
        if len(shares) != 1 or not all(r["correct"] for r in recs):
            bad.append(f"{name}: failed shares {sorted(shares)}, correct "
                       f"{[r['correct'] for r in recs]}")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = {}
            for s in trees:
                med, q1, q3, spread = summarize([r["metrics"][key]["value"] for r in runs[name, s]])
                medians[s] = med
                verdict = "ok" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
                if verdict == "WIDE":
                    bad.append(f"{name} {key} set {s}: spread {spread:.3f} > bound {bound}")
                if s == "B":
                    change = worse_by(medians["B"], medians["A"], metric["better"])
                    verdict += (f"; B {change:+.1%} worse than A" if change > 0
                                else f"; B {-change:.1%} better than A")
                    if abs(change) > bound:
                        bad.append(f"{name} {key}: medians of A and B differ by {change:+.1%}")
                print(f"{name:16s} {key:12s} {s:3s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:7.2%} {bound:6.0%}  {verdict}")
    for line in bad:
        print(f"PROBLEM: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
