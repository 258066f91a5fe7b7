#!/usr/bin/env python3
"""Run one coxbruhat benchmark workload and print its metrics.

    python3 bench/run.py --workload coset_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` next
to this directory.  The inputs come from ``--seed``.  ``--seconds`` sets how
many whole rounds of operations the run makes (about that many seconds on
the reference machine; see README.md), never a time limit, so two runs with
the same ``--seconds`` attempt the same operations.  Answers are checked after
the timed phase.

``--trace 0`` prints the end-to-end metrics; their times are scaled by a
speed meter to the reference machine's speed (``SpeedMeter``).  ``--trace 1`` runs the rounds
twice, untraced and then traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``bench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import pickle
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Least number of set-ups (fresh import plus systems) per run; setup_s is
#: the median of their scaled times.  Every round has its own set-up; a run with fewer rounds
#: makes the rest before its first round.
SETUP_REPS = 9

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

#: Median time of one speed-meter sample on the reference machine (README.md).
METER_NOMINAL_S = 0.0032
#: Op time between two speed-meter samples.
METER_EVERY_S = 0.1
#: Speed-meter samples just before each set-up.
SETUP_READINGS = 3

#: Per-layer metrics of the traced run: (layer function, "calls" or "self_ms").
#: "oracle" sums the self time of every oracle function.
PER_LAYER = (
    ("core.normalize", "calls"), ("core.normalize", "self_ms"),
    ("core.elements", "self_ms"), ("core.multiply", "self_ms"),
    ("bruhat.leq", "calls"), ("bruhat.leq", "self_ms"),
    ("bruhat.lower_interval", "calls"), ("bruhat.lower_interval", "self_ms"),
    ("bruhat.covers", "calls"), ("bruhat.covers", "self_ms"),
    ("parabolic.decompose", "calls"), ("parabolic.decompose", "self_ms"),
    ("parabolic.min_reps_leq", "self_ms"),
    ("coset_max.max_in_coset", "calls"), ("coset_max.max_in_coset", "self_ms"),
    ("coset_max.shifted_max_set", "self_ms"),
    ("poincare.decompose_poincare", "self_ms"), ("poincare.bp_report", "self_ms"),
    ("dot.hasse_dot", "self_ms"),
    ("cli.main", "self_ms"), ("cli.build_parser", "self_ms"),
    ("oracle", "self_ms"),
)


def load_program():
    """Import coxbruhat afresh from src/ and return it as a namespace."""
    for name in [n for n in sys.modules if n == "coxbruhat" or n.startswith("coxbruhat.")]:
        del sys.modules[name]
    cb = importlib.import_module("coxbruhat")
    if Path(cb.__file__).resolve().parent != SRC / "coxbruhat":
        raise ImportError(f"coxbruhat was imported from {cb.__file__}, not from {SRC}")
    cli = importlib.import_module("coxbruhat.cli")
    oracle = importlib.import_module("coxbruhat.oracle")
    return SimpleNamespace(cb=cb, cli=cli, oracle=oracle, dot_colors=cb.dot.COLORS)


def meter_kernel():
    """Fixed pure-Python work of the program's kind: tuples, dicts, sets.

    A breadth-first search of S_6 by adjacent transpositions; it does not
    call coxbruhat, so a change to the program does not change its time.
    """
    start = tuple(range(6))
    seen = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            d = seen[p] + 1
            for i in range(5):
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                if q not in seen:
                    seen[q] = d
                    nxt.append(q)
        frontier = nxt
    return len(seen), len({frozenset(p[:3]) for p in seen}), sum(seen.values())


class SpeedMeter:
    """Times ``meter_kernel`` between the operations of a run.

    The speed of a shared machine drifts by a quarter and more for minutes
    at a time, much the same for the kernel and for the program.  A run's
    op times are scaled by ``factor()``, the nominal kernel time over the
    median kernel time in the run, and each set-up by the kernel time taken
    just before it, so that they read as on the reference machine.
    """

    def __init__(self):
        self.samples = []
        self._op_time = 0.0

    def sample(self, n=1):
        """Take n readings; return their median."""
        # Without the collector, the kernel's time does not depend on how
        # many objects the program keeps alive.
        gc.disable()
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                meter_kernel()
                self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return statistics.median(self.samples[-n:])

    def after_op(self, seconds):
        self._op_time += seconds
        if self._op_time >= METER_EVERY_S:
            self._op_time = 0.0
            self.sample()

    def factor(self):
        return METER_NOMINAL_S / statistics.median(self.samples)


def run_rounds(wl, rounds, fresh, keep, op=None, meter=None):
    """Run every round; return per-op seconds and set-ups.

    ``fresh()`` returns ``(prog, state)`` for one round and is timed as a
    set-up; ``op`` defaults to ``wl.op``.  A set-up is ``(seconds, meter
    reading just before it)``; a ``meter`` also takes samples between the
    ops.  Each op's outcome goes to ``keep``: ``(None, plain result)``, or
    ``(error text, None)`` when the op raised.  The timed phase is the operations themselves: set-up, turning
    each result into plain data, ``keep`` and collecting the previous round's
    systems happen between the timed calls.
    """
    times, setup = [], []
    clock = time.perf_counter
    op = op or wl.op
    for items in rounds:
        gc.collect()  # systems hold reference cycles; free the last round's
        reading = meter.sample(SETUP_READINGS) if meter else None
        t0 = clock()
        prog, state = fresh()
        setup.append((clock() - t0, reading))
        res = None
        for item in items:
            t0 = clock()
            try:
                res = op(prog, state, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = "".join(traceback.format_exception_only(exc)).strip()
            else:
                error = None
            times.append(clock() - t0)
            if meter:
                meter.after_op(times[-1])
            keep((error, None if error else wl.extract(state, item, res)))
        del prog, state, res  # so that the next set-up can free them first
    return times, setup


def spooled(fh):
    """``keep`` and ``replay`` over a file: results stay out of the heap.

    The answers are held on disk until the checks read them back, so
    ``peak_rss_mb`` does not count them.
    """
    def keep(outcome):
        pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)

    def replay():
        fh.flush()
        fh.seek(0)
        while True:
            try:
                yield pickle.load(fh)
            except EOFError:
                return

    return keep, replay


def check(wl, prog, rounds, outcomes, seed):
    """Count the operations that raised or whose answer fails a check."""
    checker = wl.checker(prog)
    rng = random.Random(f"{seed}/check")
    failed = 0
    items = [item for r in rounds for item in r]
    for item, (error, res) in zip(items, outcomes, strict=True):
        errs = [error] if error is not None else checker(item, res, rng)
        if errs:
            failed += 1
            if failed <= 5:
                print(f"FAILED {wl.name} {item!r:.200}: {errs[:3]}", file=sys.stderr)
    final = checker.final()
    for err in final:
        print(f"FAILED {wl.name} global check: {err}", file=sys.stderr)
    return failed, not final


def measure(wl, rounds, seed):
    def fresh():
        prog = load_program()
        return prog, wl.setup(prog)

    meter = SpeedMeter()
    setup = []
    for _ in range(SETUP_REPS - len(rounds)):
        gc.collect()
        reading = meter.sample(SETUP_READINGS)
        t0 = time.perf_counter()
        fresh()
        setup.append((time.perf_counter() - t0, reading))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as fh:
        keep, replay = spooled(fh)
        times, round_setup = run_rounds(wl, rounds, fresh, keep, meter=meter)
        gc.collect()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, global_ok = check(wl, load_program(), rounds, replay(), seed)
    setup += round_setup
    n = len(times)
    wall = math.fsum(times)
    f = meter.factor()
    raw = {"setup_s": statistics.median(t for t, _ in setup), "ops_per_s": n / wall,
           "op_p50_ms": statistics.median(times) * 1e3}
    print(f"# {wl.name} seed={seed}: {n} ops in {wall:.3f} s over {len(rounds)} rounds, "
          f"setup samples {[round(t, 4) for t, _ in setup]}")
    print(f"# speed meter: {len(meter.samples)} samples, median "
          f"{statistics.median(meter.samples) * 1e3:.4f} ms, factor {f:.4f}; unscaled {json.dumps(raw)}")
    if n >= 1000:
        p99 = statistics.quantiles(times, n=100)[98] * 1e3
        print(f"# op_p99_ms {p99:.4f} unscaled (reference only, not gated)")
    metrics = {
        "setup_s": statistics.median(t * METER_NOMINAL_S / r for t, r in setup),
        "ops_per_s": raw["ops_per_s"] / f,
        "op_p50_ms": raw["op_p50_ms"] * f,
        "peak_rss_mb": rss_mb,
    }
    return n, failed, global_ok, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def measure_traced(wl, rounds, seed):
    import tracing

    prog = load_program()
    tracer = tracing.Tracer()
    # Each operation is a root span, so the spans of one op share a root.
    op = tracer.wrap("bench.op", wl.op)
    times, plain = [], []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as fh:
        keep, replay = spooled(fh)
        for items in rounds:
            # Each round runs untraced, then traced, on fresh systems: both see
            # the same speed of the shared machine, so the overhead is theirs.
            plain += run_rounds(wl, [items], lambda: (prog, wl.setup(prog)), lambda _: None)[0]
            tracer.install()
            try:
                times += run_rounds(wl, [items], lambda: (prog, wl.setup(prog)), keep, op)[0]
            finally:
                tracer.uninstall()
        failed, global_ok = check(wl, prog, rounds, replay(), seed)
    plain_wall = math.fsum(plain)
    traced_wall = math.fsum(times)
    span_file = OUT / f"spans-{wl.name}-seed{seed}.tsv"
    tracer.write_spans(span_file)
    totals = tracer.totals()
    overhead = (traced_wall - plain_wall) / plain_wall * 100
    print(f"# {wl.name} seed={seed}: untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s, "
          f"overhead {overhead:.1f}%; {tracer.span_count} spans, "
          f"{min(tracer.span_count, tracing.MAX_SPANS)} written to "
          f"{span_file.relative_to(HERE.parent)}")
    for name in sorted(totals):
        calls, ms = totals[name]
        if calls:
            print(f"#   {name:36s} calls {calls:9d}  self {ms:10.2f} ms")
    metrics = {}
    for name, kind in PER_LAYER:
        if name == "oracle":
            value = sum(ms for n, (_, ms) in totals.items() if n.startswith("oracle."))
        else:
            calls, ms = totals.get(name, (0, 0.0))
            value = calls if kind == "calls" else ms
        unit = "count" if kind == "calls" else "ms"
        metrics[f"{name}.{kind}"] = {"value": value, "unit": unit}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return len(times), failed, global_ok, metrics


def main(argv=None):
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "coxbruhat" / "__init__.py").is_file():
        print(f"error: no coxbruhat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = workloads.WORKLOADS[args.workload]
    n_rounds = max(1, int(args.seconds / wl.round_s))
    rounds = wl.inputs(random.Random(args.seed), n_rounds)
    measure_fn = measure_traced if args.trace else measure
    attempted, failed, global_ok, metrics = measure_fn(wl, rounds, args.seed)
    print(json.dumps({"correct": failed == 0 and global_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
