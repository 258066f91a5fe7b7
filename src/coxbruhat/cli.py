"""The coxbruhat command-line interface.

This module parses arguments and renders output; the computing is done by
the library.  Each subcommand is one row of ``_COMMANDS`` (name, handler,
help text, arguments); :func:`build_parser` builds the parser from that
table and :func:`main` calls the handler of the parsed row.

:func:`main` parses the element flags (``--w`` or ``--perm``, ``--u``,
``--x``) and the generator-set flags (``--J``, ``--K``) in the order the row
declares them, so of two bad values the first declared is reported.  The
handler gets the parsed values as keyword arguments and returns text, or
for ``--format json`` a payload dict of its results; :func:`main` adds the
command name and echoes the canonical form of each of those flags given.

All set-valued output is ShortLex sorted, so runs are byte-for-byte
reproducible.  JSON output is serialised with sorted keys and a fixed
indent; parsing and re-serialising it is the identity.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys as _sys
from operator import attrgetter

from . import oracle
from .bruhat import covers, leq, lower_interval, poincare
from .core import CoxeterSystem, Element, element_from_permutation
from .coset_max import max_in_coset, max_in_relative_coset, shifted_max_set
from .dot import hasse_dot, hasse_graph
from .errors import CoxeterError
from .parabolic import coset_rep, decompose
from .poincare import (
    bp_report,
    decompose_poincare,
    relative_decompose_poincare,
    relative_poincare,
)
from .presets import coxeter_system, load_matrix_file


class _Usage(Exception):
    """Bad flag value; reported on stderr with exit code 2."""


def _parsed(parse, text: str, flag: str):
    """``parse(text)``, with a ValueError reported as a bad value of ``flag``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise _Usage(f"{flag}: {exc}") from None


def _w_arg(system: CoxeterSystem, args) -> Element:
    if args.perm is not None:
        if args.w is not None:
            raise _Usage("--perm: give either --w or --perm, not both")
        text = args.perm.replace(",", " ").strip()
        tokens = text.split() if " " in text else list(text)
        try:
            return element_from_permutation(system, [int(t) for t in tokens])
        except ValueError as exc:
            raise _Usage(f"--perm: {exc}") from None
    if args.w is None:
        raise _Usage("--w: a word is required")
    return _parsed(system.element, args.w, "--w")


def _inputs(system, args, flags) -> dict:
    """The element and generator-set flags among ``flags``, parsed in that order.

    Keys are the flag names without dashes (``w`` for ``--w`` or ``--perm``);
    ``--J`` and ``--K`` appear only when given.
    """
    values = {}
    for flag in flags:
        key = flag[2:]
        if flag == "--w":  # --perm, declared after it, is read by _w_arg too
            values["w"] = _w_arg(system, args)
        elif flag in ("--u", "--x"):
            values[key] = _parsed(system.element, getattr(args, key), flag)
        elif flag in ("--J", "--K") and getattr(args, key) is not None:
            values[key] = _parsed(system.parse_genset, getattr(args, key), flag)
    return values


def _show(system, value) -> str:
    """The canonical text of an element, a generator index or a generator set."""
    if isinstance(value, Element):
        return str(value)
    return system.names[value] if isinstance(value, int) else system.genset_str(value)


def _build_system(args) -> CoxeterSystem:
    if (args.type is None) == (args.matrix is None):
        raise _Usage("--type: give exactly one of --type or --matrix")
    kwargs = {}
    if args.length_cap is not None:
        kwargs["length_cap"] = args.length_cap
    if args.interval_cap is not None:
        kwargs["interval_cap"] = args.interval_cap
    if args.type is not None:
        return coxeter_system(args.type, **kwargs)
    return load_matrix_file(args.matrix, **kwargs)


# -- command handlers ----------------------------------------------------
# Each takes (system, args, fmt) and the parsed flags of its row by name.


def _cmd_len(system, args, fmt, w):
    return {"length": w.length} if fmt == "json" else str(w.length)


def _cmd_leq(system, args, fmt, u, w):
    res = leq(u, w)
    if fmt == "json":
        return {"leq": res}
    return "true" if res else "false"


def _cmd_interval(system, args, fmt, w):
    itv = lower_interval(w)
    members = [str(y) for y in itv]
    if fmt == "json":
        return {"size": len(itv), "rank_sizes": list(itv.rank_sizes), "members": members}
    lines = [f"size: {len(itv)}", "ranks: " + " ".join(str(n) for n in itv.rank_sizes)]
    lines.extend(members)
    return "\n".join(lines)


def _cmd_covers(system, args, fmt, w):
    down = [str(y) for y in sorted(covers(w), key=attrgetter("word"))]  # one length: ShortLex
    if fmt == "json":
        return {"covers": down}
    return "\n".join(down)


def _cmd_poincare(system, args, fmt, w, J=None):
    poly = poincare(w) if J is None else relative_poincare(w, J)
    return {"coeffs": list(poly.coeffs), "poly": str(poly)} if fmt == "json" else str(poly)


def _cmd_decompose(system, args, fmt, w, J):
    d = decompose(w, J, args.side)
    if fmt == "json":
        return {"side": d.side, "v": str(d.v), "u": str(d.u)}
    if d.side == "right":
        return f"v: {d.v}\nu: {d.u}"
    return f"u: {d.u}\nv: {d.v}"


def _cmd_coset_rep(system, args, fmt, w, J):
    rep = str(coset_rep(w, J))
    return {"rep": rep} if fmt == "json" else rep


#: The fields of a trace step in text order: JSON key, text label, attribute.
_TRACE_FIELDS = (
    ("x", "x", "x"), ("left_descents", "D_L", "left_descents"), ("u", "u", "u"),
    ("v", "v", "v"), ("stabilizers", "stab", "coset_stabilizers"), ("s", "s", "s"),
    ("prefix_max", "q'", "prefix_max"), ("suffix_max", "q''", "suffix_max"),
    ("q", "q", "maximum"),
)


def _trace_steps(system, trace):
    """Each step of a trace as (JSON key, text label, text) triples in text order."""
    return [[(key, label, _show(system, getattr(step, attr))) for key, label, attr in _TRACE_FIELDS]
            for step in trace]


def _cmd_max_coset(system, args, fmt, w, x, J, K=None):
    res = max_in_coset(w, x, J) if K is None else max_in_relative_coset(w, x, J, K)
    trace = K is None and args.trace  # rel-max and fiber have no --trace
    steps = _trace_steps(system, res.trace) if trace else ()
    if fmt == "json":
        payload = {"q": str(res.maximum), "m": str(res.shift)}
        if trace:
            payload["trace"] = [{key: text for key, _, text in step} for step in steps]
        return payload
    lines = [f"q: {res.maximum}", f"m: {res.shift}"]
    if trace:
        lines.append("trace:")
        lines.extend("".join(f"  {label}={text}" for _, label, text in step) for step in steps)
    return "\n".join(lines)


def _cmd_mj_table(system, args, fmt, w, J):
    sms = shifted_max_set(w, J)
    if fmt == "json":
        return {"rows": [{"x": str(x), "m": str(m)} for x, m in sms.pairs.items()]}
    lines = ["x\tm"]
    lines.extend(f"{x}\t{m}" for x, m in sms.pairs.items())
    return "\n".join(lines)


def _cmd_max_set(system, args, fmt, w, J):
    sms = shifted_max_set(w, J)
    values = [str(m) for m in sorted(sms.values)]
    if fmt == "json":
        rows = [{"x": str(x), "m": str(m)} for x, m in sms.pairs.items()]
        return {"pairs": rows, "values": values}
    lines = [f"{x} -> {m}" for x, m in sms.pairs.items()]
    lines.append("values: " + ", ".join(values))
    return "\n".join(lines)


def _pair(factorization):
    """A factorisation (P^J_v, P_u) as two strings, or None."""
    return [str(p) for p in factorization] if factorization else None


def _cmd_bp(system, args, fmt, w, J):
    rep = bp_report(w, J)
    if fmt == "json":
        return {"v": str(rep.v), "u": str(rep.u), "u_max": str(rep.parabolic_max),
                "is_bp": rep.is_bp, "factorization": _pair(rep.factorization)}
    lines = [f"w: {w}", f"J: {system.genset_str(J)}", f"v: {rep.v}", f"u: {rep.u}",
             f"u_max: {rep.parabolic_max}"]
    if rep.is_bp:
        pv, pu = rep.factorization
        lines.append("BP")
        lines.append(f"P^J_v: {pv}")
        lines.append(f"P_u: {pu}")
        lines.append(f"product: {pv * pu}")
    else:
        lines.append("not BP")
    return "\n".join(lines)


def _cmd_poincare_decomp(system, args, fmt, w, J, K=None):
    dec = decompose_poincare(w, J) if K is None else relative_decompose_poincare(w, J, K)
    if fmt == "json":
        terms = [{"x": str(t.x), "shift": str(t.shift), "m": str(t.shifted_max),
                  "factor": str(t.factor), "factor_coeffs": list(t.factor.coeffs)}
                 for t in dec.terms]
        payload = {"terms": terms, "factored": dec.factored_str(),
                   "total": str(dec.total), "total_coeffs": list(dec.total.coeffs)}
        if K is not None:
            payload["factorization"] = _pair(dec.factorization)
        return payload
    lines = [f"w: {w}", f"J: {system.genset_str(J)}"]
    if K is not None:
        lines.append(f"K: {system.genset_str(K)}")
    for t in dec.terms:
        lines.append(f"x={t.x}\tm={t.shifted_max}\t{t.shift} * ({t.factor})")
    lines.append(f"factored: {dec.factored_str()}")
    if dec.factorization is not None:  # relative mode only
        pv, pu = dec.factorization
        lines.append(f"product: ({pv})({pu})")
    lines.append(f"total: {dec.total}")
    return "\n".join(lines)


def _cmd_bp_scan(system, args, fmt, w):
    subsets = [frozenset(J) for size in range(system.rank + 1)
               for J in itertools.combinations(range(system.rank), size)]
    rows = [(J, bp_report(w, J)) for J in subsets]
    if fmt == "json":
        return {"rows": [
            {"J": system.genset_str(J), "is_bp": rep.is_bp,
             "u": str(rep.u), "u_max": str(rep.parabolic_max)}
            for J, rep in rows]}
    lines = ["J\tis_bp\tu\tu_max"]
    for J, rep in rows:
        flag = "yes" if rep.is_bp else "no"
        lines.append(f"{system.genset_str(J)}\t{flag}\t{rep.u}\t{rep.parabolic_max}")
    return "\n".join(lines)


def _cmd_hasse(system, args, fmt, w, J=None):
    if fmt == "dot":
        return hasse_dot(w, J)
    g = hasse_graph(w, J)
    name = {y: str(y) for y in g.interval}  # each name rendered once
    if fmt == "json":
        return {"J": None,  # unless --J was given: main's echo replaces it
                "nodes": [{"w": n, "color": g.colors.get(y)} for y, n in name.items()],
                "edges": [[name[c], name[y]] for c, y in g.edges]}
    return "\n".join(f"{name[c]} -- {name[y]}" for c, y in g.edges)


def _cmd_verify(system, args, fmt):
    for flag, value in (("--max-len", args.max_len), ("--samples", args.samples)):
        if value < 0:
            raise _Usage(f"{flag}: must be nonnegative, got {value}")
    records = oracle.verify(system, max_len=args.max_len, samples=args.samples, seed=args.seed)
    lines = [f"{name}: FAIL ({bad} mismatches; {coverage})" if bad else f"{name}: ok ({coverage})"
             for name, bad, coverage in records]
    ok = not any(bad for _, bad, _ in records)
    code = 0 if ok else 1
    if fmt == "json":
        return {"ok": ok, "report": lines}, code
    return "\n".join(lines), code


# -- the command table ---------------------------------------------------

_W = (("--w", {"help": "word, e.g. 's1 s2 s1' ('e' for the identity)"}),
      ("--perm", {"help": "type A only: one-line permutation, e.g. 4231"}))
_REQUIRED = {"required": True}
_WJ = (*_W, ("--J", _REQUIRED))
_WXJK = (*_W, ("--x", _REQUIRED), ("--J", _REQUIRED), ("--K", _REQUIRED))

#: One row per subcommand: name, handler, help text, and its arguments in
#: help order as (flag, add_argument keywords) pairs.
_COMMANDS = (
    ("len", _cmd_len, "length of w", _W),
    ("leq", _cmd_leq, "Bruhat comparison u <= w", (("--u", _REQUIRED), *_W)),
    ("interval", _cmd_interval, "the lower interval [e, w]", _W),
    ("covers", _cmd_covers, "elements covered by w", _W),
    ("poincare", _cmd_poincare, "Poincare polynomial of [e, w]", _W),
    ("poincare-rel", _cmd_poincare, "Poincare polynomial of the J-minimal part of [e, w]", _WJ),
    ("decompose", _cmd_decompose, "parabolic factorisation of w",
     (*_WJ, ("--side", {"choices": ("right", "left"), "default": "right"}))),
    ("coset-rep", _cmd_coset_rep, "minimal representative of w W_J", _WJ),
    ("max-coset", _cmd_max_coset, "maximum of [e, w] meet x W_J",
     (*_W, ("--x", _REQUIRED), ("--J", _REQUIRED),
      ("--trace", {"action": "store_true", "help": "include the recursion trace"}))),
    ("mj-table", _cmd_mj_table, "table x -> m of shifts over all x <= w in W^J", _WJ),
    ("max-set", _cmd_max_set, "set of shifts over all x <= w in W^J", _WJ),
    ("rel-max", _cmd_max_coset, "maximum of [e, w]^J meet x(W^J meet W_K), J inside K", _WXJK),
    ("fiber", _cmd_max_coset, "fiber index over a chain J inside K (alias of rel-max)", _WXJK),
    ("bp", _cmd_bp, "Billey-Postnikov test for (w, J)", _WJ),
    ("poincare-decomp", _cmd_poincare_decomp, "Poincare polynomial split along cosets",
     (*_WJ, ("--K", {"help": "relative mode: decompose P^J_w along K-cosets"}))),
    ("bp-scan", _cmd_bp_scan, "Billey-Postnikov test for every J", _W),
    ("hasse", _cmd_hasse, "Hasse diagram of [e, w] (DOT by default)",
     (*_W, ("--J", {"help": "colour nodes by their W_J coset"}))),
    ("verify", _cmd_verify, "cross-check fast paths against brute-force oracles",
     (("--max-len", {"type": int, "default": 6}), ("--samples", {"type": int, "default": 200}),
      ("--seed", {"type": int, "default": 0}))),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="coxbruhat",
        description="Bruhat intervals, parabolic cosets, and coset maxima in Coxeter groups.",
    )
    parser.add_argument("--type", help="preset type, e.g. A3, B3, F4, H3, I2:5, I2:inf, A~2")
    parser.add_argument("--matrix", help="JSON Coxeter matrix file")
    parser.add_argument("--format", choices=("text", "json", "dot"),
                        help="output format (default text; dot only for hasse)")
    parser.add_argument("--length-cap", type=int, help="maximum element length (default 64)")
    parser.add_argument("--interval-cap", type=int,
                        help="maximum length(w) for interval enumeration (default 24)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, flags=tuple(flag for flag, _ in arguments))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        system = _build_system(args)
        fmt = args.format or ("dot" if args.handler is _cmd_hasse else "text")
        if fmt == "dot" and args.handler is not _cmd_hasse:
            raise _Usage("--format: dot output is only available for the hasse command")
        values = _inputs(system, args, args.flags)
        out = args.handler(system, args, fmt, **values)
        out, code = out if isinstance(out, tuple) else (out, 0)
        if isinstance(out, dict):
            echo = {key: _show(system, value) for key, value in values.items()}
            out = json.dumps({"command": args.command, **out, **echo}, indent=2, sort_keys=True)
        if out:
            _sys.stdout.write(out if out.endswith("\n") else out + "\n")
        return code
    except _Usage as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except CoxeterError as exc:
        print(f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
