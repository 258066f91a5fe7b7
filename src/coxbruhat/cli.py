"""The coxbruhat command-line interface.

This module parses arguments and renders output; the computing is done by
the library.  Each subcommand is one row of ``_COMMANDS`` (name, handler,
help text, arguments); :func:`build_parser` builds the parser from that
table and :func:`main` calls the handler of the parsed row.  A handler
returns text, or for ``--format json`` a payload dict that :func:`main`
serialises with the command name added.

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


def _element(system: CoxeterSystem, text: str, flag: str) -> Element:
    try:
        return system.element(text)
    except ValueError as exc:
        raise _Usage(f"{flag}: {exc}") from None


def _genset(system: CoxeterSystem, text: str, flag: str):
    try:
        return system.parse_genset(text)
    except ValueError as exc:
        raise _Usage(f"{flag}: {exc}") from None


def _w_arg(system: CoxeterSystem, args) -> Element:
    if getattr(args, "perm", None) is not None:
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
    return _element(system, args.w, "--w")


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


def _cmd_len(system, args, fmt):
    w = _w_arg(system, args)
    if fmt == "json":
        return {"w": str(w), "length": w.length}
    return str(w.length)


def _cmd_leq(system, args, fmt):
    u = _element(system, args.u, "--u")
    w = _w_arg(system, args)
    res = leq(u, w)
    if fmt == "json":
        return {"u": str(u), "w": str(w), "leq": res}
    return "true" if res else "false"


def _cmd_interval(system, args, fmt):
    w = _w_arg(system, args)
    itv = lower_interval(w)
    members = [str(y) for y in itv]
    if fmt == "json":
        return {"w": str(w), "size": len(itv), "rank_sizes": list(itv.rank_sizes),
                "members": members}
    lines = [f"size: {len(itv)}", "ranks: " + " ".join(str(n) for n in itv.rank_sizes)]
    lines.extend(members)
    return "\n".join(lines)


def _cmd_covers(system, args, fmt):
    w = _w_arg(system, args)
    down = [str(y) for y in sorted(covers(w), key=attrgetter("word"))]  # one length: ShortLex
    if fmt == "json":
        return {"w": str(w), "covers": down}
    return "\n".join(down)


def _cmd_poincare(system, args, fmt):
    w = _w_arg(system, args)
    poly = poincare(w)
    if fmt == "json":
        return {"w": str(w), "coeffs": list(poly.coeffs), "poly": str(poly)}
    return str(poly)


def _cmd_poincare_rel(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    poly = relative_poincare(w, J)
    if fmt == "json":
        return {"w": str(w), "J": system.genset_str(J),
                "coeffs": list(poly.coeffs), "poly": str(poly)}
    return str(poly)


def _cmd_decompose(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    d = decompose(w, J, args.side)
    if fmt == "json":
        return {"w": str(w), "J": system.genset_str(J),
                "side": d.side, "v": str(d.v), "u": str(d.u)}
    if d.side == "right":
        return f"v: {d.v}\nu: {d.u}"
    return f"u: {d.u}\nv: {d.v}"


def _cmd_coset_rep(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    rep = coset_rep(w, J)
    if fmt == "json":
        return {"w": str(w), "J": system.genset_str(J), "rep": str(rep)}
    return str(rep)


def _trace_json(system, trace):
    return [
        {
            "x": str(step.x),
            "left_descents": system.genset_str(step.left_descents),
            "u": str(step.u),
            "v": str(step.v),
            "stabilizers": system.genset_str(step.coset_stabilizers),
            "s": system.names[step.s],
            "prefix_max": str(step.prefix_max),
            "suffix_max": str(step.suffix_max),
            "q": str(step.maximum),
        }
        for step in trace
    ]


def _trace_text(system, trace):
    lines = ["trace:"]
    for step in trace:
        lines.append(
            f"  x={step.x}  D_L={system.genset_str(step.left_descents)}"
            f"  u={step.u}  v={step.v}"
            f"  stab={system.genset_str(step.coset_stabilizers)}"
            f"  s={system.names[step.s]}"
            f"  q'={step.prefix_max}  q''={step.suffix_max}  q={step.maximum}"
        )
    return lines


def _cmd_max_coset(system, args, fmt):
    w = _w_arg(system, args)
    x = _element(system, args.x, "--x")
    J = _genset(system, args.J, "--J")
    res = max_in_coset(w, x, J)
    if fmt == "json":
        payload = {"w": str(w), "x": str(x), "J": system.genset_str(J),
                   "q": str(res.maximum), "m": str(res.shift)}
        if args.trace:
            payload["trace"] = _trace_json(system, res.trace)
        return payload
    lines = [f"q: {res.maximum}", f"m: {res.shift}"]
    if args.trace:
        lines.extend(_trace_text(system, res.trace))
    return "\n".join(lines)


def _cmd_mj_table(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    sms = shifted_max_set(w, J)
    if fmt == "json":
        rows = [{"x": str(x), "m": str(m)} for x, m in sms.pairs.items()]
        return {"w": str(w), "J": system.genset_str(J), "rows": rows}
    lines = ["x\tm"]
    lines.extend(f"{x}\t{m}" for x, m in sms.pairs.items())
    return "\n".join(lines)


def _cmd_max_set(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    sms = shifted_max_set(w, J)
    values = [str(m) for m in sorted(sms.values)]
    if fmt == "json":
        rows = [{"x": str(x), "m": str(m)} for x, m in sms.pairs.items()]
        return {"w": str(w), "J": system.genset_str(J), "pairs": rows, "values": values}
    lines = [f"{x} -> {m}" for x, m in sms.pairs.items()]
    lines.append("values: " + ", ".join(values))
    return "\n".join(lines)


def _cmd_rel_max(system, args, fmt):
    w = _w_arg(system, args)
    x = _element(system, args.x, "--x")
    J = _genset(system, args.J, "--J")
    K = _genset(system, args.K, "--K")
    res = max_in_relative_coset(w, x, J, K)
    if fmt == "json":
        return {"w": str(w), "x": str(x), "J": system.genset_str(J),
                "K": system.genset_str(K), "q": str(res.maximum), "m": str(res.shift)}
    return f"q: {res.maximum}\nm: {res.shift}"


def _cmd_bp(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    rep = bp_report(w, J)
    if fmt == "json":
        return {"w": str(w), "J": system.genset_str(J),
                "v": str(rep.v), "u": str(rep.u), "u_max": str(rep.parabolic_max),
                "is_bp": rep.is_bp,
                "factorization": (
                    [str(rep.factorization[0]), str(rep.factorization[1])]
                    if rep.factorization else None)}
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


def _decomp_payload(system, dec):
    terms = [{"x": str(t.x), "shift": str(t.shift), "m": str(t.shifted_max),
              "factor": str(t.factor), "factor_coeffs": list(t.factor.coeffs)}
             for t in dec.terms]
    payload = {"w": str(dec.w), "J": system.genset_str(dec.J),
               "terms": terms, "factored": dec.factored_str(),
               "total": str(dec.total), "total_coeffs": list(dec.total.coeffs)}
    if dec.K is not None:
        payload["K"] = system.genset_str(dec.K)
        payload["factorization"] = (
            [str(dec.factorization[0]), str(dec.factorization[1])]
            if dec.factorization else None)
    return payload


def _cmd_poincare_decomp(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    if args.K is not None:
        dec = relative_decompose_poincare(w, J, _genset(system, args.K, "--K"))
    else:
        dec = decompose_poincare(w, J)
    if fmt == "json":
        return _decomp_payload(system, dec)
    lines = [f"w: {w}", f"J: {system.genset_str(dec.J)}"]
    if dec.K is not None:
        lines.append(f"K: {system.genset_str(dec.K)}")
    for t in dec.terms:
        lines.append(f"x={t.x}\tm={t.shifted_max}\t{t.shift} * ({t.factor})")
    lines.append(f"factored: {dec.factored_str()}")
    if dec.K is not None and dec.factorization is not None:
        pv, pu = dec.factorization
        lines.append(f"product: ({pv})({pu})")
    lines.append(f"total: {dec.total}")
    return "\n".join(lines)


def _cmd_bp_scan(system, args, fmt):
    w = _w_arg(system, args)
    rows = []
    gens = range(system.rank)
    for size in range(system.rank + 1):
        for J in itertools.combinations(gens, size):
            rep = bp_report(w, frozenset(J))
            rows.append((frozenset(J), rep))
    if fmt == "json":
        return {"w": str(w), "rows": [
            {"J": system.genset_str(J), "is_bp": rep.is_bp,
             "u": str(rep.u), "u_max": str(rep.parabolic_max)}
            for J, rep in rows]}
    lines = ["J\tis_bp\tu\tu_max"]
    for J, rep in rows:
        flag = "yes" if rep.is_bp else "no"
        lines.append(f"{system.genset_str(J)}\t{flag}\t{rep.u}\t{rep.parabolic_max}")
    return "\n".join(lines)


def _cmd_hasse(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J") if args.J is not None else None
    if fmt == "dot":
        return hasse_dot(w, J)
    g = hasse_graph(w, J)
    name = {y: str(y) for y in g.interval}  # each name rendered once
    if fmt == "json":
        return {"w": name[w], "J": system.genset_str(J) if J is not None else None,
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
    ("poincare-rel", _cmd_poincare_rel,
     "Poincare polynomial of the J-minimal part of [e, w]", _WJ),
    ("decompose", _cmd_decompose, "parabolic factorisation of w",
     (*_WJ, ("--side", {"choices": ("right", "left"), "default": "right"}))),
    ("coset-rep", _cmd_coset_rep, "minimal representative of w W_J", _WJ),
    ("max-coset", _cmd_max_coset, "maximum of [e, w] meet x W_J",
     (*_W, ("--x", _REQUIRED), ("--J", _REQUIRED),
      ("--trace", {"action": "store_true", "help": "include the recursion trace"}))),
    ("mj-table", _cmd_mj_table, "table x -> m of shifts over all x <= w in W^J", _WJ),
    ("max-set", _cmd_max_set, "set of shifts over all x <= w in W^J", _WJ),
    ("rel-max", _cmd_rel_max,
     "maximum of [e, w]^J meet x(W^J meet W_K), J inside K", _WXJK),
    ("fiber", _cmd_rel_max, "fiber index over a chain J inside K (alias of rel-max)", _WXJK),
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
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        system = _build_system(args)
        fmt = args.format or ("dot" if args.handler is _cmd_hasse else "text")
        if fmt == "dot" and args.handler is not _cmd_hasse:
            raise _Usage("--format: dot output is only available for the hasse command")
        out = args.handler(system, args, fmt)
        out, code = out if isinstance(out, tuple) else (out, 0)
        if isinstance(out, dict):
            out = json.dumps({"command": args.command, **out}, indent=2, sort_keys=True)
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
