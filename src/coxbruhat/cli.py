"""The coxbruhat command-line interface.

All set-valued output is ShortLex sorted, so runs are byte-for-byte
reproducible.  JSON output is serialised with sorted keys and a fixed
indent; parsing and re-serialising it is the identity.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys as _sys
from operator import attrgetter

from . import oracle
from .bruhat import covers, leq, lower_interval, poincare
from .core import CoxeterSystem, Element, element_from_permutation
from .coset_max import max_in_coset, max_in_relative_coset, shifted_max_set
from .dot import hasse_dot, hasse_graph
from .errors import CoxeterError
from .parabolic import coset_rep, decompose, min_reps_in_order
from .poincare import (
    bp_report,
    decompose_poincare,
    relative_decompose_poincare,
    relative_poincare,
)
from .presets import coxeter_system, load_matrix_file


class _Usage(Exception):
    """Bad flag value; reported on stderr with exit code 2."""


def _json_out(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
        return _json_out({"command": "len", "w": str(w), "length": w.length})
    return str(w.length)


def _cmd_leq(system, args, fmt):
    u = _element(system, args.u, "--u")
    w = _w_arg(system, args)
    res = leq(u, w)
    if fmt == "json":
        return _json_out({"command": "leq", "u": str(u), "w": str(w), "leq": res})
    return "true" if res else "false"


def _cmd_interval(system, args, fmt):
    w = _w_arg(system, args)
    itv = lower_interval(w)
    members = [str(y) for y in itv.sorted_members()]
    if fmt == "json":
        return _json_out({
            "command": "interval", "w": str(w), "size": len(itv),
            "rank_sizes": list(itv.rank_sizes), "members": members,
        })
    lines = [f"size: {len(itv)}", "ranks: " + " ".join(str(n) for n in itv.rank_sizes)]
    lines.extend(members)
    return "\n".join(lines)


def _cmd_covers(system, args, fmt):
    w = _w_arg(system, args)
    down = [str(y) for y in sorted(covers(w), key=attrgetter("word"))]  # one length: ShortLex
    if fmt == "json":
        return _json_out({"command": "covers", "w": str(w), "covers": down})
    return "\n".join(down)


def _cmd_poincare(system, args, fmt):
    w = _w_arg(system, args)
    poly = poincare(w)
    if fmt == "json":
        return _json_out({"command": "poincare", "w": str(w),
                          "coeffs": list(poly.coeffs), "poly": str(poly)})
    return str(poly)


def _cmd_poincare_rel(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    poly = relative_poincare(w, J)
    if fmt == "json":
        return _json_out({"command": "poincare-rel", "w": str(w), "J": system.genset_str(J),
                          "coeffs": list(poly.coeffs), "poly": str(poly)})
    return str(poly)


def _cmd_decompose(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    d = decompose(w, J, args.side)
    if fmt == "json":
        return _json_out({"command": "decompose", "w": str(w), "J": system.genset_str(J),
                          "side": d.side, "v": str(d.v), "u": str(d.u)})
    if d.side == "right":
        return f"v: {d.v}\nu: {d.u}"
    return f"u: {d.u}\nv: {d.v}"


def _cmd_coset_rep(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    rep = coset_rep(w, J)
    if fmt == "json":
        return _json_out({"command": "coset-rep", "w": str(w),
                          "J": system.genset_str(J), "rep": str(rep)})
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
        payload = {"command": "max-coset", "w": str(w), "x": str(x),
                   "J": system.genset_str(J), "q": str(res.maximum), "m": str(res.shift)}
        if args.trace:
            payload["trace"] = _trace_json(system, res.trace)
        return _json_out(payload)
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
        return _json_out({"command": "mj-table", "w": str(w),
                          "J": system.genset_str(J), "rows": rows})
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
        return _json_out({"command": "max-set", "w": str(w), "J": system.genset_str(J),
                          "pairs": rows, "values": values})
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
        return _json_out({"command": args.command, "w": str(w), "x": str(x),
                          "J": system.genset_str(J), "K": system.genset_str(K),
                          "q": str(res.maximum), "m": str(res.shift)})
    return f"q: {res.maximum}\nm: {res.shift}"


def _cmd_bp(system, args, fmt):
    w = _w_arg(system, args)
    J = _genset(system, args.J, "--J")
    rep = bp_report(w, J)
    if fmt == "json":
        payload = {"command": "bp", "w": str(w), "J": system.genset_str(J),
                   "v": str(rep.v), "u": str(rep.u), "u_max": str(rep.parabolic_max),
                   "is_bp": rep.is_bp,
                   "factorization": (
                       [str(rep.factorization[0]), str(rep.factorization[1])]
                       if rep.factorization else None)}
        return _json_out(payload)
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


def _decomp_payload(system, dec, command):
    terms = [{"x": str(t.x), "shift": str(t.shift), "m": str(t.shifted_max),
              "factor": str(t.factor), "factor_coeffs": list(t.factor.coeffs)}
             for t in dec.terms]
    payload = {"command": command, "w": str(dec.w), "J": system.genset_str(dec.J),
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
        return _json_out(_decomp_payload(system, dec, "poincare-decomp"))
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
        return _json_out({"command": "bp-scan", "w": str(w), "rows": [
            {"J": system.genset_str(J), "is_bp": rep.is_bp,
             "u": str(rep.u), "u_max": str(rep.parabolic_max)}
            for J, rep in rows]})
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
    if fmt == "json":
        return _json_out({"command": "hasse", "w": str(w),
                          "J": system.genset_str(J) if J is not None else None,
                          "nodes": [{"w": str(y), "color": g.colors.get(y)} for y in g.interval],
                          "edges": [[str(c), str(y)] for c, y in g.edges]})
    return "\n".join(f"{c} -- {y}" for c, y in g.edges)


def _cmd_verify(system, args, fmt):
    for flag, value in (("--max-len", args.max_len), ("--samples", args.samples)):
        if value < 0:
            raise _Usage(f"{flag}: must be nonnegative, got {value}")
    rng = random.Random(args.seed)
    max_len = min(args.max_len, system.length_cap)
    failures: list[str] = []
    lines: list[str] = []

    words: list[tuple[int, ...]] = []
    total = sum(system.rank ** k for k in range(max_len + 1))
    if total <= 20000:
        for k in range(max_len + 1):
            words.extend(itertools.product(range(system.rank), repeat=k))
    else:
        words = [tuple(rng.randrange(system.rank) for _ in range(rng.randint(0, max_len)))
                 for _ in range(args.samples)]
    bad = 0
    for word in words:
        if not oracle.braid_equal(system, word, system.normalize(word).word):
            bad += 1
    pairs = 0
    for _ in range(min(args.samples, len(words) ** 2)):
        w1, w2 = rng.choice(words), rng.choice(words)
        pairs += 1
        if (system.normalize(w1) == system.normalize(w2)) != oracle.braid_equal(system, w1, w2):
            bad += 1
    _report(lines, failures, "words", bad, f"{len(words)} words, {pairs} pairs")

    elems = system.elements(min(max_len, system.interval_cap))
    if len(elems) > 400:
        elems = rng.sample(elems, 400)
    bad = sum(1 for w in elems
              if lower_interval(w).members != oracle.brute_interval(w))
    _report(lines, failures, "intervals", bad, f"{len(elems)} elements")

    bad = 0
    triples = 0
    subsets = [frozenset(J) for size in range(system.rank + 1)
               for J in itertools.combinations(range(system.rank), size)]
    for w in elems:
        for J in subsets if len(subsets) <= 16 else rng.sample(subsets, 16):
            for x in min_reps_in_order(w, J):
                triples += 1
                res = max_in_coset(w, x, J)
                if oracle.brute_coset_max(w, x, J) != res.maximum:
                    bad += 1
                if oracle.coset_max_candidates(w, x, J) != frozenset((res.maximum,)):
                    bad += 1
    _report(lines, failures, "coset-maxima", bad, f"{triples} triples")

    bad = 0
    count = 0
    for _ in range(args.samples):
        w, u = rng.choice(elems), rng.choice(elems)
        if w.length + u.length <= system.interval_cap:
            count += 1
            if not oracle.verify_interval_product(w, u):
                bad += 1
    _report(lines, failures, "interval-product", bad, f"{count} pairs")

    if fmt == "json":
        return _json_out({"command": "verify", "ok": not failures, "report": lines}), \
            (1 if failures else 0)
    return "\n".join(lines), (1 if failures else 0)


def _report(lines, failures, name, bad, detail):
    if bad:
        lines.append(f"{name}: FAIL ({bad} mismatches; {detail})")
        failures.append(name)
    else:
        lines.append(f"{name}: ok ({detail})")


_HANDLERS = {
    "len": _cmd_len,
    "leq": _cmd_leq,
    "interval": _cmd_interval,
    "covers": _cmd_covers,
    "poincare": _cmd_poincare,
    "poincare-rel": _cmd_poincare_rel,
    "decompose": _cmd_decompose,
    "coset-rep": _cmd_coset_rep,
    "max-coset": _cmd_max_coset,
    "mj-table": _cmd_mj_table,
    "max-set": _cmd_max_set,
    "rel-max": _cmd_rel_max,
    "fiber": _cmd_rel_max,
    "bp": _cmd_bp,
    "poincare-decomp": _cmd_poincare_decomp,
    "bp-scan": _cmd_bp_scan,
    "hasse": _cmd_hasse,
    "verify": _cmd_verify,
}


def _add_w(p):
    p.add_argument("--w", help="word, e.g. 's1 s2 s1' ('e' for the identity)")
    p.add_argument("--perm", help="type A only: one-line permutation, e.g. 4231")


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

    p = sub.add_parser("len", help="length of w")
    _add_w(p)
    p = sub.add_parser("leq", help="Bruhat comparison u <= w")
    p.add_argument("--u", required=True)
    _add_w(p)
    p = sub.add_parser("interval", help="the lower interval [e, w]")
    _add_w(p)
    p = sub.add_parser("covers", help="elements covered by w")
    _add_w(p)
    p = sub.add_parser("poincare", help="Poincare polynomial of [e, w]")
    _add_w(p)
    p = sub.add_parser("poincare-rel", help="Poincare polynomial of the J-minimal part of [e, w]")
    _add_w(p)
    p.add_argument("--J", required=True)
    p = sub.add_parser("decompose", help="parabolic factorisation of w")
    _add_w(p)
    p.add_argument("--J", required=True)
    p.add_argument("--side", choices=("right", "left"), default="right")
    p = sub.add_parser("coset-rep", help="minimal representative of w W_J")
    _add_w(p)
    p.add_argument("--J", required=True)
    p = sub.add_parser("max-coset", help="maximum of [e, w] meet x W_J")
    _add_w(p)
    p.add_argument("--x", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--trace", action="store_true", help="include the recursion trace")
    p = sub.add_parser("mj-table", help="table x -> m of shifts over all x <= w in W^J")
    _add_w(p)
    p.add_argument("--J", required=True)
    p = sub.add_parser("max-set", help="set of shifts over all x <= w in W^J")
    _add_w(p)
    p.add_argument("--J", required=True)
    for name, help_text in (
        ("rel-max", "maximum of [e, w]^J meet x(W^J meet W_K), J inside K"),
        ("fiber", "fiber index over a chain J inside K (alias of rel-max)"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_w(p)
        p.add_argument("--x", required=True)
        p.add_argument("--J", required=True)
        p.add_argument("--K", required=True)
    p = sub.add_parser("bp", help="Billey-Postnikov test for (w, J)")
    _add_w(p)
    p.add_argument("--J", required=True)
    p = sub.add_parser("poincare-decomp", help="Poincare polynomial split along cosets")
    _add_w(p)
    p.add_argument("--J", required=True)
    p.add_argument("--K", help="relative mode: decompose P^J_w along K-cosets")
    p = sub.add_parser("bp-scan", help="Billey-Postnikov test for every J")
    _add_w(p)
    p = sub.add_parser("hasse", help="Hasse diagram of [e, w] (DOT by default)")
    _add_w(p)
    p.add_argument("--J", help="colour nodes by their W_J coset")
    p = sub.add_parser("verify", help="cross-check fast paths against brute-force oracles")
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        system = _build_system(args)
        fmt = args.format or ("dot" if args.command == "hasse" else "text")
        if fmt == "dot" and args.command != "hasse":
            raise _Usage("--format: dot output is only available for the hasse command")
        out = _HANDLERS[args.command](system, args, fmt)
        text, code = out if isinstance(out, tuple) else (out, 0)
        if text:
            _sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return code
    except _Usage as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except CoxeterError as exc:
        print(f"{type(exc).__name__}: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
