"""The four benchmark workloads: inputs, operations and answer checks.

Each workload makes its inputs from a seeded ``random.Random`` without
calling coxbruhat, runs one operation per input item, turns each result into
plain data (words, coefficient lists, text) and checks that data afterwards.
``prog`` is a namespace holding the imported ``cb`` (the coxbruhat package),
``cli`` and ``oracle`` modules; the runner re-imports them for every set-up.

A round is a fixed list of items on fresh systems.  The runner repeats
whole rounds, so every run of a workload with the same ``--seconds`` does
the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re

import checks as ref

# -- shared helpers ----------------------------------------------------------


def word_str(word):
    return " ".join(f"s{i + 1}" for i in word) if word else "e"


def parse_word(text):
    text = text.strip()
    if text in ("e", "∅", ""):
        return ()
    return tuple(int(tok[1:]) - 1 for tok in text.split())


def genset_str(J):
    return ",".join(f"s{i + 1}" for i in sorted(J)) if J else "-"


def parse_genset(text):
    return frozenset() if text in ("-", "") else frozenset(int(t[1:]) - 1 for t in text.split(","))


def random_subset(rng, rank, size=None):
    """A random J; of ``size`` elements when given, else each generator with chance 1/2."""
    if size is not None:
        return frozenset(rng.sample(range(rank), size))
    return frozenset(i for i in range(rank) if rng.random() < 0.5)


def poly_shift_add(acc, coeffs, k):
    need = len(coeffs) + k
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, c in enumerate(coeffs):
        acc[k + i] += c
    return acc


def trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def perm_word(p):
    """A reduced word of a permutation: strip right descents one at a time."""
    p = list(p)
    letters = []
    while True:
        ds = [i for i in range(len(p) - 1) if p[i] > p[i + 1]]
        if not ds:
            return tuple(reversed(letters))
        i = ds[0]
        p[i], p[i + 1] = p[i + 1], p[i]
        letters.append(i)


def _finite_word(kind, length, rng):
    return ref.GeometricRep(ref.coxeter_matrix(kind)).random_reduced_word(length, rng)


# -- checks of coset tables --------------------------------------------------


def check_coset_table_type_a(sg, w_word, J, pairs):
    """Exact check of x -> m against brute force over permutations.

    ``pairs`` maps word(x) -> word(m).  The minimal representatives must be
    exactly the cosets met by [e, w], and x m must be the brute-force
    maximum of its coset.
    """
    errs = []
    rank = sg.rank
    w = ref.perm_of_word(w_word, rank)
    brute = sg.coset_maxima(w, J)
    got = {ref.perm_of_word(x, rank): m for x, m in pairs.items()}
    if set(got) != set(brute):
        errs.append(f"{len(got)} representatives, expected {len(brute)}")
        return errs
    for x, m in got.items():
        q = ref.perm_mul(x, ref.perm_of_word(m, rank))
        if not set(m) <= J:
            errs.append(f"shift {word_str(m)} not in W_J")
        if q != brute[x] or sg.length[q] != sg.length[x] + len(m):
            errs.append(f"x={x}: x m = {q}, expected {brute[x]}")
    return errs


def check_coset_table_props(S, cb, w_word, J, pairs):
    """Properties the theorem forces, for any group, on a checking system.

    For each x: x in W^J, q = x m is below w with l(q) = l(x) + l(m) and m in
    W_J; and sum over x of t^l(x) P_m equals P_w.
    """
    errs = []
    w = S.normalize(w_word)
    total = []
    for xw, mw in pairs.items():
        x = S.normalize(xw)
        m = S.normalize(mw)
        q = x * m
        if x.right_descents & J:
            errs.append(f"x={word_str(xw)} is not J-minimal")
        if not set(mw) <= J:
            errs.append(f"shift {word_str(mw)} not in W_J")
        if q.length != x.length + m.length or not cb.leq(q, w):
            errs.append(f"x={word_str(xw)}: q={q} fails length additivity or q <= w")
        poly_shift_add(total, list(cb.lower_interval(m).rank_sizes), x.length)
    if trim(total) != list(cb.lower_interval(w).rank_sizes):
        errs.append(f"sum of t^l(x) P_m = {trim(total)} differs from P_w")
    return errs


def check_terms_sum(terms, total):
    """sum over terms of t^l(x) * factor equals the reported total."""
    acc = []
    for xw, coeffs in terms:
        poly_shift_add(acc, coeffs, len(xw))
    if trim(acc) != list(total):
        return [f"terms sum to {trim(acc)}, total is {list(total)}"]
    return []


# -- workload: coset_sweep -----------------------------------------------------


class CosetSweep:
    """Every (w, J) of A4, H3 and D4: shift table, P_w decomposition, BP test."""

    name = "coset_sweep"
    round_s = 6.0
    groups = ("A4", "H3", "D4")
    oracle_sample = 25   # seeded (w, x, J) triples per non-type-A group
    oracle_max_len = 7   # keeps brute_coset_max cheap

    def inputs(self, rng, rounds):
        out = []
        for _ in range(rounds):
            items = [
                (kind, i, J)
                for kind in self.groups
                for i in range(ref.group_order(kind))
                for J in _subsets(len(ref.DEGREES[kind]))
            ]
            rng.shuffle(items)
            out.append(items)
        return out

    def setup(self, prog):
        return {kind: prog.cb.coxeter_system(kind).elements() for kind in self.groups}

    def op(self, prog, state, item):
        kind, i, J = item
        cb = prog.cb
        w = state[kind][i]
        return w, cb.shifted_max_set(w, J), cb.decompose_poincare(w, J), cb.bp_report(w, J)

    def extract(self, state, item, res):
        w, sms, dec, bp = res
        return {
            "w": w.word,
            "pairs": {x.word: m.word for x, m in sms.pairs.items()},
            "terms": [(t.x.word, list(t.factor.coeffs)) for t in dec.terms],
            "total": list(dec.total.coeffs),
            "bp": (bp.v.word, bp.u.word, bp.parabolic_max.word, bp.is_bp,
                   None if bp.factorization is None
                   else [list(p.coeffs) for p in bp.factorization]),
            "order": len(state[item[0]]),
            "longest": state[item[0]][-1].word,
        }

    def checker(self, prog):
        return _SweepChecker(prog, self)


def _subsets(rank):
    return [frozenset(J) for k in range(rank + 1) for J in itertools.combinations(range(rank), k)]


class _SweepChecker:
    def __init__(self, prog, wl):
        self.prog = prog
        self.wl = wl
        self.sg = ref.symmetric_group(4)
        self.systems = {kind: prog.cb.coxeter_system(kind) for kind in wl.groups}
        self.oracle_budget = {kind: wl.oracle_sample for kind in wl.groups if kind[0] != "A"}
        self.checked = {}  # item -> answer already checked in an earlier round

    def __call__(self, item, data, rng):
        if item in self.checked:
            return [] if self.checked[item] == data else ["answer differs from the first round's"]
        self.checked[item] = data
        kind, _, J = item
        errs = []
        if data["order"] != ref.group_order(kind):
            errs.append(f"|{kind}| = {data['order']}, degrees give {ref.group_order(kind)}")
        w = data["w"]
        pairs = data["pairs"]
        errs += check_terms_sum(data["terms"], data["total"])
        if w == data["longest"] and data["total"] != ref.degree_poincare(kind):
            errs.append(f"P_w0 = {data['total']}, degrees give {ref.degree_poincare(kind)}")
        v, u, umax, is_bp, fac = data["bp"]
        if () not in pairs:
            errs.append("identity missing from the representatives")
            return errs
        if is_bp != (u == pairs[()]) or umax != pairs[()]:
            errs.append("BP verdict disagrees with the maximum of [e, w] meet W_J")
        if not set(u) <= J:
            errs.append("parabolic factor u not in W_J")
        if kind[0] == "A":
            sg = self.sg
            errs += check_coset_table_type_a(sg, w, J, pairs)
            pw = sg.poincare(ref.perm_of_word(w, 4))
            if data["total"] != pw:
                errs.append(f"P_w = {data['total']}, brute force gives {pw}")
            pv, pu = ref.perm_of_word(v, 4), ref.perm_of_word(u, 4)
            if ref.perm_mul(pv, pu) != ref.perm_of_word(w, 4) or pv != ref.perm_min_rep(pv, J):
                errs.append("w != v u with v J-minimal")
            if fac is not None and fac != [sg.poincare(pv, J), sg.poincare(pu)]:
                errs.append("BP factorisation differs from brute force")
            return errs
        S = self.systems[kind]
        cb = self.prog.cb
        errs += check_coset_table_props(S, cb, w, J, pairs)
        if S.normalize(v) * S.normalize(u) != S.normalize(w) or len(v) + len(u) != len(w):
            errs.append("w != v u length-additively")
        if fac is not None:
            prod = ref.poly_mul(fac[0], fac[1])
            if trim(prod) != data["total"]:
                errs.append("BP product differs from P_w")
        if len(w) <= self.wl.oracle_max_len and self.oracle_budget[kind] > 0 and rng.random() < 0.05:
            self.oracle_budget[kind] -= 1
            xw = rng.choice(sorted(pairs))
            x = S.normalize(xw)
            q = self.prog.oracle.brute_coset_max(S.normalize(w), x, J)
            if q != x * S.normalize(pairs[xw]):
                errs.append(f"oracle maximum {q} differs for x={word_str(xw)}")
        return errs

    def final(self):
        return []


# -- workload: long_words ------------------------------------------------------


class LongWords:
    """Normalise long reduced words and compare each with a subword."""

    name = "long_words"
    round_s = 1.25
    groups = (("A~2", 40, 64), ("A~3", 40, 64), ("A~4", 40, 64), ("H4", 40, 60), ("F4", 16, 24))
    per_group = 30
    keep = 0.7  # chance that a letter of the word stays in the subword

    def inputs(self, rng, rounds):
        out = []
        for _ in range(rounds):
            items = []
            for kind, lo, hi in self.groups:
                for _ in range(self.per_group):
                    length = rng.randint(lo, hi)
                    if kind.startswith("A~"):
                        word = ref.random_affine_word(int(kind[2:]), length, rng)
                    else:
                        word = _finite_word(kind, length, rng)
                    sub = tuple(s for s in word if rng.random() < self.keep)
                    items.append((kind, word, sub))
            rng.shuffle(items)
            out.append(items)
        return out

    def setup(self, prog):
        return {kind: prog.cb.coxeter_system(kind) for kind, _, _ in self.groups}

    def op(self, prog, state, item):
        kind, word, sub = item
        S = state[kind]
        w = S.normalize(word)
        u = S.normalize(sub)
        return w.word, u.word, prog.cb.leq(u, w)

    def extract(self, state, item, res):
        return res

    def checker(self, prog):
        return _LongWordsChecker(prog)


class _LongWordsChecker:
    def __init__(self, prog):
        self.prog = prog
        self.geo = {k: ref.GeometricRep(ref.coxeter_matrix(k)) for k in ("H4", "F4")}

    def __call__(self, item, data, rng):
        kind, word, sub = item
        wword, uword, below = data
        errs = []
        if not below:
            errs.append("leq(subword, w) is false")
        if len(wword) != len(word):
            errs.append(f"length {len(wword)} for a reduced word of length {len(word)}")
        if kind.startswith("A~"):
            n = int(kind[2:])
            for given, got in ((word, wword), (sub, uword)):
                a = ref.affine_of_word(given, n)
                if ref.affine_of_word(got, n) != a or ref.shi_length(a) != len(got):
                    errs.append(f"{word_str(got)} is not a reduced word of {a}")
        else:
            geo = self.geo[kind]
            for given, got in ((word, wword), (sub, uword)):
                if not geo.same_element(given, got) or not geo.is_reduced(got):
                    errs.append(f"{word_str(got)} is not a reduced word for the input")
        return errs

    def final(self):
        """P_w0 of F4 from the degrees (H4 is left out: its interval is too big)."""
        cb = self.prog.cb
        S = cb.coxeter_system("F4")
        w0 = S.normalize(_finite_word("F4", 24, random.Random(0)))
        got = list(cb.poincare_polynomial(w0).coeffs)
        if got != ref.degree_poincare("F4"):
            return [f"F4: P_w0 = {got}, degrees give {ref.degree_poincare('F4')}"]
        return []


# -- workload: interval_export -----------------------------------------------------

_NODE_RE = re.compile(r'^  "([^"]*)"(?: \[fontcolor=(\w+)\])?;$')
_EDGE_RE = re.compile(r'^  "([^"]*)" -- "([^"]*)";$')
_RANK_RE = re.compile(r'^  \{ rank=same; (.*) \}$')


def parse_dot(text):
    """Nodes (word -> colour), edges (lower, upper) and rank groups of hasse_dot."""
    nodes, edges, ranks = {}, [], []
    for line in text.splitlines():
        if m := _NODE_RE.match(line):
            nodes[parse_word(m.group(1))] = m.group(2)
        elif m := _EDGE_RE.match(line):
            edges.append((parse_word(m.group(1)), parse_word(m.group(2))))
        elif m := _RANK_RE.match(line):
            ranks.append({parse_word(t) for t in re.findall(r'"([^"]*)"', m.group(1))})
    return nodes, edges, ranks


def check_hasse_shape(w_word, nodes, edges, ranks, coeffs):
    """Properties of any Hasse diagram of [e, w] that P_w pins down."""
    errs = []
    hist = [0] * (len(w_word) + 1)
    for y in nodes:
        if len(y) < len(hist):
            hist[len(y)] += 1
    if sum(hist) != len(nodes) or hist != list(coeffs) or max(nodes, key=len) != w_word:
        errs.append(f"node ranks {hist} differ from P_w = {list(coeffs)}")
    for lo, hi in edges:
        if lo not in nodes or hi not in nodes or len(lo) + 1 != len(hi):
            errs.append(f"edge {word_str(lo)} -- {word_str(hi)} does not join adjacent ranks")
            break
    by_len = {}
    for y in nodes:
        by_len.setdefault(len(y), set()).add(y)
    if sorted(map(sorted, ranks)) != sorted(sorted(g) for g in by_len.values() if len(g) > 1):
        errs.append("rank=same groups differ from the node lengths")
    return errs


def check_hasse_type_a(sg, w_word, J, nodes, edges, palette):
    """Exact node set, covers and coset colours against permutations."""
    errs = []
    rank = sg.rank
    perm = {y: ref.perm_of_word(y, rank) for y in nodes}
    w = ref.perm_of_word(w_word, rank)
    if sorted(perm.values()) != sorted(sg.below(w)) or len(set(perm.values())) != len(perm):
        return [f"{len(nodes)} nodes, brute force gives {len(sg.below(w))} elements of [e, w]"]
    down = {y: set() for y in nodes}
    for lo, hi in edges:
        down[hi].add(perm[lo])
    for y, p in perm.items():
        if down[y] != ref.perm_lower_covers(p):
            errs.append(f"covers of {word_str(y)} differ from brute force")
            break
    if J is not None:
        word_of = {p: y for y, p in perm.items()}
        reps = sorted({word_of[ref.perm_min_rep(p, J)] for p in perm.values()},
                      key=lambda y: (len(y), y))
        colour = {ref.perm_min_rep(perm[x], J): palette[i % len(palette)]
                  for i, x in enumerate(reps)}
        if any(nodes[y] != colour[ref.perm_min_rep(p, J)] for y, p in perm.items()):
            errs.append("node colours do not follow the W_J cosets")
    return errs


def check_covers_by_deletion(S, nodes, edges, sample):
    """Lower covers of sampled nodes against single-letter deletions.

    By the subword property and strong exchange, the elements covered by y
    are exactly the deletions of one letter from a reduced word of y that
    have length l(y) - 1.
    """
    down = {y: set() for y in nodes}
    for lo, hi in edges:
        down[hi].add(lo)
    for y in sample:
        expect = set()
        for i in range(len(y)):
            z = S.normalize(y[:i] + y[i + 1:])
            if z.length == len(y) - 1:
                expect.add(z.word)
        if down[y] != expect:
            return [f"covers of {word_str(y)} differ from its one-letter deletions"]
    return []


class IntervalExport:
    """hasse_dot(w, J) and poincare_polynomial(w), a fresh system per call."""

    name = "interval_export"
    round_s = 1.25
    # One item per length listed.  The largest item is B4's longest element,
    # the same in every run, so peak_rss_mb does not depend on the seed.
    strata = (
        ("A5", (9, 10, 11, 12) * 2),
        ("B4", (11, 12, 13, 14, 15, 16)),
        ("D5", (9, 10, 11, 12) * 2),
    )
    cover_sample = 6  # nodes per operation whose covers are re-derived in B4 and D5

    def inputs(self, rng, rounds):
        out = []
        for _ in range(rounds):
            items = []
            for kind, lengths in self.strata:
                rank = len(ref.DEGREES[kind])
                for length in lengths:
                    J = random_subset(rng, rank, rank // 2)
                    items.append((kind, _finite_word(kind, length, rng), J))
            rng.shuffle(items)
            out.append(items)
        return out

    def setup(self, prog):
        return None

    def op(self, prog, state, item):
        kind, word, J = item
        cb = prog.cb
        S = cb.coxeter_system(kind)
        w = S.normalize(word)
        return cb.hasse_dot(w, J), list(cb.poincare_polynomial(w).coeffs), w.word

    def extract(self, state, item, res):
        return res

    def checker(self, prog):
        return _IntervalChecker(prog, self)


class _IntervalChecker:
    def __init__(self, prog, wl):
        self.prog = prog
        self.wl = wl
        self.sg = ref.symmetric_group(5)
        self.systems = {kind: prog.cb.coxeter_system(kind) for kind, _ in wl.strata}

    def __call__(self, item, data, rng):
        kind, word, J = item
        dot, coeffs, wword = data
        nodes, edges, ranks = parse_dot(dot)
        errs = check_hasse_shape(wword, nodes, edges, ranks, coeffs)
        if kind == "A5":
            errs += check_hasse_type_a(self.sg, wword, J, nodes, edges, self.prog.dot_colors)
            pw = self.sg.poincare(ref.perm_of_word(wword, 5))
            if coeffs != pw:
                errs.append(f"P_w = {coeffs}, brute force gives {pw}")
        else:
            sample = rng.sample(sorted(nodes), min(self.wl.cover_sample, len(nodes)))
            errs += check_covers_by_deletion(self.systems[kind], nodes, edges, sample)
        if len(wword) == len(word) == sum(d - 1 for d in ref.DEGREES[kind]):
            if coeffs != ref.degree_poincare(kind):
                errs.append(f"P_w0 = {coeffs}, degrees give {ref.degree_poincare(kind)}")
        return errs

    def final(self):
        """|W| and P_w0 from the degrees for A5 and D5 (B4's w0 is an item)."""
        cb = self.prog.cb
        errs = []
        for kind in ("A5", "D5"):
            S = cb.coxeter_system(kind)
            w0 = S.normalize(_finite_word(kind, 100, random.Random(0)))
            got = list(cb.poincare_polynomial(w0).coeffs)
            if got != ref.degree_poincare(kind) or sum(got) != ref.group_order(kind):
                errs.append(f"{kind}: P_w0 = {got}, degrees give {ref.degree_poincare(kind)}")
        return errs


# -- workload: cli_session -------------------------------------------------------


class CliSession:
    """In-process ``coxbruhat.cli.main(argv)`` over a fixed command list."""

    name = "cli_session"
    round_s = 0.115
    # Each round draws fresh w, x, J, K for every command; the length of w
    # and the size of J are fixed per command to keep the cost of a round
    # steady across seeds.
    lengths = {("A4", "mj-table"): 7, ("D4", "mj-table"): 8, ("A5", "max-coset"): 9,
               ("A4", "poincare-decomp"): 7, ("H3", "poincare-decomp"): 8,
               ("H3", "bp-scan"): 8, ("A4", "hasse"): 6}
    commands = (
        ("A4", "mj-table"),
        ("D4", "mj-table"),
        ("A5", "max-coset"),
        ("A4", "poincare-decomp"),
        ("H3", "poincare-decomp"),
        ("A4", "poincare-decomp-K"),
        ("A4", "rel-max"),
        ("H3", "bp-scan"),
        ("A4", "hasse"),
        ("A3", "verify"),
    )

    def _argv(self, kind, cmd, rng):
        """argv and the parameters the checker needs."""
        rank = int(kind[1:])
        head = ["--type", kind, "--format", "json"]
        J = random_subset(rng, rank, rank // 2)
        if cmd == "verify":
            seed = rng.randrange(1000)
            params = {"max_len": 3, "samples": 10}
            return head + ["verify", "--max-len", "3", "--samples", "10", "--seed", str(seed)], params
        if cmd in ("poincare-decomp-K", "rel-max"):
            K = J | random_subset(rng, rank, 1)
            sg = ref.symmetric_group(rank)
            w = ref.perm_min_rep(rng.choice(sg.perms), J)
            params = {"w": perm_word(w), "J": J, "K": K}
            argv = ["--w", word_str(params["w"]), "--J", genset_str(J), "--K", genset_str(K)]
            if cmd == "rel-max":
                x = ref.perm_min_rep(rng.choice(sg.below(w)), K)
                params["x"] = perm_word(x)
                return head + ["rel-max"] + argv + ["--x", word_str(params["x"])], params
            return head + ["poincare-decomp"] + argv, params
        w = _finite_word(kind, self.lengths[kind, cmd], rng)
        params = {"w": w, "J": J}
        argv = ["--w", word_str(w)]
        if cmd == "bp-scan":
            return head + ["bp-scan"] + argv, params
        if cmd == "max-coset":
            sg = ref.symmetric_group(rank)
            xs = sorted(sg.coset_maxima(ref.perm_of_word(w, rank), J))
            params["x"] = perm_word(rng.choice(xs))
            return head + ["max-coset", "--trace"] + argv + [
                "--x", word_str(params["x"]), "--J", genset_str(J)], params
        return head + [cmd] + argv + ["--J", genset_str(J)], params

    def inputs(self, rng, rounds):
        out = []
        for _ in range(rounds):
            items = []
            for kind, cmd in self.commands:
                argv, params = self._argv(kind, cmd, rng)
                items.append((kind, cmd, argv, params))
            out.append(items)
        return out

    def setup(self, prog):
        return None

    def op(self, prog, state, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = prog.cli.main(item[2])
        return code, out.getvalue(), err.getvalue()

    def extract(self, state, item, res):
        return res

    def checker(self, prog):
        return _CliChecker(prog)


class _CliChecker:
    def __init__(self, prog):
        self.prog = prog
        self.sg = {4: ref.symmetric_group(4), 5: ref.symmetric_group(5)}
        self.systems = {}

    def system(self, kind):
        if kind not in self.systems:
            self.systems[kind] = self.prog.cb.coxeter_system(kind)
        return self.systems[kind]

    def __call__(self, item, data, rng):
        kind, cmd, argv, params = item
        code, out, err = data
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        return getattr(self, "_" + cmd.replace("-", "_"))(kind, params, doc)

    def _mj_table(self, kind, p, doc):
        pairs = {parse_word(r["x"]): parse_word(r["m"]) for r in doc["rows"]}
        if kind[0] == "A":
            return check_coset_table_type_a(self.sg[4], p["w"], p["J"], pairs)
        return check_coset_table_props(self.system(kind), self.prog.cb, p["w"], p["J"], pairs)

    def _max_coset(self, kind, p, doc):
        sg = self.sg[5]
        x = ref.perm_of_word(p["x"], 5)
        q = ref.perm_of_word(parse_word(doc["q"]), 5)
        m = parse_word(doc["m"])
        errs = []
        if q != sg.coset_maxima(ref.perm_of_word(p["w"], 5), p["J"])[x]:
            errs.append("q differs from the brute-force coset maximum")
        if ref.perm_mul(x, ref.perm_of_word(m, 5)) != q or not set(m) <= p["J"]:
            errs.append("x m != q or m not in W_J")
        trace = doc["trace"]
        if len(trace) != len(p["x"]) or (trace and parse_word(trace[0]["q"]) != parse_word(doc["q"])):
            errs.append("trace length differs from l(x) or its first level is not q")
        return errs

    def _poincare_decomp(self, kind, p, doc):
        terms = [(parse_word(t["x"]), t["factor_coeffs"]) for t in doc["terms"]]
        errs = check_terms_sum(terms, doc["total_coeffs"])
        if kind[0] == "A":
            pw = self.sg[4].poincare(ref.perm_of_word(p["w"], 4))
        else:
            S = self.system(kind)
            pw = list(self.prog.cb.lower_interval(S.normalize(p["w"])).rank_sizes)
        if doc["total_coeffs"] != pw:
            errs.append(f"total {doc['total_coeffs']} differs from P_w = {pw}")
        return errs

    def _poincare_decomp_K(self, kind, p, doc):
        terms = [(parse_word(t["x"]), t["factor_coeffs"]) for t in doc["terms"]]
        errs = check_terms_sum(terms, doc["total_coeffs"])
        pjw = trim(self.sg[4].poincare(ref.perm_of_word(p["w"], 4), p["J"]))
        if doc["total_coeffs"] != pjw:
            errs.append(f"total {doc['total_coeffs']} differs from P^J_w = {pjw}")
        return errs

    def _rel_max(self, kind, p, doc):
        sg = self.sg[4]
        w = ref.perm_of_word(p["w"], 4)
        x = ref.perm_of_word(p["x"], 4)
        q = ref.perm_of_word(parse_word(doc["q"]), 4)
        m = ref.perm_of_word(parse_word(doc["m"]), 4)
        if q != sg.relative_max(w, x, p["J"], p["K"]) or ref.perm_mul(x, m) != q:
            return ["relative maximum differs from brute force"]
        return []

    def _bp_scan(self, kind, p, doc):
        S = self.system(kind)
        cb = self.prog.cb
        w = S.normalize(p["w"])
        rows = doc["rows"]
        errs = []
        if len(rows) != 2 ** S.rank:
            errs.append(f"{len(rows)} rows for rank {S.rank}")
        for r in rows:
            J = parse_genset(r["J"])
            u, umax = parse_word(r["u"]), parse_word(r["u_max"])
            ue, umaxe = S.normalize(u), S.normalize(umax)
            if not (set(u) | set(umax)) <= J or not cb.leq(ue, umaxe) or not cb.leq(umaxe, w):
                errs.append(f"J={r['J']}: u <= u_max <= w in W_J fails")
            if r["is_bp"] != (u == umax) or (len(J) in (0, S.rank) and not r["is_bp"]):
                errs.append(f"J={r['J']}: BP verdict inconsistent")
        return errs

    def _hasse(self, kind, p, doc):
        nodes = {parse_word(n["w"]): n["color"] for n in doc["nodes"]}
        edges = [(parse_word(a), parse_word(b)) for a, b in doc["edges"]]
        return check_hasse_type_a(self.sg[4], p["w"], p["J"], nodes, edges,
                                  self.prog.dot_colors)

    def _verify(self, kind, p, doc):
        # The report must cover what was asked, counted by permutations: every
        # word of length <= max_len, every element of that length and, for each
        # and each J, every x in W^J below it.
        rank, n = int(kind[1:]), p["max_len"]
        sg = ref.symmetric_group(rank)
        words = sum(rank ** k for k in range(n + 1))
        elems = [w for w in sg.perms if sg.length[w] <= n]
        triples = sum(sum(sg.poincare(w, frozenset(J))) for w in elems
                      for size in range(rank + 1)
                      for J in itertools.combinations(range(rank), size))
        want = [f"words: ok ({words} words, {min(p['samples'], words ** 2)} pairs)",
                f"intervals: ok ({len(elems)} elements)",
                f"coset-maxima: ok ({triples} triples)",
                f"interval-product: ok ({p['samples']} pairs)"]
        if doc["ok"] is not True or doc["report"] != want:
            return [f"verify reported ok={doc['ok']} {doc['report']}, expected {want}"]
        return []

    def final(self):
        return []


WORKLOADS = {wl.name: wl for wl in (CosetSweep(), LongWords(), IntervalExport(), CliSession())}
