"""Independent reference computations for the benchmark's answer checks.

Nothing here calls coxbruhat.  Words are tuples of generator indices in the
preset numbering of ``coxbruhat.presets``.

* Type A_n: permutations of 1..n+1 in one-line notation.  Generator i swaps
  positions i and i+1 (0-based), length is the inversion count and Bruhat
  order is the tableau criterion (Bjorner-Brenti, Thm 2.1.5).
* Affine A~n: affine permutations of Z with period N = n+1, stored as the
  window w(1..N).  Generator i swaps positions i and i+1 (generator 0 swaps
  0 and 1).  Length is Shi's inversion formula (Bjorner-Brenti, Prop 8.3.1).
* Any finite group: the geometric representation in floating point, used to
  draw reduced words and to compare two words as group elements.
* Degrees of the finite groups: |W| and P_{w0} as products.
"""

from __future__ import annotations

import functools
import itertools
import math

# -- type A: permutations ------------------------------------------------


def perm_of_word(word, rank):
    p = list(range(1, rank + 2))
    for i in word:
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def inversions(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def perm_leq(u, w):
    """Tableau criterion: u <= w iff every sorted prefix of u is below w's."""
    for i in range(1, len(u)):
        a = sorted(u[:i])
        b = sorted(w[:i])
        if any(x > y for x, y in zip(a, b)):
            return False
    return True


def perm_descents(p):
    return frozenset(i for i in range(len(p) - 1) if p[i] > p[i + 1])


def coset_key(p, J):
    """Identifies the coset p W_J: the set of values in each block of positions."""
    key = []
    block = [p[0]]
    for i in range(len(p) - 1):
        if i in J:
            block.append(p[i + 1])
        else:
            key.append(frozenset(block))
            block = [p[i + 1]]
    key.append(frozenset(block))
    return tuple(key)


def perm_min_rep(p, J):
    """Minimal representative of p W_J: sort the values in each J-block."""
    out = list(p)
    start = 0
    for i in range(len(p)):
        if i == len(p) - 1 or i not in J:
            out[start:i + 1] = sorted(out[start:i + 1])
            start = i + 1
    return tuple(out)


def perm_mul(a, b):
    """(a b)(k) = a(b(k)), matching the concatenation of words."""
    return tuple(a[v - 1] for v in b)


def perm_lower_covers(p):
    """Elements covered by p: p times a transposition, one inversion fewer."""
    n = len(p)
    ell = inversions(p)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            if p[i] > p[j]:
                q = list(p)
                q[i], q[j] = q[j], q[i]
                q = tuple(q)
                if inversions(q) == ell - 1:
                    out.add(q)
    return out


class SymmetricGroup:
    """All of S_{rank+1} with a precomputed Bruhat-order table."""

    def __init__(self, rank):
        self.rank = rank
        self.perms = list(itertools.permutations(range(1, rank + 2)))
        self.length = {p: inversions(p) for p in self.perms}
        self._below: dict[tuple, list] = {}

    def below(self, w):
        """[e, w] as a list of permutations."""
        hit = self._below.get(w)
        if hit is None:
            hit = [u for u in self.perms if perm_leq(u, w)]
            self._below[w] = hit
        return hit

    def poincare(self, w, J=None):
        """Rank sizes of [e, w], or of its J-minimal part."""
        counts = [0] * (self.length[w] + 1)
        for u in self.below(w):
            if J is None or not (perm_descents(u) & J):
                counts[self.length[u]] += 1
        return counts

    def coset_maxima(self, w, J):
        """min rep x -> unique maximum of [e, w] meet x W_J, by brute force.

        Raises ValueError when a coset has no unique maximum, which would
        contradict the theorem.
        """
        groups: dict[tuple, list] = {}
        for u in self.below(w):
            groups.setdefault(coset_key(u, J), []).append(u)
        out = {}
        for members in groups.values():
            x = min(members, key=self.length.__getitem__)
            top = max(members, key=self.length.__getitem__)
            if not all(perm_leq(u, top) for u in members):
                raise ValueError("coset intersection without a unique maximum")
            out[x] = top
        return out

    def relative_max(self, w, x, J, K):
        """Maximum of [e, w]^J meet x (W^J meet W_K), by brute force."""
        key = coset_key(x, K)
        members = [u for u in self.below(w)
                   if not (perm_descents(u) & J) and coset_key(u, K) == key]
        top = max(members, key=self.length.__getitem__)
        if not all(perm_leq(u, top) for u in members):
            raise ValueError("relative coset intersection without a unique maximum")
        return top


@functools.cache
def symmetric_group(rank):
    return SymmetricGroup(rank)


# -- affine A~n: affine permutations --------------------------------------


def affine_of_word(word, n):
    """Window [w(1), ..., w(N)] of the affine permutation, N = n + 1."""
    w = tuple(range(1, n + 2))
    for s in word:
        w = affine_mul_gen(w, s)
    return w


def affine_descents(w):
    N = len(w)
    out = {i for i in range(1, N) if w[i - 1] > w[i]}
    if w[N - 1] - N > w[0]:
        out.add(0)
    return frozenset(out)


def shi_length(w):
    """l(w) = sum over i < j of |floor((w(j) - w(i)) / N)|."""
    N = len(w)
    return sum(abs((w[j] - w[i]) // N) for i in range(N) for j in range(i + 1, N))


# -- finite groups: geometric representation ------------------------------


class GeometricRep:
    """The reflection representation of a finite Coxeter group in floats.

    The columns of an element's matrix are the images of the simple roots;
    s is a right descent of w exactly when w sends alpha_s to a negative
    root.  Roots of a finite group stay bounded, so a fixed tolerance is
    exact at every length.
    """

    TOL = 1e-7

    def __init__(self, matrix):
        self.rank = n = len(matrix)
        self.nbrs = []
        for i in range(n):
            row = []
            for j in range(n):
                m = matrix[i][j]
                if i != j and m != 2:
                    row.append((j, 2.0 if m == 0 else 2.0 * math.cos(math.pi / m)))
            self.nbrs.append(row)

    def identity(self):
        n = self.rank
        return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    def mul_gen(self, mat, s):
        """mat <- mat . S_s in place."""
        for row in mat:
            ms = row[s]
            for k, c in self.nbrs[s]:
                row[k] += c * ms
            row[s] = -ms

    def is_descent(self, mat, s):
        return all(row[s] < self.TOL for row in mat)

    def matrix_of(self, word):
        mat = self.identity()
        for s in word:
            self.mul_gen(mat, s)
        return mat

    def is_reduced(self, word):
        mat = self.identity()
        for s in word:
            if self.is_descent(mat, s):
                return False
            self.mul_gen(mat, s)
        return True

    def same_element(self, word1, word2):
        a = self.matrix_of(word1)
        b = self.matrix_of(word2)
        return all(abs(x - y) < 1e-6 for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    def random_reduced_word(self, length, rng):
        """A random reduced word: extend by a random non-descent each step.

        Stops early at the longest element.
        """
        mat = self.identity()
        word = []
        for _ in range(length):
            choices = [s for s in range(self.rank) if not self.is_descent(mat, s)]
            if not choices:
                break
            s = rng.choice(choices)
            self.mul_gen(mat, s)
            word.append(s)
        return tuple(word)


def affine_mul_gen(w, s):
    """Window of w s."""
    N = len(w)
    w = list(w)
    if s == 0:
        w[0], w[N - 1] = w[N - 1] - N, w[0] + N
    else:
        w[s - 1], w[s] = w[s], w[s - 1]
    return tuple(w)


def random_affine_word(n, length, rng):
    """A random reduced word in A~n, extended by non-descents of the window."""
    w = tuple(range(1, n + 2))
    word = []
    for _ in range(length):
        s = rng.choice([t for t in range(n + 1) if t not in affine_descents(w)])
        w = affine_mul_gen(w, s)
        word.append(s)
    return tuple(word)


def coxeter_matrix(kind):
    """Coxeter matrix of a finite type, numbered as coxbruhat's presets."""
    letter, n = kind[0], int(kind[1:])
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]

    def bond(i, j, order):
        m[i][j] = m[j][i] = order

    if letter in "ABD":
        for i in range(n - 2):
            bond(i, i + 1, 3)
        if letter == "A":
            bond(n - 2, n - 1, 3)
        elif letter == "B":
            bond(n - 2, n - 1, 4)
        else:
            bond(n - 3, n - 1, 3)
    elif letter == "F":
        bond(0, 1, 3)
        bond(1, 2, 4)
        bond(2, 3, 3)
    elif letter == "H":
        bond(0, 1, 5)
        for i in range(1, n - 1):
            bond(i, i + 1, 3)
    else:
        raise ValueError(f"no reference matrix for {kind!r}")
    return m


# -- degrees ---------------------------------------------------------------

DEGREES = {
    "A4": (2, 3, 4, 5),
    "A5": (2, 3, 4, 5, 6),
    "B4": (2, 4, 6, 8),
    "D4": (2, 4, 4, 6),
    "D5": (2, 4, 5, 6, 8),
    "F4": (2, 6, 8, 12),
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
}


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def degree_poincare(kind):
    """P_{w0}(t) = prod over degrees d of (1 + t + ... + t^(d-1))."""
    out = [1]
    for d in DEGREES[kind]:
        out = poly_mul(out, [1] * d)
    return out


def group_order(kind):
    return math.prod(DEGREES[kind])
