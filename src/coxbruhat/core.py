"""
Coxeter systems and element arithmetic in canonical reduced-word form.

A :class:`CoxeterSystem` is built from a Coxeter matrix ``m`` with
``m[i][i] == 1`` and off-diagonal entries ``2, 3, ...`` (``0`` encodes an
infinite bond).  Group elements are :class:`Element` values kept in canonical
form: the ShortLex-least reduced word, ordered by length and then
lexicographically by generator index.  Sorting compares canonical words, so
it is deterministic.

The word problem is solved with the standard geometric representation.
Each generator acts on the real span of the simple roots; the pairing of two
distinct simple roots contributes ``-2*cos(pi/m(i,j))`` (``-2`` for an
infinite bond), and ``s`` is a right descent of ``w`` exactly when ``w``
maps the simple root of ``s`` to a negative root.  Negativity is read off
coordinate signs against a fixed tolerance (``SIGN_TOL``).  Every element's
matrices are rebuilt from its canonical word, so each entry is at most
``length_cap`` generator products away from the identity.  For finite and
affine groups the accumulated floating-point error stays far below the
tolerance up to the default cap.  For infinite non-affine groups it does not:
root coordinates grow exponentially, and random reduced walks in the all-5
rank-4 matrix, the ``(3, inf, 3)`` triangle group and the rank-3 universal
group raise ``InternalAssertionFailed`` from lengths of about 15, 19 and 43
(the ROADMAP item "Exact word problem: retire SIGN_TOL" replaces the floats
with exact arithmetic).  Canonical words are produced greedily by peeling off
the smallest left descent.

Systems intern their elements: per system each group element exists as one
immutable Element object, built only by ``CoxeterSystem._intern``.  Equality
and hashing are therefore plain object identity, and the memo tables are
keyed by the elements themselves.  Each element stores its products with every
generator on either side in neighbour slots (``_rmul[s]`` for w*s,
``_lmul[s]`` for s*w), filled on first use; computing w*s also fills the
slot of w*s that leads back to w.  All caches are pure, so concurrent use
can at worst duplicate work, never corrupt it.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Iterable, Sequence

from .errors import InternalAssertionFailed, InvalidMatrix, LengthCapExceeded

#: Sign tolerance for root-coordinate tests.  Exact nonzero root coordinates
#: of finite and affine systems have magnitude well above 1e-3, so this leaves
#: a wide safety margin over float drift at capped lengths.  Infinite
#: non-affine systems exceed it well below the default length cap (see the
#: module docstring).
SIGN_TOL = 1e-8

#: A word is a sequence of generator indices; not necessarily reduced.
Word = tuple[int, ...]

#: A subset of the generating set, as a frozenset of generator indices.
GenSet = frozenset[int]

#: Tokens accepted (and the first one printed) for the identity element.
IDENTITY_TOKENS = ("e", "∅")


@total_ordering
class Element:
    """A group element, held as its ShortLex-least reduced word.

    Instances are created and interned by their :class:`CoxeterSystem`, one
    object per group element; do not construct them directly.  ``==`` and
    ``hash`` are object identity, so elements of two systems are never equal,
    even with the same word.  The ordering operators implement the ShortLex
    *word* order (length, then letters) used for deterministic output -- this
    is not Bruhat order, for which see :func:`coxbruhat.bruhat.leq`.
    """

    __slots__ = ("system", "word", "_mat", "_imat", "_left", "_right", "_inv", "_rmul", "_lmul")

    def __init__(self, system: "CoxeterSystem", word: Word, mat, imat):
        self.system = system
        self.word = word
        self._mat = mat    # rows of the matrix of w: column j = w(alpha_j)
        self._imat = imat  # rows of the matrix of w^-1
        self._left: GenSet | None = None
        self._right: GenSet | None = None
        self._inv: Element | None = None
        self._rmul: list[Element | None] = [None] * system.rank  # _rmul[s] = self * s
        self._lmul: list[Element | None] = [None] * system.rank  # _lmul[s] = s * self

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_identity(self) -> bool:
        return not self.word

    @property
    def support(self) -> GenSet:
        """The set of generator indices occurring in any reduced word."""
        return frozenset(self.word)

    @property
    def right_descents(self) -> GenSet:
        if self._right is None:
            self._right = self.system._sign_descents(self._mat)
        return self._right

    @property
    def left_descents(self) -> GenSet:
        if self._left is None:
            self._left = self.system._sign_descents(self._imat)
        return self._left

    def inverse(self) -> "Element":
        if self._inv is None:
            inv = self.system.normalize(self.word[::-1])
            self._inv = inv
            if inv._inv is None:
                inv._inv = self
        return self._inv

    def star(self, other: "Element") -> "Element":
        """Demazure (0-Hecke) product; see :func:`demazure`."""
        return demazure(self, other)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.system.multiply(self, other)

    def __lt__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (len(self.word), self.word) < (len(other.word), other.word)

    def __str__(self):
        if not self.word:
            return IDENTITY_TOKENS[0]
        names = self.system.names
        return " ".join(names[s] for s in self.word)

    def __repr__(self):
        return f"Element({str(self)!r})"


class CoxeterSystem:
    """A Coxeter system (W, S) over a finite generating set.

    Parameters
    ----------
    matrix:
        Square symmetric Coxeter matrix of ``int`` entries (not ``bool``);
        diagonal 1, off-diagonal >= 2, with 0 standing for an infinite bond.
    names:
        Generator names, default ``s1 .. sn``.  Must be unique, nonempty,
        distinct from the identity tokens, and readable back by the word
        and generator-set parsers: no whitespace or ``,``, and not ``-``.
    length_cap:
        Longest element the system will construct (default 64).
    interval_cap:
        Largest ``length(w)`` accepted by lower-interval enumeration
        (default 24).
    """

    def __init__(
        self,
        matrix: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
        *,
        length_cap: int = 64,
        interval_cap: int = 24,
    ):
        rows = [tuple(row) for row in matrix]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise InvalidMatrix(f"entry m({i},{j}) must be an integer, got {v!r}")
        n = len(rows)
        if n == 0:
            raise InvalidMatrix("Coxeter matrix must have rank at least 1")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise InvalidMatrix(f"row {i} has length {len(row)}, expected {n}")
            if row[i] != 1:
                raise InvalidMatrix(f"diagonal entry m({i},{i}) must be 1")
            for j, v in enumerate(row):
                if i != j and v != 0 and v < 2:
                    raise InvalidMatrix(f"off-diagonal entry m({i},{j}) must be 0 or >= 2")
                if v != rows[j][i]:
                    raise InvalidMatrix(f"matrix not symmetric at ({i},{j})")
        self.matrix: tuple[tuple[int, ...], ...] = tuple(rows)
        self.rank = n

        if names is None:
            names = tuple(f"s{i + 1}" for i in range(n))
        else:
            names = tuple(str(x) for x in names)
        if len(names) != n:
            raise InvalidMatrix(f"{len(names)} generator names for rank {n}")
        if len(set(names)) != n or any(not x for x in names):
            raise InvalidMatrix("generator names must be unique and nonempty")
        if any(x in IDENTITY_TOKENS for x in names):
            raise InvalidMatrix("generator names 'e' and '∅' are reserved for the identity")
        for x in names:
            if x == "-" or "," in x or any(c.isspace() for c in x):
                raise InvalidMatrix(f"generator name {x!r} is '-' or has whitespace or ','")
        self.names = names
        self._index = {x: i for i, x in enumerate(names)}

        if length_cap < 1:
            raise InvalidMatrix("length_cap must be positive")
        if interval_cap < 0:
            raise InvalidMatrix("interval_cap must be nonnegative")
        self.length_cap = length_cap
        self.interval_cap = interval_cap

        # Per generator s: pairs (k, 2*cos(pi/m(s,k))) over bonded neighbours.
        nbrs = []
        for i in range(n):
            row = []
            for j in range(n):
                m = self.matrix[i][j]
                if i == j or m == 2:
                    continue
                row.append((j, 2.0 if m == 0 else 2.0 * math.cos(math.pi / m)))
            nbrs.append(tuple(row))
        self._nbrs = tuple(nbrs)

        # Generator products live on the elements (Element._rmul, _lmul).
        self._elements: dict[Word, Element] = {}
        self._leq_cache: dict[tuple[Element, Element], bool] = {}
        self._interval_cache: dict[Element, object] = {}
        self._cosetmax_cache: dict[tuple[Element, Element, GenSet], object] = {}

        self.identity = self._intern(())
        self._gens = tuple(self._intern((i,)) for i in range(n))

    # -- public construction / parsing ---------------------------------

    def m(self, i: int, j: int) -> int:
        """Coxeter matrix entry; 0 means infinity."""
        return self.matrix[i][j]

    def generator(self, i: int) -> Element:
        return self._gens[i]

    @property
    def generators(self) -> tuple[Element, ...]:
        return self._gens

    def check_genset(self, gens: Iterable[int]) -> GenSet:
        J = frozenset(gens)
        for s in J:
            if not isinstance(s, int) or not 0 <= s < self.rank:
                raise ValueError(f"generator index {s!r} out of range for rank {self.rank}")
        return J

    def gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def parse_word(self, text: str) -> Word:
        """Parse a whitespace-separated word; 'e' or '∅' is the identity."""
        tokens = text.split()
        if len(tokens) == 1 and tokens[0] in IDENTITY_TOKENS:
            return ()
        return tuple(self.gen_index(t) for t in tokens)

    def parse_genset(self, text: str) -> GenSet:
        """Parse a comma- or space-separated generator list; '' or '-' is empty."""
        text = text.strip()
        if text in ("", "-"):
            return frozenset()
        return frozenset(self.gen_index(t) for t in text.replace(",", " ").split())

    def genset_str(self, J: Iterable[int]) -> str:
        J = sorted(J)
        if not J:
            return "-"
        return ",".join(self.names[s] for s in J)

    def element(self, text: str) -> Element:
        return self.normalize(self.parse_word(text))

    def normalize(self, letters: Iterable[int]) -> Element:
        """Fold a word into its group element (canonical form)."""
        out = self.identity
        for s in letters:
            if not 0 <= s < self.rank:
                raise ValueError(f"generator index {s!r} out of range for rank {self.rank}")
            out = self._mul_gen(out, s)
        return out

    def multiply(self, a: Element, b: Element) -> Element:
        self._check_mine(a)
        self._check_mine(b)
        out = a
        for s in b.word:
            out = self._mul_gen(out, s)
        return out

    def elements(self, max_length: int | None = None) -> list[Element]:
        """All elements of length <= max_length, ShortLex sorted.

        ``max_length`` defaults to (and is clamped by) the length cap; for a
        finite group any cap beyond the longest element enumerates the whole
        group.
        """
        limit = self.length_cap if max_length is None else min(max_length, self.length_cap)
        out = [self.identity]
        level = [self.identity]
        for _ in range(limit):
            nxt = set()
            for w in level:
                for s in range(self.rank):
                    if s not in w.right_descents:
                        nxt.add(self._mul_gen(w, s))
            if not nxt:
                break
            level = sorted(nxt)
            out.extend(level)
        return out

    def __repr__(self):
        return f"CoxeterSystem(rank={self.rank}, names={list(self.names)})"

    # -- geometric representation ---------------------------------------

    def _identity_rows(self) -> list[list[float]]:
        n = self.rank
        return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]

    def _apply_left(self, s: int, rows: list[list[float]]) -> None:
        """rows <- S_s . rows (only row s changes)."""
        old = rows[s]
        new = [-v for v in old]
        for k, c in self._nbrs[s]:
            rk = rows[k]
            for j in range(self.rank):
                new[j] += c * rk[j]
        rows[s] = new

    def _apply_right(self, s: int, rows: list[list[float]]) -> None:
        """rows <- rows . S_s (only column s feeds the bonded columns)."""
        nbrs = self._nbrs[s]
        for row in rows:
            ms = row[s]
            for k, c in nbrs:
                row[k] += c * ms
            row[s] = -ms

    def _sign_descents(self, mat) -> GenSet:
        n = self.rank
        out = []
        for s in range(n):
            for i in range(n):
                if mat[i][s] >= SIGN_TOL:
                    break
            else:
                out.append(s)
        return frozenset(out)

    def _canonical(self, irows: list[list[float]], length: int) -> Word:
        """Greedy ShortLex word from the inverse matrix of an element."""
        n = self.rank
        out = []
        for _ in range(length):
            for s in range(n):
                for i in range(n):
                    if irows[i][s] >= SIGN_TOL:
                        break
                else:
                    out.append(s)
                    break
            else:
                raise InternalAssertionFailed("no left descent found while canonicalising")
            self._apply_right(out[-1], irows)
        for i in range(n):
            for j in range(n):
                if abs(irows[i][j] - (1.0 if i == j else 0.0)) > 1e-6:
                    raise InternalAssertionFailed("canonicalisation did not reach the identity")
        return tuple(out)

    # -- element construction and memoised generator products -----------

    def _create(self, word: Word) -> Element:
        mat = self._identity_rows()
        for s in word:
            self._apply_right(s, mat)
        imat = self._identity_rows()
        for s in reversed(word):
            self._apply_right(s, imat)
        return Element(
            self,
            word,
            tuple(tuple(r) for r in mat),
            tuple(tuple(r) for r in imat),
        )

    def _intern(self, word: Word) -> Element:
        el = self._elements.get(word)
        if el is None:
            # setdefault keeps the first object stored, so a racing caller
            # cannot leave two objects for one element.
            el = self._elements.setdefault(word, self._create(word))
        return el

    def _mul_gen(self, elem: Element, s: int) -> Element:
        """elem * s for a single generator s."""
        hit = elem._rmul[s]
        if hit is not None:
            return hit
        if s in elem.right_descents:
            newlen = elem.length - 1
        else:
            newlen = elem.length + 1
            if newlen > self.length_cap:
                raise LengthCapExceeded(
                    f"element of length {newlen} exceeds length_cap={self.length_cap}"
                )
        irows = [list(r) for r in elem._imat]
        self._apply_left(s, irows)  # (elem s)^-1 = s elem^-1
        out = self._intern(self._canonical(irows, newlen))
        elem._rmul[s] = out
        out._rmul[s] = elem
        return out

    def _lmul_gen(self, s: int, elem: Element) -> Element:
        """s * elem for a single generator s."""
        hit = elem._lmul[s]
        if hit is not None:
            return hit
        if s in elem.left_descents:
            newlen = elem.length - 1
        else:
            newlen = elem.length + 1
            if newlen > self.length_cap:
                raise LengthCapExceeded(
                    f"element of length {newlen} exceeds length_cap={self.length_cap}"
                )
        irows = [list(r) for r in elem._imat]
        self._apply_right(s, irows)  # (s elem)^-1 = elem^-1 s
        out = self._intern(self._canonical(irows, newlen))
        elem._lmul[s] = out
        out._lmul[s] = elem
        return out

    def _check_mine(self, elem: Element) -> None:
        if elem.system is not self:
            raise ValueError("element belongs to a different CoxeterSystem")


def demazure(a: Element, b: Element) -> Element:
    """Demazure (0-Hecke) product a * b.

    Folds the letters of b into a left to right: a letter that is already a
    right descent is absorbed, any other letter extends the word.  The
    result dominates both arguments in Bruhat order.
    """
    sys = a.system
    sys._check_mine(b)
    q = a
    for s in b.word:
        if s not in q.right_descents:
            q = sys._mul_gen(q, s)
    return q


def demazure_word(system: CoxeterSystem, letters: Iterable[int]) -> Element:
    """Demazure fold of an arbitrary (not necessarily reduced) word."""
    q = system.identity
    for s in letters:
        if not 0 <= s < system.rank:
            raise ValueError(f"generator index {s!r} out of range for rank {system.rank}")
        if s not in q.right_descents:
            q = system._mul_gen(q, s)
    return q


def is_type_a(system: CoxeterSystem) -> bool:
    """True when the matrix is the chain m(i, i+1) = 3 (symmetric group)."""
    n = system.rank
    for i in range(n):
        for j in range(i + 1, n):
            expected = 3 if j == i + 1 else 2
            if system.matrix[i][j] != expected:
                return False
    return True


def element_from_permutation(system: CoxeterSystem, oneline: Sequence[int]) -> Element:
    """Element of a type-A system from one-line permutation notation.

    ``oneline`` lists w(1), ..., w(n) for a system of rank n-1; generator
    s_i maps to the adjacent transposition (i, i+1), composed as functions.
    """
    n = len(oneline)
    if n != system.rank + 1:
        raise ValueError(f"permutation of {n} letters needs a type-A system of rank {n - 1}")
    if not is_type_a(system):
        raise ValueError("permutation input requires a type-A system")
    p = [int(v) for v in oneline]
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{list(oneline)!r} is not a permutation of 1..{n}")
    letters: list[int] = []
    done = False
    while not done:
        done = True
        for i in range(n - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                letters.append(i)
                done = False
                break
    return system.normalize(tuple(reversed(letters)))
