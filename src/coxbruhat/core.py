"""
Coxeter systems and element arithmetic in canonical reduced-word form.

A :class:`CoxeterSystem` is built from a Coxeter matrix ``m`` with
``m[i][i] == 1`` and off-diagonal entries ``2, 3, ...`` (``0`` encodes an
infinite bond).  Group elements are :class:`Element` values kept in canonical
form: the ShortLex-least reduced word, ordered by length and then
lexicographically by generator index.  Sorting compares canonical words, so
it is deterministic.

The word problem is solved with the standard geometric representation.  Each
generator acts on the real span of the simple roots; the pairing of two
distinct simple roots contributes ``-2*cos(pi/m(i,j))`` (``-2`` for an
infinite bond), and ``s`` is a right descent of ``w`` exactly when ``w`` maps
the simple root of ``s`` to a negative root.  The coordinates of a root share
one sign, so a root is negative exactly when their sum is, and that sum is at
least 1 in size: going down in depth only lowers the coordinates, ending at a
simple root, whose sum is 1 (Björner-Brenti, *Combinatorics of Coxeter Groups*,
4.6).  Descents are read off the signs of these sums, with no tolerance.  An
element holds no matrix: only its word and two
rows of root sums, the column sums of the matrices of w^-1 and w, which give its
left and right descents.  The identity's sums are all ones.  A generator step
(``w*s`` or ``s*w`` from ``w``) moves the sums on its own side as one row of the
matrix they sum, and reflects the other side's by one root computed along
``w``'s canonical word (``CoxeterSystem._root``); a right product whose
neighbour is known reads it only when new (see below).  A walk (``normalize``,
``multiply``) follows filled neighbour slots; from the first empty one a single
backward pass moves the left sums along the whole word and counts the length,
and only the result is interned.  Its right sums are moved along its canonical
word on first read (``CoxeterSystem._right_sums``).  Bonds 3 and inf give the
exact coefficients 1.0 and 2.0, so in A_n, D_n and A~n every root coordinate and
root sum is an integer-valued float, exact below 2**53, and nothing drifts.
Against a rebuild along the canonical word, the sums of H3, B4, F4 and H4 drift
at most about 1e-12 over the whole group with 300 products and left products.
Infinite non-affine groups fail by cancellation, not by a tolerance: root
coordinates grow exponentially; random reduced walks in the all-5 rank-4 matrix,
``(3, inf, 3)`` and the rank-3 universal group raise ``InternalAssertionFailed``
from lengths of about 14, 68 and 42, the last two once their integers near 2**53
(ROADMAP items 10 and 7 are the planned fix).  Canonical words are produced
greedily by peeling off the smallest left descent, which needs only the left
root sums (``_canonical``).  A step dropping an end letter of a canonical word
peels nothing (factors of ShortLex-least words are ShortLex-least).  A right
product w*s whose neighbour y = tail(w)*s is interned (tail(w) is w without its
first letter a) reads its word off w, tail(w) or y
(``CoxeterSystem._neighbour_word``): the left sums of w*s = a*y are y's moved by
one row, and they are checked against the product's own sums if it is interned,
else against those reflected by its root, so only a new product reads a root.
Sums moved off a neighbour are never stored.  Any other product, left or right,
peels its whole word off its new left sums.

Systems intern their elements: per system each group element exists as one
immutable Element object, built only by ``CoxeterSystem._intern``.  Equality
and hashing are therefore plain object identity, and the memo tables are
keyed by the elements themselves.  Each element stores its products with every
generator on either side in one list of neighbour slots, ``_mul[s]`` for w*s and
``_mul[rank + s]`` for s*w, filled on first use by ``CoxeterSystem._step``, the
one generator step for both sides; computing a product also fills the product's
slot of the same index, which leads back to w.  Lower intervals, covers, Hasse
diagrams and ``elements`` grow by one lifting step, ``CoxeterSystem._ascents``:
each u*s > u over a row of elements u.  All caches are pure, so
concurrent use can at worst duplicate work, never corrupt it.
"""

from __future__ import annotations

import math
from functools import partial, total_ordering
from operator import attrgetter, sub
from typing import Iterable, Sequence

from .errors import InternalAssertionFailed, InvalidMatrix, LengthCapExceeded

#: A word is a sequence of generator indices; not necessarily reduced.
Word = tuple[int, ...]

#: A subset of the generating set, as a frozenset of generator indices.
GenSet = frozenset[int]

#: Tokens accepted (and the first one printed) for the identity element.
IDENTITY_TOKENS = ("e", "∅")


def _check_letters(letters: Iterable, rank: int) -> None:
    """Raise ValueError unless every letter is a generator index: an ``int``
    (not a ``bool``) in ``range(rank)``.  A plain ``int`` passes the first test."""
    for s in letters:
        if not (s.__class__ is int and 0 <= s < rank
                or isinstance(s, int) and not isinstance(s, bool) and 0 <= s < rank):
            raise ValueError(f"generator index {s!r} out of range for rank {rank}")


class Record:
    """Base of the immutable result records: equal by value within one class, hashable
    when their fields are, and pickled as a call of their constructor.  ``__slots__``
    names the fields in ``__init__`` order; slots named ``_*`` (and ``"__dict__"``, for
    cached properties) stay out of ``==``, ``hash`` and ``repr``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._args = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._fields = tuple(n for n in cls._args if n[0] != "_")
        cls._key = attrgetter(*cls._fields)  # the one field's value, or a tuple of them
        cls._put = tuple(getattr(cls, n).__set__ for n in cls._args)  # past __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(map(self.__getattribute__, self._args))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _fill(record: Record, values: tuple) -> None:
    """Store a new record's field values, given in the order of its slots."""
    for put, value in zip(record._put, values):
        put(record, value)


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

    __slots__ = ("system", "word", "length", "_lsum", "_rsum", "_left", "_right", "_mul")

    def __init__(self, system: "CoxeterSystem", word: Word, lsum, rsum):
        self.system = system
        self.word = word
        self.length = len(word)
        # <w^-1 alpha_t, rho> and <w alpha_t, rho> per t: the column sums of the
        # matrices of w^-1 and of w, neither of which is built; a walk result's
        # rsum is None until CoxeterSystem._right_sums reads it along the word
        self._lsum, self._rsum = lsum, rsum
        self._left = self._right = None  # descent sets, interned on first read
        # neighbour slots: _mul[s] = self * s and _mul[rank + s] = s * self
        self._mul: list[Element | None] = [None] * (2 * system.rank)

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
            rsum = self._rsum or self.system._right_sums(self)
            d = frozenset(s for s, v in enumerate(rsum) if v < 0.0)
            self._right = self.system._gensets.setdefault(d, d)
        return self._right

    @property
    def left_descents(self) -> GenSet:
        if self._left is None:
            d = frozenset(s for s, v in enumerate(self._lsum) if v < 0.0)
            self._left = self.system._gensets.setdefault(d, d)
        return self._left

    def inverse(self) -> "Element":
        return self.system.normalize(self.word[::-1])

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
        return " ".join(map(names.__getitem__, self.word))

    def __repr__(self):
        return f"Element({str(self)!r})"

    def __reduce__(self):  # its word, interned again in the unpickled system
        return self.system.normalize, (self.word,)


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
        (default 24).  Both caps are ``int`` values (not ``bool``).
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

        for cap, value in (("length_cap", length_cap), ("interval_cap", interval_cap)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidMatrix(f"{cap} must be an integer, got {value!r}")
        if length_cap < 1:
            raise InvalidMatrix("length_cap must be positive")
        if interval_cap < 0:
            raise InvalidMatrix("interval_cap must be nonnegative")
        self.length_cap = length_cap
        self.interval_cap = interval_cap

        # Per generator s: pairs (k, 2*cos(pi/m(s,k))) over bonded neighbours, exact at m = 3.
        nbrs = []
        for i in range(n):
            row = []
            for j in range(n):
                m = self.matrix[i][j]
                if i == j or m == 2:
                    continue
                row.append((j, 2.0 if m == 0 else 1.0 if m == 3 else 2.0 * math.cos(math.pi / m)))
            nbrs.append(tuple(row))
        self._nbrs = tuple(nbrs)

        # Generator products live on the elements (Element._mul).
        self._elements: dict[Word, Element] = {}
        self._leq_cache: dict[tuple[Element, Element], bool] = {}
        self._interval_cache: dict[Element, object] = {}
        # (w, J) -> aligned tuples (xs, maxima, checked shifts), coset_max._shift_table
        self._shift_tables: dict[tuple[Element, GenSet], tuple] = {}
        # (w, J, left) -> (v, u), parabolic._split
        self._split_cache: dict[tuple[Element, GenSet, bool], tuple[Element, Element]] = {}
        # (x, shifted maximum) -> Term, poincare.decompose_poincare
        self._term_cache: dict[tuple[Element, Element], object] = {}
        self._all_gens: GenSet = frozenset(range(n))
        self._gensets: dict[GenSet, GenSet] = {}  # one object per descent set

        self.identity = self._intern((), (1.0,) * n, (1.0,) * n)
        self._gens = tuple(self._step(self.identity, i) for i in range(n))

    # -- public construction / parsing ---------------------------------

    def m(self, i: int, j: int) -> int:
        """Coxeter matrix entry; 0 means infinity."""
        return self.matrix[i][j]

    def generator(self, i: int) -> Element:
        _check_letters((i,), self.rank)
        return self._gens[i]

    def check_genset(self, gens: Iterable[int]) -> GenSet:
        J = frozenset(gens)
        _check_letters(J, self.rank)
        return J

    def clear_caches(self) -> None:
        """Drop the result memos.  Each grows until this call or until the
        system is freed:

        - ``_leq_cache``: ``(u, w) -> bool`` for each ``leq`` pair past its
          fast exits.
        - ``_interval_cache``: ``w -> Interval`` for each ``lower_interval``.
        - ``_shift_tables``: ``(w, J) -> (xs, maxima, checked shifts)`` as aligned
          tuples, for each coset table and each suffix table built on the way.
        - ``_split_cache``: ``(w, J, left) -> (v, u)`` for each parabolic split.
        - ``_term_cache``: ``(x, m) -> Term`` for ``decompose_poincare``.

        Elements stay interned, with their products and root sums.  The
        oracle's memos, which it keeps on the system, are not cleared; they
        live until the system is freed."""
        for memo in (self._leq_cache, self._interval_cache,
                     self._shift_tables, self._split_cache, self._term_cache):
            memo.clear()

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
        letters = tuple(letters)
        _check_letters(letters, self.rank)
        return self._walk(self.identity, letters)

    def multiply(self, a: Element, b: Element) -> Element:
        self._check_mine(a)
        self._check_mine(b)
        return self._walk(a, b.word)

    def elements(self, max_length: int | None = None) -> list[Element]:
        """All elements of length <= max_length, ShortLex sorted.

        ``max_length`` defaults to (and is clamped by) the length cap; for a
        finite group any cap beyond the longest element enumerates the whole
        group.  A ``bool``, non-``int`` or negative ``max_length`` raises ValueError.
        """
        if max_length is not None and (isinstance(max_length, bool)
                                       or not isinstance(max_length, int) or max_length < 0):
            raise ValueError(f"elements needs an int max_length >= 0, got {max_length!r}")
        limit = self.length_cap if max_length is None else min(max_length, self.length_cap)
        out = [self.identity]
        level = [self.identity]
        for _ in range(limit):
            nxt = {x for s in range(self.rank) for x in self._ascents(level, s)}
            if not nxt:
                break
            level = sorted(nxt, key=attrgetter("word"))  # one length: ShortLex
            out.extend(level)
        return out

    def __repr__(self):
        return f"CoxeterSystem(rank={self.rank}, names={list(self.names)})"

    def __reduce__(self):  # its definition only: no element or memo is pickled
        caps = partial(CoxeterSystem, length_cap=self.length_cap, interval_cap=self.interval_cap)
        return caps, (self.matrix, self.names)

    # -- geometric representation ---------------------------------------

    def _apply_right(self, s: int, row: list[float]) -> list[float]:
        """row <- row . S_s (only entry s feeds its bonded entries); returns row."""
        ms = row[s]
        for k, c in self._nbrs[s]:
            row[k] += c * ms
        row[s] = -ms
        return row

    def _root(self, s: int, letters: Iterable[int]) -> list[float]:
        """The root a_k ... a_1(alpha_s) for letters a_1, ..., a_k, reflected in turn:
        w^-1(alpha_s) along w's word, w(alpha_s) along it reversed."""
        v = [0.0] * self.rank
        v[s] = 1.0
        nbrs = self._nbrs
        for a in letters:  # s_a changes coordinate a only
            x = -v[a]
            for k, c in nbrs[a]:
                x += c * v[k]
            v[a] = x
        return v

    def _reflect(self, sums, root) -> tuple:
        """sums[t] - 2B(alpha_t, root) for every t, read over the root's nonzero entries."""
        out, nbrs = list(sums), self._nbrs
        for k, g in enumerate(root):
            if g:
                out[k] -= 2.0 * g
                for t, c in nbrs[k]:
                    out[t] += c * g
        return tuple(out)

    def _canonical(self, lsum, length: int) -> Word:
        """Greedy ShortLex word of an element g from its left root sums.

        These are the column sums v[t] = <g^-1 alpha_t, rho> of g's inverse
        matrix, rho being 1 on every simple root: t is a left descent of g
        exactly when v[t] is negative, and peeling t (g^-1 <- g^-1 S_t)
        changes v at t and its bonded neighbours only.  v is all ones exactly
        when g = e, since W acts simply transitively on chambers.
        """
        nbrs = self._nbrs
        v = list(lsum)
        out = []
        for _ in range(length):
            for t, x in enumerate(v):
                if x < 0.0:
                    break
            else:
                raise InternalAssertionFailed("no left descent found while canonicalising")
            out.append(t)
            for k, c in nbrs[t]:
                v[k] += c * x
            v[t] = -x
        if any(abs(x - 1.0) > 1e-6 for x in v):
            raise InternalAssertionFailed("canonicalisation did not reach the identity")
        return tuple(out)

    # -- element construction and memoised generator products -----------

    def _intern(self, word: Word, lsum, rsum) -> Element:
        """The element of a canonical word; a new one takes the given root sums."""
        el = self._elements.get(word)
        if el is None:
            # setdefault keeps the first object stored, so a racing caller
            # cannot leave two objects for one element.
            el = self._elements.setdefault(word, Element(self, word, lsum, rsum))
        return el

    def _step(self, w: Element, s: int, left: bool = False) -> Element:
        """w * s, or s * w when left, for a single generator s, memoised in w's neighbour
        slot ``_mul[i]``, i = s (rank + s when left); the product's slot i gets w back.

        The two sides are mirror images.  The sums on the step's own side move as one
        row of the matrix they sum: rsum(w s) = rsum(w).S_s and lsum(s w) = lsum(w).S_s.
        The other side's are reflected by one root, since the representation's form B
        is W-invariant: lsum(w s)[t] = lsum(w)[t] - 2B(alpha_t, w alpha_s), and
        rsum(s w)[t] = rsum(w)[t] - 2B(alpha_t, w^-1 alpha_s), with the root read along
        w's canonical word (``_root``).  When s ends w's word on that side, the rest of
        the word is the product's: a factor of a ShortLex-least word is ShortLex-least.
        When y = tail(w)*s is interned (in tail(w)'s slot, or w itself when s is a
        right descent of w but not of tail(w)), w*s = a*y for a = w.word[0], so
        lsum(w s) = lsum(y).S_a.  Those sums give the word (``_neighbour_word``) and are
        checked against the product's own sums when it is interned, which then reads no
        root, or else against the reflected sums, which the new product keeps.  Every
        other product, left products and right products with y unknown alike, peels its
        whole word off its new left sums (``_canonical``).
        """
        i = self.rank + s if left else s
        out = w._mul[i]
        if out is not None:
            return out
        word, moved = w.word, None
        if word and word[0 if left else -1] == s:
            word = word[1:] if left else word[:-1]
        else:
            sums = w._lsum if left else w._rsum or self._right_sums(w)
            newlen = w.length - 1 if sums[s] < 0.0 else w.length + 1
            if newlen > self.length_cap:
                raise self._too_long(newlen)
            y = None
            if not left:
                tail = word and self._elements.get(word[1:])
                y = tail._mul[s] if tail else None
                if (y is None and tail and newlen < w.length
                        and (tail._rsum or self._right_sums(tail))[s] >= 0.0):
                    y = w  # exchange condition: w*s drops w's first letter, so tail(w)*s = w
            if y is None:
                word = None  # peeled below off the moved or reflected sums
            else:  # lsum(w*s) = lsum(a*y) = lsum(y).S_a
                moved = self._apply_right(word[0], list(y._lsum))
                word = self._neighbour_word(w, moved, y)
        out = None if word is None else self._elements.get(word)
        if out is None:
            lsum = (tuple(self._apply_right(s, list(w._lsum))) if left
                    else self._reflect(w._lsum, self._root(s, reversed(w.word))))
            if word is None:
                word = self._canonical(lsum, newlen)
                out = self._elements.get(word)
        if moved is not None and (len(word) != newlen or max(
                map(abs, map(sub, moved, lsum if out is None else out._lsum))) > 1e-6):
            raise InternalAssertionFailed("one-peel word does not match its neighbour's sums")
        if out is None:
            rsum = w._rsum or self._right_sums(w)
            rsum = (self._reflect(rsum, self._root(s, w.word)) if left
                    else tuple(self._apply_right(s, list(rsum))))
            out = self._intern(word, lsum, rsum)
        w._mul[i], out._mul[i] = out, w
        return out

    def _ascents(self, row, s: int) -> list[Element]:
        """u*s for each u of row that s lengthens (u's right root sum at s is not
        negative), in row order: the lifting step, [e, w*s] = [e, w] union [e, w]*s
        for a right ascent s of w (Björner-Brenti, Prop. 2.2.7)."""
        return [u._mul[s] or self._step(u, s) for u in row
                if (u._rsum or self._right_sums(u))[s] >= 0.0]

    def _neighbour_word(self, w: Element, lsum, y: Element) -> Word:
        """The word of x = w*s, s not ending w's nonempty word, from x's left root
        sums lsum and the interned y = tail(w)*s; the identity's word () when lsum
        shows no left descent.

        With t = min D_L(x) and a = w.word[0]: x = a*y, and D_L(w) is a subset of
        D_L(x) for an ascent s, a superset for a descent (Björner-Brenti ch. 1 and
        Prop. 2.2.7).  So x = t*w when t < a, x = a*y when t = a, and x = tail(w)
        when t > a.
        """
        for t, v in enumerate(lsum):
            if v < 0.0:
                break
        else:
            return ()
        word = w.word
        if t < word[0]:
            return (t,) + word
        return word[1:] if t > word[0] else (t,) + y.word

    def _walk(self, w: Element, letters: Word) -> Element:
        """w times checked letters: filled right slots ``_mul[s]`` up to the last known element p.
        From the first empty slot, one backward pass moves the left root sums from all ones
        along p.word + rest, that letter included, and counts the length: a letter s
        shortens the suffix product g exactly when lsum(g)[s] is negative.  The result
        alone is canonicalised and interned, with no right sums (``_right_sums`` reads them
        on demand).  A prefix can pass the cap only when p.length + len(rest) does; then
        p's right sums first follow the rest (descents, length and cap per letter) and the
        result keeps them.  A miss at the last letter is a ``_step``, which fills that slot."""
        for i, s in enumerate(letters):
            hit = w._mul[s]
            if hit is None:
                break
            w = hit
        else:
            return w
        if i + 1 == len(letters):
            return self._step(w, s)
        rest, rsum, nbrs = letters[i:], None, self._nbrs
        if w.length + len(rest) > self.length_cap:
            rsum = self._follow_right(w._rsum or self._right_sums(w), w.length, rest)[0]
        word, lsum, down = w.word + rest, [1.0] * self.rank, 0
        for s in reversed(word):  # lsum(s*g) = lsum(g).S_s, a row again
            x = lsum[s]
            if x < 0.0:  # s is a left descent of g: s*g is shorter
                down += 1
            for k, c in nbrs[s]:
                lsum[k] += c * x
            lsum[s] = -x
        word = self._canonical(lsum, len(word) - 2 * down)
        return self._intern(word, tuple(lsum), rsum)

    def _right_sums(self, w: Element) -> tuple:
        """w's right root sums, moved from all ones along its canonical word and stored;
        every letter must be an ascent of the prefix before it."""
        sums, length = self._follow_right((1.0,) * self.rank, 0, w.word)
        if length != w.length:
            raise InternalAssertionFailed("a letter of a canonical word is a right descent")
        w._rsum = sums
        return sums

    def _follow_right(self, sums, length: int, letters: Word) -> tuple[tuple, int]:
        """Right root sums and length of g*letters from those of g, raising
        LengthCapExceeded at the first prefix past the cap."""
        sums, nbrs = list(sums), self._nbrs
        for s in letters:  # each letter moves the sums like a row of g's matrix
            x = sums[s]
            if x < 0.0:  # root sum of s, as in right_descents
                length -= 1
            else:
                length += 1
                if length > self.length_cap:
                    raise self._too_long(length)
            for k, c in nbrs[s]:
                sums[k] += c * x
            sums[s] = -x
        return tuple(sums), length

    def _too_long(self, length: int) -> LengthCapExceeded:
        return LengthCapExceeded(f"element of length {length} exceeds length_cap={self.length_cap}")

    def _check_mine(self, elem: Element) -> None:
        if elem.system is not self:
            raise ValueError("element belongs to a different CoxeterSystem")


def demazure(a: Element, b: Element) -> Element:
    """Demazure (0-Hecke) product a * b.

    Folds the letters of b into a left to right: a letter that is already a
    right descent is absorbed, any other letter extends the word.  The
    result dominates both arguments in Bruhat order.
    """
    a.system._check_mine(b)
    return _fold_letters(a, b.word)


def demazure_word(system: CoxeterSystem, letters: Iterable[int]) -> Element:
    """Demazure fold of an arbitrary (not necessarily reduced) word."""
    letters = tuple(letters)
    _check_letters(letters, system.rank)
    return _fold_letters(system.identity, letters)


def _fold_letters(q: Element, letters: Iterable[int]) -> Element:
    """The fold of :func:`demazure`, for checked letters."""
    sys = q.system
    for s in letters:
        if s not in q.right_descents:
            q = sys._step(q, s)
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
    for v in oneline:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"permutation entry {v!r} is not an integer")
    p = list(oneline)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"{list(oneline)!r} is not a permutation of 1..{n}")
    letters: list[int] = []  # insertion sort: each adjacent swap removes one inversion
    for i in range(1, n):
        j = i
        while j and p[j - 1] > p[j]:
            p[j - 1], p[j] = p[j], p[j - 1]
            j -= 1
            letters.append(j)
    return system.normalize(tuple(reversed(letters)))
