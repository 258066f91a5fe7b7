"""Dense univariate polynomials over the integers.

Coefficients are exact Python ints indexed by exponent; the zero polynomial
is the empty coefficient tuple.  Rendering is ascending, e.g.
``1+2t+2t^2+t^3``.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Iterator

from .core import Record


class IntPolynomial(Record):
    """An integer polynomial in one variable t.

    Invariant: the trailing coefficient is nonzero (the zero polynomial has
    no coefficients at all).  Build instances through :meth:`from_coeffs`,
    which trims trailing zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", coeffs)  # one field: no _fill loop

    @staticmethod
    def from_coeffs(seq: Iterable[int]) -> "IntPolynomial":
        """Trim trailing zeros; a coefficient c with int(c) != c raises ValueError."""
        coeffs = list(seq)
        if not {*map(type, coeffs)} <= {int}:  # one C-level scan when every c is an int
            ints = [int(c) for c in coeffs]
            if ints != coeffs:
                raise ValueError(f"coefficients must be integers, got {coeffs}")
            coeffs = ints
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return IntPolynomial(tuple(coeffs))

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @staticmethod
    def t_power(k: int) -> "IntPolynomial":
        """t^k; a negative k raises ValueError."""
        if k < 0:
            raise ValueError(f"t_power needs k >= 0, got {k}")
        return IntPolynomial((0,) * k + (1,))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by t^k; a negative k raises ValueError."""
        if k < 0:
            raise ValueError(f"shifted needs k >= 0, got {k}")
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return IntPolynomial.from_coeffs(map(sum, pairs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                t = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(t)
                elif c == -1:
                    parts.append(f"-{t}")
                else:
                    parts.append(f"{c}{t}")
        text = "+".join(parts)
        return text.replace("+-", "-")
