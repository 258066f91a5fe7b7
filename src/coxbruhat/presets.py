"""Built-in Coxeter matrices and the JSON matrix-file loader.

Preset type strings: ``A<n>``, ``B<n>`` (n >= 2), ``D<n>`` (n >= 3), ``F4``,
``H3``, ``H4``, ``I2:<m>`` (``I2:inf`` for the infinite bond) and affine
``A~<n>`` (a cycle of order-3 bonds; ``A~1`` is the infinite dihedral
group).  Anything else is supplied as a matrix file:

    {"generators": ["s1", "s2"], "m": [[1, 0], [0, 1]]}

with 0 encoding an infinite bond.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from .core import CoxeterSystem
from .errors import InvalidMatrix

# Matched against the whole string (fullmatch), over ASCII digits only.
_CHAIN_RE = re.compile(r"([ABDabd])([0-9]+)")
_I2_RE = re.compile(r"[Ii]2:([0-9]+|inf|oo)")
_AFFINE_A_RE = re.compile(r"[Aa]~([0-9]+)")

_EXCEPTIONAL = {  # type -> (rank, bonds)
    "F4": (4, ((0, 1, 3), (1, 2, 4), (2, 3, 3))),
    "H3": (3, ((0, 1, 5), (1, 2, 3))),
    "H4": (4, ((0, 1, 5), (1, 2, 3), (2, 3, 3))),
}


def _diagram(kind: str) -> tuple[int, Iterable[tuple[int, int, int]]]:
    """(rank, bonds) of a preset type string; a bond (i, j, m) sets m(i, j) = m(j, i) = m."""
    chain = _CHAIN_RE.fullmatch(kind)
    if chain:
        letter, n = chain.group(1).upper(), int(chain.group(2))
        if n < {"A": 1, "B": 2, "D": 3}[letter]:
            raise InvalidMatrix(f"unsupported preset {kind!r}")
        bonds = [(i, i + 1, 3) for i in range(n - 1)]
        if letter != "A":  # B ends in an order-4 bond, D in a fork at s_{n-2}
            bonds[-1] = (n - 2, n - 1, 4) if letter == "B" else (n - 3, n - 1, 3)
        return n, bonds
    if kind.upper() in _EXCEPTIONAL:
        return _EXCEPTIONAL[kind.upper()]
    i2 = _I2_RE.fullmatch(kind)
    if i2:
        token = i2.group(1)
        order = 0 if token in ("inf", "oo") else int(token)
        if order == 1:
            raise InvalidMatrix(f"I2 bond order must be 0 (infinite) or >= 2, got {token}")
        return 2, ((0, 1, order),)
    aff = _AFFINE_A_RE.fullmatch(kind)
    if aff and int(aff.group(1)) >= 1:  # A~1: a two-cycle of one infinite bond
        n = int(aff.group(1)) + 1
        return n, [(i, (i + 1) % n, 3 if n > 2 else 0) for i in range(n)]
    raise InvalidMatrix(f"unknown Coxeter type {kind!r}")


def coxeter_matrix(kind: str) -> list[list[int]]:
    """The Coxeter matrix of a preset type string."""
    n, bonds = _diagram(kind)
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, order in bonds:
        m[i][j] = m[j][i] = order
    return m


def coxeter_system(kind: str, **kwargs) -> CoxeterSystem:
    """CoxeterSystem for a preset type string (see module docstring)."""
    return CoxeterSystem(coxeter_matrix(kind), **kwargs)


def load_matrix_file(path: str, **kwargs) -> CoxeterSystem:
    """CoxeterSystem from a JSON file {"generators": [...], "m": [[...]]}."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidMatrix(f"cannot read matrix file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidMatrix(f"matrix file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "m" not in data:
        raise InvalidMatrix(f"matrix file {path} must be an object with an 'm' entry")
    names = data.get("generators")
    if "generators" in data and not (
        isinstance(names, list) and all(isinstance(x, str) for x in names)
    ):
        raise InvalidMatrix(f"matrix file {path}: 'generators' must be a list of strings")
    matrix = data["m"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InvalidMatrix(f"matrix file {path}: 'm' must be a list of rows")
    return CoxeterSystem(matrix, names, **kwargs)
