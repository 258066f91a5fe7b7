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

from .core import CoxeterSystem
from .errors import InvalidMatrix

_CHAIN_RE = re.compile(r"^([ABDabd])(\d+)$")
_I2_RE = re.compile(r"^[Ii]2:(\d+|inf|oo)$")
_AFFINE_A_RE = re.compile(r"^[Aa]~(\d+)$")


def _blank(n: int) -> list[list[int]]:
    return [[1 if i == j else 2 for j in range(n)] for i in range(n)]


def _bond(m: list[list[int]], i: int, j: int, order: int) -> None:
    m[i][j] = m[j][i] = order


def coxeter_matrix(kind: str) -> list[list[int]]:
    """The Coxeter matrix of a preset type string."""
    chain = _CHAIN_RE.match(kind)
    if chain:
        letter, n = chain.group(1).upper(), int(chain.group(2))
        if letter == "A" and n >= 1:
            m = _blank(n)
            for i in range(n - 1):
                _bond(m, i, i + 1, 3)
            return m
        if letter == "B" and n >= 2:
            m = _blank(n)
            for i in range(n - 1):
                _bond(m, i, i + 1, 3)
            _bond(m, n - 2, n - 1, 4)
            return m
        if letter == "D" and n >= 3:
            m = _blank(n)
            for i in range(n - 2):
                _bond(m, i, i + 1, 3)
            _bond(m, n - 3, n - 1, 3)
            return m
        raise InvalidMatrix(f"unsupported preset {kind!r}")
    if kind.upper() == "F4":
        m = _blank(4)
        _bond(m, 0, 1, 3)
        _bond(m, 1, 2, 4)
        _bond(m, 2, 3, 3)
        return m
    if kind.upper() in ("H3", "H4"):
        n = int(kind[1])
        m = _blank(n)
        _bond(m, 0, 1, 5)
        for i in range(1, n - 1):
            _bond(m, i, i + 1, 3)
        return m
    i2 = _I2_RE.match(kind)
    if i2:
        token = i2.group(1)
        order = 0 if token in ("inf", "oo") else int(token)
        if order == 1 or order < 0:
            raise InvalidMatrix(f"I2 bond order must be 0 (infinite) or >= 2, got {token}")
        m = _blank(2)
        _bond(m, 0, 1, order)
        return m
    aff = _AFFINE_A_RE.match(kind)
    if aff:
        n = int(aff.group(1))
        if n == 1:
            m = _blank(2)
            _bond(m, 0, 1, 0)
            return m
        if n >= 2:
            m = _blank(n + 1)
            for i in range(n + 1):
                _bond(m, i, (i + 1) % (n + 1), 3)
            return m
    raise InvalidMatrix(f"unknown Coxeter type {kind!r}")


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
