"""Every private name the docs quote exists in the package.

Docstrings under ``src/`` quote private helpers in double backquotes
(``_canonical``, ``CoxeterSystem._neighbour_word``) and README.md in single
ones.  A quoted name must still name something: a dotted name an attribute of
what its prefix names, a bare one an attribute of some module, class, system
or element of the package.  So a helper cannot be removed or renamed while a
doc still describes it.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil
import re

import coxbruhat
from coxbruhat import coxeter_system

ROOT = pathlib.Path(__file__).resolve().parents[1]
PRIVATE = re.compile(r"(?<![\w.])((?:[A-Za-z]\w*\.)*_[A-Za-z]\w*)")


def _modules():
    return [importlib.import_module(f"coxbruhat.{m.name}")
            for m in pkgutil.iter_modules(coxbruhat.__path__)]


def _docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def _quoted():
    """(where, name) for every private name in a quoted span of the docs."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        for doc in _docstrings(path):
            for span in re.findall(r"``(.+?)``", doc, re.S):
                for name in PRIVATE.findall(span):
                    yield path.name, name
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8")):
        for name in PRIVATE.findall(span):
            yield "README.md", name


def _namespaces():
    """name -> the objects it may name: package modules and their attributes,
    with a live system and element next to their classes, for the instance
    attributes a class alone does not show."""
    out = {}
    for module in _modules():
        out.setdefault(module.__name__.rsplit(".", 1)[1], []).append(module)
        for name, value in vars(module).items():
            out.setdefault(name, []).append(value)
    system = coxeter_system("A2")
    out["CoxeterSystem"].append(system)
    out["Element"].append(system.generator(0))
    return out


def _resolves(name, spaces):
    head, *rest = name.split(".")
    if not rest:
        return head in spaces or any(hasattr(v, head) for vs in spaces.values() for v in vs)
    for value in spaces.get(head, []):
        for part in rest:
            if not hasattr(value, part):
                break
            value = getattr(value, part)
        else:
            return True
    return False


def test_the_docs_quote_private_names():
    assert {name for _, name in _quoted()} >= {"_canonical", "CoxeterSystem._neighbour_word"}


def test_every_quoted_private_name_exists():
    spaces = _namespaces()
    missing = sorted({(where, name) for where, name in _quoted() if not _resolves(name, spaces)})
    assert not missing, f"quoted names the package does not have: {missing}"


def test_a_removed_name_is_caught():
    spaces = _namespaces()
    assert not _resolves("Element._imat", spaces)
    assert not _resolves("_stab_cache", spaces)
