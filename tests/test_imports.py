"""Import hygiene: importing the package generates no code.

The result records are plain slotted classes, so a fresh interpreter that
imports the package, its CLI and its oracles never loads ``dataclasses``,
which would pull in ``inspect``, ``ast`` and ``dis`` as well.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import coxbruhat

SRC = str(Path(coxbruhat.__file__).resolve().parent.parent)

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import coxbruhat, coxbruhat.cli, coxbruhat.oracle
assert coxbruhat.__file__.startswith(sys.argv[1]), coxbruhat.__file__
print(" ".join(m for m in ("dataclasses", "inspect", "ast", "dis") if m in sys.modules))
"""


def test_fresh_import_loads_no_dataclasses():
    out = subprocess.run([sys.executable, "-c", PROBE, SRC], capture_output=True, text=True,
                         check=True).stdout
    assert "dataclasses" not in out.split(), out
