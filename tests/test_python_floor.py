"""The package keeps to the Python floor that pyproject.toml declares.

Tier-1 runs on a newer interpreter, so syntax that 3.10 cannot read would
pass it unseen; every module is parsed here with the 3.10 grammar.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_floor_is_the_declared_one():
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert declared and tuple(map(int, declared.groups())) == FLOOR


def test_every_module_parses_at_the_floor():
    modules = sorted((ROOT / "src" / "burnside").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
