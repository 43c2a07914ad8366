"""The README's table of fixed bounds matches the module constants."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([0-9.e-]+) \|", re.M)


def test_readme_bounds_match_constants():
    rows = ROW.findall(README.read_text(encoding="utf-8"))
    assert len(rows) == 13
    for module, name, value in rows:
        actual = getattr(importlib.import_module("relaysynth." + module), name)
        assert actual == type(actual)(value), (module, name, value)
