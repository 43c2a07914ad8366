"""Module boundaries inside the relaysynth package."""

import ast
from pathlib import Path

import relaysynth

PACKAGE = Path(relaysynth.__file__).resolve().parent


def _private_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("relaysynth"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield "%s:%d imports %s from %s" % (
                    path.name, node.lineno, alias.name, "." * node.level + module
                )


def test_no_module_imports_a_private_name_from_another():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_imports(path)]
    assert found == []
