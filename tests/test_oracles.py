"""The oracles share nothing with the code they check."""

import ast
import sys
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_only_the_standard_library_and_numpy():
    tree = ast.parse(ORACLES.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import reaches into a package next to the oracles
            imported.add("." * node.level + (node.module or ""))
    tops = {name.split(".")[0] or name for name in imported}
    assert sorted(tops - set(sys.stdlib_module_names) - {"numpy"}) == []
