"""No module of ``src/hardylab`` imports an underscore name from a sibling.

A private name has one owner, the module that defines it; a sibling that
needs it should get a public name.  The test reads each module's import
statements with ``ast``, so it runs nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hardylab

SOURCE_DIR = Path(hardylab.__file__).resolve().parent


def private_sibling_imports(source_dir: Path = SOURCE_DIR) -> list[str]:
    """``module:line name`` for each underscore name a module of the
    package imports from the package."""
    found = []
    for path in sorted(source_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("hardylab"):
                continue
            found += [
                f"{path.stem}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_a_private_sibling_name():
    assert private_sibling_imports() == []
