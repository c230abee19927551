"""``src/hardylab`` has one exception type and one warning type.

Every rejected input raises ``WorkbenchError``, and the CLI maps it to
exit status 2; no caller tells rejections apart by type, so the message
alone names the rule.  The tests read the package with ``ast``, so they
run nothing.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import hardylab

SOURCE_DIR = Path(hardylab.__file__).resolve().parent


def _trees():
    for path in sorted(SOURCE_DIR.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _name(node: ast.expr) -> str | None:
    """The bare name of a ``Name`` or an ``Attribute``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def exception_classes() -> set[str]:
    """Names of the package's classes derived, directly or through another
    class of the package, from a builtin exception or warning."""
    bases = {
        cls.name: {_name(b) for b in cls.bases}
        for _, tree in _trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
    }

    def builtin_exception(name):
        obj = getattr(builtins, name or "", None)
        return isinstance(obj, type) and issubclass(obj, BaseException)

    found: set[str] = set()
    while True:
        new = {
            name for name, names in bases.items()
            if any(builtin_exception(n) or n in found for n in names)
        }
        if new == found:
            return found
        found = new


def raised_names() -> list[str]:
    """``module:line name`` for each ``raise`` of a named class or object
    other than WorkbenchError and SystemExit; a bare re-raise has none."""
    found = []
    for stem, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = _name(exc)
            if name not in ("WorkbenchError", "SystemExit"):
                found.append(f"{stem}:{node.lineno} {name or ast.unparse(exc)}")
    return found


def test_one_exception_and_one_warning_class():
    assert exception_classes() == {"WorkbenchError", "TailTruncationWarning"}


def test_every_raise_is_a_workbench_error_or_an_exit():
    assert raised_names() == []
