"""Every function in ``src/hardylab`` is reached by a claim or a subcommand.

The test runs each CLI argument list of ``tests/test_cli_golden.py`` once
in JSON, one of them in CSV and in text, one scan in CSV (the per-point
rows), and ``verify-paper --n-max 1000``,
recording every Python frame entered through a global ``sys.settrace``
hook.  A function, method, lambda or generator expression compiled from a
module of the package that none of these runs enters is code that no
verdict depends on; the failure message lists it.  Class bodies and the
methods ``dataclasses`` generates are not functions of the source files
and do not count.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import hardylab
from test_cli_golden import ARGVS, outcome

SOURCE_DIR = Path(hardylab.__file__).resolve().parent


def _functions(code, module: str):
    """(module, qualified name, first line) of every function code object
    nested in ``code``."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS:
                name = getattr(const, "co_qualname", const.co_name)
                yield (module, name, const.co_firstlineno)
            yield from _functions(const, module)


def source_functions() -> set[tuple[str, str, int]]:
    found = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        found.update(_functions(code, path.stem))
    return found


def entered_functions(runs) -> set[tuple[str, str, int]]:
    """The source functions entered while every argv of ``runs`` goes
    through the CLI."""
    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv in runs:
            outcome(argv)
    finally:
        sys.settrace(previous)
    names = set()
    for code in entered:
        path = Path(code.co_filename)
        if path.parent == SOURCE_DIR:
            name = getattr(code, "co_qualname", code.co_name)
            names.add((path.stem, name, code.co_firstlineno))
    return names


def test_every_source_function_is_reached():
    runs = [(*argv, "--format", "json") for argv in ARGVS]
    runs += [(*ARGVS[0], "--format", fmt) for fmt in ("csv", "text")]
    runs.append(("redheffer-scan", "--p", "0.45", "--n-max", "100", "--format", "csv"))
    runs.append(("verify-paper", "--n-max", "1000", "--format", "json"))
    missing = source_functions() - entered_functions(runs)
    listed = "\n".join(f"  {m}.py:{line} {name}" for m, name, line in sorted(missing))
    assert not missing, f"{len(missing)} functions no run reaches:\n{listed}"
