"""Every defaulted parameter of a function in ``src/hardylab`` is passed.

A parameter with a default that no call ever sets is a knob no verdict
turns: it keeps code paths alive that nothing runs.  The test reads
``src/``, ``scripts/`` and ``perfbench/`` with ``ast`` and runs nothing.  A
call passes a parameter when it names it by keyword, reaches its position,
or spreads ``*args`` or ``**kwargs``.  Calls are matched to a definition by
the bare name called, so a call of any function of the same name counts.
Tests are not callers.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import hardylab

SOURCE_DIR = Path(hardylab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")

# function -> parameters kept without a caller, each entry with its reason
KEPT = {
    "scan_params": ("c_grid", "beta_grid"),  # uncapped grids: ROADMAP item 13
}


def defaulted_parameters():
    """(function, parameter, position) of each defaulted parameter; the
    position counts the arguments a call writes, None for keyword-only."""
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {
            id(fn)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            if id(fn) in methods:
                positional = positional[1:]  # self or cls is not written
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield fn.name, arg.arg, i
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None


def calls_by_name():
    """Bare callee name -> (positional count, keyword names, spreads) of
    each call in the caller directories."""
    calls = defaultdict(list)
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                spreads = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords
                )
                keywords = {kw.arg for kw in node.keywords}
                calls[name].append((len(node.args), keywords, spreads))
    return calls


def unpassed_parameters() -> dict[str, list[str]]:
    """function -> its defaulted parameters that no call passes."""
    calls = calls_by_name()
    found = defaultdict(list)
    for fn, param, pos in defaulted_parameters():
        if not any(
            spreads or param in keywords or (pos is not None and n_args > pos)
            for n_args, keywords, spreads in calls[fn]
        ):
            found[fn].append(param)
    return dict(found)


def test_every_defaulted_parameter_is_passed():
    unpassed = unpassed_parameters()
    listed = [
        f"{fn}: {', '.join(params)}"
        for fn, params in sorted(unpassed.items())
        if tuple(params) != KEPT.get(fn)
    ]
    assert not listed, "defaulted parameters no call passes:\n" + "\n".join(listed)
    # a kept parameter that gains a caller no longer needs its entry
    assert {fn: tuple(unpassed.get(fn, ())) for fn in KEPT} == KEPT
