"""Every function the benchmark tracer maps by name exists in the package.

``perfbench/tracer.py`` reads its per-layer rows from spans it finds by
``layer.function`` name, and a name that matches no function reads 0
without any error.  This test loads the tracer by path, without editing or
installing it, and requires each name it maps to be a function of
``src/hardylab``.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# name -> why the tracer may map it while the package has no such function
UNMAPPED = {
    "cli.render_csv": "became the generator cli.render_csv_pieces; the "
    "tracer's half of ROADMAP item 16 is open",
}


def traced_names() -> tuple[list[str], set[str]]:
    """The names the tracer maps, and those of them it wraps although private."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    private = {f"{layer}.{fn}" for layer, fns in tracer.PRIVATE_TRACED.items()
               for fn in fns}
    names = {*tracer.SIZES, *tracer.RENDERERS, *tracer.LEMMAS, *private}
    names |= {f"verify.{group}_claims" for group in tracer.VERIFY_GROUPS}
    return sorted(names), private


NAMES, PRIVATE = traced_names()


def is_traced_function(name: str) -> bool:
    """Whether the tracer wraps a function of that name: one defined in its
    layer's module, public or listed as a private one it traces."""
    layer, attr = name.split(".", 1)
    module = importlib.import_module(f"hardylab.{layer}")
    fn = getattr(module, attr, None)
    return (
        inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and (not attr.startswith("_") or name in PRIVATE)
    )


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_is_a_function(name):
    assert is_traced_function(name) != (name in UNMAPPED), name
