"""Every entry point the benchmark tracer wraps must exist.

bench/tracer.py names the functions it times by (module, attribute).  A
refactor that renames or drops one would otherwise only show up as an
"absent" layer with zero calls in the per-layer metrics.  The tracer file is
parsed, not imported, so this test neither runs nor writes anything under
bench/.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _table(name: str) -> tuple:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


ENTRY_POINTS = sorted({(mod, attr) for _, mod, attr, *_ in _table("SPANS") + _table("COUNTED")})


@pytest.mark.parametrize("module,attr", ENTRY_POINTS)
def test_traced_entry_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
