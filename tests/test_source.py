"""Rules the package's source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "foon"
PROCESS_CACHES = {"cache", "lru_cache"}


def _process_caches(tree):
    """Line numbers that import or name ``functools.cache`` or ``lru_cache``."""
    modules = {"functools"}  # names bound to the functools module
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for a in node.names if a.name in PROCESS_CACHES]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in PROCESS_CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source",
    [
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x\n",
        "import functools as ft\n@ft.cache\ndef f(x): return x\n",
        "from functools import lru_cache as memo\n@memo\ndef f(x): return x\n",
    ],
)
def test_the_check_sees_a_process_cache_however_it_is_imported(source):
    assert _process_caches(ast.parse(source)) != []


def test_no_module_keeps_a_process_global_functools_cache():
    # A functools cache lives as long as the process and keeps whatever it
    # was called with; memory must stay bounded by the objects a caller holds.
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = {
        path.name: _process_caches(ast.parse(path.read_text(encoding="utf-8")))
        for path in files
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
