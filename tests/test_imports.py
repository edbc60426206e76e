import ast
import pathlib

import pytest

import flagiso

_MODULES = sorted(
    p for p in pathlib.Path(flagiso.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(source):
    """Names a module imports (at any depth) but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nfrom x import a, b as c\nc()\n") == [(1, "os"), (2, "a")]
