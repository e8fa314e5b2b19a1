"""Every name imported by the package and the demos is read somewhere.

A plain AST scan, so it needs no linter: a module's imported names are
compared with the names it loads.  Modules that define __all__ re-export
their imports and are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(list((ROOT / "src" / "degenpde").glob("*.py"))
               + list((ROOT / "demos").glob("*.py")))


def unused_imports(source):
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return []
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(imported - read)


def test_scan_flags_an_unused_import():
    src = ("import os\nimport os.path as osp\nfrom sys import argv, path\n"
           "print(path)\n")
    assert unused_imports(src) == ["argv", "os", "osp"]
    assert unused_imports("import os\n__all__ = ['os']\n") == []


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
