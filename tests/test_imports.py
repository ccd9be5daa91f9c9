"""No module of the package imports a name it never uses.

``__init__.py`` is exempt: its imports are the re-exported public API.
"""

import ast
import pathlib

import pytest

import oddhom

MODULES = sorted(p for p in pathlib.Path(oddhom.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_name():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(path)\n") == ["argv", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
