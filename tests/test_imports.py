"""No module of the package imports a name it never uses, and no private
module-level name outlives its last use.

``__init__.py`` is exempt from the first guard: its imports are the
re-exported public API.  The second guard reads the whole package: a
``_``-prefixed function, class or constant must be referenced somewhere
outside its own definition.
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


PACKAGE = sorted(pathlib.Path(oddhom.__file__).parent.glob("*.py"))


def private_definitions(tree):
    """(name, node) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(trees, skip):
    """Every name read, attribute taken or name imported, outside the node ``skip``."""
    out = set()
    for tree in trees:
        for top in tree.body:
            if top is skip:
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    out.add(node.id)
                elif isinstance(node, ast.Attribute):
                    out.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    out |= {a.name for a in node.names}
    return out


def unreferenced_private_names(sources):
    trees = [ast.parse(source) for source in sources]
    return sorted(name for tree in trees for name, node in private_definitions(tree)
                  if name not in references(trees, node))


def test_private_checker_flags_a_lingering_helper():
    lib = "_USED = 1\n_LEFT = 2\ndef _helper():\n    return _helper()\ndef run():\n    return _USED\n"
    other = "from lib import _imported\n"
    defs = "def _imported():\n    pass\n"
    assert unreferenced_private_names([lib, other, defs]) == ["_LEFT", "_helper"]


def test_no_unreferenced_private_names():
    assert unreferenced_private_names([p.read_text() for p in PACKAGE]) == []
