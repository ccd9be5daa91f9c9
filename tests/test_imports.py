"""No module of the package imports a name it never uses, no private
module-level name outlives its last use, no function takes a parameter it
never reads, no nested function calls itself by name, no function of
search.py names a claim rule, search.py's augmentation walk is iterative,
and the module names the benchmark's trace wraps still hold the functions
they name.

``__init__.py`` is exempt from the first guard: its imports are the
re-exported public API.  The second guard reads the whole package: a
``_``-prefixed function, class or constant must be referenced somewhere
outside its own definition.  The third exempts ``self`` and ``cls``, dunder
methods, and the ``_cmd_*`` handlers, which argparse passes ``args``.  The
fourth is there because a closure that reads its own name holds itself
through its cell, so every call of its outer function leaves a reference
cycle for the cyclic collector (``test_gc.py`` checks the searches at run
time).  The fifth keeps the growth loop and the witness test generic: they
read the rule table, and a ``RULE_*`` name appears only where the table,
the ``SearchConfig`` default and the command line build their rule sets.
The sixth keeps the walk on its explicit stack: ``_place_colours`` is the
only function of search.py that calls itself, and no generator started
once per node (called inside a loop's body) reads the rule table.  The
seventh is there because the benchmark's trace times a call by replacing
the name its caller looks up, such as ``search.odd_girth``; a name that
stops being imported, or is bound to something else, would leave that
layer untimed without an error.
"""

import ast
import pathlib

import pytest

import oddhom
from oddhom import graphs, hom, search, witness

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


def unused_parameters(source):
    """(function, parameter) of each parameter that its function or lambda never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            if name.startswith("_cmd_") or name.startswith("__") and name.endswith("__"):
                continue
        elif isinstance(node, ast.Lambda):
            name = "<lambda>"
        else:
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        out += [(name, p) for p in params if p not in read and p not in ("self", "cls")]
    return sorted(out)


def test_parameter_checker_flags_an_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n    return a + kw['x']\n"
              "class C:\n    def m(self, x):\n        return 0\n"
              "    def __exit__(self, *exc):\n        pass\n"
              "def _cmd_run(args):\n    return 0\n"
              "g = lambda u, v: u\n")
    assert unused_parameters(source) == [
        ("<lambda>", "v"), ("f", "b"), ("f", "c"), ("f", "rest"), ("m", "x")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def self_calling_closures(source):
    """Names of the functions nested in a function that read their own name."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = set()
    for outer in ast.walk(ast.parse(source)):
        if isinstance(outer, functions):
            for node in ast.walk(outer):
                if node is not outer and isinstance(node, functions) and any(
                        isinstance(n, ast.Name) and n.id == node.name
                        for stmt in node.body for n in ast.walk(stmt)):
                    out.add(node.name)
    return sorted(out)


def test_closure_checker_flags_a_recursive_closure():
    source = ("def outer():\n"
              "    def rec(i):\n        return i and rec(i - 1)\n"
              "    def helper():\n        return 0\n"
              "    return rec(3) + helper()\n"
              "def top(i):\n    return i and top(i - 1)\n"
              "class C:\n    def m(self, i):\n        return i and self.m(i - 1)\n")
    assert self_calling_closures(source) == ["rec"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_self_calling_closures(path):
    assert self_calling_closures(path.read_text()) == []


def rule_names_read_in_functions(source):
    """(function, line) of each ``RULE_*`` name read inside a function body."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out |= {(node.name, n.lineno) for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    and n.id.startswith("RULE_")}
    return sorted(out)


def test_rule_checker_flags_a_named_rule():
    source = ("RULE_A = 'A'\nRULE_B = 'B'\nTABLE = (RULE_A, RULE_B)\n"
              "class Config:\n    rules = frozenset({RULE_A})\n"
              "def grow(cfg):\n    if RULE_B in cfg.rules:\n        return TABLE\n"
              "    return lambda: RULE_A\n")
    assert rule_names_read_in_functions(source) == [("grow", 7), ("grow", 9)]


def test_search_functions_name_no_rule():
    path = pathlib.Path(oddhom.__file__).parent / "search.py"
    assert rule_names_read_in_functions(path.read_text()) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def called_names(nodes):
    """Names called as plain names anywhere in the statements ``nodes``."""
    return {n.func.id for stmt in nodes for n in ast.walk(stmt)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def self_recursive_functions(source):
    """Names of the functions that call themselves by name."""
    return sorted({node.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, FUNCTIONS) and node.name in called_names(node.body)})


def per_node_generators(source):
    """Generator functions called inside the body of a loop: one call per node of a walk.

    A loop's own iterable is not its body, so a stream a loop consumes
    once is not one of them.
    """
    tree = ast.parse(source)
    generators = {node.name for node in ast.walk(tree) if isinstance(node, FUNCTIONS)
                  and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))}
    in_loops = set()
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.While)):
            in_loops |= called_names(loop.body + loop.orelse)
    return sorted(generators & in_loops)


def per_node_rule_readers(source):
    """The per-node generators that read the rule table through ``_rules``."""
    calls = {node.name: called_names(node.body) for node in ast.walk(ast.parse(source))
             if isinstance(node, FUNCTIONS)}
    return [name for name in per_node_generators(source) if "_rules" in calls[name]]


def test_walk_checkers_flag_a_recursive_walk():
    source = ("def _rules(names):\n    return names\n"
              "def walk(node):\n    for child in node:\n"
              "        yield child\n        yield from walk(child, _rules(child))\n"
              "def stream(root):\n    for x in walk(root):\n        yield x\n"
              "def count(root):\n    return sum(1 for _ in stream(root))\n")
    assert self_recursive_functions(source) == ["walk"]
    assert per_node_generators(source) == ["walk"]
    assert per_node_rule_readers(source) == ["walk"]


def test_search_walk_is_iterative():
    # The augmentation walk runs on an explicit stack of one-node child
    # generators, and reads the rule table once per walk, not per node.
    # The only recursion left is the witness re-check's backtracking.
    source = (pathlib.Path(oddhom.__file__).parent / "search.py").read_text()
    assert self_recursive_functions(source) == ["_place_colours"]
    assert per_node_generators(source) == ["_children"]
    assert per_node_rule_readers(source) == []


#: (module, name, defining module) of each call the benchmark's trace wraps
#: in one module on behalf of another (``perfbench/workloads.py``
#: ``bindings()``), among the names that exist today.
TRACED_BINDINGS = [
    (search, "odd_reach_within", graphs),
    (search, "odd_girth", graphs),
    (search, "max_thread_length", graphs),
    (search, "to_graph6", graphs),
    (search, "from_graph6", graphs),
    (search, "find_homomorphism", hom),
    (search, "is_core", hom),
    (hom, "find_homomorphism", hom),
    (witness, "find_homomorphism", hom),
    (witness, "find_odd_k4", witness),
    (witness, "find_odd_k32", witness),
]


@pytest.mark.parametrize("owner, name, home", TRACED_BINDINGS,
                         ids=[f"{o.__name__.split('.')[-1]}.{n}" for o, n, _ in TRACED_BINDINGS])
def test_traced_bindings_are_the_defining_functions(owner, name, home):
    fn = getattr(owner, name)
    assert fn is getattr(home, name)
    assert fn.__module__ == home.__name__
