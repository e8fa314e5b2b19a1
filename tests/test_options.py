"""Every option of the package is set by some caller.

A plain AST scan, like test_imports: each default-valued parameter of a
function or method in src/degenpde (constructors excepted) must be passed,
by keyword or by position, by some call of that name in the package, the
demos, the benchmark or the tests.  An option that no call sets is a
configuration that nothing exercises; it belongs in the body as a constant.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "degenpde").glob("*.py"))
CALLERS = sorted(path for top in ("src", "demos", "perfbench", "tests")
                 for path in (ROOT / top).rglob("*.py"))


def options(tree):
    """(function name, positional index or None, parameter name) of every
    default-valued parameter; a method's index skips self or cls."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                if child.name != "__init__":
                    args = child.args
                    positional = args.posonlyargs + args.args
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in child.decorator_list)
                    if in_class and not static:
                        positional = positional[1:]
                    first = len(positional) - len(args.defaults)
                    found.extend((child.name, i, arg.arg)
                                 for i, arg in enumerate(positional)
                                 if i >= first)
                    found.extend((child.name, None, arg.arg)
                                 for arg, d in zip(args.kwonlyargs,
                                                   args.kw_defaults)
                                 if d is not None)
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


def passed_arguments(trees):
    """Map a called name to what its calls pass: positional indexes,
    keyword names, ("*", i) for a starred argument at position i and "**"
    for a double-starred mapping."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            got = passed.setdefault(name, set())
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    got.add(("*", i))
                    break
                got.add(i)
            got.update(kw.arg or "**" for kw in node.keywords)
    return passed


def unset_options(source_trees, caller_trees):
    passed = passed_arguments(caller_trees)
    unset = []
    for tree in source_trees:
        for name, index, param in options(tree):
            got = passed.get(name, set())
            if (param in got or "**" in got
                    or (index is not None and (
                        index in got
                        or any(isinstance(g, tuple) and index >= g[1]
                               for g in got)))):
                continue
            unset.append("%s.%s" % (name, param))
    return sorted(unset)


def test_scan_flags_an_unset_option():
    src = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n"
        "    def __init__(self, z=0):\n        pass\n"
        "    def m(self, u=1, v=2):\n        pass\n"
        "def g(a, b=1):\n    pass\n")
    calls = ast.parse("f(0, 5)\nf(0, d=4)\nK().m(7)\ng(*xs)\n")
    assert unset_options([src], [calls]) == ["f.c", "m.v"]
    assert unset_options([src], [ast.parse("f(0, **kw)\nK().m(1, 2)\n")]) \
        == ["g.b"]


def test_every_option_has_a_caller():
    callers = [ast.parse(path.read_text()) for path in CALLERS]
    unset = unset_options([ast.parse(path.read_text()) for path in SOURCES],
                          callers)
    assert unset == []
