"""Every option of the package is set by some caller, and every parameter
is read.

Plain AST scans, like test_imports.  Each default-valued parameter of a
function or method in src/degenpde (constructors excepted) must be passed,
by keyword or by position, by some call of that name in the package or the
benchmark; tests and demos do not justify an option.  An option that no
program call sets is a configuration only tests exercise; it belongs in the
body as a constant.  Each parameter of a `def` must be read by its body,
except the `ctx` of the harness REGISTRY checks (the registry's calling
convention) and the parameters of a nested function passed as an argument
(a callback whose signature its caller fixes).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "degenpde").glob("*.py"))
CALLERS = sorted(path for top in ("src", "perfbench")
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


def unread_parameters(tree, registry=()):
    """"function.parameter" for each parameter (self and cls aside) that
    its function's body never reads.  Exempt: the parameters of a function
    named in `registry`, and of a nested function that its enclosing body
    passes as a call argument."""
    unread = []

    def visit(node, callbacks):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a]
                read = {n.id for b in child.body for n in ast.walk(b)
                        if isinstance(n, ast.Name)}
                if child.name not in registry and child.name not in callbacks:
                    unread.extend("%s.%s" % (child.name, a.arg)
                                  for a in params
                                  if a.arg not in ("self", "cls")
                                  and a.arg not in read)
                passed = {a.id for n in ast.walk(child)
                          if isinstance(n, ast.Call)
                          for a in n.args + [k.value for k in n.keywords]
                          if isinstance(a, ast.Name)}
                visit(child, passed)
            else:
                visit(child, callbacks)

    visit(tree, set())
    return sorted(unread)


def _registry_functions(tree):
    """Names of the functions the module's REGISTRY tuple lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "REGISTRY"
                        for t in node.targets)):
            return {pair.elts[1].id for pair in node.value.elts}
    return set()


def test_scan_flags_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, *, c, **kw):\n    return a + kw['x']\n"
        "class K:\n"
        "    def m(self, u):\n        return 1\n"
        "def check(ctx):\n    return 0\n"
        "def outer(y):\n"
        "    def end(t, at):\n        return t\n"
        "    def inner(z):\n        return 0\n"
        "    return use(y, end) + inner(y)\n"
        "REGISTRY = ((\"check\", check),)\n")
    assert unread_parameters(tree, _registry_functions(tree)) == [
        "f.b", "f.c", "inner.z", "m.u"]
    assert unread_parameters(tree) == [
        "check.ctx", "f.b", "f.c", "inner.z", "m.u"]


def test_every_parameter_is_read():
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        unread += unread_parameters(tree, _registry_functions(tree))
    assert unread == []
