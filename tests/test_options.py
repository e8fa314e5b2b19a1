"""Every option of the package is set by some caller, to more than one
value, and every parameter is read.

Plain AST scans, like test_imports.  Each default-valued parameter of a
function or method in src/degenpde (constructors excepted) must be passed,
by keyword or by position, by some call of that name in the package or the
benchmark; tests and demos do not justify an option.  An option that no
program call sets is a configuration only tests exercise; it belongs in the
body as a constant.  So does a parameter that every such call passes the
same literal (an omitted argument counting as its default), when it has a
default or its function is private: it has one value in use.  Each
parameter of a `def` must be read by its body, except the `seed` of the
harness REGISTRY checks (the registry's calling convention) and the
parameters of a nested function passed as an argument (a callback whose
signature its caller fixes).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "degenpde").glob("*.py"))
CALLERS = sorted(path for top in ("src", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


def parameters(tree):
    """(function name, positional index or None, parameter name, default
    node or None) of every parameter of a function or method but a
    constructor; a method's index skips self or cls."""
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
                    defaults = [None] * (len(positional)
                                         - len(args.defaults))
                    found.extend(
                        (child.name, i, arg.arg, d) for i, (arg, d)
                        in enumerate(zip(positional,
                                         defaults + args.defaults)))
                    found.extend((child.name, None, arg.arg, d)
                                 for arg, d in zip(args.kwonlyargs,
                                                   args.kw_defaults))
                visit(child, False)
            else:
                visit(child, in_class or isinstance(child, ast.ClassDef))

    visit(tree, False)
    return found


def options(tree):
    """(function name, positional index or None, parameter name) of every
    default-valued parameter."""
    return [(name, index, param)
            for name, index, param, default in parameters(tree)
            if default is not None]


def _called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def passed_arguments(trees):
    """Map a called name to what its calls pass: positional indexes,
    keyword names, ("*", i) for a starred argument at position i and "**"
    for a double-starred mapping."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not _called_name(node):
                continue
            got = passed.setdefault(_called_name(node), set())
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


def _argument(call, index, param, default):
    """The node `call` passes for a parameter, its default node when the
    call omits it, or None when a starred argument hides it."""
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return None
        if i == index:
            return arg
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if any(kw.arg is None for kw in call.keywords):
        return None
    return default


def _literal(node):
    """ast.dump of a literal node, None for anything else."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return ast.dump(node)


def fixed_options(source_trees, caller_trees):
    """"function.parameter" of each parameter with one value in use: every
    call of its function's name passes it the same literal, an omitted
    argument counting as its default, and the parameter has a default or
    its function is private (a leading underscore)."""
    calls = {}
    for tree in caller_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node):
                calls.setdefault(_called_name(node), []).append(node)
    fixed = []
    for tree in source_trees:
        for name, index, param, default in parameters(tree):
            if default is None and not name.startswith("_"):
                continue
            used = {_literal(_argument(call, index, param, default))
                    for call in calls.get(name, [])}
            if len(used) == 1 and None not in used:
                fixed.append("%s.%s" % (name, param))
    return sorted(fixed)


def test_scan_flags_an_option_with_one_value():
    src = ast.parse(
        "def f(a, b=1, *, c=(2,)):\n    pass\n"
        "def _g(a, b):\n    pass\n"
        "def h(a, b):\n    pass\n"
        "class K:\n"
        "    def _m(self, u, v=0):\n        pass\n"
        "def _s(a):\n    pass\n")
    calls = ast.parse(
        "f(x, 1)\nf(y)\nf(x, 2, c=(2,))\n"
        "_g(1.0, x)\n_g(1.0, 'a')\nh('k', 1)\nh('k', 2)\n"
        "K()._m(-3, v=1)\nK()._m(-3, 0)\n_s(*xs)\n_s(4)\n")
    assert fixed_options([src], [calls]) == ["_g.a", "_m.u", "f.c"]
    # a mapping may pass b, but not the c passed by name
    calls = ast.parse("f(x, c=(2,), **kw)\nf(y, 1)\n")
    assert fixed_options([src], [calls]) == ["f.c"]


def test_every_option_has_more_than_one_value():
    callers = [ast.parse(path.read_text()) for path in CALLERS]
    fixed = fixed_options([ast.parse(path.read_text()) for path in SOURCES],
                          callers)
    assert fixed == []


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
            return {row.elts[1].id for row in node.value.elts}
    return set()


def test_scan_flags_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, *, c, **kw):\n    return a + kw['x']\n"
        "class K:\n"
        "    def m(self, u):\n        return 1\n"
        "def check(seed):\n    return 0\n"
        "def outer(y):\n"
        "    def end(t, at):\n        return t\n"
        "    def inner(z):\n        return 0\n"
        "    return use(y, end) + inner(y)\n"
        "REGISTRY = ((\"check\", check, \"suite\"),)\n")
    assert unread_parameters(tree, _registry_functions(tree)) == [
        "f.b", "f.c", "inner.z", "m.u"]
    assert unread_parameters(tree) == [
        "check.seed", "f.b", "f.c", "inner.z", "m.u"]


def test_every_parameter_is_read():
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        unread += unread_parameters(tree, _registry_functions(tree))
    assert unread == []
