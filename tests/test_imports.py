"""What the package imports: every imported name is read, no module uses
another package module's underscore names, package imports sit at module
top, and scipy's linalg and sparse load only where they are used.

The first part is a plain AST scan, so it needs no linter: a module's
imported names are compared with the names it loads.  Modules that define
__all__ re-export their imports and are exempt.  The second part runs
fresh interpreters and reads their sys.modules.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "degenpde").glob("*.py"))
FILES = sorted(PACKAGE + list((ROOT / "demos").glob("*.py")))


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


def _package_import(node):
    """Whether `node` is an import from the degenpde package."""
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "degenpde"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "degenpde" for alias in node.names)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_names_used(source):
    """The underscore names of other package modules that `source` imports
    (from .mod import _name) or reads (mod._name of a module it imported
    as a name)."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if not _package_import(node):
            continue
        for alias in node.names:
            if isinstance(node, ast.Import):
                modules.add(alias.asname)
            elif _private(alias.name):
                found.append(alias.name)
            elif node.module in (None, "degenpde"):
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append("%s.%s" % (node.value.id, node.attr))
    return sorted(found)


def test_scan_flags_a_private_name_of_another_module():
    src = ("from .grid import Field, _chunks\n"
           "from . import __version__, harness\n"
           "from degenpde import semigroup as sg\n"
           "import degenpde.params as params\nimport numpy as np\n"
           "harness._write_csv()\nharness.run_suite()\nsg._SPLIT_WORK\n"
           "params._check\nnp._core\nself._lu\n")
    assert private_names_used(src) == ["_chunks", "harness._write_csv",
                                       "params._check", "sg._SPLIT_WORK"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_private_names_of_other_modules(path):
    assert private_names_used(path.read_text()) == []


def nested_package_imports(source):
    """The package imports of `source` that are not module-body statements."""
    tree = ast.parse(source)
    return [ast.unparse(node) for node in ast.walk(tree)
            if _package_import(node) and node not in tree.body]


def test_scan_flags_a_nested_package_import():
    src = ("from .grid import Field\nimport numpy\n\n\ndef f():\n"
           "    import scipy.linalg\n    from .params import beta_map\n"
           "    from . import panels\n")
    assert nested_package_imports(src) == ["from .params import beta_map",
                                           "from . import panels"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_package_imports_sit_at_module_top(path):
    assert nested_package_imports(path.read_text()) == []


# scipy subpackages the package loads on first use; a 2-d solve uses none
LAZY = ["scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"]


def run_fresh(script, cwd):
    """Run `script` in a fresh interpreter on this checkout's src/ and
    return the JSON its last stdout line prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          cwd=str(cwd), env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_scipy_linalg_and_sparse_unloaded(tmp_path):
    loaded = run_fresh("""
        import json, sys
        import degenpde
        print(json.dumps(sorted(sys.modules)))
        """, tmp_path)
    assert "degenpde.harness" in loaded
    assert [name for name in LAZY if name in loaded] == []


def test_import_leaves_the_field_formatter_tables_unbuilt(tmp_path):
    # the exact %.17g formatter's tables are built by the first field
    # write, so importing the package (and every suite worker) skips them
    built = run_fresh("""
        import json
        import degenpde
        from degenpde import grid
        built = [grid._format_tables.cache_info().currsize]
        g = grid.make_grid(4)
        grid.write_field_csv("field.csv", grid.Field([1.0, 2.0, 3.0, 4.0], g))
        built.append(grid._format_tables.cache_info().currsize)
        print(json.dumps(built))
        """, tmp_path)
    assert built == [0, 1]


@pytest.mark.parametrize("command", ["solve_elliptic", "solve_parabolic"])
def test_wide_2d_solve_leaves_scipy_linalg_and_sparse_unloaded(tmp_path,
                                                               command):
    # num_x 8 per axis gives 64 modes, a batch on the Thomas path
    (tmp_path / "config.json").write_text(json.dumps({
        "operator": {
            "q_matrix": [[2.0, 0.3], [0.3, 1.5]], "q_vector": [0.4, -0.2],
            "gamma": 1.2, "drift_b": [0.5, -0.3], "drift_c": 1.4,
            "alpha1": 0.5, "alpha2": -0.3, "p": 2.5, "m": 0.6,
            "dimension": 2},
        "grid": {"num_cells": 32, "num_x": 8},
        "parabolic": {"steps": 4},
    }))
    code, loaded = run_fresh("""
        import contextlib, io, json, sys
        from degenpde.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([%r, "--config", "config.json", "--out", "out"])
        print(json.dumps([code, sorted(sys.modules)]))
        """ % command, tmp_path)
    assert code == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    assert [name for name in LAZY if name in loaded] == []


def test_suite_workers_import_nothing(tmp_path):
    # every worker inherits the wrapper, which records what sys.modules
    # gained while its check ran; the checks call scipy.linalg
    # (eigh_tridiagonal, gttrf) and scipy.sparse.linalg (spsolve)
    checks = ["selfadjoint_spectrum", "nd_mode_vs_monolithic",
              "resolvent_two_route_identity"]
    pids, gained, parent = run_fresh("""
        import json, os, sys
        from degenpde import harness

        run_check = harness._run_check

        def recording_run_check(name, seed):
            before = set(sys.modules)
            res = run_check(name, seed)
            res.detail["pid"] = os.getpid()
            res.detail["gained"] = sorted(set(sys.modules) - before)
            return res

        harness._run_check = recording_run_check
        os.sched_getaffinity = lambda pid: {0, 1}
        results = harness.run_suite({"checks": %r})
        assert all(res.passed for res in results), results
        print(json.dumps([[res.detail["pid"] for res in results],
                          [res.detail["gained"] for res in results],
                          os.getpid()]))
        """ % checks, tmp_path)
    assert len(pids) == len(checks) and parent not in pids
    assert gained == [[]] * len(checks)
