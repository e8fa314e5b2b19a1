"""What the package imports: every imported name is read, and scipy's
linalg and sparse load only where they are used.

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

        def recording_run_check(name, ctx):
            before = set(sys.modules)
            res = run_check(name, ctx)
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
