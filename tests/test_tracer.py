"""The benchmark's span tracer finds every name it wraps in degenpde."""

import importlib
import importlib.util
import os

import degenpde

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_names_resolve_and_install():
    tracer = _load_tracer()
    for mod_name, fn_name in tracer.FUNCTION_SPANS:
        mod = importlib.import_module("degenpde." + mod_name)
        assert callable(getattr(mod, fn_name, None)), (mod_name, fn_name)
    for entry in tracer.METHOD_SPANS + tracer.METHOD_COUNTS:
        mod_name, cls_name, meth = entry[:3]
        cls = getattr(importlib.import_module("degenpde." + mod_name),
                      cls_name, None)
        assert cls is not None, entry
        # the tracer replaces the attribute defined on the class itself
        assert callable(vars(cls).get(meth)), entry
    resolve = degenpde.bessel1d.resolve
    t = tracer.Tracer()
    t.install(degenpde)
    try:
        assert degenpde.bessel1d.resolve is not resolve
    finally:
        t.uninstall()
    assert degenpde.bessel1d.resolve is resolve
