"""In-memory span tracer that wraps degenpde's public functions in place.

A function is wrapped at every name a caller looks it up by: each degenpde
module attribute bound to the original object (so `harness.expm_kernel` as
well as `bessel1d.expm_kernel`), class attributes for methods, and the
harness registry map the suite runner dispatches through.  Spans are
(name, start, end, parent) tuples kept in a list and written out once at the
end; a few leaf methods called once per Fourier mode per step are counted
without a span.  The program runs single-threaded under the tracer, so one
parent stack is enough.
"""

import collections
import importlib
import os
import time

# (module, function) pairs wrapped with a span, and the span name used
FUNCTION_SPANS = (
    ("bessel1d", "expm_kernel"),
    ("bessel1d", "bessel_kernel_fit"),
    ("bessel1d", "model_kernel_fit"),
    ("bessel1d", "semigroup_domination_check"),
    ("bessel1d", "resolve"),
    ("bessel1d", "assemble_form"),
    ("multiplier", "mikhlin_bound_scan"),
    ("semigroup", "evolve"),
    ("grid", "write_field_csv"),
    ("grid", "lp_norm"),
    ("cli", "main"),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("multiplier", "FrequencySolvePlan", "__init__", "multiplier.plan_init"),
    ("multiplier", "FrequencySolvePlan", "solve", "multiplier.plan_solve"),
    ("multiplier", "FrequencySolvePlan", "apply_operator",
     "multiplier.apply_operator"),
    ("multiplier", "FrequencySolvePlan", "_to_modes", "multiplier.fft"),
    ("multiplier", "FrequencySolvePlan", "_from_modes", "multiplier.fft"),
)
# (module, class, method, counter name): counted only
METHOD_COUNTS = (
    ("multiplier", "ModeOperators", "solve", "multiplier.mode_solve"),
    ("multiplier", "ModeOperators", "form_bands", "multiplier.form_bands"),
)


class Tracer:
    """Install with `install(package)`, run the workload, then `uninstall()`."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.output_bytes = 0
        self._stack = []
        self._undo = []
        self._origin = time.perf_counter()

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _csv_writer(self, fn):
        inner = self._span("grid.write_field_csv", fn)

        def wrapper(path, field):
            inner(path, field)
            self.output_bytes += os.path.getsize(path)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the package's functions at every binding of them."""
        modules = [package] + [
            importlib.import_module(package.__name__ + "." + name)
            for name in ("params", "transforms", "panels", "grid", "bessel1d",
                         "multiplier", "semigroup", "harness", "cli")]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod_name, fn_name in FUNCTION_SPANS:
            original = getattr(by_name[mod_name], fn_name)
            if fn_name == "write_field_csv":
                wrapper = self._csv_writer(original)
            else:
                wrapper = self._span("%s.%s" % (mod_name, fn_name), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for mod_name, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(by_name[mod_name], cls_name)
            self._set(cls, meth, self._span(span, vars(cls)[meth]))
        for mod_name, cls_name, meth, counter in METHOD_COUNTS:
            cls = getattr(by_name[mod_name], cls_name)
            self._set(cls, meth, self._counted(counter, vars(cls)[meth]))
        harness = by_name["harness"]
        for check_id, fn in list(harness._REGISTRY_MAP.items()):
            self._set_item(harness._REGISTRY_MAP, check_id,
                           self._span("harness.check." + check_id, fn))

    def _set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def summary(self):
        """Per-name busy time, self time and call count over all spans."""
        busy = collections.defaultdict(float)
        child = collections.defaultdict(float)
        calls = collections.Counter()
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = collections.defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[idx]
        return busy, self_time, calls

    def child_calls(self, name, parent_name):
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        return sum(1 for (n, _, _, p) in self.spans
                   if n == name and p >= 0 and self.spans[p][0] == parent_name)

    def write(self, path):
        """One CSV row per span; times in seconds since the tracer was made."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self._origin
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%d,%s,%.9f,%.9f,%d\n"
                         % (idx, name, start - t0, end - t0, parent))
