"""degenpde benchmark: times CLI workloads in one process and checks outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N        # all three workloads in turn

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One round is one CLI command, called in-process through
`degenpde.cli.main`; a run makes the whole number of rounds whose total is
nearest S seconds (at least one).  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 the same rounds are first run untraced,
then again under the span tracer, and the JSON carries the per-layer metrics
(per round) and the tracer's overhead.  Outputs go to .perfbench_out/ and are
removed after they are checked; span files are kept there.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7
WORKLOADS = ("verify_default", "elliptic_2d", "parabolic_2d")

CHECK_IDS = (
    "parameter_roundtrip", "transform_isometries", "power_similarity",
    "model_equivalence_1d", "selfadjoint_spectrum", "sector_resolvent_scan",
    "kernel_gaussian_fit_bessel", "kernel_gaussian_fit_model",
    "kernel_domination", "resolvent_two_route_identity",
    "nd_mode_vs_monolithic", "nd_manufactured_convergence",
    "apriori_regularity_fit", "interpolation_gradient_fit",
    "xi_derivative_order", "mikhlin_family_scan",
    "square_function_resolvent_family", "parabolic_heat_closed_form",
    "parabolic_contraction", "maximal_regularity_ratio",
    "semigroup_structure", "reduction_consistency",
    "window_negative_control",
)


class SetupError(RuntimeError):
    pass


def import_package():
    """Import degenpde from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "degenpde", "__init__.py")):
        raise SetupError("no degenpde sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import degenpde
    found = os.path.realpath(degenpde.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError("degenpde imported from %s, not %s" % (found, SRC))
    import workloads
    return degenpde, workloads


def setup(name, seed, work_dir):
    """Import the package and build the workload's inputs.

    Returns (package, workload, seconds taken)."""
    start = time.perf_counter()
    degenpde, workloads = import_package()
    wl = workloads.WORKLOADS[name](seed, work_dir)
    wl.setup()
    return degenpde, wl, time.perf_counter() - start


def probe_setup(name, seed, work_dir):
    """Median set-up time over fresh interpreter processes."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(work_dir, "probe-%d" % k)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--out", probe_dir],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError("setup probe failed:\n" + done.stderr)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_rounds(degenpde, wl, out_dir, seconds=None, count=None):
    """Run the whole number of rounds whose total is nearest `seconds` (at
    least one), or exactly `count` rounds.

    A round stops the run once half of it again would reach `seconds`, so a
    round that takes about `seconds` never makes the count flip between one
    and two on timing noise alone.

    Returns one record per round: input index, output directory, wall
    seconds, exit code and captured stdout.
    A round that raises counts as failed (exit code None).
    """
    rounds = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        rdir = os.path.join(out_dir, "round-%03d" % index)
        argv = wl.command(index, rdir)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = degenpde.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        rounds.append({"index": index, "dir": rdir, "wall": wall,
                       "code": code,
                       "stdout": buf.getvalue()})
        if count is not None:
            if len(rounds) >= count:
                return rounds
        elif time.perf_counter() - start + wall / 2 >= seconds:
            return rounds


def problems_of(check, *args):
    """A check's problems; unreadable or malformed outputs are one more."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return ["%s: %s" % (type(exc).__name__, exc)]


def check_rounds(wl, rounds):
    """(failed count, problems in the outputs of the rounds that exited 0)."""
    failed = 0
    problems = []
    for rec in rounds:
        if rec["code"] != 0:
            failed += 1
            print("%s exited %r" % (rec["dir"], rec["code"]), file=sys.stderr)
            continue
        problems += ["%s: %s" % (os.path.relpath(rec["dir"], OUT), p)
                     for p in problems_of(wl.check, rec["index"], rec["dir"],
                                          rec["stdout"])]
    return failed, problems


def layer_metrics(tracer, n_rounds, untraced_wall, traced_wall):
    """Per-round per-layer figures from the tracer's spans and counters."""
    busy, self_time, calls = tracer.summary()
    counts = tracer.counts
    metrics = {
        "bessel1d.expm_kernel.s": (busy["bessel1d.expm_kernel"], "s"),
        "bessel1d.expm_kernel.calls": (calls["bessel1d.expm_kernel"],
                                       "count"),
        "bessel1d.kernel_fit.s": (busy["bessel1d.bessel_kernel_fit"]
                                  + busy["bessel1d.model_kernel_fit"], "s"),
        "bessel1d.semigroup_domination_check.self_s": (
            self_time["bessel1d.semigroup_domination_check"], "s"),
        "bessel1d.resolve.s": (busy["bessel1d.resolve"], "s"),
        "bessel1d.resolve.calls": (calls["bessel1d.resolve"], "count"),
        "bessel1d.assemble_form.s": (busy["bessel1d.assemble_form"], "s"),
    }
    for check_id in CHECK_IDS:
        metrics["harness.check.%s.s" % check_id] = (
            busy["harness.check." + check_id], "s")
    metrics.update({
        "multiplier.plan_init.s": (busy["multiplier.plan_init"], "s"),
        "multiplier.plan_init.calls": (calls["multiplier.plan_init"],
                                       "count"),
        "multiplier.plan_solve.s": (busy["multiplier.plan_solve"], "s"),
        "multiplier.plan_solve.calls": (calls["multiplier.plan_solve"],
                                        "count"),
        "multiplier.apply_operator.s": (busy["multiplier.apply_operator"],
                                        "s"),
        "multiplier.mode_solve.calls": (counts["multiplier.mode_solve"],
                                        "count"),
        "multiplier.form_bands.calls": (counts["multiplier.form_bands"],
                                        "count"),
        "multiplier.fft.s": (busy["multiplier.fft"], "s"),
        "multiplier.fft.calls": (calls["multiplier.fft"], "count"),
        "multiplier.mikhlin_bound_scan.s": (
            busy["multiplier.mikhlin_bound_scan"], "s"),
        "semigroup.evolve.self_s": (self_time["semigroup.evolve"], "s"),
        "semigroup.evolve.steps": (
            tracer.child_calls("multiplier.plan_solve", "semigroup.evolve"),
            "count"),
        "grid.write_field_csv.s": (busy["grid.write_field_csv"], "s"),
        "grid.write_field_csv.calls": (calls["grid.write_field_csv"],
                                       "count"),
        "grid.write_field_csv.mb": (tracer.output_bytes / 1e6, "MB"),
        "grid.lp_norm.s": (busy["grid.lp_norm"], "s"),
        "grid.lp_norm.calls": (calls["grid.lp_norm"], "count"),
        "cli.self_s": (self_time["cli.main"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    out = {name: {"value": value / n_rounds, "unit": unit}
           for name, (value, unit) in metrics.items()}
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall,
                               "unit": "s"}
    return out


def benchmark(args):
    run_dir = os.path.join(OUT, "%s-seed%d-pid%d" % (args.workload, args.seed,
                                                     os.getpid()))
    try:
        degenpde, wl, _ = setup(args.workload, args.seed,
                                os.path.join(run_dir, "inputs"))
        rounds = run_rounds(degenpde, wl, os.path.join(run_dir, "timed"),
                            seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall_s = statistics.median(r["wall"] for r in rounds)
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(degenpde)
            try:
                traced = run_rounds(degenpde, wl,
                                    os.path.join(run_dir, "traced"),
                                    count=len(rounds))
            finally:
                tracer.uninstall()
            traced_wall = statistics.median(r["wall"] for r in traced)
            span_file = os.path.join(OUT, "spans", "%s-seed%d.csv"
                                     % (args.workload, args.seed))
            tracer.write(span_file)
            print("span file: %s (%d spans)" % (
                os.path.relpath(span_file, ROOT), len(tracer.spans)))
            metrics = layer_metrics(tracer, len(traced), wall_s, traced_wall)
        else:
            traced = []
            output_mb = statistics.median(dir_bytes(r["dir"]) / 1e6
                                          for r in rounds)
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "setup_s": {"value": probe_setup(args.workload, args.seed,
                                                 run_dir),
                            "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "output_mb": {"value": output_mb, "unit": "MB"},
            }
        failed, problems = check_rounds(wl, rounds + traced)
        problems += ["companion: %s" % p for p in problems_of(wl.companion)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        print("CHECK FAILED: %s" % problem, file=sys.stderr)
    for name, m in metrics.items():
        print("%-52s %.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": not problems,
            "attempted": len(rounds) + len(traced), "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in a fresh process; prints every metric per workload,
    then one JSON object mapping each workload to its result."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        print("== %s: attempted %d, failed %d, correct %s" % (
            name, results[name]["attempted"], results[name]["failed"],
            results[name]["correct"]))
        for line in lines[:-1]:
            print("   " + line)
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all three when left out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        if args.setup_probe:
            _, _, seconds = setup(args.workload, args.seed, args.out)
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = benchmark(args)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
