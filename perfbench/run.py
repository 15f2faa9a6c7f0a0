"""symmix benchmark: one closed-loop client in one process, BLAS pinned to one thread.

Run from the repository root:

    python3 perfbench/run.py --workload mc_n100 --seed 7 --seconds 20 --trace 0

Workloads are ``mc_n100``, ``large_n``, ``rainfall`` and ``rainfall_loo`` (see
perfbench/README.md).  The run imports symmix from ``src/`` of the checkout
it sits in, sets up three times (input generation and one checked, untimed
warm-up operation), then runs checked operations back to back for
``--seconds`` and at least a fixed window whose counts repeat exactly for a
given seed.  Untraced operation times, and the set-up time, are divided by
a machine-speed probe timed around them (see speed.py).

Human-readable lines (metrics under the names of each workload, the sample
count, the environment) go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The exit code is 1 when any operation failed its check,
2 when symmix cannot be imported from the checkout.
"""

import os

# pinned before numpy loads its BLAS: the baseline is plain single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("mc_n100", "large_n", "rainfall", "rainfall_loo")
SETUP_REPS = 3
MODULES = ("weights", "contrast", "estimator", "density", "simulate", "cli")


def _evaluator_note(args, result):
    ev = args[0]
    kept = sum(getattr(v, "nbytes", 0) for v in vars(ev).values())
    return {"nodes": int(ev.u.size), "bytes": int(kept)}


def _fit_note(args, result):
    return {"agreeing": result.n_restarts_agreeing, "starts": result.manifest["starts"]}


def _u_grid_note(args, result):
    return {"u_nodes": int(result[0].size)}


# (module, attribute, span name, note, memory).  Each call is traced where
# it is looked up: the package attributes are what the workloads call, the
# symmix.cli ones what the density subcommand calls, so symmix.estimate_density
# is only the leave-one-out density.  Covariance inside fit and the density
# u-grid have no public entry point; those two hooks wrap private names, and
# a hook whose target is gone fails the traced run.
HOOKS = [
    ("symmix", "sample_mixture", "simulate.sample", None, False),
    ("symmix", "fit", "estimator.fit", _fit_note, False),
    ("symmix", "leave_one_out_thetas", "estimator.loo_thetas", None, False),
    ("symmix", "estimate_density", "density.loo", None, False),
    ("symmix.cli", "main", "cli.main", None, False),
    ("symmix.cli", "read_numeric_csv", "cli.read_csv", None, False),
    ("symmix.cli", "build_weight_rule", "weights.build", None, False),
    ("symmix.cli", "fit", "estimator.fit", _fit_note, False),
    ("symmix.cli", "estimate_density", "density.deconvolve", None, False),
    ("symmix.cli", "estimate_g", "density.kde", None, False),
    ("symmix.cli", "deconvolved_density_values", "density.recon", None, False),
    ("symmix.estimator", "build_weight_rule", "weights.build", None, False),
    ("symmix.estimator", "_covariance_with_fallback", "estimator.covariance", None, True),
    ("symmix.density", "_u_grid", "density.u_grid", _u_grid_note, False),
    ("symmix", "ContrastEvaluator.__init__", "contrast.precompute", _evaluator_note, True),
    ("symmix", "ContrastEvaluator.plugin", "contrast.plugin", None, False),
    ("symmix", "ContrastEvaluator.plugin_value_gradient", "contrast.value_grad", None, False),
]


class Ledger:
    """Attempted and failed operations; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, label, call, check, tracer, probe=None):
        """Run ``call`` in an operation span and check its output.

        Returns (seconds, probe seconds or None, output), or None on failure.
        """
        self.attempted += 1
        try:
            with tracer.span("op"):
                if probe is not None:
                    seconds, ref, out = probe.time(call)
                else:
                    start = time.perf_counter()
                    out = call()
                    seconds, ref = time.perf_counter() - start, None
            problem = check(out)
        except Exception:  # the benchmark counts the failure and goes on
            problem = traceback.format_exc()
        if problem:
            self.failures.append(f"operation {label}: {problem}")
            print(f"FAILED operation {label}: {problem}", file=sys.stderr)
            return None
        return seconds, ref, out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(name, seed, seconds, trace, workdir, import_s=0.0,
        import_ref=speed.SpeedProbe.nominal_s, setup_reps=SETUP_REPS, **sizes):
    """Run one workload; return a dict with the metrics, the ledger and report lines.

    ``import_s`` is the import time and ``import_ref`` the median time of
    the ``speed.SpeedProbe`` kernel around and during the import.
    """
    import workloads  # imports symmix, so only after main has put src/ on the path

    wl = workloads.make(name, seed, str(workdir), **sizes)
    ledger = Ledger()
    tracer = spans.Tracer() if trace else spans.NullTracer()
    probe = speed.probe_for(wl.probe_mib)
    setups = []     # (seconds, probe seconds) per set-up
    for rep in range(setup_reps):
        def set_up():
            wl.setup()
            ledger.attempt(f"warm-up {rep}", lambda: wl.op(-1 - rep), wl.check, tracer)
        setups.append(probe.time(set_up)[:2])
    # the probe's handler would run inside whatever span is open, so the
    # traced run reports raw operation seconds only
    op_probe = None if trace else probe

    install(tracer)
    times, refs, outs = [], [], []
    start = time.perf_counter()
    i = 0
    while i < wl.window or time.perf_counter() - start < seconds:
        tracer.op = i
        done = ledger.attempt(i, lambda: wl.op(i), wl.check, tracer, op_probe)
        if done:
            times.append(done[0])
            refs.append(done[1])
            outs.append((i, done[2]))
        i += 1
    tracer.unhook()

    result = {"ledger": ledger, "times": times, "setups": setups,
              "import": (import_s, import_ref), "nominal_s": probe.nominal_s}
    window_outs = [out for j, out in outs if j < wl.window]
    if trace:
        result["per_layer"] = layer_metrics(tracer.spans, wl, window_outs, times,
                                            overhead(wl, outs, tracer, ledger))
        result["tracer"] = tracer
    else:
        rel = [t / r for t, r in zip(times, refs)]
        result["probe_s"] = statistics.median(refs) if refs else 0.0
        result["end_to_end"] = {
            "setup_s": (setup_seconds(result), "s"),
            "op_p50_ref": (statistics.median(rel) if rel else 0.0, "ref"),
            "op_mean_ref": (statistics.fmean(rel) if rel else 0.0, "ref"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    result["report"] = report_lines(wl, result, window_outs)
    return result


def setup_seconds(result, scaled=True) -> float:
    """Import time plus the median set-up time.

    Scaled, each part is divided by the time of the probe kernel measured
    with it and multiplied by that kernel's ``nominal_s``: the seconds it
    would take on a machine as fast as the one the baseline was measured on.
    Import is scaled by the CPU kernel, set-ups by the workload's probe.
    """
    (import_s, import_ref), setups = result["import"], result["setups"]
    if not scaled:
        return import_s + statistics.median(s for s, _ in setups)
    return (import_s * speed.SpeedProbe.nominal_s / import_ref
            + statistics.median(s * result["nominal_s"] / ref for s, ref in setups))


def install(tracer):
    for module, attr, span_name, note, memory in HOOKS:
        tracer.hook(module, attr, span_name, note, memory)


def overhead(wl, outs, tracer, ledger) -> float:
    """Tracing overhead: the first inputs again, traced and untraced back to back.

    Each pair runs in alternating order under the speed probe, so the
    machine's phases cancel; returns sum(traced) / sum(untraced) - 1 in probe units.
    """
    probe = speed.probe_for(wl.probe_mib)
    sums = {True: 0.0, False: 0.0}
    tracer.op = "overhead"
    for k, (j, _) in enumerate(outs[: wl.overhead_ops]):
        for hooked in (True, False) if k % 2 == 0 else (False, True):
            if hooked:
                install(tracer)
            done = ledger.attempt(f"{j} {'traced' if hooked else 'untraced'} again",
                                  lambda: wl.op(j), wl.check, tracer, probe)
            tracer.unhook()
            if done:
                sums[hooked] += done[0] / done[1]
    return sums[True] / sums[False] - 1.0 if sums[False] > 0.0 else 0.0


def layer_metrics(spans_list, wl, window_outs, times, overhead) -> dict:
    """Per-layer metrics from the spans of the measured operations.

    Times are means per measured operation, so the module self times and the
    unattributed time add up to the mean traced operation time.  Counts are
    taken over the first ``wl.window`` operations and repeat exactly.
    """
    own = spans.self_times(spans_list)
    ops = max(len(times), 1)
    mib = 1024.0 * 1024.0
    total = defaultdict(float)       # inclusive seconds per span name
    self_s = defaultdict(float)      # self seconds per span name
    in_fit = defaultdict(float)      # seconds per span name directly under a fit
    notes = defaultdict(list)        # (span name, note key) -> values, window only
    evals = fits = measured = 0
    agree = []
    for k, s in enumerate(spans_list):
        if not isinstance(s.op, int):
            continue
        measured += 1
        total[s.name] += s.duration
        self_s[s.name] += own[k]
        parent = spans_list[s.parent].name if s.parent >= 0 else None
        if parent == "estimator.fit":
            in_fit[s.name] += s.duration
        if s.op >= wl.window:
            continue
        if s.name == "density.u_grid" and parent not in ("density.deconvolve", "density.loo"):
            continue    # the reconstruction column's grids are counted in recon_s only
        for key, value in (s.note or {}).items():
            notes[s.name, key].append(value)
        if s.name == "estimator.fit":
            fits += 1
            if s.note:
                agree.append(s.note["agreeing"] / s.note["starts"])
        elif parent == "estimator.fit" and s.name in ("contrast.plugin", "contrast.value_grad"):
            evals += 1

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def per_op(name):
        return total[name] / ops, "s"

    rmse = wl.rmse(window_outs) if hasattr(wl, "rmse") and window_outs else (0.0, 0.0)
    search = total["estimator.fit"] - sum(in_fit[n] for n in (
        "contrast.precompute", "estimator.covariance", "weights.build"))
    metrics = {
        "contrast.plugin_s": per_op("contrast.plugin"),
        "contrast.value_grad_s": per_op("contrast.value_grad"),
        "contrast.precompute_s": per_op("contrast.precompute"),
        "contrast.nodes": (mean(notes["contrast.precompute", "nodes"]), "count"),
        "contrast.precompute_bytes": (mean(notes["contrast.precompute", "bytes"]),
                                      "bytes_computed"),
        "contrast.precompute_peak_mib": (
            max(notes["contrast.precompute", "peak_bytes"], default=0) / mib, "MiB"),
        "estimator.evals_per_fit": (evals / fits if fits else 0.0, "count"),
        "estimator.search_s": (search / ops, "s"),
        "estimator.covariance_s": per_op("estimator.covariance"),
        "estimator.covariance_peak_mib": (
            max(notes["estimator.covariance", "peak_bytes"], default=0) / mib, "MiB"),
        "estimator.restarts_agreeing_frac": (mean(agree), "ratio"),
        "estimator.loo_thetas_s": per_op("estimator.loo_thetas"),
        "density.deconvolve_s": per_op("density.deconvolve"),
        "density.kde_s": per_op("density.kde"),
        "density.recon_s": per_op("density.recon"),
        "density.u_nodes": (mean(notes["density.u_grid", "u_nodes"]), "count"),
        "density.loo_s": per_op("density.loo"),
        "simulate.sample_s": per_op("simulate.sample"),
        "weights.build_s": per_op("weights.build"),
        "cli.read_csv_s": per_op("cli.read_csv"),
        "cli.overhead_s": (self_s["cli.main"] / ops, "s"),
        "rmse_p": (rmse[0], "1"),
        "rmse_loc": (rmse[1], "1"),
    }
    for m in MODULES:
        metrics[f"{m}.self_s"] = (sum(v for n, v in self_s.items()
                                      if n.split(".", 1)[0] == m) / ops, "s")
    metrics["trace.unattributed_s"] = (self_s["op"] / ops, "s")
    metrics["trace.op_s_mean"] = (mean(times), "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["trace.spans_per_op"] = (measured / ops, "count")
    return metrics


def report_lines(wl, result, window_outs) -> list[str]:
    """Metrics under each workload's own names, in seconds, with sample counts."""
    seconds_name, rate_name = {"rainfall": ("density_s", "densities_per_s"),
                               "rainfall_loo": ("loo_s", "loo_per_s")}.get(
                                   wl.name, ("fit_s", "fits_per_s"))
    ledger, times, setups = result["ledger"], result["times"], result["setups"]
    lines = [f"workload {wl.name}: {len(times)} measured operations, "
             f"{ledger.attempted} attempted, {len(ledger.failures)} failed"]
    rows = [("setup_s", setup_seconds(result), "s",
             f"import + median of {len(setups)} set-ups, rescaled to the probe's "
             f"nominal speed; raw {setup_seconds(result, scaled=False):.4f} s, "
             f"import {result['import'][0]:.3f} s")]
    if times:
        rows.append((f"{seconds_name}_p50", statistics.median(times), "s", f"n={len(times)}"))
        if len(times) >= 100:
            rows.append((f"{seconds_name}_p90", statistics.quantiles(times, n=10)[-1], "s",
                         f"n={len(times)}"))
        rows.append((rate_name, len(times) / sum(times), "1/s", f"n={len(times)}"))
    if "end_to_end" in result:
        e2e = result["end_to_end"]
        rows.append(("op_p50_ref", e2e["op_p50_ref"][0], "ref",
                     f"probe median {result['probe_s'] * 1e3:.4f} ms"))
        rows.append(("op_mean_ref", e2e["op_mean_ref"][0], "ref", ""))
        rows.append(("peak_rss_mib", e2e["peak_rss_mib"][0], "MiB", "getrusage"))
    rows.append(("fail_frac", len(ledger.failures) / ledger.attempted, "1",
                 f"of {ledger.attempted}"))
    if hasattr(wl, "rmse") and window_outs:
        rmse_p, rmse_loc = wl.rmse(window_outs)
        rows.append(("rmse_p", rmse_p, "1", f"first {len(window_outs)} fits"))
        rows.append(("rmse_loc", rmse_loc, "1", f"first {len(window_outs)} fits"))
        rows.append(("degenerate_fits", len(wl.degenerate), "count",
                     f"allowed up to {wl.degenerate_max} in a run"))
    lines += [f"  {n:<16} {v:14.6g} {u:<4} {note}" for n, v, u, note in rows]
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _load_symmix():
    import symmix
    import workloads  # noqa: F401

    return symmix


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symmix" / "__init__.py").is_file():
        print(f"error: no symmix sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy is loaded; symmix and scipy load under the probe, like each set-up
    loading = time.perf_counter()
    seconds, import_ref, symmix = speed.SpeedProbe().time(_load_symmix)
    import_s = loading - _T0 + seconds
    if not Path(symmix.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported symmix from {symmix.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, workdir,
                     import_s, import_ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result["tracer"].write(trace_path, {"workload": args.workload, "seed": args.seed,
                                            "seconds": args.seconds, "env": env})
        result["report"].append(f"spans written to {trace_path.relative_to(ROOT)}")
    metrics = result["per_layer" if args.trace else "end_to_end"]
    ledger = result["ledger"]
    for line in result["report"]:
        print(line)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not ledger.failures else 1


if __name__ == "__main__":
    sys.exit(main())
