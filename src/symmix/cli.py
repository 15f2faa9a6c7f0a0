"""Command-line front door: fit, density, simulate, scan.

Exit codes: 0 success, 2 malformed input file or invalid flag value, 3
degenerate fit, 4 density pathology.  All machine outputs embed a
deterministic run manifest (execution details like timestamps and worker
counts stay out of it, so reruns and different --jobs settings produce
byte-identical files).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .contrast import ContrastConfig
from .density import DensityConfig, deconvolved_density_values, default_bandwidth, \
    estimate_density, estimate_g
from .errors import DegenerateFit, DegenerateParam, EmptyPositivePart, SampleTooSmall, \
    SymmixError
from .estimator import (_MIN_N, FitConfig, _cutoff_and_trunc, _fit, _frame, _order_statistics,
                        _shift, fit)
from .params import EuclideanParam, Sample
from .simulate import FAMILIES, MCSummary, ScenarioSpec, run_scenario
from .weights import _NODE_COUNT, build_weight_rule

__all__ = ["main", "read_numeric_csv", "rainfall_path"]


class CliInputError(SymmixError):
    """Malformed command-line input or data file."""


@contextmanager
def _user_input():
    """Report the ValueError of an object built from flag values or data as bad input."""
    try:
        yield
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def rainfall_path() -> str:
    """Bundled 70-city annual precipitation dataset (inches)."""
    return os.path.join(os.path.dirname(__file__), "data", "rainfall.csv")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_float(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def read_numeric_csv(path: str) -> np.ndarray:
    """Read the first numeric column of a CSV (comma or whitespace delimited).

    A header row is tolerated; afterwards every row must provide a finite
    number in the chosen column.  Errors name the offending line.
    """
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # spoil the first value and make it look like a header
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc

    rows = [(i + 1, ln) for i, ln in enumerate(lines)]
    while rows and rows[-1][1].strip() == "":
        rows.pop()
    if not rows:
        raise CliInputError(f"{path}: file is empty")

    delim = "," if "," in rows[0][1] else None

    def split(ln: str) -> list[str]:
        return [t.strip() for t in ln.split(delim)]

    def numeric_column(ln: str) -> int | None:
        return next((j for j, tok in enumerate(split(ln))
                     if tok and _parse_float(tok) is not None), None)

    start = 0
    col = numeric_column(rows[0][1])
    if col is None:
        start = 1     # header row
        if len(rows) == 1:
            raise CliInputError(f"{path}: no numeric data after header")
        col = numeric_column(rows[1][1])
        if col is None:
            raise CliInputError(f"{path}: line 2: no numeric column found")

    values = []
    for lineno, ln in rows[start:]:
        fields = split(ln)
        if col >= len(fields) or fields[col] == "":
            raise CliInputError(f"{path}: line {lineno}: blank or missing numeric field")
        v = _parse_float(fields[col])
        if v is None:
            raise CliInputError(f"{path}: line {lineno}: non-numeric value {fields[col]!r}")
        if not np.isfinite(v):
            raise CliInputError(f"{path}: line {lineno}: non-finite value {fields[col]!r}")
        values.append(v)
    return np.asarray(values, dtype=float)


def _load(args) -> tuple[Sample, ContrastConfig]:
    """The sample in args.csv_path and the contrast configuration its flags select."""
    values = read_numeric_csv(args.csv_path)
    if values.size < _MIN_N:
        raise CliInputError(
            f"{args.csv_path}: need at least {_MIN_N} observations, got {values.size}")
    with _user_input():
        # the fit's frame and scale, as in default_contrast_config, and the
        # fit's own default rule, which --cutoff and --trunc-h override;
        # rejects constant data, --cutoff or not
        scale = _order_statistics(values)[1]
        cutoff, trunc_h = _cutoff_and_trunc(values.size, scale, args.cutoff, args.trunc_h)
        rule = build_weight_rule(args.weight_nodes, cutoff)
        return Sample(values), ContrastConfig(rule, trunc_h)


def _config_echo(args, sample: Sample, ccfg: ContrastConfig, **extra) -> dict:
    return {"weight_nodes": ccfg.weight_rule.node_count, "cutoff": ccfg.weight_rule.cutoff,
            "trunc_h": ccfg.trunc_h, "starts": args.starts, "n": sample.n, **extra}


def _manifest(subcommand: str, config: dict, path: str | None = None,
              seed: int | None = None) -> dict:
    """Deterministic run manifest: configuration echo, input checksum, seed and version."""
    return {"subcommand": subcommand, "input_path": path,
            "input_sha256": None if path is None else _sha256(path),
            "config": config, "seed": seed, "version": __version__}


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(*files: tuple[str, str]):
    """Write each (path, text); if one fails, remove those already opened and exit 2."""
    opened = []
    try:
        for path, text in files:
            with open(path, "w", encoding="utf-8") as fh:
                opened.append(path)
                fh.write(text)
    except OSError as exc:
        for done in opened:
            with suppress(OSError):
                os.remove(done)
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _emit(out: str | None, text: str, meta: dict | None = None):
    """Main text to `out` or stdout; the JSON sidecar `meta` to `out`.meta.json or stderr."""
    if out:
        sidecar = [] if meta is None else [(out + ".meta.json", _dump(meta))]
        _write((out, text), *sidecar)
    else:
        sys.stdout.write(text)
        if meta is not None:
            sys.stderr.write(_dump(meta))


def _theta(text: str) -> EuclideanParam:
    """argparse type of --theta and --theta0: p,alpha,beta."""
    parts = text.split(",")
    if len(parts) != 3:
        raise CliInputError(f"--theta expects p,alpha,beta, got {text!r}")
    vals = [_parse_float(p) for p in parts]
    if any(v is None for v in vals):
        raise CliInputError(f"--theta expects three numbers, got {text!r}")
    try:
        return EuclideanParam(*vals)
    except DegenerateParam as exc:
        raise CliInputError(f"--theta invalid: {exc}") from exc


def _triple(flag: str):
    """argparse type of `flag`, lo:hi:count with count >= 1."""
    def parse(text: str) -> tuple[float, float, int]:
        parts = text.replace(":", " ").split()
        if len(parts) != 3:
            raise CliInputError(f"{flag} expects lo:hi:count, got {text!r}")
        lo, hi = _parse_float(parts[0]), _parse_float(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            count = None
        if lo is None or hi is None or count is None or count < 1:
            raise CliInputError(f"{flag} expects lo:hi:count with count >= 1, got {text!r}")
        return lo, hi, count
    return parse


def _jobs(text: str) -> int:
    """argparse type of --jobs, an integer >= 1."""
    jobs = int(text)
    if jobs < 1:
        raise CliInputError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _starts(text: str) -> int:
    """argparse type of --starts, a start count FitConfig accepts: checked before any work."""
    starts = int(text)
    with _user_input():
        return FitConfig(starts=starts).starts


# argparse names the type in its message for a value int() rejects
_jobs.__name__ = _starts.__name__ = "int"


def cmd_fit(args) -> int:
    sample, ccfg = _load(args)
    payload = fit(sample, FitConfig(starts=args.starts), ccfg).to_dict()
    payload["manifest"] = {**payload["manifest"],
                           **_manifest("fit", _config_echo(args, sample, ccfg), args.csv_path)}
    _emit(args.out, _dump(payload))
    return 0


def cmd_density(args) -> int:
    sample, ccfg = _load(args)
    bandwidth = args.bandwidth if args.bandwidth is not None else default_bandwidth(sample.n)
    with _user_input():
        dcfg = DensityConfig(bandwidth=bandwidth, grid=args.grid)
    theta = args.theta or fit(sample, FitConfig(starts=args.starts), ccfg).theta_hat
    curve = estimate_density(sample, theta, dcfg)
    g_curve = estimate_g(sample, dcfg, xs=curve.xs)
    # reconstruction column evaluates f at the shifted points exactly, so the
    # identity with g_n holds at quadrature precision on any output grid; one
    # call takes both shifts, so the data's phases and the u-grid are built once
    shifted = np.concatenate([curve.xs - theta.alpha, curve.xs - theta.beta])
    fa, fb = np.split(deconvolved_density_values(sample, theta, bandwidth, shifted), 2)
    recon = theta.p * fa + (1.0 - theta.p) * fb

    lines = ["x,f_raw,f_tilde,g_n,g_reconstructed"]
    for i in range(curve.xs.size):
        lines.append(",".join(repr(float(v)) for v in
                              (curve.xs[i], curve.f_raw[i], curve.f_tilde[i],
                               g_curve.values[i], recon[i])))
    config = _config_echo(args, sample, ccfg, bandwidth=bandwidth,
                          grid=list(args.grid) if args.grid else None, theta=asdict(theta))
    _emit(args.out, "\n".join(lines) + "\n",
          {**curve.metadata(), "manifest": _manifest("density", config, args.csv_path)})
    return 0


def _summary_csv(summary: MCSummary) -> str:
    spec = summary.spec
    head = ("family,n,p0,alpha0,beta0,mean_p,mean_alpha,mean_beta,"
            "sd_p,sd_alpha,sd_beta,failures")
    mtxt, stxt = (",".join([""] * 3 if v is None else [repr(float(x)) for x in v])
                  for v in (summary.empirical_means, summary.empirical_sds))
    row = (f"{spec.family},{spec.n},{spec.theta0.p!r},{spec.theta0.alpha!r},"
           f"{spec.theta0.beta!r},{mtxt},{stxt},{summary.failures}")
    return head + "\n" + row + "\n"


def _env_seed() -> int:
    """Seed fallback from SYMMIX_SEED: unset or empty means 0, else a nonnegative integer."""
    text = os.environ.get("SYMMIX_SEED")
    if not text:
        return 0
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise CliInputError(f"SYMMIX_SEED must be a nonnegative integer, got {text!r}")


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    with _user_input():
        spec = ScenarioSpec(family=args.family, theta0=args.theta0, n=args.n,
                            replications=args.M, seed=seed, mix_lambda=args.mix_lambda)
    summary = run_scenario(spec, FitConfig(starts=args.starts), jobs=args.jobs)
    csv_text = _summary_csv(summary)
    if not args.out:
        sys.stdout.write(csv_text)
        return 0
    config = {"family": spec.family, "n": spec.n, "M": spec.replications,
              "theta0": [spec.theta0.p, spec.theta0.alpha, spec.theta0.beta],
              "mix_lambda": spec.mix_lambda, "starts": args.starts}
    _write((args.out + ".csv", csv_text),
           (args.out + ".json", _dump({"manifest": _manifest("simulate", config, seed=spec.seed),
                                       "summary": summary.to_dict()})))
    return 0


def cmd_scan(args) -> int:
    lo, hi, steps = args.range
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise CliInputError("range bounds must be finite")
    if not np.isfinite(hi - lo):
        raise CliInputError("range span must be finite")
    sample, ccfg = _load(args)
    # scanned on the fit's own evaluator in the fit's frame, so the row at
    # theta_hat repeats the fit's contrast and objective
    frame = _frame(sample, ccfg)
    theta = _fit(frame, FitConfig(starts=args.starts)).theta_hat

    lines = [f"{args.param},contrast,objective"]
    for v in np.linspace(lo, hi, steps):
        try:
            th = _shift(replace(theta, **{args.param: float(v)}), -frame.m)
        except DegenerateParam:
            lines.append(f"{float(v)!r},,")
            continue
        lines.append(f"{float(v)!r},{frame.ev.u_statistic(th)!r},{frame.ev.plugin(th)!r}")

    config = _config_echo(args, sample, ccfg, param=args.param, range=[lo, hi, steps],
                          theta_hat=asdict(theta))
    _emit(args.out, "\n".join(lines) + "\n", {"manifest": _manifest("scan", config, args.csv_path)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symmix",
        description="Two-component symmetric-location mixture estimation "
                    "via Fourier-domain contrast minimization")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def fitting(p, with_input=True):
        if with_input:
            p.add_argument("csv_path", help="CSV file with one numeric column")
            p.add_argument("--weight-nodes", type=int, default=_NODE_COUNT)
            p.add_argument("--cutoff", type=float, default=None,
                           help="frequency cutoff (default: scale-aware)")
            p.add_argument("--trunc-h", type=float, default=None,
                           help="Fourier truncation h (default: n-rule)")
        p.add_argument("--starts", type=_starts, default=FitConfig.starts)
        p.add_argument("--out", default=None)

    p_fit = sub.add_parser("fit", help="estimate (p, alpha, beta)")
    fitting(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_den = sub.add_parser("density", help="deconvolve the component density")
    fitting(p_den)
    p_den.add_argument("--bandwidth", type=float, default=None)
    p_den.add_argument("--grid", type=_triple("--grid"), default=None, help="lo:hi:points")
    p_den.add_argument("--theta", type=_theta, default=None, help="p,alpha,beta (skip fitting)")
    p_den.set_defaults(func=cmd_density)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study of the estimator")
    fitting(p_sim, with_input=False)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="replication seed (default: SYMMIX_SEED, else 0)")
    p_sim.add_argument("--family", required=True, choices=FAMILIES)
    p_sim.add_argument("--theta0", type=_theta, required=True, help="p,alpha,beta")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--M", type=int, required=True)
    p_sim.add_argument("--mix-lambda", type=float, default=None)
    p_sim.add_argument("--jobs", type=_jobs, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_scan = sub.add_parser("scan", help="profile the contrast along one coordinate")
    fitting(p_scan)
    p_scan.add_argument("--param", required=True, choices=["p", "alpha", "beta"])
    p_scan.add_argument("--range", type=_triple("--range"), required=True, help="lo:hi:steps")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate value such as -40:80:301 as an option;
    # joined to its flag (--grid=-40:80:301) a negative lower bound is a value
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--grid", "--range"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CliInputError, SampleTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateFit, DegenerateParam) as exc:
        print(f"degenerate fit: {exc}", file=sys.stderr)
        return 3
    except EmptyPositivePart as exc:
        print(f"density pathology: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
