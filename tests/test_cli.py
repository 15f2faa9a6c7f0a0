import json
import subprocess
import sys

import numpy as np
import pytest

from symmix import ContrastConfig, Sample, build_weight_rule, default_trunc_h, fit
from symmix.cli import main, rainfall_path, read_numeric_csv
from symmix.simulate import replication_rng


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def rainfall():
    return rainfall_path()


@pytest.fixture()
def two_component_csv(tmp_path):
    rng = replication_rng(4242, 0)
    labels = rng.random(150) < 0.3
    x = np.where(labels, -2.0, 3.0) + rng.standard_normal(150)
    path = tmp_path / "mix.csv"
    path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    return str(path)


# ------------------------------------------------------------------ ingestion


def test_rainfall_data_matches_known_summary(rainfall):
    x = read_numeric_csv(rainfall)
    assert x.size == 70
    assert np.mean(x) == pytest.approx(34.886, abs=1e-3)
    assert np.median(x) == pytest.approx(36.6, abs=1e-12)


def test_blank_field_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("val\n1.0\n2.0\n\n4.0\n" + "5.0\n" * 10)
    code, _, err = run_cli(["fit", str(path)], capsys)
    assert code == 2
    assert "line 4" in err


def test_non_numeric_field_names_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\n2.0\nbogus\n" + "4.0\n" * 12)
    code, _, err = run_cli(["fit", str(path)], capsys)
    assert code == 2
    assert "line 3" in err


def test_too_few_rows(tmp_path, capsys):
    path = tmp_path / "small.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    code, _, err = run_cli(["fit", str(path)], capsys)
    assert code == 2


def test_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["fit", str(tmp_path / "nope.csv")], capsys)
    assert code == 2


def test_second_column_used_when_first_is_text(tmp_path, capsys):
    rows = ["city,rain"] + [f"name{i},{20.0 + i}" for i in range(12)]
    path = tmp_path / "cols.csv"
    path.write_text("\n".join(rows) + "\n")
    x = read_numeric_csv(str(path))
    assert x.size == 12
    assert x[0] == 20.0


@pytest.mark.parametrize("header", ["", "rain\n"], ids=["no-header", "header"])
def test_byte_order_mark_keeps_every_value(tmp_path, header):
    # a spreadsheet's "CSV UTF-8" starts with a byte-order mark
    values = [float(v) for v in range(10, 21)]
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (header + "".join(f"{v!r}\n" for v in values)).encode())
    assert read_numeric_csv(str(path)).tolist() == values


# ------------------------------------------------------------------------ fit


def test_fit_rainfall_matches_reference(rainfall, capsys):
    code, out, _ = run_cli(["fit", rainfall], capsys)
    assert code == 0
    payload = json.loads(out)
    th = payload["theta_hat"]
    assert abs(th["p"] - 0.15) <= 0.05
    assert abs(th["alpha"] - 12.7) <= 2.0
    assert abs(th["beta"] - 38.5) <= 2.0
    assert payload["converged"] is True
    assert payload["manifest"]["input_sha256"]


def test_fit_output_deterministic(rainfall, capsys):
    code1, out1, _ = run_cli(["fit", rainfall], capsys)
    code2, out2, _ = run_cli(["fit", rainfall], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [["fit"], ["density"], ["scan", "--param", "beta",
                                                          "--range", "30:40:1"]],
                         ids=["fit", "density", "scan"])
def test_seed_flag_rejected_outside_simulate(rainfall, argv):
    # only simulate draws random numbers, so only simulate takes --seed
    with pytest.raises(SystemExit) as exc:
        main([argv[0], rainfall, *argv[1:], "--seed", "1"])
    assert exc.value.code == 2


# -------------------------------------------------------------------- density


def test_density_grid_row_count(rainfall, capsys):
    code, out, _ = run_cli(["density", rainfall, "--grid", "0:400:16"], capsys)
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[0] == "x,f_raw,f_tilde,g_n,g_reconstructed"
    assert len(lines) == 17


@pytest.mark.parametrize("argv, rows", [
    (["density", "RAIN", "--grid", "-40:80:301"], 301),
    (["scan", "RAIN", "--param", "alpha", "--range", "-1:1:5"], 5),
], ids=["density-grid", "scan-range"])
def test_negative_lower_bound_as_separate_value(rainfall, capsys, argv, rows):
    code, out, _ = run_cli([rainfall if a == "RAIN" else a for a in argv], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == rows + 1
    assert float(lines[1].split(",")[0]) == float(argv[-1].split(":")[0])


def test_density_reconstruction_matches_kde(two_component_csv, capsys):
    code, out, err = run_cli(["density", two_component_csv], capsys)
    assert code == 0
    rows = np.array([[float(v) for v in ln.split(",")]
                     for ln in out.strip().splitlines()[1:]])
    g_n, recon = rows[:, 3], rows[:, 4]
    assert np.max(np.abs(recon - g_n)) <= 1e-3 * np.max(g_n)
    meta = json.loads(err)
    assert 0.0 < meta["mass_kept"] <= 1.2


def test_density_theta_round_trip(rainfall, capsys, tmp_path):
    code, fit_out, _ = run_cli(["fit", rainfall], capsys)
    th = json.loads(fit_out)["theta_hat"]
    theta_arg = f"{th['p']!r},{th['alpha']!r},{th['beta']!r}"
    code1, one_shot, _ = run_cli(["density", rainfall], capsys)
    code2, explicit, _ = run_cli(["density", rainfall, "--theta", theta_arg], capsys)
    assert code1 == code2 == 0
    assert one_shot == explicit


def test_density_writes_sidecar(rainfall, tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(["density", rainfall, "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.exists()
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["mass_kept"] == pytest.approx(1.0364, abs=0.02)
    assert meta["renorm_factor"] == pytest.approx(0.9644, abs=0.02)
    assert meta["manifest"]["subcommand"] == "density"


# ------------------------------------------------------------------- simulate


def test_simulate_tiny_run(tmp_path, capsys):
    args = ["simulate", "--family", "gauss", "--theta0", "0.25,-1,2",
            "--n", "60", "--M", "2", "--seed", "7", "--out", str(tmp_path / "sim")]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    csv_text = (tmp_path / "sim.csv").read_text()
    assert csv_text.startswith("family,n,p0,alpha0,beta0,")
    archive = json.loads((tmp_path / "sim.json").read_text())
    assert archive["summary"]["replications"] == 2
    assert len(archive["summary"]["per_replication"]) == 2


def test_simulate_single_replication_empty_sds(capsys):
    args = ["simulate", "--family", "gauss", "--theta0", "0.25,-1,2",
            "--n", "60", "--M", "1", "--seed", "7"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[8] == row[9] == row[10] == ""


def test_simulate_jobs_byte_identical(tmp_path, capsys):
    base = ["simulate", "--family", "gauss", "--theta0", "0.3,-1,2",
            "--n", "60", "--M", "3", "--seed", "5"]
    run_cli(base + ["--jobs", "1", "--out", str(tmp_path / "a")], capsys)
    run_cli(base + ["--jobs", "2", "--out", str(tmp_path / "b")], capsys)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# a threaded pass in the parent first: a pool kept from it would have no threads in
# the forked workers, and they would hang
THREADED_THEN_MAIN = (
    "import sys; import numpy as np; "
    "from symmix import ContrastEvaluator, Sample, default_contrast_config; "
    "from symmix.cli import main; "
    "s = Sample(np.linspace(-3.0, 3.0, 20000)); ContrastEvaluator(s, default_contrast_config(s)); "
    "sys.exit(main(sys.argv[1:]))")


def test_simulate_jobs_with_threaded_passes_byte_identical(tmp_path, checkout_env):
    # at n = 20,000 every pass has 10 blocks, so the workers' passes run on threads
    base = [sys.executable, "-c", THREADED_THEN_MAIN, "simulate", "--family", "gauss",
            "--theta0", "0.25,-1,2", "--n", "20000", "--M", "2", "--seed", "7"]
    for jobs, name in (("1", "a"), ("2", "b")):
        proc = subprocess.run(base + ["--jobs", jobs, "--out", str(tmp_path / name)],
                              capture_output=True, text=True, env=checkout_env, timeout=300)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_simulate_seed_flag_and_variable(capsys, monkeypatch):
    base = ["simulate", "--family", "gauss", "--theta0", "0.25,-1,2", "--n", "60", "--M", "2"]
    _, seeded, _ = run_cli(base + ["--seed", "5"], capsys)
    _, other, _ = run_cli(base + ["--seed", "6"], capsys)
    monkeypatch.setenv("SYMMIX_SEED", "5")
    _, from_env, _ = run_cli(base, capsys)
    assert seeded == from_env
    assert seeded != other


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_invalid_seed_variable_rejected(capsys, monkeypatch, value):
    # without --seed, simulate falls back to SYMMIX_SEED and rejects a bad one
    monkeypatch.setenv("SYMMIX_SEED", value)
    code, out, err = run_cli(["simulate", "--family", "gauss", "--theta0", "0.25,-1,2",
                              "--n", "60", "--M", "1"], capsys)
    assert code == 2
    assert "SYMMIX_SEED" in err
    assert out == ""


def test_seed_variable_read_only_as_simulate_fallback(rainfall, capsys, monkeypatch):
    monkeypatch.setenv("SYMMIX_SEED", "abc")
    code, out, _ = run_cli(["fit", rainfall], capsys)
    assert code == 0 and "theta_hat" in json.loads(out)
    code, out, _ = run_cli(["simulate", "--family", "gauss", "--theta0", "0.25,-1,2",
                            "--n", "60", "--M", "1", "--seed", "5"], capsys)
    assert code == 0 and out.startswith("family,")


def test_simulate_invalid_spec(capsys):
    code, _, err = run_cli(["simulate", "--family", "gauss", "--theta0", "0.5,0,1",
                            "--n", "60", "--M", "2"], capsys)
    assert code == 2


# ----------------------------------------------------------------------- scan


def test_scan_single_step(rainfall, capsys):
    code, out, _ = run_cli(["scan", rainfall, "--param", "beta",
                            "--range", "30:40:1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,contrast,objective"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == repr(30.0)


def test_scan_minimum_near_fit(rainfall, capsys):
    code, fit_out, _ = run_cli(["fit", rainfall], capsys)
    beta_hat = json.loads(fit_out)["theta_hat"]["beta"]
    lo, hi, steps = beta_hat - 2.0, beta_hat + 2.0, 41
    code, out, _ = run_cli(["scan", rainfall, "--param", "beta",
                            "--range", f"{lo}:{hi}:{steps}"], capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    vals = np.array([float(r[0]) for r in rows])
    objective = np.array([float(r[2]) for r in rows])
    arg = vals[np.argmin(objective)]
    assert abs(arg - beta_hat) <= (hi - lo) / (steps - 1) + 1e-12


def test_scan_row_at_fit_repeats_fit_statistics(rainfall, capsys):
    _, fit_out, _ = run_cli(["fit", rainfall], capsys)
    payload = json.loads(fit_out)
    beta_hat = payload["theta_hat"]["beta"]
    code, out, _ = run_cli(["scan", rainfall, "--param", "beta",
                            "--range", f"{beta_hat!r}:{beta_hat!r}:1"], capsys)
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row == [repr(beta_hat), repr(payload["contrast"]), repr(payload["objective"])]


def test_scan_manifest_to_stderr_or_sidecar(rainfall, tmp_path, capsys):
    args = ["scan", rainfall, "--param", "p", "--range", "0.1:0.3:3"]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert json.loads(err)["manifest"]["subcommand"] == "scan"
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(args + ["--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text() == out
    sidecar = (tmp_path / "scan.csv.meta.json").read_text()
    assert sidecar == err
    assert sidecar.endswith("}\n")


# -------------------------------------------------------------- input errors

SIM = ["simulate", "--family", "gauss", "--theta0", "0.25,-1,2", "--n", "60", "--M", "2"]
EMPTY_WINDOW = "truncation window |u| <= 1/trunc_h holds no weight-rule node"


def test_csv_rows_equal_the_per_value_numpy_reprs():
    # density and scan lines come from Python floats; they must repeat the
    # repr(float(v)) of each numpy value byte for byte, signed zeros,
    # subnormals and the ends of the range included
    from symmix.cli import _csv_rows

    tiny = np.finfo(float).smallest_subnormal
    special = np.array([-0.0, 0.0, tiny, -tiny, 3.0 * tiny, 2.2250738585072014e-308,
                        -1e-300, 1e-300, 1e300, -1e300, np.finfo(float).max, 0.1, 1.0 / 3.0,
                        1e16, -123456789.0, 5e-324 * 2 ** 40])
    bits = np.random.default_rng(5).integers(0, 2 ** 63, (5, 512), dtype=np.uint64)
    # random bit patterns of both signs, exponents 0-2046: every class of finite double
    bits[:, ::2] |= np.uint64(2 ** 63)
    random = bits.view(float)
    random[~np.isfinite(random)] = -0.0
    cols = [np.concatenate([special, col[special.size:]]) for col in random]
    want = [",".join(repr(float(v)) for v in row) for row in zip(*cols)]
    assert _csv_rows(*cols) == want


@pytest.mark.parametrize("argv, message", [
    (["fit", "RAIN", "--starts", "0"], "starts must be >= 1"),
    (SIM + ["--starts", "0"], "starts must be >= 1"),
    (["fit", "RAIN", "--weight-nodes", "15"], "node_count must be an even integer >= 16"),
    # a rule this large would not fit in memory (see weights._MAX_NODE_COUNT)
    (["fit", "RAIN", "--weight-nodes", "100000000"],
     "node_count must be at most 65536, got 100000000"),
    (["fit", "RAIN", "--cutoff", "-1"], "cutoff must be positive"),
    (["fit", "RAIN", "--trunc-h", "0"], "trunc_h must be positive"),
    (["density", "RAIN", "--bandwidth", "-1"], "bandwidth must be positive"),
    (["density", "RAIN", "--grid", "0:1:8"], "grid needs at least 16 points"),
    (["fit", "CONST"], "sample has zero dispersion"),
    (["fit", "CONST", "--cutoff", "5"], "sample has zero dispersion"),
    (SIM + ["--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["fit", "RAIN", "--cutoff", "inf"], "cutoff must be finite"),
    (["fit", "RAIN", "--trunc-h", "inf"], "trunc_h must be finite"),
    (["density", "RAIN", "--bandwidth", "inf"], "bandwidth must be finite"),
    (["density", "RAIN", "--grid", "0:inf:64"], "grid bounds must be finite"),
    (["density", "RAIN", "--grid=-inf:0:64"], "grid bounds must be finite"),
    (["density", "RAIN", "--grid=-1e308:1e308:16"], "grid span must be finite"),
    (["density", "RAIN", "--grid=0:1e308:16"],
     "grid phases overflow: max(|x_min|, |x_max|) * u_max is not finite"),
    (["scan", "RAIN", "--param", "beta", "--range=nan:0:3"], "range bounds must be finite"),
    (["scan", "RAIN", "--param", "beta", "--range=0:inf:3"], "range bounds must be finite"),
    (["scan", "RAIN", "--param", "beta", "--range=-1e308:1e308:3"],
     "range span must be finite"),
    (["fit", "RAIN", "--trunc-h", "1e6"], EMPTY_WINDOW),
    (["fit", "RAIN", "--cutoff", "1e300"], EMPTY_WINDOW),
    (["density", "RAIN", "--cutoff", "1e300"], EMPTY_WINDOW),
    (["scan", "RAIN", "--param", "p", "--range", "0.1:0.3:3", "--trunc-h", "1e6"],
     EMPTY_WINDOW),
    (["fit", "RAIN", "--starts", "20"], "starts must be <= 9"),
    # checked before any work, on a path that runs no fit too
    (["density", "RAIN", "--theta", "0.3,12,40", "--starts", "99"], "starts must be <= 9"),
    (["fit", "RAIN", "--cutoff", "0"], "cutoff must be positive"),
    # a lambda that no draw of the family reads
    (SIM + ["--mix-lambda", "0.3"], "mix_lambda applies only to asym_gauss_mix"),
], ids=["fit-starts", "simulate-starts", "weight-nodes", "weight-nodes-above-bound", "cutoff", "trunc-h", "bandwidth",
        "grid", "constant", "constant-cutoff", "jobs", "cutoff-inf", "trunc-h-inf",
        "bandwidth-inf", "grid-hi-inf", "grid-lo-inf", "grid-span-inf", "grid-phase-inf",
        "range-nan", "range-hi-inf", "range-span-inf",
        "trunc-h-empty", "cutoff-empty", "density-cutoff-empty", "scan-trunc-h-empty",
        "starts-above-design", "density-theta-starts", "cutoff-zero", "mix-lambda"])
def test_invalid_flag_values_exit_2(rainfall, tmp_path, capsys, argv, message):
    const = tmp_path / "const.csv"
    const.write_text("5.0\n" * 12)
    argv = [{"RAIN": rainfall, "CONST": str(const)}.get(a, a) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("argv, target", [
    (["fit", "{rain}", "--out", "{tmp}/missing/fit.json"], "{tmp}/missing/fit.json"),
    (["scan", "{rain}", "--param", "p", "--range", "0.1:0.3:3", "--out", "{tmp}/scan.csv"],
     "{tmp}/scan.csv.meta.json"),
    (SIM + ["--out", "{tmp}/missing/sim"], "{tmp}/missing/sim.csv"),
    (SIM + ["--out", "{tmp}/sim"], "{tmp}/sim.json"),
], ids=["fit", "scan-sidecar", "simulate", "simulate-sidecar"])
def test_unwritable_out_exits_2(rainfall, tmp_path, capsys, argv, target):
    taken = ["scan.csv.meta.json", "sim.json"]      # the second files' paths
    for name in taken:
        (tmp_path / name).mkdir()
    code, out, err = run_cli([a.format(rain=rainfall, tmp=tmp_path) for a in argv], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {target.format(tmp=tmp_path)}: ")
    assert out == ""
    # no scan.csv or sim.csv: nothing the run wrote is left
    assert sorted(p.name for p in tmp_path.iterdir()) == taken


def test_library_value_error_is_not_input_error(rainfall, monkeypatch):
    # a ValueError from inside the library is a bug, not exit 2
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr("symmix.cli.fit", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["fit", rainfall])


def test_cli_entry_point_runs(checkout_env):
    proc = subprocess.run([sys.executable, "-m", "symmix.cli", "fit", rainfall_path()],
                          capture_output=True, text=True, env=checkout_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["theta_hat"]


@pytest.mark.parametrize("offset, flags", [
    (1024.0, []), (2.0 ** 20, []), (1e6, []),
    (0.0, ["--cutoff", "5"]), (0.0, ["--cutoff", "5", "--trunc-h", "0.5"])],
    ids=["1024", "2^20", "1e6", "cutoff", "cutoff-trunc-h"])
def test_cli_fit_equals_library_fit(rainfall, tmp_path, offset, flags):
    # the CLI's default contrast configuration comes from the fit's own frame,
    # and --cutoff and --trunc-h override that one rule
    path = tmp_path / "shifted.csv"
    path.write_text("".join(f"{float(v) + offset!r}\n" for v in read_numeric_csv(rainfall)))
    out = tmp_path / "fit.json"
    assert main(["fit", str(path), "--out", str(out)] + flags) == 0
    cli_theta = json.loads(out.read_text())["theta_hat"]
    sample = Sample(read_numeric_csv(str(path)))
    ccfg = None
    if flags:
        h = float(flags[3]) if len(flags) > 2 else default_trunc_h(sample.n, cutoff=5.0)
        ccfg = ContrastConfig(build_weight_rule(256, 5.0), h)
    lib_theta = fit(sample, ccfg=ccfg).theta_hat
    assert [repr(cli_theta[k]) for k in ("p", "alpha", "beta")] == \
        [repr(lib_theta.p), repr(lib_theta.alpha), repr(lib_theta.beta)]
