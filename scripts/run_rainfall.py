#!/usr/bin/env python3
"""Analyze the bundled 70-city precipitation dataset.

Runs `symmix fit` and then `symmix density` at the fitted parameters on the
bundled data, writing results/rainfall_fit.json plus
results/rainfall_curves.csv (columns x, f_raw, f_tilde, g_n,
g_reconstructed, with its .meta.json) for external plotting.

Usage:
    python scripts/run_rainfall.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from symmix.cli import main as cli_main, rainfall_path  # noqa: E402

FIT_OUT = "results/rainfall_fit.json"
CURVES_OUT = "results/rainfall_curves.csv"


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    os.makedirs("results", exist_ok=True)
    if cli_main(["fit", rainfall_path(), "--out", FIT_OUT]) != 0:
        return 1
    res = _read_json(FIT_OUT)
    th = res["theta_hat"]
    print(f"fitted parameters: p={th['p']:.4f} alpha={th['alpha']:.3f} beta={th['beta']:.3f}")
    print(f"standard errors:   {np.round(res['std_errors'], 4).tolist()}")

    theta = f"{th['p']!r},{th['alpha']!r},{th['beta']!r}"
    if cli_main(["density", rainfall_path(), "--theta", theta, "--out", CURVES_OUT]) != 0:
        return 1
    meta = _read_json(CURVES_OUT + ".meta.json")
    print(f"bandwidth={meta['bandwidth']:.4f} mass_kept={meta['mass_kept']:.4f} "
          f"renorm_factor={meta['renorm_factor']:.4f}")
    print(f"wrote {FIT_OUT} and {CURVES_OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
