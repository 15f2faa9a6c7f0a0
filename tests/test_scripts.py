import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd=None):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, cwd=cwd)


def test_run_rainfall_writes_its_results(tmp_path):
    proc = run_script("run_rainfall.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "results").iterdir())
    assert written == ["rainfall_curves.csv", "rainfall_curves.csv.meta.json",
                       "rainfall_fit.json"]


def test_run_tables_imports_and_parses_flags():
    # --help exits before any fit, after every name the script imports resolved
    proc = run_script("run_tables.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--quick" in proc.stdout


def test_code_lines_total_is_the_sum_of_the_modules():
    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    counts = {name: int(count) for count, name in rows}
    modules = {p.stem for p in (SCRIPTS.parent / "src" / "symmix").glob("*.py")}
    assert set(counts) == modules | {"total"}
    assert counts.pop("total") == sum(counts.values()) > 0
