"""Startup cost: rank-only commands never load scipy, and synth still works.

Each check runs in a fresh interpreter, because the test session itself
imports scipy (``test_algebra`` does).
"""
import os
import subprocess
import sys
from pathlib import Path

from coptree import generate_synthetic, load_synthetic_spec

ROOT = Path(__file__).resolve().parent.parent
HOUSING = ROOT / "data" / "housing.csv"
SPEC = ROOT / "data" / "synthetic_spec.json"


def run_fresh(code: str, tmp_path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_learn_and_measure_never_import_scipy(tmp_path):
    code = f"""
import sys
import coptree
import coptree.cli
from coptree import cli
assert "scipy" not in sys.modules, "import"
assert cli.main(["learn", "--input", {str(HOUSING)!r}, "--json", "tree.json",
                 "--dot", "tree.dot"]) == 0
assert cli.main(["learn", "--input", {str(HOUSING)!r}, "--measure", "rho",
                 "--json", "rho.json"]) == 0
for measure in ("rho", "mi-cell"):
    assert cli.main(["measure", "--input", {str(HOUSING)!r}, "--pair", "medv,lstat",
                     "--measure", measure]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    proc = run_fresh(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_synth_in_a_fresh_process_matches_in_process(tmp_path):
    code = f"""
import sys
from coptree import cli
sys.exit(cli.main(["synth", "--spec", {str(SPEC)!r}, "--output", "synth.csv",
                   "--seed", "7"]))
"""
    proc = run_fresh(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    data = generate_synthetic(load_synthetic_spec(SPEC), seed=7)
    expected = ",".join(data.columns) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in data.values
    )
    assert (tmp_path / "synth.csv").read_text(encoding="utf-8") == expected
