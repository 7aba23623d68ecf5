"""scipy is loaded only where it is called.

`import dnl_lab.cli` and every run without a solve load no scipy module; a
solver run loads `scipy.linalg` for LAPACK `dgtsv` and nothing else of
scipy.  Each check runs in a fresh interpreter, because this test session
has imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
with open(_ROOT / "bench" / "expected.json") as f:
    _CLOSED_FORM = [
        rec
        for op, rec in sorted(json.load(f).items())
        if op.startswith("closed-form-sweep/")
    ]

# prints the exit codes of `RUNS` through `cli.run`, then the scipy modules
# that the import and the runs loaded
_PROBE = """
import contextlib, io, json, sys
import dnl_lab.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(dnl_lab.cli.run(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _fresh_run(runs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _top(modules):
    """The scipy subpackages among `modules` (scipy.linalg, not its parts)."""
    return {".".join(m.split(".")[:2]) for m in modules if m != "scipy"}


def test_cli_import_loads_no_scipy():
    assert _fresh_run([])["scipy"] == []


def test_closed_form_runs_load_no_scipy():
    assert len(_CLOSED_FORM) == 12
    got = _fresh_run([rec["argv"] for rec in _CLOSED_FORM])
    assert got["codes"] == [rec["exit"] for rec in _CLOSED_FORM]
    assert got["scipy"] == []


def test_solver_run_loads_scipy_linalg_only():
    got = _fresh_run([["solve", "--preset", "solver-supercritical-run"]])
    assert got["codes"] == [0]
    assert "scipy.linalg" in got["scipy"]
    loaded = _top(got["scipy"])
    for unused in ("integrate", "interpolate", "special", "optimize"):
        assert f"scipy.{unused}" not in loaded
