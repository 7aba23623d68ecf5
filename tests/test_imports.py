"""scipy is loaded only where it is called.

`import dnl_lab.cli` and every run without a solve load no scipy module.  A
solver run binds LAPACK `dgtsv` and BLAS `ddot` from scipy.linalg's
extension files and leaves no scipy module in `sys.modules`; whichever of
the solve and `import scipy.linalg` comes first, the package then exports
the very routines the solver holds.  Each check runs in a fresh
interpreter, because this test session has imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
with open(_ROOT / "bench" / "expected.json") as f:
    _CLOSED_FORM = [
        rec
        for op, rec in sorted(json.load(f).items())
        if op.startswith("closed-form-sweep/")
    ]

# prints the exit codes of its runs through `cli.run`, the scipy modules that
# the import and the runs loaded, and whether the solver bound `dgtsv`
_PROBE = """
import contextlib, io, json, sys
import dnl_lab.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(dnl_lab.cli.run(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
bound = dnl_lab.solver._dgtsv is not None
print(json.dumps({"codes": codes, "scipy": scipy, "bound": bound}))
"""

# runs its steps in order ("solve": one `solve_banded` call, "linalg":
# `import scipy.linalg`, "spline": a closed form whose table is a
# CubicSpline), then prints the closed form's values as hex and, after a
# solve, whether scipy.linalg exports the solver's routines
_COHERENCE = """
import json, sys
import numpy as np
from dnl_lab import solver
from dnl_lab.exact import DipoleSelfSimilar

out = {}
for step in json.loads(sys.argv[1]):
    if step == "solve":
        n = 16
        solver.solve_banded(
            np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0),
            np.ones(n),
        )
    elif step == "linalg":
        import scipy.linalg
    else:
        u = DipoleSelfSimilar(n_dim=3, p=1.1).u_rt(np.geomspace(1e-3, 50, 40), 0.5)
        out["spline"] = [v.hex() for v in u.tolist()]
if solver._dgtsv is not None:
    import scipy.linalg
    out["same"] = [
        scipy.linalg._flapack.dgtsv is solver._dgtsv,
        scipy.linalg._fblas.ddot is solver._ddot,
        scipy.linalg.lapack.dgtsv is solver._dgtsv,
        scipy.linalg.blas.ddot is solver._ddot,
    ]
print(json.dumps(out))
"""


def _fresh(script, arg):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(arg)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy():
    assert _fresh(_PROBE, [])["scipy"] == []


def test_closed_form_runs_load_no_scipy():
    assert len(_CLOSED_FORM) == 12
    got = _fresh(_PROBE, [rec["argv"] for rec in _CLOSED_FORM])
    assert got["codes"] == [rec["exit"] for rec in _CLOSED_FORM]
    assert got["scipy"] == []


def test_solver_run_leaves_no_scipy_module():
    got = _fresh(_PROBE, [["solve", "--preset", "solver-supercritical-run"]])
    assert got["codes"] == [0]
    assert got["scipy"] == []
    assert got["bound"]


@pytest.fixture(scope="module")
def never_solved():
    return _fresh(_COHERENCE, ["spline"])


@pytest.mark.parametrize(
    "order",
    [["solve", "spline"], ["linalg", "solve", "spline"], ["spline", "solve"]],
    ids=["solve-first", "linalg-first", "spline-first"],
)
def test_solver_and_scipy_linalg_share_routines(order, never_solved):
    got = _fresh(_COHERENCE, order)
    assert got["same"] == [True] * 4
    assert got["spline"] == never_solved["spline"]
