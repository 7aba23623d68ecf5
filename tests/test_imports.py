"""`dnl_lab` loads no scipy anywhere.

`import dnl_lab.cli` and every run without a solve load no scipy module, and
the import loads no `numpy.polynomial` either.  A
solver run binds LAPACK `dgtsv` and BLAS `ddot` from the OpenBLAS that numpy
has mapped, and loads no scipy module and maps no scipy file.  Its `dgtsv`
gives the bits of scipy.linalg's, whichever of the solve and `import
scipy.linalg` comes first.  Each check runs in a fresh interpreter, because
this test session has imported scipy already.  The third-party modules
that `src/dnl_lab` imports, at any level, are exactly `[project]
dependencies`, and those of `tests/` lie within them and the `test` extra.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
with open(_ROOT / "bench" / "expected.json") as f:
    _OPS = sorted(json.load(f).items())
_GATED = [rec for _, rec in _OPS]
_CLOSED_FORM = [rec for op, rec in _OPS if op.startswith("closed-form-sweep/")]

# prints whether `import dnl_lab.cli` loaded numpy.polynomial, the exit codes
# of its runs through `cli.run`, the scipy modules that the import and the
# runs loaded, the modules that the runs loaded past the import and the
# argument parser, whether the solver bound its routines, and the files
# under scipy's package directory or `scipy.libs` that the process maps
# (None without /proc/self/maps)
_PROBE = """
import contextlib, importlib.util, io, json, os, sys
import dnl_lab.cli
polynomial = "numpy.polynomial" in sys.modules
dnl_lab.cli._parser()  # argparse's gettext loads locale once per process
imported = set(sys.modules)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(dnl_lab.cli.run(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = sorted(set(sys.modules) - imported)
bound = dnl_lab.solver._routines is not None
root = importlib.util.find_spec("scipy").submodule_search_locations[0]
dirs = (root + os.sep, os.path.join(os.path.dirname(root), "scipy.libs") + os.sep)
mapped = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as f:
        paths = {line.split(maxsplit=5)[-1].strip() for line in f}
    mapped = sorted(p for p in paths if p.startswith(dirs))
print(json.dumps({
    "polynomial": polynomial, "codes": codes, "scipy": scipy, "bound": bound,
    "mapped": mapped, "loaded": loaded,
}))
"""

# runs its steps in order ("solve": one `solve_banded` call on a band state
# holding a system whose elimination pivots, "linalg": `import scipy.linalg`,
# "spline": a closed form that reads a quadrature table), then solves the
# same system with scipy.linalg.lapack's `dgtsv`, and prints the values as hex
_COHERENCE = """
import json, sys
import numpy as np
from dnl_lab import solver
from dnl_lab.exact import DipoleSelfSimilar


def system():
    n = 16
    return (
        np.full(n - 1, -1.0), np.linspace(-2.0, 2.0, n), np.full(n - 1, 1.5),
        np.arange(1.0, n + 1),
    )


def hexes(x):
    return [v.hex() for v in x.tolist()]


out = {}
for step in json.loads(sys.argv[1]):
    if step == "solve":
        state = solver._State(16)
        state.lower[...], state.main[...], state.upper[...], state.F[...] = system()
        out["solve"] = hexes(solver.solve_banded(state))
    elif step == "linalg":
        import scipy.linalg
    else:
        u = DipoleSelfSimilar(n_dim=3, p=1.1).u_rt(np.geomspace(1e-3, 50, 40), 0.5)
        out["spline"] = hexes(u)
import scipy.linalg.lapack
out["scipy"] = hexes(scipy.linalg.lapack.dgtsv(*system())[3])
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
    # nor numpy.polynomial, which the self-similar tables' Gauss-Legendre
    # rule loads when a table is built: at import it would add 9 modules and
    # about 0.9 MB of peak RSS to every run
    got = _fresh(_PROBE, [])
    assert got["scipy"] == []
    assert got["polynomial"] is False


def test_closed_form_runs_load_no_scipy():
    assert len(_CLOSED_FORM) == 12
    got = _fresh(_PROBE, [rec["argv"] for rec in _CLOSED_FORM])
    assert got["codes"] == [rec["exit"] for rec in _CLOSED_FORM]
    assert got["scipy"] == []


def test_gated_runs_load_no_module_past_the_import():
    # each of the 25 benchmark operations loads no module that `import
    # dnl_lab.cli` has not loaded: `np.unique`, say, loads numpy.ma, and
    # adds about 0.8 MB of peak RSS to every run
    assert len(_GATED) == 25
    got = _fresh(_PROBE, [rec["argv"] for rec in _GATED])
    assert got["codes"] == [rec["exit"] for rec in _GATED]
    assert got["loaded"] == []


def test_self_similar_residuals_load_no_scipy():
    # the dipole and the log profile read f by quadrature in numpy alone,
    # and both residual orders converge
    got = _fresh(_PROBE, [
        ["exact-residual", "--family.id", "dipole_self_similar", "--family.N", "3",
         "--family.p", "1.1"],
        ["exact-residual", "--family.id", "special_log_profile"],
    ])
    assert got["codes"] == [0, 0]
    assert got["scipy"] == []


def test_solver_run_leaves_no_scipy_module():
    got = _fresh(_PROBE, [["solve", "--preset", "solver-supercritical-run"]])
    assert got["codes"] == [0]
    assert got["scipy"] == []
    assert got["bound"]


def test_solver_run_maps_no_scipy_file():
    # scipy's extensions and the OpenBLAS, libgfortran and libquadmath of
    # scipy.libs would add about 4 MB of resident memory
    got = _fresh(_PROBE, [["solve", "--preset", "solver-supercritical-run"]])
    if got["mapped"] is None:
        pytest.skip("no /proc/self/maps")
    assert got["codes"] == [0]
    assert got["mapped"] == []


@pytest.fixture(scope="module")
def never_solved():
    return _fresh(_COHERENCE, ["spline"])


@pytest.mark.parametrize(
    "order",
    [["solve", "spline"], ["linalg", "solve", "spline"], ["spline", "solve"]],
    ids=["solve-first", "linalg-first", "spline-first"],
)
def test_solver_and_scipy_linalg_share_routines(order, never_solved):
    # the same LAPACK routine from either library: the same bits, and the
    # table's do not depend on whether a solve ran first
    got = _fresh(_COHERENCE, order)
    assert got["solve"] == got["scipy"]
    assert got["spline"] == never_solved["spline"]


def _third_party_imports(directory):
    """The top-level modules that the .py files of `directory` import, in any
    scope, less the standard library, relative imports and `dnl_lab`."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"dnl_lab"}


def _declared():
    """The names in `[project] dependencies` and in the `test` extra."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with open(_ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements}

    return (
        names(project["dependencies"]),
        names(project["optional-dependencies"]["test"]),
    )


def test_declared_dependencies_are_the_imports():
    runtime, test = _declared()
    assert _third_party_imports(_ROOT / "src" / "dnl_lab") == runtime
    assert _third_party_imports(_ROOT / "tests") <= runtime | test
