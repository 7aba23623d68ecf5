"""Configuration-driven experiment runner.

Subcommands expose the library pipelines; every experiment is described by a
plain-text config tree (sections of key = value lines), optionally loaded
from a file, optionally a named preset, with ``--section.key value`` (or a
bare ``--key value`` when unambiguous for the subcommand) overriding single
entries.  Results go to ``<prefix>.csv`` plus a ``<prefix>.meta`` echo of the
fully resolved config, or to stdout when no prefix is given.

Exit codes: 0 for a "bounded" diagnostic verdict or a passed check, 2 for any
other verdict or a failed check (the expected outcome for counterexample
presets), 1 for errors.

Config grammar::

    # comment
    [section]
    key = value          # scalar
    radii = 0.5,1,2      # comma-separated list

No RNG and no wall-clock enter any pipeline: identical configs give
byte-identical CSV output.
"""

import argparse
import sys

import numpy as np

from .core import ExponentTriple, Grid1D, classify
from . import exact
from .exact import (
    FAMILIES,
    make_family,
    residual_order,
    derive_critical_b_report,
)
from .solver import (
    CauchyDirichletProblem,
    SolverConfig,
    StepFailure,
    solve,
    check_comparison,
)
from . import diagnostics as dg
from .porous import (
    FiltrationLaw,
    StateEquation,
    MediumParams,
    to_dnl,
    verify_mapping,
    reynolds_regime,
    NotPowerLaw,
)


class ConfigError(ValueError):
    """Config parse/validation error with source location."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


# Allowed sections and keys; unknown entries are rejected with location info.
SCHEMA = {
    "exponents": {"p", "q", "N"},
    "family": {"id", "p", "q", "N", "T", "C", "a", "b", "r0", "h", "rmin"},
    "grid": {"x_lo", "x_hi", "n_cells", "geometry"},
    "solver": {
        "dt",
        "t_end",
        "t_start",
        "newton_tol",
        "max_newton",
        "floor_eps",
        "flux_mean",
        "boundary",
        "initial",
        "initial_scale",
    },
    "comparison": {"enabled", "initial_b", "scale_b", "tol"},
    "probes": {
        "x_o",
        "t_o",
        "radii",
        "sigma",
        "lattice",
        "rho",
        "s",
        "r",
        "M",
        "alpha",
        "delta_scan",
    },
    "residual": {
        "h_sequence",
        "r_lo",
        "r_hi",
        "t_lo",
        "t_hi",
        "n_r",
        "n_t",
        "derive_b",
    },
    "model": {
        "law",
        "alpha",
        "a",
        "b",
        "state",
        "n",
        "K",
        "porosity",
        "viscosity",
        "prefactor",
        "m",
        "reynolds",
    },
    "output": {"prefix"},
}

def parse_config_text(text):
    """Parse the section/key-value grammar into {section: {key: str}}."""
    tree = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header", lineno, col)
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno, col)
            tree.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", lineno, col)
        if section is None:
            raise ConfigError("key outside any [section]", lineno, col)
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in SCHEMA[section]:
            keycol = raw.index(key) + 1
            raise ConfigError(
                f"unknown key {key!r} in section [{section}]", lineno, keycol
            )
        tree[section][key] = value.strip()
    return tree


def serialize_config(tree):
    lines = []
    for section in sorted(tree):
        lines.append(f"[{section}]")
        for key in sorted(tree[section]):
            lines.append(f"{key} = {tree[section][key]}")
        lines.append("")
    return "\n".join(lines)


def _merge(base, extra):
    out = {s: dict(kv) for s, kv in base.items()}
    for s, kv in extra.items():
        out.setdefault(s, {}).update(kv)
    return out


def _get(cfg, section, key, conv=str, default=None):
    try:
        raw = cfg[section][key]
    except KeyError:
        if default is not None:
            return default
        raise ConfigError(f"missing required key [{section}] {key}")
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}")


def _floats(raw):
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _some_floats(raw):
    """A comma-separated list that must hold at least one number."""
    values = _floats(raw)
    if not values:
        raise ValueError("empty list")
    return values


def _bool(raw):
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def fmt(x):
    """17-significant-digit CSV number formatting."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


class Output:
    """Collects CSV lines + meta text; writes files or stdout."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.header = None
        self.lines = []  # finished CSV body lines, without newlines
        self.meta_lines = []

    def set_header(self, cols):
        self.header = list(cols)

    def add_row(self, values):
        self.lines.append(",".join([fmt(v) for v in values]))

    def add_lines(self, lines):
        """Append finished CSV body lines (cells already formatted)."""
        self.lines.extend(lines)

    def add_report(self, report):
        rows = report.csv_rows()
        if rows:
            cols = list(rows[0].keys())
            self.set_header(cols)
            for row in rows:
                self.add_row([row[c] for c in cols])
        self.meta_lines.append(report.summary_line())
        for key, value in report.extras.items():
            self.meta_lines.append(f"{key},{fmt(value)}")

    def meta(self, line):
        self.meta_lines.append(line)

    def emit(self, cfg):
        csv_text = ""
        if self.header:
            csv_text = ",".join(self.header) + "\n"
        if self.lines:
            csv_text += "\n".join(self.lines) + "\n"
        meta_text = serialize_config(cfg)
        if self.meta_lines:
            meta_text += "\n".join(self.meta_lines) + "\n"
        if self.prefix:
            with open(self.prefix + ".csv", "w") as f:
                f.write(csv_text)
            with open(self.prefix + ".meta", "w") as f:
                f.write(meta_text)
        else:
            sys.stdout.write(csv_text)
            sys.stdout.write(meta_text)


# ---------------------------------------------------------------------------
# building blocks shared by pipelines


_PROFILES = {
    "cos_bump": lambda xi: np.cos(np.pi * xi / 2) ** 2,
    "steep_bump": lambda xi: np.cos(np.pi * xi / 2) ** 8,
    "compact_bump": lambda xi: np.clip(1 - xi, 0, None) ** 2,
    "inner_bump": lambda xi: np.where(
        xi < 0.2, np.cos(np.pi * xi / 0.4) ** 2, 0.0
    ),
}


def build_grid(cfg):
    return Grid1D(
        _get(cfg, "grid", "x_lo", float, 0.0),
        _get(cfg, "grid", "x_hi", float),
        _get(cfg, "grid", "n_cells", int),
        _get(cfg, "grid", "geometry", str, "radial"),
        _get(cfg, "exponents", "N", int),
    )


def build_exponents(cfg):
    return ExponentTriple(
        _get(cfg, "exponents", "p", float),
        _get(cfg, "exponents", "q", float),
        _get(cfg, "exponents", "N", int),
    )


def build_family(cfg):
    fid = _get(cfg, "family", "id")
    if fid not in FAMILIES:
        raise ConfigError(
            f"unknown family {fid!r}; available: {', '.join(sorted(FAMILIES))}"
        )
    params = {}
    for key, target in (
        ("p", "p"),
        ("q", "q"),
        ("N", "n_dim"),
        ("T", "T"),
        ("C", "C"),
        ("a", "a"),
        ("b", "b"),
        ("r0", "r0"),
        ("h", "h"),
        ("rmin", "rmin"),
    ):
        if key in cfg.get("family", {}):
            raw = cfg["family"][key]
            params[target] = int(raw) if target == "n_dim" else float(raw)
    return make_family(fid, **params)


def run_solver(cfg):
    e = build_exponents(cfg)
    g = build_grid(cfg)
    name = _get(cfg, "solver", "initial", str, "cos_bump")
    if name not in _PROFILES:
        raise ConfigError(
            f"unknown initial profile {name!r}; "
            f"available: {', '.join(sorted(_PROFILES))}"
        )
    xi = (g.centers() - g.x_lo) / (g.x_hi - g.x_lo)
    u0 = _PROFILES[name](xi) * _get(cfg, "solver", "initial_scale", float, 1.0)
    pr = CauchyDirichletProblem(
        e,
        g,
        u0,
        _get(cfg, "solver", "t_end", float),
        boundary=_get(cfg, "solver", "boundary", str, "zero_dirichlet"),
        t_start=_get(cfg, "solver", "t_start", float, 0.0),
    )
    sc = SolverConfig(
        dt=_get(cfg, "solver", "dt", float, 1e-3),
        newton_tol=_get(cfg, "solver", "newton_tol", float, 1e-10),
        max_newton=_get(cfg, "solver", "max_newton", int, 40),
        floor_eps=_get(cfg, "solver", "floor_eps", float, 0.0),
        flux_mean=_get(cfg, "solver", "flux_mean", str, "arithmetic"),
    )
    return solve(pr, sc)


def solved_source(cfg):
    """Numeric run, even when a [family] is set."""
    return dg.SolutionSource(run_solver(cfg))


def build_source(cfg):
    """Closed-form source if [family] id is set, numeric run otherwise."""
    if "family" in cfg and "id" in cfg["family"]:
        return dg.SolutionSource(build_family(cfg))
    return solved_source(cfg)


def _report(out, rep):
    """Write a diagnostic report; its verdict sets the exit code."""
    out.add_report(rep)
    return 0 if rep.verdict == "bounded" else 2


# ---------------------------------------------------------------------------
# pipelines


def pipe_regimes(cfg, out):
    e = build_exponents(cfg)
    flags = classify(e)
    out.set_header(
        [
            "p",
            "q",
            "N",
            "diffusion_kind",
            "supercritical_harnack",
            "at_harnack_critical",
            "bounded_guaranteed",
            "at_boundedness_critical",
            "lambda_q",
        ]
    )
    out.add_row(
        [
            e.p,
            e.q,
            e.n_dim,
            flags.diffusion_kind,
            flags.supercritical_harnack,
            flags.at_harnack_critical,
            flags.bounded_guaranteed,
            flags.at_boundedness_critical,
            e.lam_q,
        ]
    )
    out.meta(f"classification,{flags.diffusion_kind}")
    return 0


# per-family probe lattices for the residual sweep (kept off closed-form
# singularities and validity boundaries)
_RESIDUAL_WINDOWS = {
    "trudinger_gaussian": (0.2, 2.0, 0.5, 1.5),
    "separable_blowup": (0.5, 2.0, 0.0, 0.6),
    "critical_harnack_wave": (0.5, 2.0, -0.5, 0.5),
    "boundedness_borderline": (0.5, 2.0, 0.1, 0.6),
    "supercritical_extinction": (4.0, 10.0, 0.0, 0.6),
    "dipole_self_similar": (1.5, 4.0, 0.0, 0.6),
    "ivanov_subsolution": (0.1, 0.85, 0.0, 0.01),
}


def _residual_lattice(cfg, fid):
    win = _RESIDUAL_WINDOWS.get(fid, (0.5, 2.0, 0.0, 0.5))
    r_lo = _get(cfg, "residual", "r_lo", float, win[0])
    r_hi = _get(cfg, "residual", "r_hi", float, win[1])
    t_lo = _get(cfg, "residual", "t_lo", float, win[2] if win[2] != 0.0 else 1e-9)
    t_hi = _get(cfg, "residual", "t_hi", float, win[3])
    n_r = _get(cfg, "residual", "n_r", int, 16)
    n_t = _get(cfg, "residual", "n_t", int, 8)
    return np.linspace(r_lo, r_hi, n_r), np.linspace(t_lo, t_hi, n_t)


def pipe_exact_residual(cfg, out):
    hs = _get(cfg, "residual", "h_sequence", _some_floats, [1e-2, 5e-3, 2.5e-3])
    fam = build_family(cfg)
    fid = _get(cfg, "family", "id")
    radii, times = _residual_lattice(cfg, fid)
    out.set_header(["family", "h", "max_residual"])
    res, order = residual_order(fam, radii, times, hs)
    for h, r in zip(hs, res):
        out.add_row([fid, h, r])
    out.meta(f"fitted_order,{fmt(float(order))}")
    if _get(cfg, "residual", "derive_b", _bool, False):
        rep = derive_critical_b_report(
            fam.exponents.n_dim, fam.exponents.p, tuple(hs)
        )
        out.meta(f"critical_b,{fmt(rep['b'])}")
        for i, cand in enumerate(rep["candidates"]):
            out.meta(
                f"candidate_{i},{fmt(cand)},residuals,"
                + ",".join(fmt(float(r)) for r in rep["residuals"][i])
            )
    if getattr(fam, "role", "weak_solution") == "weak_subsolution":
        # sign check instead of convergence: residual must stay negative
        ok = bool(np.all(res <= 0.0)) or float(
            np.max(
                exact.pde_residual_rt(
                    fam, radii[:, None], times[None, :], hs[-1]
                )
            )
        ) <= 0.0
        out.meta(f"subsolution_sign,{'pass' if ok else 'fail'}")
        return 0 if ok else 2
    ok = order >= 1.5
    out.meta(f"verdict,{'pass' if ok else 'fail'}")
    return 0 if ok else 2


def _export_lines(traj):
    """`t,x,u` CSV lines of a trajectory, the same bytes as `add_row` gives.

    Each time and each cell center is formatted once and each field row in
    one pass: `'%.17g' % v` equals `format(v, '.17g')` on floats, `nan`,
    `inf` and `-0` included."""
    g17 = "%.17g".__mod__
    xs = [x + "," for x in map(g17, traj.problem.grid.centers().tolist())]
    lines = []
    for t, u in zip(traj.times, traj.fields):
        t_cell = fmt(t) + ","
        lines.extend([t_cell + x + v for x, v in zip(xs, map(g17, u.tolist()))])
    return lines


def pipe_solve(cfg, out):
    traj = run_solver(cfg)
    if _get(cfg, "comparison", "enabled", _bool, False):
        cfg2 = _merge(cfg, {})
        cfg2.setdefault("solver", {})["initial"] = _get(
            cfg, "comparison", "initial_b", str, "cos_bump"
        )
        cfg2["solver"]["initial_scale"] = fmt(
            _get(cfg, "comparison", "scale_b", float, 0.5)
        )
        traj_b = run_solver(cfg2)
        result = check_comparison(
            traj_b, traj, tol=_get(cfg, "comparison", "tol", float, 1e-8)
        )
        out.set_header(["violation", "passes", "tol"])
        out.add_row([result["violation"], result["passes"], result["tol"]])
        out.meta(f"comparison,{'pass' if result['passes'] else 'fail'}")
        return 0 if result["passes"] else 2
    out.set_header(["t", "x", "u"])
    out.add_lines(_export_lines(traj))
    out.meta(f"final_sup,{fmt(float(traj.fields[-1].max()))}")
    return 0


def _probe_list(cfg):
    x_os = _get(cfg, "probes", "x_o", _some_floats)
    t_os = _get(cfg, "probes", "t_o", _some_floats)
    if len(t_os) == 1:
        t_os = t_os * len(x_os)
    if len(x_os) != len(t_os):
        raise ConfigError("[probes] x_o and t_o must have matching lengths")
    return list(zip(x_os, t_os))


def pipe_extinction(cfg, out):
    if "family" in cfg and "id" in cfg["family"]:
        fam = build_family(cfg)
        slope, r2 = dg.decay_exponent_fit(fam, _get(cfg, "probes", "x_o", float, 0.0))
        want = 1.0 / (fam.exponents.q + 1 - fam.exponents.p)
        rel = abs(slope - want) / want
        out.set_header(["decay_slope", "reference_slope", "rel_deviation", "r_squared"])
        out.add_row([slope, want, rel, r2])
        ok = rel <= 0.10
        out.meta(f"decay_fit,{'pass' if ok else 'fail'}")
        return 0 if ok else 2
    traj = run_solver(cfg)
    probes = _get(cfg, "probes", "x_o", _floats, [])
    return _report(out, dg.extinction_analysis(traj, x_probes=probes))


def pipe_model(cfg, out):
    if "reynolds" in cfg.get("model", {}):
        law = reynolds_regime(_get(cfg, "model", "reynolds", float))
        out.set_header(["reynolds", "recommended_law", "alpha"])
        out.add_row(
            [_get(cfg, "model", "reynolds", float), law.kind, law.alpha or ""]
        )
        return 0
    lk = _get(cfg, "model", "law", str, "darcy")
    if lk == "power_law":
        law = FiltrationLaw("power_law", alpha=_get(cfg, "model", "alpha", float))
    elif lk == "forchheimer":
        law = FiltrationLaw(
            "forchheimer",
            a=_get(cfg, "model", "a", float, 1.0),
            b=_get(cfg, "model", "b", float, 1.0),
        )
    else:
        law = FiltrationLaw(lk)
    sk = _get(cfg, "model", "state", str)
    if sk == "polytropic":
        state = StateEquation("polytropic", n=_get(cfg, "model", "n", float))
    elif sk == "weakly_compressible":
        state = StateEquation(
            "weakly_compressible", K=_get(cfg, "model", "K", float, 1.0)
        )
    else:
        state = StateEquation(sk)
    m = cfg.get("model", {}).get("m")
    medium = MediumParams(
        porosity=_get(cfg, "model", "porosity", float, 0.3),
        viscosity=_get(cfg, "model", "viscosity", float, 1.0),
        prefactor=_get(cfg, "model", "prefactor", float, 1.0),
        nanoporous_m=float(m) if m is not None else None,
    )
    card = to_dnl(law, state, medium)
    result = verify_mapping(card, lambda x: 2.0 + np.sin(x))
    out.set_header(["p_exp", "q_exp", "m_u", "K_diff", "variable", "order", "passes"])
    out.add_row(
        [
            card.p_exp,
            card.q_exp,
            card.m_u,
            card.K_diff,
            card.variable,
            result["order"],
            result["passes"],
        ]
    )
    out.meta(str(card))
    return 0 if result["passes"] else 2


def _key(name, conv=float, default=None):
    """Probe argument `name` read from [probes] `name`."""
    return name, lambda cfg: _get(cfg, "probes", name, conv, default)


def _gradbound_probes(cfg):
    """(x_o, t_o, rho) triples: radii paired with the base points when the
    lengths match, every radius at every base point otherwise."""
    radii = _get(cfg, "probes", "radii", _some_floats)
    base = _probe_list(cfg)
    if len(radii) == len(base):
        return [(x, t, r) for (x, t), r in zip(base, radii)]
    return [(x, t, r) for (x, t) in base for r in radii]


def _scan(diagnostic, source, *args):
    """Pipeline of one estimate scan: build the source, read the probe
    arguments in order and report `dg.<diagnostic>`.  The diagnostic is looked
    up by name on every call, so a wrapper installed on the module after
    import (a tracer, a mock) is the one that runs."""

    def pipeline(cfg, out):
        src = source(cfg)
        kwargs = {name: read(cfg) for name, read in args}
        return _report(out, getattr(dg, diagnostic)(src, **kwargs))

    return pipeline


_SCAN = ("probes", "family", "exponents", "solver", "grid", "output")
_POINT = (_key("x_o"), _key("t_o"))
_CYLINDER = (*_POINT, _key("rho"), _key("s"))
_LATTICE = _key("lattice", int, 32)

# subcommand -> (section order resolving a bare --key, pipeline(cfg, out))
COMMANDS = {
    "regimes": (("exponents",), pipe_regimes),
    "exact-residual": (("family", "residual", "output"), pipe_exact_residual),
    "solve": (("solver", "grid", "exponents", "comparison", "output"), pipe_solve),
    "harnack": (
        _SCAN,
        _scan(
            "harnack_scan",
            build_source,
            ("base_points", _probe_list),
            _key("radii", _some_floats),
            _key("sigma", float, 0.25),
            _LATTICE,
        ),
    ),
    "integral-harnack": (
        _SCAN,
        _scan("integral_harnack", build_source, *_CYLINDER, _LATTICE),
    ),
    "supbound": (
        _SCAN,
        _scan("sup_bound", build_source, *_CYLINDER, _key("r"), _LATTICE),
    ),
    "expand": (
        ("probes", "exponents", "solver", "grid", "output"),
        _scan(
            "expansion_of_positivity",
            solved_source,
            *_POINT,
            _key("rho"),
            _key("M"),
            _key("alpha"),
            _key("delta_scan", int, 10),
        ),
    ),
    "extinction": (
        ("solver", "grid", "exponents", "family", "probes", "output"),
        pipe_extinction,
    ),
    "gradbound": (
        _SCAN,
        _scan("gradient_bound", build_source, ("probes", _gradbound_probes), _LATTICE),
    ),
    "holder": (
        _SCAN,
        _scan(
            "holder_fit",
            build_source,
            *_POINT,
            _key("radii", _some_floats),
            _key("lattice", int, 16),
        ),
    ),
    "model": (("model", "output"), pipe_model),
}

SUBCOMMANDS = sorted(COMMANDS)


# ---------------------------------------------------------------------------
# presets: the exact configs exercised by the acceptance suite

_SUPERCRITICAL_RUN = """
[exponents]
p = 2
q = 2
N = 3
[grid]
x_lo = 0
x_hi = 1
n_cells = 200
geometry = radial
[solver]
dt = 2e-4
t_end = 0.04
initial = cos_bump
boundary = zero_dirichlet
"""

PRESETS = {
    # Harnack scans (acceptance 5a-5c)
    "thm-harnack-supercritical": (
        "harnack",
        _SUPERCRITICAL_RUN
        + """
[probes]
x_o = 0.2,0.35,0.5
t_o = 0.02
radii = 0.01,0.02,0.04,0.08
sigma = 0.25
""",
    ),
    "harnack-fail-trudinger": (
        "harnack",
        """
[family]
id = trudinger_gaussian
p = 2
N = 1
[probes]
x_o = 5,8,12,16,20,25
t_o = 2
radii = 1
sigma = 0
""",
    ),
    "harnack-fail-critical-wave": (
        "harnack",
        """
[family]
id = critical_harnack_wave
p = 2
N = 3
[probes]
x_o = 1,1,1,1,1
t_o = -2,-4,-8,-16,-32
radii = 1
sigma = 0.25
""",
    ),
    "harnack-fail-borderline": (
        "harnack",
        """
[family]
id = boundedness_borderline
p = 2
N = 3
[probes]
x_o = 2
t_o = 0.5
radii = 1,2,4,8,16
sigma = 0.25
""",
    ),
    # gradient bound (acceptance 6)
    "gradbound-supercritical": (
        "gradbound",
        """
[family]
id = supercritical_extinction
p = 2
q = 3
N = 40
T = 1
[probes]
x_o = 16,32,64,128,16,32,64,128
t_o = 0.5,0.5,0.5,0.5,0.25,0.25,0.25,0.25
radii = 4,8,16,32,4,8,16,32
lattice = 1
""",
    ),
    "gradbound-fail-trudinger": (
        "gradbound",
        """
[family]
id = trudinger_gaussian
p = 2
N = 1
[probes]
x_o = 2,4,8,16,32
t_o = 1
radii = 1
lattice = 1
""",
    ),
    # extinction (acceptance 7)
    "extinction-bound": (
        "extinction",
        """
[exponents]
p = 2
q = 2
N = 3
[grid]
x_lo = 0
x_hi = 1
n_cells = 80
geometry = radial
[solver]
dt = 2.5e-4
t_end = 0.3
initial = steep_bump
boundary = zero_dirichlet
[probes]
x_o = 0.2,0.5
""",
    ),
    "extinction-decay-fit": (
        "extinction",
        """
[family]
id = supercritical_extinction
p = 2
q = 3
N = 40
T = 1
[probes]
x_o = 0
""",
    ),
    # integral Harnack / sup bound / expansion
    "integral-harnack-supercritical": (
        "integral-harnack",
        _SUPERCRITICAL_RUN
        + """
[probes]
x_o = 0.5
t_o = 0.03
rho = 0.3
s = 0.02
""",
    ),
    "supbound-fast-diffusion": (
        "supbound",
        _SUPERCRITICAL_RUN
        + """
[probes]
x_o = 0.5
t_o = 0.03
rho = 0.3
s = 0.02
r = 3
""",
    ),
    "expansion-positivity": (
        "expand",
        _SUPERCRITICAL_RUN
        + """
[probes]
x_o = 0.3
t_o = 0.005
rho = 0.1
M = 0.5
alpha = 0.5
""",
    ),
    # Hoelder fit (acceptance 11)
    "holder-supercritical": (
        "holder",
        _SUPERCRITICAL_RUN
        + """
[probes]
x_o = 0.4
t_o = 0.02
radii = 0.01,0.015,0.02,0.03,0.04,0.06
""",
    ),
    # residuals / critical-b (acceptance 1-2)
    "residual-trudinger-gaussian": (
        "exact-residual",
        "[family]\nid = trudinger_gaussian\np = 2\nN = 1\n",
    ),
    "critical-b-arbitration": (
        "exact-residual",
        "[family]\nid = critical_harnack_wave\np = 2\nN = 4\n"
        "[residual]\nderive_b = true\n",
    ),
    # solver convergence base config / comparison (acceptance 3-4)
    "solver-supercritical-run": ("solve", _SUPERCRITICAL_RUN),
    "comparison-ordered": (
        "solve",
        _SUPERCRITICAL_RUN
        + """
[comparison]
enabled = true
initial_b = cos_bump
scale_b = 0.5
tol = 1e-8
""",
    ),
    # porous-media model cards (acceptance 10)
    "model-classic-gas": (
        "model",
        "[model]\nlaw = darcy\nstate = ideal_isothermal\n",
    ),
    "model-nanoporous-gas": (
        "model",
        "[model]\nlaw = darcy\nstate = ideal_isothermal\nm = 1\n",
    ),
    "model-nanoporous-oil": (
        "model",
        "[model]\nlaw = darcy\nstate = weakly_compressible\nK = 1\nm = 1\n",
    ),
}


def preset(name):
    """(subcommand, config tree) for a named preset."""
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    sub, text = PRESETS[name]
    return sub, parse_config_text(text)


# ---------------------------------------------------------------------------
# argv handling


def _apply_overrides(cfg, tokens, subcommand):
    """Apply --key value (or --section.key value) pairs onto the config."""
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"expected --key, got {tok!r}")
        if i + 1 >= len(tokens):
            raise ConfigError(f"missing value for {tok}")
        key = tok[2:].replace("-", "_")
        value = tokens[i + 1]
        i += 2
        if "." in key:
            section, key = key.split(".", 1)
            if section not in SCHEMA or key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
        else:
            # the subcommand's sections first, then every section in order
            order = (*COMMANDS[subcommand][0], *SCHEMA)
            section = next((c for c in order if key in SCHEMA[c]), None)
            if section is None:
                raise ConfigError(f"unknown config key {key!r}")
        cfg.setdefault(section, {})[key] = value
    return cfg


def run(argv):
    parser = argparse.ArgumentParser(
        prog="dnl-lab",
        description="experiment runner for the doubly nonlinear diffusion lab",
        allow_abbrev=False,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="config file path")
    parser.add_argument("--preset", help="named preset config")
    parser.add_argument("--out", help="output path prefix (csv + meta)")
    args, rest = parser.parse_known_args(argv)
    try:
        cfg = {}
        if args.preset:
            psub, cfg = preset(args.preset)
            if psub != args.subcommand:
                raise ConfigError(
                    f"preset {args.preset!r} belongs to subcommand {psub!r}"
                )
        if args.config:
            with open(args.config) as f:
                cfg = _merge(cfg, parse_config_text(f.read()))
        cfg = _apply_overrides(cfg, rest, args.subcommand)
        out = Output(args.out)
        code = COMMANDS[args.subcommand][1](cfg, out)
        out.emit(cfg)
        return code
    except (ConfigError, ValueError, OSError, NotPowerLaw, StepFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
