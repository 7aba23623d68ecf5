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
import dataclasses
import functools
import math
import sys

import numpy as np

from .core import STENCIL_WIDTHS, ExponentTriple, Grid1D, classify
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
    Trajectory,
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


# `[solver] initial` profiles of xi = (x - x_lo)/(x_hi - x_lo)
_PROFILES = {
    "cos_bump": lambda xi: np.cos(np.pi * xi / 2) ** 2,
    "steep_bump": lambda xi: np.cos(np.pi * xi / 2) ** 8,
    "compact_bump": lambda xi: np.clip(1 - xi, 0, None) ** 2,
    "inner_bump": lambda xi: np.where(
        xi < 0.2, np.cos(np.pi * xi / 0.4) ** 2, 0.0
    ),
}


# Allowed sections and keys, each with its one domain: `read(raw, key)` gives
# the value the raw string holds, or raises one ValueError when it holds no
# value of the domain.  Unknown entries are rejected with location info.


def _scalar(conv, ok=None, rule=""):
    """Domain of one value: `conv` reads it and `ok`, if given, accepts it;
    `rule`, with `{key}` for the key's name, says what `ok` demands."""

    def read(raw, key):
        value = conv(raw)
        if ok and not ok(value):
            raise ValueError(rule.format(key=key))
        return value

    return read


def _numbers(ok, rule):
    """Domain of a non-empty comma-separated list of floats, each accepted
    by `ok`; `rule` says what `ok` demands."""

    def read(raw, key):
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
        if not values:
            raise ValueError("empty list")
        if not all(map(ok, values)):
            raise ValueError(rule)
        return values

    return read


def _one_of(names):
    rule = "must be one of " + ", ".join(sorted(names))
    return _scalar(str, names.__contains__, rule)


def _positive(value):
    return 0 < value < math.inf


def _bool(raw, key):
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_TEXT = _scalar(str)
_FINITE = _scalar(float, math.isfinite, "{key} must be finite")
_POSITIVE = _scalar(float, _positive, "{key} must be finite and > 0")
_COUNT = _scalar(int, lambda n: n >= 1, "must be >= 1")
_PROFILE = _one_of(_PROFILES)
_POINTS = _numbers(math.isfinite, "every value must be finite")


def _lattice_side(raw, key):
    """A scan's lattice side, bounded before any lattice x lattice array is
    built."""
    n = _COUNT(raw, key)
    if n > 1024:
        raise ValueError("must be <= 1024")
    return n


SCHEMA = {
    "exponents": {"p": _FINITE, "q": _FINITE, "N": _COUNT},
    "family": {
        "id": _one_of(FAMILIES),
        **dict.fromkeys(("p", "q", "C", "a", "b", "r0"), _FINITE),
        **dict.fromkeys(("T", "h", "rmin"), _POSITIVE),
        "N": _COUNT,
    },
    "grid": {
        "x_lo": _FINITE, "x_hi": _FINITE, "n_cells": _scalar(int), "geometry": _TEXT
    },
    "solver": {
        **dict.fromkeys(("t_end", "t_start", "initial_scale"), _FINITE),
        "dt": _POSITIVE, "newton_tol": _POSITIVE,
        "boundary": _one_of({"zero_dirichlet"}),
        "initial": _PROFILE,
    },
    "comparison": {
        "enabled": _bool,
        "initial_b": _PROFILE,
        "scale_b": _FINITE,
        "tol": _POSITIVE,
    },
    "probes": {
        "x_o": _POINTS, "t_o": _POINTS,
        "radii": _numbers(_positive, "every radius must be finite and > 0"),
        "sigma": _FINITE, "r": _FINITE,
        **dict.fromkeys(("rho", "s", "M"), _POSITIVE),
        "alpha": _scalar(float, lambda v: 0 < v <= 1, "{key} must be in (0, 1]"),
        "lattice": _lattice_side,
    },
    "residual": {
        "h_sequence": _numbers(_positive, "every step must be finite and > 0"),
        "derive_b": _bool,
    },
    "model": {
        "law": _TEXT, "state": _TEXT,
        **dict.fromkeys(("alpha", "a", "b", "n", "K", "m", "reynolds"), _FINITE),
    },
}


class Config(dict):
    """A config tree {section: {key: raw str}} that records the entries
    `_get` reads, so that a run can name the set entries it never used."""

    def __init__(self, tree=()):
        super().__init__(tree)
        self.read = set()  # (section, key)

    def unread(self):
        """`[section] key` of every set entry that `_get` has not read."""
        return [
            f"[{s}] {k}"
            for s in sorted(self)
            for k in sorted(self[s])
            if (s, k) not in self.read
        ]


def parse_config_text(text):
    """Parse the section/key-value grammar into a Config."""
    tree = Config()
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
    out = Config({s: dict(kv) for s, kv in base.items()})
    for s, kv in extra.items():
        out.setdefault(s, {}).update(kv)
    return out


def _get(cfg, section, key, default=None):
    """[section] key as its domain in SCHEMA reads it; when the key is unset,
    `default`, or a ConfigError if `default` is None.  `cfg` (a Config)
    records the read."""
    cfg.read.add((section, key))
    try:
        raw = cfg[section][key]
    except KeyError:
        if default is not None:
            return default
        raise ConfigError(f"missing required key [{section}] {key}")
    try:
        return SCHEMA[section][key](raw, key)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}")


def _given(cfg, section, *keys):
    """{key: value} of those `keys` that [section] sets, for a library call
    whose own defaults stand for the keys the config leaves unset."""
    given = cfg.get(section, {})
    return {key: _get(cfg, section, key) for key in keys if key in given}


def fmt(x):
    """17-significant-digit CSV number formatting."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# bytes of the CSV file's write buffer; a `solve` export streams 201 blocks
# of about 11 kB through it
_WRITE_BUFFER = 1 << 17


class Output:
    """Collects CSV lines + meta text; writes files or stdout."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.header = None
        # the CSV body as bytes: finished lines, or blocks of lines, each
        # item ending in a newline
        self.lines = []
        self.meta_lines = []

    def set_header(self, cols):
        self.header = list(cols)

    def add_row(self, values):
        self.lines.append((",".join([fmt(v) for v in values]) + "\n").encode())

    def add_lines(self, lines):
        """Append finished CSV body lines, or blocks of lines, as bytes with
        cells already formatted and every line ending in a newline."""
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
        """Write the CSV (header and body) and the meta text as bytes, to
        `prefix.csv` and `prefix.meta` opened in binary mode, or both to
        stdout, decoded, without a prefix.  The body is streamed item by
        item, never joined: to the CSV file through a write buffer of
        `_WRITE_BUFFER` bytes."""
        meta = serialize_config(cfg)
        meta += "".join(line + "\n" for line in self.meta_lines)
        if self.prefix:
            with open(self.prefix + ".csv", "wb", buffering=_WRITE_BUFFER) as f:
                self._write_csv(f.write)
            with open(self.prefix + ".meta", "wb") as f:
                f.write(meta.encode())
            return

        def write(data):
            sys.stdout.write(data.decode())

        self._write_csv(write)
        sys.stdout.write(meta)

    def _write_csv(self, write):
        if self.header:
            write((",".join(self.header) + "\n").encode())
        for item in self.lines:
            write(item)


# ---------------------------------------------------------------------------
# building blocks shared by pipelines


def build_grid(cfg):
    return Grid1D(
        _get(cfg, "grid", "x_lo", 0.0),
        _get(cfg, "grid", "x_hi"),
        _get(cfg, "grid", "n_cells"),
        _get(cfg, "grid", "geometry", "radial"),
        _get(cfg, "exponents", "N"),
    )


def build_exponents(cfg):
    return ExponentTriple(
        _get(cfg, "exponents", "p"),
        _get(cfg, "exponents", "q"),
        _get(cfg, "exponents", "N"),
    )


def build_family(cfg):
    """The [family] closed form; its key N is the constructors' n_dim."""
    fid = _get(cfg, "family", "id")
    params = {
        "n_dim" if key == "N" else key: _get(cfg, "family", key)
        for key in cfg["family"]
        if key != "id"
    }
    try:
        return make_family(fid, **params)
    except ValueError as exc:
        raise ValueError(str(exc).replace("n_dim", "N")) from None


def build_problem(cfg):
    """The (CauchyDirichletProblem, SolverConfig) pair of a numeric run."""
    e = build_exponents(cfg)
    g = build_grid(cfg)
    profile = _PROFILES[_get(cfg, "solver", "initial", "cos_bump")]
    xi = (g.centers() - g.x_lo) / (g.x_hi - g.x_lo)
    u0 = profile(xi) * _get(cfg, "solver", "initial_scale", 1.0)
    pr = CauchyDirichletProblem(
        e,
        g,
        u0,
        _get(cfg, "solver", "t_end"),
        **_given(cfg, "solver", "boundary", "t_start"),
    )
    sc = SolverConfig(**_given(cfg, "solver", "dt", "newton_tol"))
    return pr, sc


def build_source(cfg, family=True):
    """Closed-form source if `family` and [family] id are set, numeric run
    otherwise, solved on demand: a scan steps it only as far as the last
    time it reads."""
    if family and "family" in cfg and "id" in cfg["family"]:
        return dg.SolutionSource(build_family(cfg))
    return dg.SolutionSource(Trajectory(*build_problem(cfg)))


def _report(out, rep):
    """Write a diagnostic report; its verdict sets the exit code."""
    out.add_report(rep)
    return 0 if rep.verdict == "bounded" else 2


def _check(out, name, ok):
    """Write the meta line `name,pass` or `name,fail`; a pass exits 0."""
    out.meta(f"{name},{'pass' if ok else 'fail'}")
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# pipelines


def pipe_regimes(cfg, out):
    e = build_exponents(cfg)
    flags = classify(e)
    names = [f.name for f in dataclasses.fields(flags)]
    out.set_header(["p", "q", "N", *names, "lambda_q"])
    out.add_row([e.p, e.q, e.n_dim, *dataclasses.astuple(flags), e.lam_q])
    out.meta(f"classification,{flags.diffusion_kind}")
    return 0


def pipe_exact_residual(cfg, out):
    hs = _get(cfg, "residual", "h_sequence", STENCIL_WIDTHS)
    fam = build_family(cfg)
    derive_b = _get(cfg, "residual", "derive_b", False)
    if derive_b and fam.family != "critical_harnack_wave":
        raise ConfigError(f"derive_b is for critical_harnack_wave, not {fam.family}")
    radii, times = fam.residual_lattice(hs)
    out.set_header(["family", "h", "max_residual"])
    res, order = residual_order(fam, radii, times, hs)
    for h, r in zip(hs, res):
        out.add_row([fam.family, h, r])
    out.meta(f"fitted_order,{fmt(float(order))}")
    if derive_b:
        rep = derive_critical_b_report(
            fam.exponents.n_dim, fam.exponents.p, tuple(hs), {fam.b: (res, order)}
        )
        out.meta(f"critical_b,{fmt(rep['b'])}")
        for i, cand in enumerate(rep["candidates"]):
            out.meta(
                f"candidate_{i},{fmt(cand)},residuals,"
                + ",".join(fmt(float(r)) for r in rep["residuals"][i])
            )
    if fam.role == "weak_subsolution":
        # sign check instead of convergence: residual must stay negative
        last = exact.pde_residual_rt(fam, radii[:, None], times[None, :], hs[-1])
        return _check(out, "subsolution_sign", float(np.max(last)) <= 0.0)
    return _check(out, "verdict", order >= exact.CONVERGENT_ORDER)


_POW10 = np.array([1e16, 1e17, 1e18, 1e19, 1e20, 1e21])  # exact doubles


def _split(v):
    """Dekker's split of v into a high part of 26 bits and the exact rest."""
    c = v * 134217729.0
    high = c - (c - v)
    return high, v - high


def _digits17(x):
    """`(z, m)` with `'%.17g' % v == '0.' + '0' * z + '%d' % m` for each v
    of `x`, a float array in [1e-4, 1), where the decimal exponent is
    X = -1 - z and m holds the 17 significant digits, trailing zeros cut.

    Dekker's two-product gives x·10^(16−X) exactly as hi + lo: the factor
    is an exact double, nothing overflows or underflows, and separate ufunc
    calls cannot fuse into an FMA.  X starts at floor(log10 x); where the
    exact product (hi, and the sign of lo where hi equals the bound) lies
    outside [1e16, 1e17), X moves by one and the product is taken again.
    hi is an even integer, as every double above 2^53 is, so `rint`, which
    rounds lo half to even, rounds hi + lo half to even, as dtoa does.  No
    double in [1e-4, 1) comes within 1/2 of 1e17, so m never rounds up to
    10^17."""
    xh, xl = _split(x)

    def product(X):
        s = _POW10[-X]
        sh, sl = _split(s)
        hi = x * s
        return hi, ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl

    X = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = product(X)
    up = (hi > 1e17) | (hi == 1e17) & (lo >= 0)
    down = (hi < 1e16) | (hi == 1e16) & (lo < 0)
    if up.any() or down.any():
        X += up
        X -= down
        hi, lo = product(X)
    m = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # `//` by a constant is several times faster than `%` on int64
    flat = m.reshape(-1)
    ends0 = np.flatnonzero(flat // 10 * 10 == flat)
    while ends0.size:
        cut = flat[ends0] // 10
        flat[ends0] = cut
        ends0 = ends0[cut // 10 * 10 == cut]
    return -1 - X, m


def _export_lines(traj):
    """`t,x,u` CSV body of a trajectory as bytes, one block of lines per
    stored time, each line ending in a newline: the same bytes as `add_row`
    gives row by row.

    Each time is formatted once and joined in front of every cell, and each
    row is formatted by a single bytes `%`.  A row whose values all lie in
    [1e-4, 1) joins cells `<x_j>,0.<z zeros>%d`, picked by each value's
    leading-zero count z from a (4, n) table built once, and fills them with
    the integers of `_digits17`: no value goes through dtoa.  Any other row
    (0, -0, >= 1, < 1e-4, nan, inf) joins `<x_j>,%.17g` cells and fills
    them with its floats: `b'%.17g' % v` is `format(v, '.17g')` encoded,
    `nan`, `inf` and `-0` included.  Rows go through numpy in chunks of
    about 6,400 values, so the arrays and lists of a chunk stay small."""
    xs = [b"%.17g" % x for x in traj.problem.grid.centers().tolist()]
    cells = [x + b",%.17g\n" for x in xs]
    zeros = [b",0." + b"0" * z + b"%d\n" for z in range(4)]
    table = np.array([[x + cell for x in xs] for cell in zeros], object)
    cols = np.arange(len(xs))
    step = max(1, 6400 // len(xs))
    blocks = []
    for i in range(0, len(traj.times), step):
        us = np.array(traj.fields[i : i + step])
        band = ((us >= 1e-4) & (us < 1.0)).all(axis=1)
        z, m = _digits17(us[band])
        band_rows = zip(table[z, cols].tolist(), m.tolist())
        for t, u, in_band in zip(traj.times[i : i + step], us, band):
            t_cell = b"%.17g," % t
            row_cells, values = next(band_rows) if in_band else (cells, u.tolist())
            blocks.append((t_cell + t_cell.join(row_cells)) % tuple(values))
    return blocks


def pipe_solve(cfg, out):
    traj = solve(*build_problem(cfg))
    if _get(cfg, "comparison", "enabled", False):
        cfg2 = _merge(cfg, {})
        initial_b = _get(cfg, "comparison", "initial_b", "cos_bump")
        cfg2.setdefault("solver", {})["initial"] = initial_b
        cfg2["solver"]["initial_scale"] = fmt(_get(cfg, "comparison", "scale_b", 0.5))
        traj_b = solve(*build_problem(cfg2))
        result = check_comparison(traj_b, traj, **_given(cfg, "comparison", "tol"))
        out.set_header(["violation", "passes", "tol"])
        out.add_row([result["violation"], result["passes"], result["tol"]])
        return _check(out, "comparison", result["passes"])
    if "enabled" in cfg.get("comparison", {}):
        # `enabled = false` switches the section off: its other keys go unused
        cfg.read.update(("comparison", key) for key in cfg["comparison"])
    out.set_header(["t", "x", "u"])
    out.add_lines(_export_lines(traj))
    out.meta(f"final_sup,{fmt(float(traj.fields[-1].max()))}")
    return 0


def _probe_list(cfg):
    x_os = _get(cfg, "probes", "x_o")
    t_os = _get(cfg, "probes", "t_o")
    if len(t_os) == 1:
        t_os = t_os * len(x_os)
    if len(x_os) != len(t_os):
        raise ConfigError("[probes] x_o and t_o must have matching lengths")
    return list(zip(x_os, t_os))


def pipe_extinction(cfg, out):
    if "family" in cfg and "id" in cfg["family"]:
        fam = build_family(cfg)
        slope, r2 = dg.decay_exponent_fit(fam, _single(cfg, "x_o", [0.0]))
        want = 1.0 / (fam.exponents.q + 1 - fam.exponents.p)
        rel = abs(slope - want) / want
        out.set_header(["decay_slope", "reference_slope", "rel_deviation", "r_squared"])
        out.add_row([slope, want, rel, r2])
        return _check(out, "decay_fit", rel <= 0.10)
    problem, config = build_problem(cfg)
    probes = _given(cfg, "probes", "x_o")
    dg.check_extinction_run(problem, **probes)  # before any step
    traj = solve(problem, config)
    return _report(out, dg.extinction_analysis(traj, **probes))


def pipe_model(cfg, out):
    model = cfg.get("model", {})
    if "reynolds" in model:
        reynolds = _get(cfg, "model", "reynolds")
        law = reynolds_regime(reynolds)
        out.set_header(["reynolds", "recommended_law", "alpha"])
        out.add_row([reynolds, law.kind, law.alpha or ""])
        return 0
    lk = _get(cfg, "model", "law", "darcy")
    if lk == "power_law":
        law = FiltrationLaw("power_law", alpha=_get(cfg, "model", "alpha"))
    elif lk == "forchheimer":
        law = FiltrationLaw(
            "forchheimer",
            a=_get(cfg, "model", "a", 1.0),
            b=_get(cfg, "model", "b", 1.0),
        )
    else:
        law = FiltrationLaw(lk)
    sk = _get(cfg, "model", "state")
    if sk == "polytropic":
        state = StateEquation("polytropic", n=_get(cfg, "model", "n"))
    elif sk == "weakly_compressible":
        state = StateEquation(
            "weakly_compressible", K=_get(cfg, "model", "K", 1.0)
        )
    else:
        state = StateEquation(sk)
    medium = MediumParams(
        nanoporous_m=_get(cfg, "model", "m") if "m" in model else None
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


def _key(name):
    """Probe argument `name` read from [probes] `name`."""
    return name, lambda cfg: _get(cfg, "probes", name)


def _single(cfg, key, default=None):
    """The one number of the [probes] list `key`, for a pipeline that takes
    one probe point."""
    values = _get(cfg, "probes", key, default)
    if len(values) != 1:
        raise ConfigError(f"bad value for [probes] {key}: takes one value")
    return values[0]


def _gradbound_probes(cfg):
    """(x_o, t_o, rho) triples: radii paired with the base points when the
    lengths match, every radius at every base point otherwise."""
    radii = _get(cfg, "probes", "radii")
    base = _probe_list(cfg)
    if len(radii) == len(base):
        return [(x, t, r) for (x, t), r in zip(base, radii)]
    return [(x, t, r) for (x, t) in base for r in radii]


def _scan(diagnostic, *args, optional=("lattice",), family=True):
    """Pipeline of one estimate scan: read the probe arguments in order, then
    the `optional` [probes] keys that the config sets (a bad one fails
    before any solve), build the source (a numeric run, whatever [family]
    says, unless `family`) and report `dg.<diagnostic>`.  The
    diagnostic is looked up by name on every call, so a wrapper installed on
    the module after import (a tracer, a mock) is the one that runs."""

    def pipeline(cfg, out):
        kwargs = {name: read(cfg) for name, read in args}
        kwargs.update(_given(cfg, "probes", *optional))
        src = build_source(cfg, family)
        return _report(out, getattr(dg, diagnostic)(src, **kwargs))

    return pipeline


_POINT = (
    ("x_o", lambda cfg: _single(cfg, "x_o")),
    ("t_o", lambda cfg: _single(cfg, "t_o")),
)
_CYLINDER = (*_POINT, _key("rho"), _key("s"))

# subcommand -> pipeline(cfg, out)
COMMANDS = {
    "regimes": pipe_regimes,
    "exact-residual": pipe_exact_residual,
    "solve": pipe_solve,
    "harnack": _scan(
        "harnack_scan",
        ("base_points", _probe_list),
        _key("radii"),
        optional=("sigma", "lattice"),
    ),
    "integral-harnack": _scan("integral_harnack", *_CYLINDER),
    "supbound": _scan("sup_bound", *_CYLINDER, _key("r")),
    "expand": _scan(
        "expansion_of_positivity",
        *_POINT,
        _key("rho"),
        _key("M"),
        _key("alpha"),
        optional=(),
        family=False,
    ),
    "extinction": pipe_extinction,
    "gradbound": _scan("gradient_bound", ("probes", _gradbound_probes)),
    "holder": _scan("holder_fit", *_POINT, _key("radii")),
    "model": pipe_model,
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

_TRUDINGER_FAMILY = """
[family]
id = trudinger_gaussian
p = 2
N = 1
"""

_EXTINCTION_FAMILY = """
[family]
id = supercritical_extinction
p = 2
q = 3
N = 40
T = 1
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
        _TRUDINGER_FAMILY
        + """
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
        _EXTINCTION_FAMILY
        + """
[probes]
x_o = 16,32,64,128,16,32,64,128
t_o = 0.5,0.5,0.5,0.5,0.25,0.25,0.25,0.25
radii = 4,8,16,32,4,8,16,32
lattice = 1
""",
    ),
    "gradbound-fail-trudinger": (
        "gradbound",
        _TRUDINGER_FAMILY
        + """
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
        _EXTINCTION_FAMILY
        + """
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
    "residual-trudinger-gaussian": ("exact-residual", _TRUDINGER_FAMILY),
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
    """Apply --key value (or --section.key value) pairs onto the config.  A
    bare key resolves to [family] first when its id is set, by the preset,
    the config file or a --family.id anywhere in the tokens, and not at all
    otherwise, for only then is it read; then to the section named like the
    subcommand, then to the sections in SCHEMA order."""
    order = [section for section in SCHEMA if section != "family"]
    order.sort(key=lambda section: section != subcommand)
    if "id" in cfg.get("family", {}) or "--family.id" in tokens[::2]:
        order.insert(0, "family")
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
            section = next((c for c in order if key in SCHEMA[c]), None)
            if section is None:
                raise ConfigError(f"unknown config key {key!r}")
        cfg.setdefault(section, {})[key] = value
    return cfg


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dnl-lab",
        description="experiment runner for the doubly nonlinear diffusion lab",
        allow_abbrev=False,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="config file path")
    parser.add_argument("--preset", help="named preset config")
    parser.add_argument("--out", help="output path prefix (csv + meta)")
    return parser


def run(argv):
    args, rest = _parser().parse_known_args(argv)
    try:
        cfg = Config()
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
        code = COMMANDS[args.subcommand](cfg, out)
        unread = cfg.unread()
        if unread:
            raise ConfigError(f"{args.subcommand} does not read {', '.join(unread)}")
        out.emit(cfg)
        return code
    except (ValueError, OSError, ImportError, StepFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
