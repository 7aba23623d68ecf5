"""Empirical measurement of the quantitative estimates.

Each diagnostic samples a solution source (closed-form family or computed
trajectory), measures the two sides of an estimate and returns a
`DiagnosticReport` with the implied constants and a verdict.  One rule,
`_verdict`, turns the implied constants into the verdict:

    "bounded"      every constant is finite and they vary by less than a
                   factor 2 over the probes (a single finite constant counts)
    "diverging"    a monotone exceedance sequence over >= 4 probe scales
    "inconclusive" neither (or the probe set is degenerate)

Expansion of positivity, the Hoelder fit and the extinction analysis measure
an exponent or a time instead and state their own "bounded" condition in
their docstrings.  Only "bounded" passes: the CLI exits 0 on it and 2 on any
other verdict.

Domain rule.  The estimates hold on cylinders inside the domain, so a scan
refuses, before its first read, every cylinder whose span is not finite or
that has a lattice point that `SolutionSource.valid_lattice` rejects:
"cylinder leaves the domain at probe (x_o, t_o, rho)".  `_lattices` builds
every scan's lattices and is the rule's one implementation.

The paper-side constants (gamma, eta, alpha_o, ...) are non-explicit, so all
checks are stability/boundedness checks, never comparisons to printed numbers.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .exact import ClosedFormSolution
from .solver import Trajectory, gradient_p_norm, integral_uq1, slice_functionals


class RegimeError(ValueError):
    """Exponents outside the regime required by an estimate."""


@dataclass
class DiagnosticReport:
    estimate_id: str
    probes: list = dc_field(default_factory=list)  # one dict per probe
    lhs: list = dc_field(default_factory=list)
    rhs: list = dc_field(default_factory=list)
    implied_constant: float = 0.0
    verdict: str = "inconclusive"
    extras: dict = dc_field(default_factory=dict)  # meta lines, in order

    def add(self, probe, lhs, rhs=1.0):
        self.probes.append(probe)
        self.lhs.append(lhs)
        self.rhs.append(rhs)

    def summary_line(self):
        return f"{self.estimate_id},{self.verdict},{self.implied_constant!r}"

    def csv_rows(self):
        """One row per probe: probe params, lhs, rhs, implied constant."""
        rows = []
        for pr, l, r in zip(self.probes, self.lhs, self.rhs):
            entry = dict(pr)
            entry["lhs"] = l
            entry["rhs"] = r
            entry["implied"] = l / r if r not in (0.0, None) else math.inf
            rows.append(entry)
        return rows


class SolutionSource:
    """Uniform eval/grad/validity view over a closed-form family or a
    `Trajectory` (with bilinear interpolation in space-time; trajectory-backed
    gradients are one-sided at the boundary and O(h) accurate).

    `lattice` reads every point of a lattice ts x xs, and `valid_lattice` is
    its mask, which `_lattices` checks whole before a scan reads.  Leading
    axes of xs and ts are probe axes: xs (P, nx) and ts (P, nt), or a ts
    (nt) that every probe shares, give one (P, nt, nx) table or mask, each
    probe's slice with the bits of its own read.  A coordinate x stands for
    the radius |x| on radial grids and for closed forms, and for the signed
    position x on cartesian grids.  A closed form's mask is its one validity
    decision, `valid_rt` at the radius sqrt(x * x) (the bits of the
    `np.linalg.norm` of its `eval` and `grad`), and its read,
    `eval_lattice`, checks no point again.  A trajectory's mask is x in the
    domain and t in [t_start, t_end]; its read takes the stored rows
    bracketing each time with `Trajectory.row`, which steps the solver only
    until they exist, so a StepFailure surfaces in the first read that needs
    the failed step, and in every read after it.

    `eval`, `grad_norm` and `valid` are the one-probe cases: coordinates x,
    a scalar or a 1-D array, at a scalar time t, one value per coordinate
    (a float, or a bool for `valid`, for a scalar x), read as one row of the
    lattice.  A closed form first takes `check_lattice`, which raises the
    DomainError of the first point outside its domain as the family's own
    `eval` and `grad` raise it, and its row has their bits; a trajectory
    clamps to its edge cells and end rows."""

    def __init__(self, backing):
        self.backing = backing
        if isinstance(backing, ClosedFormSolution):
            self.kind = "closed_form"
            self.exponents = backing.exponents
            self._check = backing.check_lattice
            return
        if not isinstance(backing, Trajectory):
            raise TypeError("source must be a ClosedFormSolution or a Trajectory")
        problem = backing.problem
        self.kind = "trajectory"
        self.exponents = problem.exponents
        self._grid = problem.grid
        self._radial = problem.grid.geometry == "radial"
        self._xs = problem.grid.centers()
        self._ts = np.asarray(backing.times)
        self._check = lambda xs, ts: None  # every read clamps

    def eval(self, x, t):
        return self._row("eval", x, t)

    def grad_norm(self, x, t):
        return self._row("grad_norm", x, t)

    def valid(self, x, t):
        ok = self.valid_lattice(np.atleast_1d(x), [t])[0]
        return ok if np.ndim(x) else bool(ok[0])

    def _row(self, field, x, t):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        self._check(xs, [t])
        (vals,) = self.lattice((field,), xs, [t])
        return vals[0] if np.ndim(x) else float(vals[0, 0])

    def valid_lattice(self, xs, ts):
        """The mask of the lattice ts x xs, one row per time."""
        if self.kind == "closed_form":
            return self.backing.valid_lattice(xs, ts)
        xs = np.asarray(xs, dtype=float)[..., None, :]
        tcol = np.asarray(ts, dtype=float)[..., None]
        r = np.abs(xs) if self._radial else xs
        # domain bounds, not cell-center bounds: interpolation clamps to
        # the edge cell over the half-cell collar, an O(h) extension
        lo = 0.0 if self._radial else self._grid.x_lo
        ok_x = (lo <= r) & (r <= self._grid.x_hi)
        return (self._ts[0] <= tcol) & (tcol <= self._ts[-1]) & ok_x

    def lattice(self, fields, xs, ts):
        """Each field ("eval" or "grad_norm") at every point of the lattice
        ts x xs, one (..., len(ts), len(xs)) table per field, with no point
        dropped.  A closed form takes one `eval_lattice` per field, so every
        point must be one that `valid_lattice` accepts.  A trajectory blends
        each time's bracketing stored rows, `row(i - 1)` and `row(i)`,
        clamped to the end rows, at the columns that interpolate xs by
        `np.interp`'s own formula; each bracketing row of any probe is read
        once, the columns are picked before the blend, so no table holds a
        whole row per point, and the fields share the bracket indices, the
        weights and the interpolation indices."""
        if self.kind == "closed_form":
            return [self.backing.eval_lattice(xs, ts, f) for f in fields]
        times = self._ts
        xs, t = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
        # t clamped to the run, so 0 <= w <= 1 (no quotient overflows, even
        # over a step of the least double); a search of the inner times
        # keeps 1 <= i <= len(times) - 1
        t = np.minimum(np.maximum(t, times[0]), times[-1])
        i = np.searchsorted(times[1:-1], t) + 1
        w = ((t - times[i - 1]) / (times[i] - times[i - 1]))[..., None]
        # row i - 1 of a time sits at k0 in `read`, and row i at k0 + 1
        read = sorted({*(i - 1).ravel().tolist(), *i.ravel().tolist()}) or [0]
        k0 = np.searchsorted(read, i - 1)[..., None]
        # the last row first: the steps to it run as one batch (see `row`)
        self.backing.row(read[-1])
        rows = np.array([self.backing.row(n) for n in read])
        # np.interp: at or below the first center, on a center, and at or
        # past the last one the value is that of the center (node); in
        # between it is slope * (r - x_j) + f_j with j the interval of r.
        # r is clamped to the centers, so no discarded slope form overflows
        xp = self._xs
        r = np.minimum(np.maximum(np.abs(xs) if self._radial else xs, xp[0]), xp[-1])
        j = np.minimum(np.searchsorted(xp, r, "right") - 1, xp.size - 2)[..., None, :]
        xj = xp[j]
        dx, off = xp[j + 1] - xj, r[..., None, :] - xj
        last = r[..., None, :] == xp[-1]
        on_node = (off == 0) | last
        # the corners u[k0, j], u[k0 + 1, j], u[k0, j + 1] and
        # u[k0 + 1, j + 1] are the flattened rows at k0 n + j, + n, + 1 and
        # + n + 1: one index table, read through offset views
        n = xp.size
        at = k0 * n + j
        v = 1 - w
        tables = []
        for f in fields:
            u = np.gradient(rows, self._grid.h, axis=1) if f == "grad_norm" else rows
            u = u.ravel()
            lo = v * u.take(at) + w * u[n:].take(at)
            hi = v * u[1:].take(at) + w * u[n + 1 :].take(at)
            vals = np.where(on_node, np.where(last, hi, lo), (hi - lo) / dx * off + lo)
            tables.append(np.abs(vals) if f == "grad_norm" else vals)
        return tables


def _monotone_exceedance(values):
    """True iff some 4 consecutive values form a strictly increasing run and
    the overall spread exceeds a factor 2 (guards against noise-triggered
    divergence verdicts)."""
    v = np.asarray(values, dtype=float)
    runs = 1
    best = 1
    for i in range(1, v.size):
        runs = runs + 1 if v[i] > v[i - 1] else 1
        best = max(best, runs)
    return best >= 4 and v.max() / max(v.min(), 1e-300) > 2.0


def _verdict(constants):
    """The verdict rule shared by the estimate scans (see module docstring).
    The 1e-300 guard keeps all-zero constants "bounded"."""
    c = np.asarray(constants, dtype=float)
    if c.size and np.isfinite(c).all() and c.max() / max(c.min(), 1e-300) < 2.0:
        return "bounded"
    return "diverging" if _monotone_exceedance(c) else "inconclusive"


def _intrinsic_time(e, u, rho, sigma=1.0):
    """sigma u^{q+1-p} rho^p, the half-height of an intrinsic cylinder; a
    radius whose rho^p overflows or underflows to 0, and a half-height that
    overflows, are RegimeErrors that name them."""
    try:
        rho_p = rho**e.p
    except OverflowError:
        raise RegimeError(f"radius {rho} is too large: rho^p overflows") from None
    if rho_p == 0:
        raise RegimeError(f"radius {rho} is too small: rho^p underflows to 0")
    try:
        half = sigma * u ** (e.q + 1 - e.p) * rho_p
    except OverflowError:
        half = math.inf
    if half == math.inf:
        raise RegimeError(f"cylinder half-height overflows at u = {u:g}, radius {rho}")
    return half


_GROUP_POINTS = 1 << 16  # the most lattice points that one mask or read holds


def _spaced(lo, hi, n):
    """Rows np.linspace(lo[i], hi[i], n), each with the bits of its own call:
    numpy's k * step + lo, step = (hi - lo) / (n - 1), ending at hi, and its
    zero-step formula k / (n - 1) * (hi - lo) + lo, taken row by row."""
    delta, lo = (hi - lo)[:, None], lo[:, None]
    if n == 1:
        return 0.0 * delta + lo  # numpy's one point
    k, step = np.arange(float(n)), delta / (n - 1)
    out = np.where(step == 0, k / (n - 1) * delta, k * step) + lo
    out[:, -1] = hi
    return out


def _lattices(src, probes, lo, hi, counts, masked):
    """The lattices xs (B, nx) and ts (B, nt) of the boxes lo <= (x, t) <= hi,
    lo and hi of shape (2, B), and the runs of at most `_GROUP_POINTS` points
    in which a scan reads them.  Before any read it refuses, by the module
    docstring's rule, the first box whose span is not finite or that has a
    point `valid_lattice` rejects (one mask a run, unless the caller has
    `masked` every point), naming its probe probes[i]."""
    (x0, t0), (x1, t1), (nx, nt) = np.asarray(lo, float), np.asarray(hi, float), counts
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(x1 - x0) & np.isfinite(t1 - t0)
    n = finite.size if finite.all() else int(np.argmin(finite))
    xs, ts = _spaced(x0[:n], x1[:n], nx), _spaced(t0[:n], t1[:n], nt)
    step = max(1, _GROUP_POINTS // (nx * nt))
    runs = [slice(i, i + step) for i in range(0, n, step)]
    for run in () if masked else runs:
        ok = src.valid_lattice(xs[run], ts[run]).all(axis=(1, 2))
        if not ok.all():
            n = run.start + int(np.argmin(ok))
            break
    if n < finite.size:
        raise RegimeError(f"cylinder leaves the domain at probe {tuple(probes[n])}")
    return xs, ts, runs


def _cylinders(src, probes, sigma, lattice, fields):
    """u_o = u(x_o, t_o) of each probe (x_o, t_o, rho), and per field the
    least and greatest value over its lattice xs x ts of K_rho(x_o) x
    (t_o +- sigma u_o^{q+1-p} rho^p): the slice t_o at half-height 0, the
    center (a box of width 0) at lattice 1.  The probe is an array axis: one
    read takes every center, then one read each run of `_lattices`.  Every
    cylinder is checked before the first read, and the first probe at fault
    raises as one probe at a time did, its faults in this order: a closed
    form's center outside its domain (no invalid center is read, so none
    warns), u_o not > 0 (nan included), a radius or half-height that
    `_intrinsic_time` refuses, then the refusals of `_lattices`.  A
    trajectory reads every center."""
    probes = list(probes)
    x_o, t_o, rho = np.array(probes, dtype=float).reshape(-1, 3).T
    closed = src.kind == "closed_form"
    read = (src.valid_lattice(x_o[:, None], t_o[:, None])[:, 0, 0] if closed
            else np.ones(x_o.size, bool))
    u_o = np.full(x_o.shape, np.nan)
    (u,) = src.lattice(("eval",), x_o[read, None], t_o[read, None])
    u_o[read] = u[:, 0, 0]
    bad = ~read | ~(u_o > 0)
    n = int(np.argmax(bad)) if bad.any() else len(probes)  # the probes before it
    half, fault = np.zeros(n), None
    cylinders = zip(probes[:n], u_o.tolist()) if lattice > 1 else ()
    for k, ((_, _, r), u) in enumerate(cylinders):
        try:  # a half-height that is not > 0 gives the slice t_o
            half[k] = max(0.0, _intrinsic_time(src.exponents, u, r, sigma))
        except RegimeError as exc:
            n, half, fault = k, half[:k], exc
            break
    rad = rho[:n] if lattice > 1 else half  # at lattice 1, width 0 in x and t
    with np.errstate(over="ignore"):
        box = (x_o[:n] - rad, t_o[:n] - half), (x_o[:n] + rad, t_o[:n] + half)
    counts = (lattice, lattice if half.any() else 1)
    # a closed form's lattice-1 cylinders are its centers, masked above
    xs, ts, runs = _lattices(src, probes, *box, counts, masked=closed and lattice == 1)
    if n < len(probes):
        if not read[n]:
            src.eval(*probes[n][:2])  # the DomainError of a center outside
        if not u_o[n] > 0:
            raise RegimeError(f"u(x_o,t_o) <= 0 at probe {probes[n]}")
        raise fault
    extremes = [(np.empty(n), np.empty(n)) for _ in fields]
    for run in runs:
        for (lo, hi), table in zip(extremes, src.lattice(fields, xs[run], ts[run])):
            lo[run], hi[run] = table.min(axis=(1, 2)), table.max(axis=(1, 2))
    return u_o.tolist(), extremes


def harnack_scan(src, base_points, radii, sigma=0.25, lattice=32):
    """Backward-forward Harnack scan: per probe (z_o, rho), measure
    gamma_emp = max(sup u / u_o, u_o / inf u) over the symmetric intrinsic
    cylinder K_rho(x_o) x (t_o +- sigma u_o^{q+1-p} rho^p) of `_cylinders`.

    sigma = 0 collapses the cylinder to the single time slice t_o (used for
    the Trudinger closed-form ratio probes).  Verdict by `_verdict` over
    gamma_emp across all probes/radii."""
    if not 0 <= sigma < 1:
        raise ValueError("sigma must be in [0, 1)")
    radii = list(radii)
    probes = [(x_o, t_o, rho) for x_o, t_o in base_points for rho in radii]
    rep = DiagnosticReport(estimate_id="harnack")
    u_o, [(inf_u, sup_u)] = _cylinders(src, probes, sigma, lattice, ("eval",))
    for (x_o, t_o, rho), u, lo, hi in zip(probes, u_o, inf_u.tolist(), sup_u.tolist()):
        g = math.inf if lo <= 0 else max(hi / u, u / lo)
        rep.add({"x_o": x_o, "t_o": t_o, "rho": rho, "sigma": sigma, "u_o": u}, g)
    rep.implied_constant = max(filter(math.isfinite, rep.lhs), default=math.inf)
    rep.verdict = _verdict(rep.lhs)
    return rep


def _sup_estimate(src, estimate_id, name, lam_name, lam, average, probe, lattice):
    """The L^inf measurement of `integral_harnack` and `sup_bound` on
    Q_{rho,s} = K_rho(x_o) x (t_o-s, t_o]:

        sup_{Q_{rho/2,s/2}} u  vs
        (rho^p/s)^{N/lam} A^{p/lam} + (s/rho^p)^{1/(q+1-p)}

    Requires q > p - 1 and lam > 0.  The sup is over the lattice x lattice
    grid of Q_{rho/2,s/2}, and A = average(rows), rows the time rows of the
    Q_{rho,s} lattice; both lie inside the domain.  Returns the one-probe
    report with the implied gamma solving the inequality with equality."""
    e = src.exponents
    N, p, q = e.n_dim, e.p, e.q
    if q + 1 - p <= 0:
        raise RegimeError(f"{name} requires fast diffusion q > p - 1")
    if lam <= 0:
        raise RegimeError(f"{name} requires {lam_name} > 0, got {lam}")
    x_o, t_o, rho, s = probe["x_o"], probe["t_o"], probe["rho"], probe["s"]
    # Q_{rho/2,s/2} and Q_{rho,s}: one read, or one each from lattice 182 on
    lo = [[x_o - rho / 2, x_o - rho], [t_o - s / 2, t_o - s]]
    hi = [[x_o + rho / 2, x_o + rho], [t_o, t_o]]
    xs, ts, runs = _lattices(
        src, [(x_o, t_o, rho)] * 2, lo, hi, (lattice, lattice), masked=False
    )
    inner, outer = (v for r in runs for v in src.lattice(("eval",), xs[r], ts[r])[0])
    sup_u = float(inner.max())
    mean = float(average(outer))  # np.float_power is libm pow; np.power is not
    # rho^p, the intrinsic time of level 1: (s/rho^p)^{1/(q+1-p)} is s's level
    rho_p = _intrinsic_time(e, 1.0, rho)
    try:
        rhs = (rho_p / s) ** (N / lam) * mean ** (p / lam) + (s / rho_p) ** (
            1 / (q + 1 - p)
        )
    except OverflowError:
        rhs = math.inf
    if rhs == math.inf:
        raise RegimeError(
            f"{name} right-hand side overflows at {lam_name} = {lam:.6g}"
        )
    rep = DiagnosticReport(estimate_id=estimate_id)
    rep.add(probe, sup_u, rhs)
    rep.implied_constant = sup_u / rhs
    rep.verdict = _verdict([rep.implied_constant])
    return rep


def integral_harnack(src, x_o, t_o, rho, s, lattice=32):
    """Integral Harnack measurement: `_sup_estimate` with lam = lambda_q and
    A = inf_t avg_{K_rho} u^q, the least slice mean.  lambda_q > 0 is the
    supercritical regime."""
    e = src.exponents
    return _sup_estimate(
        src, "integral_harnack", "integral Harnack", "lambda_q", e.lam_q,
        lambda rows: np.float_power(rows, e.q).mean(axis=1).min(),
        {"x_o": x_o, "t_o": t_o, "rho": rho, "s": s}, lattice,
    )


def sup_bound(src, x_o, t_o, rho, s, r, lattice=32):
    """Quantitative L^inf bound measurement with integrability exponent r:
    `_sup_estimate` with lam = lambda_r and A = avg_{Q_{rho,s}} u^r."""
    return _sup_estimate(
        src, "sup_bound", "sup bound", "lambda_r", src.exponents.lambda_r(r),
        lambda rows: np.float_power(rows, r).mean(),
        {"x_o": x_o, "t_o": t_o, "rho": rho, "s": s, "r": r}, lattice,
    )


def expansion_of_positivity(src, x_o, t_o, rho, M, alpha):
    """Expansion of positivity: given measure-theoretic positivity
    |{u(.,t_o) >= M} cap K_rho| >= alpha |K_rho|, scan delta = 2^-k for
    k < 10 and report the largest measured eta(delta) = inf u / M over
    K_{2 rho}(x_o) x (t_o + delta/2 theta, t_o + delta theta],
    theta = M^{q+1-p} rho^p; the measure fraction alpha lies in (0, 1].
    Both balls take 64 lattice points, and the slice and every window lie
    inside the domain."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    theta = _intrinsic_time(src.exponents, M, rho)
    deltas = [2.0**-k for k in range(10)]
    windows = [(d, t_o + d / 2 * theta, t_o + d * theta) for d in deltas]
    _, t_lo, t_hi = np.array(windows).T
    # the slice K_rho x {t_o}, then the windows over K_{2 rho}, all checked first
    probe = (x_o, t_o, rho)
    xs0, ts0, _ = _lattices(
        src, [probe], [[x_o - rho], [t_o]], [[x_o + rho], [t_o]], (64, 1), masked=False
    )
    xs, ts, runs = _lattices(src, [probe] * 10, [[x_o - 2 * rho] * 10, t_lo],
                             [[x_o + 2 * rho] * 10, t_hi], (64, 8), masked=False)
    (vals0,) = src.lattice(("eval",), xs0, ts0)
    frac = float(np.mean(vals0 >= M))
    if frac < alpha:
        raise RegimeError(
            f"measure hypothesis fails: |u >= M| fraction {frac:.3f} < alpha={alpha}"
        )
    rep = DiagnosticReport(estimate_id="expansion_of_positivity")
    etas = [
        v / M for run in runs
        for v in src.lattice(("eval",), xs[run], ts[run])[0].min(axis=(1, 2)).tolist()
    ]
    for (delta, lo, hi), eta in zip(windows, etas):
        rep.add({"delta": delta, "t_lo": lo, "t_hi": hi}, eta)
    rep.implied_constant = max([0.0, *etas])
    rep.verdict = "bounded" if rep.implied_constant > 0 else "inconclusive"
    return rep


def check_extinction_run(problem, x_o=()):
    """The signed distance to the boundary (<= 0 on or past the edge) of a
    zero-boundary problem with q + 1 > p, a positive and finite initial
    mass int u^{q+1} and every probe of x_o inside, checked before any step;
    a RegimeError otherwise.  The mass is `integral_uq1` of the initial
    field, as `slice_functionals` takes it of every row."""
    e = problem.exponents
    if e.q + 1 - e.p <= 0:
        raise RegimeError("extinction analysis requires q + 1 > p")
    if problem.boundary != "zero_dirichlet":
        raise RegimeError("extinction analysis requires zero Dirichlet boundary")
    g = problem.grid
    with np.errstate(over="ignore"):
        mass = integral_uq1(g, e.q, np.array(problem.initial, float))
    if not 0 < mass < math.inf:
        raise RegimeError("extinction analysis requires a " + (
            "finite initial mass: int u^{q+1} overflows" if mass == math.inf
            else "positive initial mass: int u^{q+1} is 0"
        ))
    d_bound = lambda x: min(x - g.x_lo, g.x_hi - x) if (
        g.geometry == "cartesian"
    ) else (g.x_hi - abs(x))
    for x in x_o:
        if not d_bound(x) > 0:
            raise RegimeError(f"probe x_o={x} is not inside the domain")
    return d_bound


def extinction_analysis(traj, x_o=()):
    """Extinction diagnostics on a zero-boundary fast-diffusion run:

    (i)   numerical extinction time T_num (first time max u < 1e-8);
    (ii)  energy comparison v(t) = ||u||_{q+1}^{q+1} <= w(t - t_start), with w
          the explicit ODE solution built from the discrete Rayleigh-quotient
          constant mu = (q+1)/q min_t ||Du||_p^p / ||u||_{q+1}^p;
    (iii) implied constants of the decay estimates
          u(x_o,t_o) <= gamma [(T-t_o)/d^p]^{1/(q+1-p)} (and its gradient
          form) at the probe points, for t_o in (T/2, T).  A probe on or
          past the domain edge (distance d <= 0) raises RegimeError.

    Verdict bounded iff v <= w up to 5% of v0 and T_num - t_start <= T_bound."""
    d_bound = check_extinction_run(traj.problem, x_o)
    e = traj.problem.exponents
    p, q = e.p, e.q
    fn = slice_functionals(traj)
    times, v = fn["t"], fn["int_uq1"]
    sup_u = fn["sup_u"]
    rep = DiagnosticReport(estimate_id="extinction")
    # (i) numerical extinction time
    extinct = np.nonzero(sup_u < 1e-8)[0]
    if extinct.size == 0:
        rep.verdict = "inconclusive"
        return rep
    T_num = float(times[extinct[0]])
    # (ii) Rayleigh-quotient constant from slices with non-trivial mass
    v0 = v[0]
    rows = np.flatnonzero(v > 1e-3 * v0)
    # ||u||_{q+1}^p as powers of numpy scalars, row by row: numpy's array
    # power may differ from them in the last bit
    norms_u = [(v_i ** (1.0 / (q + 1))) ** p for v_i in v[rows]]
    ratios = gradient_p_norm(traj, rows) / norms_u
    mu = (q + 1) / q * float(np.min(ratios))
    kexp = q + 1 - p
    T_bound = float((q + 1) * v0 ** (kexp / (q + 1)) / (mu * kexp))
    t_start = traj.problem.t_start
    elapsed = times - t_start
    w = v0 * np.clip(
        1.0 - mu * kexp * elapsed / ((q + 1) * v0 ** (kexp / (q + 1))), 0.0, None
    ) ** ((q + 1) / kexp)
    excess = np.max(v - w)
    max_excess = float(excess / v0)
    # (iii) decay constants at probes, all in one read of one row per t_o; a
    # t_o before t_start clamps to the first stored row, as `eval` does
    src = SolutionSource(traj)
    probe_consts = []
    t_os = np.linspace(0.55 * T_num, 0.9 * T_num, 4)
    us, grads = src.lattice(("eval", "grad_norm"), np.reshape(x_o, (-1, 1)), t_os)
    for x, u_x, g_x in zip(x_o, us.tolist(), grads.tolist()):
        d = d_bound(x)
        for t_o, (uval,), (gval,) in zip(t_os, u_x, g_x):
            rate = ((T_num - t_o) / d**p) ** (1 / kexp)
            probe_consts.append(
                {
                    "x_o": x,
                    "t_o": float(t_o),
                    "gamma_u": uval / rate,
                    "gamma_du": gval / (rate / d),
                }
            )
    rep.probes = probe_consts
    rep.lhs = [float(excess)]
    rep.rhs = [float(v0)]
    rep.implied_constant = max(
        [pc["gamma_u"] for pc in probe_consts], default=0.0
    )
    within = max_excess <= 0.05 and T_num - t_start <= T_bound * (1 + 1e-12)
    rep.verdict = "bounded" if within else "diverging"
    rep.extras = dict(T_num=T_num, T_bound=T_bound, mu=mu, max_excess=max_excess)
    return rep


def decay_exponent_fit(sol, x_o):
    """Log-log fit of u(x_o, t) against (T - t) at 24 times in [0.9 T, 0.999 T]
    of a closed-form family with a T parameter.  Returns (slope, r_squared)."""
    T = getattr(sol, "T", None)
    if T is None:
        raise RegimeError(f"decay fit needs a family with a time T, not {sol.family}")
    ts = T - (T * (1 - 0.9)) * np.logspace(
        0, math.log10((1 - 0.999) / (1 - 0.9)), 24
    )
    if not T - ts[-1] > 0:  # a subnormal T leaves the last T - t 0
        raise RegimeError(f"decay fit needs T - t > 0 at its times; T = {T!r} leaves 0")
    sol.check_lattice([x_o], ts)
    vals = sol.eval_lattice([x_o], ts)[:, 0]
    return _loglog_fit(np.log(T - ts), np.log(vals))


def _loglog_fit(X, Y):
    """Slope and r^2 of the least-squares line through (X, Y), logs of the
    data.  A constant Y shows no power law: slope 0.0 and r^2 0.0."""
    if Y.min() == Y.max():
        return 0.0, 0.0
    slope, intercept = np.polyfit(X, Y, 1)
    resid = Y - (slope * X + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((Y - Y.mean()) ** 2))
    return float(slope), r2


def gradient_bound(src, probes, lattice=32):
    """Intrinsic gradient bound sup_{Q_o} |Du| <= gamma u_o / rho.

    probes: iterable of (x_o, t_o, rho).  K_emp = sup_{Q_o}|Du| rho / u_o per
    probe, with Q_o the symmetric intrinsic cylinder.  lattice=1 degenerates
    the cylinder to its center point (used by the closed-form ratio presets).
    Verdict by `_verdict` over K_emp."""
    rep, probes = DiagnosticReport(estimate_id="gradient_bound"), list(probes)
    u_o, [(_, sup_du)] = _cylinders(src, probes, 1.0, lattice, ("grad_norm",))
    for (x_o, t_o, rho), u, du in zip(probes, u_o, sup_du.tolist()):
        rep.add({"x_o": x_o, "t_o": t_o, "rho": rho, "u_o": u}, du * rho / u)
    rep.implied_constant = max(rep.lhs)
    rep.verdict = _verdict(rep.lhs)
    return rep


def holder_fit(src, x_o, t_o, radii, lattice=16):
    """Gradient Hoelder exponent fit: oscillation of Du over nested intrinsic
    cylinders Q_r vs r, slope of the log-log fit (capped at 1; a fit above 1
    means the profile is smoother than any Hoelder class detects).

    The report's extras hold alpha_fit, alpha_raw, r_squared and the
    Lipschitz constant of u.  Verdict bounded iff 0 < alpha_fit <= 1 and
    r_squared >= 0.9."""
    radii = list(radii)
    if len(radii) < 4:
        raise ValueError("need at least 4 radii for the fit")
    _, [(g_lo, g_hi), (u_lo, u_hi)] = _cylinders(
        src, [(x_o, t_o, rho) for rho in radii], 1.0, lattice, ("grad_norm", "eval")
    )
    oscs = g_hi - g_lo
    lips = [u / rho for u, rho in zip((u_hi - u_lo).tolist(), radii)]
    rep = DiagnosticReport(estimate_id="holder_fit")
    for rho, osc in zip(radii, oscs):
        rep.add({"rho": rho}, float(osc))
    if np.all(oscs < 1e-12):
        alpha = slope = math.inf
        r2 = 1.0
    else:
        slope, r2 = _loglog_fit(np.log(radii), np.log(np.maximum(oscs, 1e-300)))
        alpha = min(slope, 1.0)
        rep.implied_constant = float(np.max(oscs / np.asarray(radii) ** alpha))
    rep.verdict = "bounded" if 0 < alpha <= 1 and r2 >= 0.9 else "inconclusive"
    rep.extras = {
        "alpha_fit": alpha,
        "alpha_raw": float(slope),
        "r_squared": r2,
        "lipschitz": float(max(lips)),
    }
    return rep
