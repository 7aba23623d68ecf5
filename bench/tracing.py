"""Layer spans for a traced benchmark run, recorded from outside the program.

`Tracer.install` replaces public functions of `dnl_lab.cli`, `solver`,
`diagnostics`, `exact` and `porous` with timing wrappers (in the defining
module and wherever another `dnl_lab` module imported the same object by
name); `uninstall` puts the originals back.  Nothing under `src/` changes.

Three kinds of wrapper, chosen per call frequency:

* span  -- one record per call: layer, start, end, parent span, operation id.
* leaf  -- per-row, per-point and per-linear-solve calls (hundreds of
  thousands per pass).  A record per call would cost more memory than the
  program itself, so each is summed into its enclosing span as a count and a
  time, keyed by that span.  Leaves call nothing that is traced.
* count -- `SolutionSource` point calls: counted by argument size, not timed.

Spans are kept in memory and written by `write` when the run ends.
"""

import functools
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, layer).  A dotted path names a method.
SPANS = [
    ("cli", "run", "cli.run"),
    ("cli", "Output.add_report", "cli.output"),
    ("cli", "Output.emit", "cli.output"),
    ("solver", "solve", "solver.solve"),
    ("solver", "step", "solver.step"),
    ("solver", "check_comparison", "solver.aux"),
    ("solver", "slice_functionals", "solver.aux"),
    ("solver", "gradient_p_norm", "solver.aux"),
    ("solver", "transform_to_v", "solver.aux"),
    ("diagnostics", "SolutionSource.__init__", "diag.source_build"),
    ("diagnostics", "harnack_scan", "diag.scan"),
    ("diagnostics", "integral_harnack", "diag.scan"),
    ("diagnostics", "sup_bound", "diag.scan"),
    ("diagnostics", "expansion_of_positivity", "diag.scan"),
    ("diagnostics", "extinction_analysis", "diag.scan"),
    ("diagnostics", "decay_exponent_fit", "diag.scan"),
    ("diagnostics", "gradient_bound", "diag.scan"),
    ("diagnostics", "holder_fit", "diag.scan"),
    ("exact", "make_family", "exact.family_build"),
    ("exact", "critical_wave_b", "exact.family_build"),
    ("exact", "pde_residual", "exact.residual"),
    ("exact", "max_residual", "exact.residual"),
    ("exact", "residual_order", "exact.residual"),
    ("exact", "derive_critical_b_report", "exact.residual"),
    ("exact", "derive_critical_b", "exact.residual"),
    ("porous", "to_dnl", "porous.map"),
    ("porous", "verify_mapping", "porous.map"),
    ("porous", "reynolds_regime", "porous.map"),
]
LEAVES = [
    ("cli", "Output.add_row", "cli.output"),
    ("solver", "solve_banded", "solver.linsolve"),
    ("exact", "ClosedFormSolution.eval", "exact.point"),
    ("exact", "ClosedFormSolution.grad", "exact.point"),
    ("exact", "ClosedFormSolution.dt_uq", "exact.point"),
]
POINT_COUNTS = [
    ("diagnostics", "SolutionSource.eval"),
    ("diagnostics", "SolutionSource.grad_norm"),
]
VALID_COUNT = ("diagnostics", "SolutionSource.valid")

LAYERS = [
    "cli.run",
    "cli.output",
    "solver.solve",
    "solver.step",
    "solver.linsolve",
    "solver.aux",
    "diag.source_build",
    "diag.scan",
    "exact.family_build",
    "exact.point",
    "exact.residual",
    "porous.map",
]
STEP_GRIDS = (80, 200, 1600)

_LAYER, _PARENT, _OP, _T0, _T1, _LEAF_S = range(6)


class Tracer:
    def __init__(self, program):
        self.program = program  # {"cli": module, "solver": module, ...}
        self.op = None
        self.spans = []  # [layer, parent index or -1, op, t0, t1, leaf seconds]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (span index, layer)
        self.counts = defaultdict(float)
        self.steps_by_cells = defaultdict(lambda: [0, 0.0])
        self._stack = []
        self._patches = []  # (owner, name, original)

    # -- wrappers ---------------------------------------------------------
    def _span(self, layer, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, stack[-1] if stack else -1, self.op, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            result, exc = None, None
            rec[_T0] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                rec[_T1] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, result, exc, rec[_T1] - rec[_T0])

        return wrapper

    def _leaf(self, layer, fn):
        spans, stack, leaves = self.spans, self._stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                if stack:
                    spans[stack[-1]][_LEAF_S] += d
                    agg = leaves[(stack[-1], layer)]
                    agg[0] += 1
                    agg[1] += d

        return wrapper

    def _count_points(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(src, x, t, *args, **kwargs):
            counts["diag.points"] += np.broadcast(x, t).size
            return fn(src, x, t, *args, **kwargs)

        return wrapper

    def _count_valid(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(src, x, t, *args, **kwargs):
            ok = fn(src, x, t, *args, **kwargs)
            counts["diag.valid_checks"] += np.broadcast(x, t).size
            counts["diag.valid_accepted"] += np.count_nonzero(ok)
            return ok

        return wrapper

    def _observe_step(self, args, result, exc, seconds):
        if exc is not None:
            if isinstance(exc, self.program["solver"].StepFailure):
                self.counts["solver.step_failures"] += 1
            return
        n = args[0].grid.n_cells
        self.counts["solver.steps"] += 1
        self.counts["solver.newton_iters"] += result[1]["iters"]
        self.counts["solver.cell_steps"] += n
        agg = self.steps_by_cells[n]
        agg[0] += 1
        agg[1] += seconds

    # -- patching ---------------------------------------------------------
    def _replace(self, module, path, make):
        owner = self.program[module]
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[name]
        wrapped = make(original)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapped)
        if not outer:  # rebind `from .module import name` copies elsewhere
            for mod in self.program.values():
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def install(self):
        for module, path, layer in SPANS:
            observe = self._observe_step if path == "step" else None
            self._replace(
                module, path, lambda f, l=layer, o=observe: self._span(l, f, o)
            )
        for cls in self.program["exact"].FAMILIES.values():
            if "__init__" in vars(cls):
                self._replace(
                    "exact",
                    f"{cls.__name__}.__init__",
                    lambda f: self._span("exact.family_build", f),
                )
        for module, path, layer in LEAVES:
            self._replace(module, path, lambda f, l=layer: self._leaf(l, f))
        for module, path in POINT_COUNTS:
            self._replace(module, path, self._count_points)
        self._replace(*VALID_COUNT, self._count_valid)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def layer_times(self):
        """(busy, self) seconds per layer.  Busy time skips calls made
        directly from a span of the same layer, so a layer calling itself is
        not counted twice; self time is a span minus its child spans and
        leaves."""
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        children = [0.0] * len(self.spans)
        for rec in self.spans:
            d = rec[_T1] - rec[_T0]
            parent = rec[_PARENT]
            if parent >= 0:
                children[parent] += d
            if parent < 0 or self.spans[parent][_LAYER] != rec[_LAYER]:
                busy[rec[_LAYER]] += d
        for i, rec in enumerate(self.spans):
            own[rec[_LAYER]] += rec[_T1] - rec[_T0] - children[i] - rec[_LEAF_S]
        for (parent, layer), (_, seconds) in self.leaves.items():
            own[layer] += seconds
            if self.spans[parent][_LAYER] != layer:
                busy[layer] += seconds
        return busy, own

    def leaf_calls(self, layer):
        return sum(n for (_, l), (n, _) in self.leaves.items() if l == layer)

    def write(self, path):
        """Spans as JSON: one object per span, leaves folded into their span."""
        leaves_by_span = defaultdict(dict)
        for (parent, layer), (n, seconds) in self.leaves.items():
            leaves_by_span[parent][layer] = {"calls": n, "seconds": seconds}
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        {
                            "id": i,
                            "layer": rec[_LAYER],
                            "parent": rec[_PARENT],
                            "op": rec[_OP],
                            "start": rec[_T0],
                            "end": rec[_T1],
                            "leaves": leaves_by_span.get(i, {}),
                        }
                        for i, rec in enumerate(self.spans)
                    ],
                    "counts": dict(self.counts),
                },
                f,
            )
