#!/usr/bin/env python3
"""dnl-lab benchmark: whole `dnl-lab` operations in a closed loop.

One client, no threads: each operation is one `dnl_lab.cli.run(argv)` call
with `--out` into a work directory, and the next starts when the previous
one has been checked.  Every operation goes through the correctness gate
(exit code and sha256 of the CSV and meta bytes against `expected.json`).

    python3 bench/run.py                     every workload, one table
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --quick             gate only: each operation once
    python3 bench/run.py --record            rewrite expected.json

A single-workload run prints its results as one JSON object on the last
line of stdout: end-to-end metrics with `--trace 0`, per-layer metrics from
a traced run with `--trace 1`.  End-to-end timings are scaled to a fixed
machine speed (see reference.py).  The exit code is nonzero when an
operation fails the gate.  See NOTES.md for the metrics and what each should move.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import reference_seconds, speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
WORK = BENCH / ".work"

MODULES = ("cli", "solver", "diagnostics", "exact", "porous")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# p90 is valid with at least ten samples beyond it; 13 make it steadier
MIN_SAMPLES = 130
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
IMPORT_MODULES = {
    "core.import_s": "dnl_lab.core",
    "exact.import_s": "dnl_lab.exact",
    "solver.import_s": "dnl_lab.solver",
    "diagnostics.import_s": "dnl_lab.diagnostics",
    "porous.import_s": "dnl_lab.porous",
    "cli.import_s": "dnl_lab.cli",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program, no expected digests)."""


def pin_environment():
    """Single-threaded BLAS and no probe pool, in this process and its
    children only; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DNL_LAB_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)


def load_program():
    """The `dnl_lab` modules of this checkout, imported from `src/`."""
    if not (SRC / "dnl_lab" / "cli.py").is_file():
        raise SetupError(f"no dnl_lab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    program = {m: importlib.import_module(f"dnl_lab.{m}") for m in MODULES}
    if not Path(program["cli"].__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"dnl_lab was imported from outside {SRC}")
    return program


def load_expected():
    if not EXPECTED.is_file():
        raise SetupError(f"missing {EXPECTED}")
    return json.loads(EXPECTED.read_text())


def all_ops():
    return {
        f"{w}/{name}": argv
        for w, spec in WORKLOADS.items()
        for name, argv in spec["ops"].items()
    }


def workload_ops(workload):
    return {f"{workload}/{n}": a for n, a in WORKLOADS[workload]["ops"].items()}


# ---------------------------------------------------------------------------
# correctness gate


class Gate:
    """Runs operations and checks each against its recorded outcome."""

    def __init__(self, cli, expected, workdir):
        self.cli = cli
        self.expected = expected
        self.prefix = str(Path(workdir) / "op")
        self.attempted = 0
        self.failures = []  # (op id, reason)
        self.rows = 0  # CSV data rows written by gated operations

    def execute(self, argv):
        """One operation: (exit code or the exception raised, seconds)."""
        for suffix in (".csv", ".meta"):
            if os.path.exists(self.prefix + suffix):
                os.remove(self.prefix + suffix)
        t0 = time.perf_counter()
        try:
            code = self.cli.run(argv + ["--out", self.prefix])
        except (Exception, SystemExit) as exc:
            code = exc
        return code, time.perf_counter() - t0

    def outcome(self, code):
        """Exit code and output digests as recorded in expected.json."""
        got = {"exit": code}
        for suffix in ("csv", "meta"):
            path = f"{self.prefix}.{suffix}"
            if os.path.exists(path):
                with open(path, "rb") as f:
                    data = f.read()
                got[f"{suffix}_sha256"] = hashlib.sha256(data).hexdigest()
                if suffix == "csv":
                    got["rows"] = max(data.count(b"\n") - 1, 0)
        return got

    def run(self, op_id, argv):
        """Run and check one operation; returns its wall time in seconds."""
        code, seconds = self.execute(argv)
        self.attempted += 1
        reason = self._check(op_id, argv, code)
        if reason:
            self.failures.append((op_id, reason))
        return seconds

    def _check(self, op_id, argv, code):
        if isinstance(code, BaseException):
            return f"raised {type(code).__name__}: {code}"
        if code == 1:
            return "exit 1"
        want = self.expected.get(op_id)
        if want is None:
            return "no recorded outcome"
        if want["argv"] != argv:
            return "argv differs from the recorded one"
        got = self.outcome(code)
        self.rows += got.get("rows", 0)
        for key in ("exit", "csv_sha256", "meta_sha256"):
            if got.get(key) != want[key]:
                return f"{key} {got.get(key)} != recorded {want[key]}"
        return None


@contextlib.contextmanager
def gate_in_workdir(cli, expected):
    """A Gate whose outputs go to a fresh directory under bench/.work."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        yield Gate(cli, expected, workdir)


def closed_loop(gate, ops, rng, seconds, min_samples=0, tracer=None):
    """Whole shuffled passes until `seconds` have elapsed and at least
    `min_samples` operations ran.  Returns each pass as a pair: the per-op
    seconds, and the times of the reference loop run after each operation
    (outside its timing)."""
    passes = []
    start = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        samples, refs = [], []
        for op_id in order:
            if tracer is not None:
                tracer.op = op_id
            samples.append(gate.run(op_id, ops[op_id]))
            refs.append(reference_seconds())
        passes.append((samples, refs))
        if (
            time.perf_counter() - start >= seconds
            and len(passes) * len(ops) >= min_samples
        ):
            return passes


# ---------------------------------------------------------------------------
# set-up time


# The child takes the parent's start time on the system-wide monotonic
# clock, prints the seconds to the end of its import, then times the
# reference loop on its own CPU and prints the median of three.
_SETUP_PROBE = """import sys, time
import dnl_lab.cli
seconds = time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[1])
import statistics, reference
print(seconds, statistics.median(reference.reference_seconds() for _ in range(3)))
"""


def _fresh_import(*flags):
    """Run a fresh interpreter that imports dnl_lab.cli.  Returns the
    seconds from its start to the end of the import, the reference loop's
    seconds in that interpreter, and its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _SETUP_PROBE, repr(t0)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"import dnl_lab.cli failed:\n{proc.stderr}")
    seconds, ref = map(float, proc.stdout.split())
    return seconds, ref, proc.stderr


def setup_seconds():
    """Median over fresh interpreters of the import time, scaled to the
    reference speed by the median of the reference times they measured."""
    runs = [_fresh_import() for _ in range(SETUP_REPEATS)]
    return statistics.median(s for s, _, _ in runs) * speed([r for _, r, _ in runs])


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(stderr):
    """Cumulative seconds per module of interest from `-X importtime`.
    scipy.import_s sums the outermost scipy imports, wherever they occur."""
    entries = [
        (len(m.group(3)), m.group(4), int(m.group(2)) / 1e6)
        for m in map(_IMPORTTIME.match, stderr.splitlines())
        if m
    ]
    out = {metric: 0.0 for metric in IMPORT_MODULES}
    out["scipy.import_s"] = 0.0
    by_module = {name: metric for metric, name in IMPORT_MODULES.items()}
    # the log is post-order; walking it backwards visits parents first
    ancestors = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name in by_module:
            out[by_module[name]] = cumulative
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(a[1] for a in ancestors):
            out["scipy.import_s"] += cumulative
        ancestors.append((depth, is_scipy))
    return out


def setup_layers():
    runs = [import_times(_fresh_import("-X", "importtime")[2])
            for _ in range(IMPORTTIME_REPEATS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# metrics


def machine_facts(workload, seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "DNL_LAB_THREADS": os.environ.get("DNL_LAB_THREADS"),
    }


def scaled(passes):
    """Per-op seconds of each pass, scaled to the reference speed by the
    median of the pass's reference times."""
    return [[s * speed(refs) for s in samples] for samples, refs in passes]


def ops_per_s(passes):
    """Median over passes of operations per second spent in `cli.run`; every
    pass runs the same mix, so passes are comparable."""
    return statistics.median(len(p) / sum(p) for p in passes)


def end_to_end(passes, setup):
    """End-to-end metrics from the passes of an untraced run; every timing
    is scaled to the reference speed."""
    passes = scaled(passes)
    ms = [s * 1000 for p in passes for s in p]
    return {
        "ops_per_s": (ops_per_s(passes), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }


def per_layer(tracer, gate_rows, traced, untraced):
    """Per-pass layer numbers from the `traced` passes; the tracing overhead
    compares their throughput with the `untraced` passes of the same run."""
    from tracing import LAYERS, STEP_GRIDS

    busy, own = tracer.layer_times()
    c = tracer.counts
    op_s = sum(sum(samples) for samples, _ in traced)
    passes = len(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_pass(x):
        return x / passes

    steps = c["solver.steps"]
    m = {
        "cli.run_self_s": (per_pass(own["cli.run"]), "s/pass"),
        "cli.output_s": (per_pass(busy["cli.output"]), "s/pass"),
        "cli.output_rows": (per_pass(gate_rows), "count/pass"),
        "cli.output_us_per_row": (ratio(busy["cli.output"], gate_rows) * 1e6, "us"),
        "solver.solve_s": (per_pass(busy["solver.solve"]), "s/pass"),
        "solver.steps": (per_pass(steps), "count/pass"),
        "solver.newton_iters": (per_pass(c["solver.newton_iters"]), "count/pass"),
        "solver.step_us": (ratio(busy["solver.step"], steps) * 1e6, "us"),
    }
    for n in STEP_GRIDS:
        count, seconds = tracer.steps_by_cells.get(n, (0, 0.0))
        m[f"solver.step_us.n{n}"] = (ratio(seconds, count) * 1e6, "us")
    m.update(
        {
            "solver.newton_us": (
                ratio(busy["solver.step"], c["solver.newton_iters"]) * 1e6,
                "us",
            ),
            "solver.cell_steps_per_s": (
                ratio(c["solver.cell_steps"], busy["solver.step"]),
                "1/s",
            ),
            "solver.step_failures": (per_pass(c["solver.step_failures"]), "count/pass"),
            "solver.linsolve_s": (per_pass(busy["solver.linsolve"]), "s/pass"),
            "solver.linsolve_share": (
                ratio(busy["solver.linsolve"], busy["solver.solve"]),
                "share",
            ),
            "diag.source_build_s": (per_pass(busy["diag.source_build"]), "s/pass"),
            "diag.scan_s": (per_pass(busy["diag.scan"]), "s/pass"),
            "diag.scan_self_s": (per_pass(own["diag.scan"]), "s/pass"),
            "diag.points": (per_pass(c["diag.points"]), "count/pass"),
            "diag.points_per_s": (ratio(c["diag.points"], busy["diag.scan"]), "1/s"),
            "diag.valid_checks": (per_pass(c["diag.valid_checks"]), "count/pass"),
            "diag.valid_ratio": (
                ratio(c["diag.valid_accepted"], c["diag.valid_checks"]),
                "share",
            ),
            "exact.point_calls": (
                per_pass(tracer.leaf_calls("exact.point")),
                "count/pass",
            ),
            "exact.point_s": (per_pass(busy["exact.point"]), "s/pass"),
            "exact.residual_s": (per_pass(busy["exact.residual"]), "s/pass"),
            "exact.family_build_s": (per_pass(busy["exact.family_build"]), "s/pass"),
            "porous.map_s": (per_pass(busy["porous.map"]), "s/pass"),
        }
    )
    # accounting: layer self times partition the traced operation time
    for layer in LAYERS:
        m[f"{layer}_self_s"] = (per_pass(own[layer]), "s/pass")
    m["trace.op_s"] = (per_pass(op_s), "s/pass")
    m["trace.remainder_s"] = (per_pass(op_s - sum(own.values())), "s/pass")
    m["trace.overhead_share"] = (
        1.0 - ops_per_s(scaled(traced)) / ops_per_s(scaled(untraced)),
        "share",
    )
    return m


# ---------------------------------------------------------------------------
# modes


def run_workload(workload, seed, seconds, trace):
    """One measured run; returns (result, machine facts, failures)."""
    expected = load_expected()
    program = load_program()
    ops = workload_ops(workload)
    rng = random.Random(seed)
    with gate_in_workdir(program["cli"], expected) as gate:
        closed_loop(gate, ops, rng, 0)  # warm-up pass, gated, not timed
        facts = machine_facts(workload, seed)
        if not trace:
            setup = setup_seconds()
            passes = closed_loop(gate, ops, rng, seconds, MIN_SAMPLES)
            metrics = end_to_end(passes, setup)
            facts.update(
                passes=len(passes),
                percentile_samples=len(passes) * len(ops),
                ops_per_s_unscaled=ops_per_s([s for s, _ in passes]),
                speed=statistics.median(speed(refs) for _, refs in passes),
            )
        else:
            from tracing import Tracer  # imports numpy: after pin_environment

            half = seconds / 2
            untraced = closed_loop(gate, ops, rng, half)
            tracer = Tracer(program)
            tracer.install()
            rows_before = gate.rows
            try:
                traced = closed_loop(gate, ops, rng, half, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, gate.rows - rows_before, traced, untraced)
            metrics.update({k: (v, "s") for k, v in setup_layers().items()})
            spans_path = WORK / f"spans-{workload}-seed{seed}.json"
            tracer.write(spans_path)
            facts.update(
                untraced_passes=len(untraced),
                traced_passes=len(traced),
                ops_per_s_untraced=ops_per_s(scaled(untraced)),
                ops_per_s_traced=ops_per_s(scaled(traced)),
                spans=str(spans_path.relative_to(ROOT)),
                span_count=len(tracer.spans),
            )
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, facts, gate.failures


def quick(expected):
    """Each operation of every workload once through the gate, then one
    export twice to confirm identical bytes.  Returns the failures."""
    program = load_program()
    with gate_in_workdir(program["cli"], expected) as gate:
        for op_id, argv in all_ops().items():
            gate.run(op_id, argv)
        op_id = "solve-export/radial-p2-q2"
        argv = all_ops()[op_id]
        first, second = (gate.outcome(gate.execute(argv)[0]) for _ in range(2))
        if first != second:
            gate.failures.append((op_id, "two runs gave different bytes"))
    return gate.failures


def record():
    program = load_program()
    with gate_in_workdir(program["cli"], {}) as gate:
        expected = {}
        for op_id, argv in all_ops().items():
            code, _ = gate.execute(argv)
            if isinstance(code, BaseException) or code not in (0, 2):
                raise SetupError(f"{op_id}: refusing to record outcome {code!r}")
            got = gate.outcome(code)
            got.pop("rows", None)
            expected[op_id] = {"argv": argv, **got}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} operations in {EXPECTED.relative_to(ROOT)}")


def run_all(seed, seconds):
    """Each workload in its own process; prints every end-to-end metric."""
    ok = True
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        proc = subprocess.run(
            [sys.executable, __file__, *argv, "--trace", "0"],
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{workload}] FAILED (exit {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
    return ok


def print_run(result, facts, failures):
    print("facts " + json.dumps(facts, sort_keys=True))
    for op_id, reason in failures:
        print(f"FAILED {op_id}: {reason}")
    n = facts.get("percentile_samples")
    print(f"ops_failed {result['failed']}/{result['attempted']}")
    for name, m in result["metrics"].items():
        note = f"  (n={n})" if n and name.startswith("op_ms") else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    pin_environment()
    try:
        if args.record:
            record()
            return 0
        if args.quick:
            failures = quick(load_expected())
            for op_id, reason in failures:
                print(f"FAILED {op_id}: {reason}")
            print(f"quick: {len(failures)} failed of {len(all_ops())} operations")
            return 1 if failures else 0
        if args.workload is None:
            return 0 if run_all(args.seed, args.seconds) else 1
        result, facts, failures = run_workload(
            args.workload, args.seed, args.seconds, args.trace
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_run(result, facts, failures)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
