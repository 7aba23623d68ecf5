"""Tests of the benchmark itself, built on its quick mode.

    python -m pytest bench
"""

import copy
import statistics

import pytest

import run
from reference import REFERENCE_S
from tracing import Tracer


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


def test_quick_mode_passes_on_recorded_outputs(expected):
    assert run.quick(expected) == []


def test_gate_rejects_an_altered_digest(expected):
    altered = copy.deepcopy(expected)
    op_id = "closed-form-sweep/regimes-p2-q2-N3"
    altered[op_id]["csv_sha256"] = "0" * 64
    failures = run.quick(altered)
    assert [f[0] for f in failures] == [op_id]
    assert "csv_sha256" in failures[0][1]


class _RaisingCli:
    @staticmethod
    def run(argv):
        raise RuntimeError("boom")


def test_gate_counts_an_escaping_exception_and_keeps_going(tmp_path, expected):
    gate = run.Gate(_RaisingCli, expected, tmp_path)
    ops = run.workload_ops("closed-form-sweep")
    for op_id, argv in ops.items():
        gate.run(op_id, argv)
    assert gate.attempted == len(ops)
    assert len(gate.failures) == len(ops)
    assert gate.failures[0][1] == "raised RuntimeError: boom"


def test_layer_self_times_partition_the_operation_time(tmp_path, expected):
    program = run.load_program()
    original = program["cli"].solve
    gate = run.Gate(program["cli"], expected, tmp_path)
    tracer = Tracer(program)
    tracer.install()
    try:
        tracer.op = "solve-export/extinction-bound"
        seconds = gate.run(tracer.op, run.all_ops()[tracer.op])
    finally:
        tracer.uninstall()
    assert gate.failures == []
    assert program["cli"].solve is original
    busy, own = tracer.layer_times()
    root = [s for s in tracer.spans if s[0] == "cli.run"]
    assert len(root) == 1
    assert sum(own.values()) == pytest.approx(root[0][4] - root[0][3], rel=1e-9)
    assert 0 < busy["solver.solve"] < seconds
    assert busy["solver.linsolve"] > 0 and tracer.counts["solver.steps"] == 1200


def test_timings_scale_by_the_median_reference_of_their_pass():
    ref = REFERENCE_S
    passes = [([0.1, 0.3], [ref, 2 * ref, 2 * ref]), ([0.2], [ref / 2])]
    got = run.scaled(passes)
    assert got == [pytest.approx([0.05, 0.15]), pytest.approx([0.4])]
    assert run.ops_per_s(got) == pytest.approx(statistics.median([10.0, 2.5]))


def test_setup_probe_times_the_import_and_the_reference():
    seconds, ref, _ = run._fresh_import()
    assert 0 < seconds < 120 and 0 < ref < 1


def test_import_times_sums_outermost_scipy_imports():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy._lib",
            "import time:       200 |        300 |     scipy.integrate",
            "import time:        50 |        350 |   dnl_lab.core",
            "import time:        10 |        360 | dnl_lab",
            "import time:        40 |         40 |     scipy.interpolate",
            "import time:        20 |         60 |   dnl_lab.exact",
            "import time:        30 |        450 | dnl_lab.cli",
        ]
    )
    got = run.import_times(log)
    assert got["scipy.import_s"] == pytest.approx(340e-6)
    assert got["core.import_s"] == pytest.approx(350e-6)
    assert got["cli.import_s"] == pytest.approx(450e-6)
