"""Benchmark workloads: named `dnl-lab` argv lists.

One pass runs every operation of a workload once, in an order the seed
shuffles.  The program sees only these argv lists (plus `--out`).

Left out on purpose: `solve --preset solver-supercritical-run --p 1.05
--q 0.2 --dt 0.01`, which fails today (StepFailure escapes `cli.run`).  Its
fix adds work to the run, so timing it would turn the bug fix into a
throughput regression.
"""

_RUN = ["solve", "--preset", "solver-supercritical-run"]


def _preset(sub, name):
    return [sub, "--preset", name]


WORKLOADS = {
    "estimate-scans": {
        "why": "trajectory-backed estimate scans: point-by-point diagnostics over"
        " one shared solver run that every operation re-solves",
        "ops": {
            name: _preset(sub, name)
            for sub, name in [
                ("harnack", "thm-harnack-supercritical"),
                ("integral-harnack", "integral-harnack-supercritical"),
                ("supbound", "supbound-fast-diffusion"),
                ("expand", "expansion-positivity"),
                ("holder", "holder-supercritical"),
            ]
        },
    },
    "solve-export": {
        "why": "solver and CSV writer: 40,200-row exports across the classify"
        " regimes and both geometries, next to two verdict-only solver runs",
        "ops": {
            "radial-p2-q2": _RUN,
            "trudinger-p3-q2": _RUN + ["--p", "3", "--q", "2"],
            "slow-p3-q1": _RUN + ["--p", "3", "--q", "1"],
            "fast-p1.5-q0.7": _RUN + ["--p", "1.5", "--q", "0.7"],
            "fast-p1.2-q0.5": _RUN + ["--p", "1.2", "--q", "0.5"],
            "cartesian-p2-q2": _RUN
            + ["--geometry", "cartesian", "--x_lo", "-1", "--x_hi", "1"],
            "comparison-ordered-1600": _preset("solve", "comparison-ordered")
            + ["--n_cells", "1600"],
            "extinction-bound": _preset("extinction", "extinction-bound"),
        },
    },
    "closed-form-sweep": {
        "why": "closed forms, residuals, model cards and regimes with no solver:"
        " exact point evaluation and per-operation CLI overhead",
        "ops": {
            **{
                name: _preset(sub, name)
                for sub, name in [
                    ("harnack", "harnack-fail-trudinger"),
                    ("harnack", "harnack-fail-critical-wave"),
                    ("harnack", "harnack-fail-borderline"),
                    ("gradbound", "gradbound-supercritical"),
                    ("gradbound", "gradbound-fail-trudinger"),
                    ("extinction", "extinction-decay-fit"),
                    ("exact-residual", "residual-trudinger-gaussian"),
                    ("exact-residual", "critical-b-arbitration"),
                    ("model", "model-classic-gas"),
                    ("model", "model-nanoporous-gas"),
                    ("model", "model-nanoporous-oil"),
                ]
            },
            "regimes-p2-q2-N3": ["regimes", "--p", "2", "--q", "2", "--N", "3"],
        },
    },
}
