"""Tests for the config grammar and the experiment-runner CLI."""

import contextlib
import io
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dnl_lab import cli, solver
from dnl_lab.cli import (
    ConfigError,
    Output,
    _apply_overrides,
    _digits17,
    _export_lines,
    parse_config_text,
    serialize_config,
    PRESETS,
    SUBCOMMANDS,
    preset,
    run,
)
from dnl_lab.solver import StepFailure, solve


class TestConfigGrammar:
    def test_basic_parse(self):
        tree = parse_config_text(
            """
# comment
[exponents]
p = 2      # inline comment
q = 2.5
N = 3
[probes]
radii = 0.5,1,2
"""
        )
        assert tree["exponents"]["p"] == "2"
        assert tree["probes"]["radii"] == "0.5,1,2"

    def test_unknown_section_location(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("\n[bogus]\n")
        assert exc.value.line == 2
        assert "bogus" in str(exc.value)

    def test_unknown_key_location(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("[exponents]\n  zz = 1\n")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_key_outside_section(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("p = 2\n")
        assert exc.value.line == 1

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("[exponents]\njust a line\n")

    def test_unterminated_header(self):
        with pytest.raises(ConfigError):
            parse_config_text("[exponents\n")

    def test_round_trip(self):
        tree = {"exponents": {"p": "2", "q": "3"}, "grid": {"x_hi": "1"}}
        assert parse_config_text(serialize_config(tree)) == tree


class TestPresets:
    def test_names_stable(self):
        assert set(PRESETS) == {
            "thm-harnack-supercritical",
            "harnack-fail-trudinger",
            "harnack-fail-critical-wave",
            "harnack-fail-borderline",
            "gradbound-supercritical",
            "gradbound-fail-trudinger",
            "extinction-bound",
            "extinction-decay-fit",
            "integral-harnack-supercritical",
            "supbound-fast-diffusion",
            "expansion-positivity",
            "holder-supercritical",
            "residual-trudinger-gaussian",
            "critical-b-arbitration",
            "solver-supercritical-run",
            "comparison-ordered",
            "model-classic-gas",
            "model-nanoporous-gas",
            "model-nanoporous-oil",
        }

    def test_all_parse_and_round_trip(self):
        for name in PRESETS:
            sub, cfg = preset(name)
            assert sub in SUBCOMMANDS
            assert parse_config_text(serialize_config(cfg)) == cfg

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("no-such-preset")


class TestOverrides:
    def test_bare_key_outside_subcommand_sections(self):
        # no section is named `solve`; the schema order finds h_sequence
        cfg = _apply_overrides({}, ["--h_sequence", "0.1"], "solve")
        assert cfg == {"residual": {"h_sequence": "0.1"}}

    @pytest.mark.parametrize("family_set", [False, True])
    @pytest.mark.parametrize("key", ["p", "q", "N", "a", "b", "alpha"])
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_shared_bare_key_section(self, sub, key, family_set):
        # the six keys that two sections share: [family] takes p, q, N, a
        # and b when its id is set; else p, q, N go to [exponents], a and b
        # to [model], and alpha to [model] under `model`, [probes] otherwise
        if family_set and key != "alpha":
            section = "family"
        elif key in ("p", "q", "N"):
            section = "exponents"
        elif key in ("a", "b") or sub == "model":
            section = "model"
        else:
            section = "probes"
        cfg = {"family": {"id": "trudinger_gaussian"}} if family_set else {}
        want = {**cfg, section: {**cfg.get(section, {}), key: "7"}}
        assert _apply_overrides(cfg, [f"--{key}", "7"], sub) == want


# a dipole whose far field the probes below read, and the line it refuses with
_DIPOLE = ["--family.id", "dipole_self_similar", "--family.N", "3", "--family.p", "1.1"]
_DIPOLE_DOMAIN = (
    "outside validity domain of dipole_self_similar: |x| > 0, t < T, and "
    "(T-t)^(-1/p) and C xi^a are <= DBL_MAX/2, xi = |x| (T-t)^(-1/p), "
    "a = |lam1|/(p-1)\n"
)
# the one line of every usage error
_USAGE = (
    "error: usage: dnl-lab SUBCOMMAND [--preset NAME] [--config FILE] "
    "[--out PREFIX] [--key VALUE ...]; subcommands: "
    + ", ".join(SUBCOMMANDS) + "\n"
)
# `extinction-bound` overrides whose initial u^{q+1} underflows to 0 in
# every cell
_EMPTY_MASS = (
    ["--initial_scale", "1e-300"], ["--initial_scale", "5e-324"], ["--q", "1e200"],
)
# and overrides whose initial u^{q+1} overflows
_OVERFLOWING_MASS = (
    ["--initial_scale", "1e150"], ["--q", "300", "--initial_scale", "20"],
)


class TestRun:
    def test_regimes_stdout(self, capsys):
        code = run(["regimes", "--p", "2", "--q", "2", "--N", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.split("\n", 1)[0] == (
            "p,q,N,diffusion_kind,supercritical_harnack,at_harnack_critical,"
            "bounded_guaranteed,at_boundedness_critical,lambda_q"
        )
        assert "fast" in text

    def test_counterexample_preset_exits_2(self, capsys):
        assert run(["harnack", "--preset", "harnack-fail-trudinger"]) == 2
        assert "diverging" in capsys.readouterr().out

    def test_supercritical_gradbound_preset(self, capsys):
        assert run(["gradbound", "--preset", "gradbound-supercritical"]) == 0
        assert "bounded" in capsys.readouterr().out

    def test_model_preset(self, capsys):
        assert run(["model", "--preset", "model-classic-gas"]) == 0
        out = capsys.readouterr().out
        assert "p_exp" in out
        assert "0.5" in out  # q_exp of the isothermal gas

    def test_unknown_preset_exits_1(self, capsys):
        assert run(["regimes", "--preset", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_solve_stdout_matches_out_files(self, capsys, tmp_path):
        argv = ["solve", "--preset", "solver-supercritical-run"]
        prefix = tmp_path / "run"
        assert run(argv + ["--out", str(prefix)]) == 0
        assert capsys.readouterr().out == ""
        assert run(argv) == 0
        files = prefix.with_suffix(".csv").read_text()
        files += prefix.with_suffix(".meta").read_text()
        assert capsys.readouterr().out.split("\n") == files.split("\n")
        assert files.startswith("t,x,u\n0,")

    SOLVER_SCANS = [
        ("harnack", "thm-harnack-supercritical"),
        ("integral-harnack", "integral-harnack-supercritical"),
        ("supbound", "supbound-fast-diffusion"),
        ("holder", "holder-supercritical"),
    ]

    @pytest.mark.parametrize("sub, name", SOLVER_SCANS)
    def test_unread_family_keys_exit_1(self, capsys, sub, name):
        # a solver-backed preset sets no [family] id, so [family] is unread
        argv = [sub, "--preset", name, "--family.p", "3", "--family.q", "2.5"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {sub} does not read [family] p, [family] q\n"

    def test_expand_reads_no_family_id(self, capsys):
        # expansion of positivity is measured on a run, never a closed form
        argv = ["expand", "--preset", "expansion-positivity", "--family.id",
                "trudinger_gaussian"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expand does not read [family] id\n"

    @pytest.mark.parametrize("sub, name", SOLVER_SCANS)
    def test_bare_exponent_override_reaches_the_solver(self, capsys, sub, name):
        assert run([sub, "--preset", name]) == 0
        before = capsys.readouterr().out
        run([sub, "--preset", name, "--q", "2.5"])
        after = capsys.readouterr().out
        assert "[family]" not in after
        assert "[exponents]\nN = 3\np = 2\nq = 2.5\n" in after
        # the summary line is the last line: the run used q = 2.5
        assert after.splitlines()[-1] != before.splitlines()[-1]

    def test_bare_exponent_override_reaches_the_family(self, capsys):
        # the closed-form decay fit of extinction reads [family], not
        # [exponents]
        assert run(["extinction", "--preset", "extinction-decay-fit", "--q", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "[exponents]" not in captured.out
        assert (
            "[family]\nN = 40\nT = 1\nid = supercritical_extinction\np = 2\nq = 4\n"
            in captured.out
        )

    def test_bare_key_section_does_not_depend_on_token_order(self, tmp_path):
        # a --family.id after a bare key still sends the key to [family]
        tail = ["--N", "3", "--p", "2", "--x_o", "1", "--t_o", "0.5", "--radii", "0.5"]
        outputs = []
        for head in (["--q", "5", "--family.id", "separable_blowup"],
                     ["--family.id", "separable_blowup", "--q", "5"]):
            prefix = tmp_path / str(len(outputs))
            assert run(["harnack", *head, *tail, "--out", str(prefix)]) == 0
            outputs.append([prefix.with_suffix(s).read_bytes() for s in (".csv", ".meta")])
        assert outputs[0] == outputs[1]

    def test_unread_solver_key_of_a_family_preset_exits_1(self, capsys):
        argv = ["harnack", "--preset", "harnack-fail-trudinger", "--n_cells", "10"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: harnack does not read [grid] n_cells\n"

    def test_flux_mean_is_no_config_key(self, capsys):
        argv = ["solve", "--preset", "solver-supercritical-run",
                "--flux_mean", "harmonic"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown config key 'flux_mean'\n"

    def test_comparison_switched_off_is_the_plain_solve(self, capsys, tmp_path):
        # `enabled = false` leaves initial_b, scale_b and tol unused, not unread
        off, plain = tmp_path / "off", tmp_path / "plain"
        argv = ["solve", "--preset", "comparison-ordered",
                "--comparison.enabled", "false", "--out", str(off)]
        assert run(argv) == 0
        argv = ["solve", "--preset", "solver-supercritical-run", "--out", str(plain)]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        csv = lambda prefix: prefix.with_suffix(".csv").read_bytes()
        assert csv(off) == csv(plain)

    def test_comparison_key_without_its_switch_exits_1(self, capsys):
        argv = ["solve", "--preset", "solver-supercritical-run",
                "--comparison.tol", "1e-3"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: solve does not read [comparison] tol\n"

    def test_scan_solver_failure_exits_1(self, capsys):
        # the first step fails, and so does a split of it at t = 31/128 dt
        argv = ["harnack", "--preset", "thm-harnack-supercritical", "--p", "1.5",
                "--q", "0.3", "--initial", "inner_bump"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: nonlinear iteration did not converge at step 1 of 200, "
            "t=4.84375e-05: "
        )
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("sub, name", [
        ("harnack", "thm-harnack-supercritical"),
        ("holder", "holder-supercritical"),
        ("expand", "expansion-positivity"),
        ("supbound", "supbound-fast-diffusion"),
        ("integral-harnack", "integral-harnack-supercritical"),
    ])
    def test_scan_over_a_sliver_span_exits_1(self, capsys, sub, name):
        # a span under 1e-9 dt is one short step, not a grid with no step
        assert run([sub, "--preset", name, "--t_end", "1e-15"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("k, code", [(100, 1), (106, 1), (107, 0), (200, 0)])
    def test_scan_fails_only_on_a_step_it_reads(self, monkeypatch, capsys, k, code):
        # the preset reads no time past t = 0.0212, stored row 106 of 200;
        # every step fails from call k on, so step k fails split 7 times
        real = solver.step
        calls = []

        def failing(problem, u_prev, t, dt, config, disc=None):
            calls.append(t)
            if len(calls) >= k:
                raise StepFailure("nonlinear iteration did not converge",
                                  t + dt, 1.0, 1e-3)
            return real(problem, u_prev, t, dt, config, disc=disc)

        monkeypatch.setattr(solver, "step", failing)
        assert run(["harnack", "--preset", "thm-harnack-supercritical"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            # the last substep to fail ends dt/128 after step k starts
            assert captured.err.startswith(
                f"error: nonlinear iteration did not converge at step {k} of 200, "
                f"t={(k - 1) * 2e-4 + 2e-4 / 128:.6g}: "
            )
            assert len(calls) == k + 7
        else:
            assert captured.err == ""
            assert captured.out.endswith("harnack,bounded,1.3057754146851066\n")

    def test_solver_failure_exits_1(self, capsys):
        argv = ["solve", "--preset", "solver-supercritical-run"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # q < 1 at u = 0 must not warn
            argv += ["--p", "1.5", "--q", "0.3", "--initial", "inner_bump"]
            assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nonlinear iteration did not converge")
        assert err.count("\n") == 1

    def test_missing_lapack_extension_exits_1(self, monkeypatch, capsys):
        # numpy's linear algebra extension is searched for a symbol it lacks
        from numpy.linalg import _umath_linalg

        monkeypatch.setattr(solver, "_routines", None)
        monkeypatch.setattr(solver, "_SYMBOLS", ("scipy_dgtsv_64_", "no_ddot_"))
        assert run(["solve", "--preset", "solver-supercritical-run"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {_umath_linalg.__file__} exports no no_ddot_\n"
        assert solver._routines is None

    @pytest.mark.parametrize("p", ["3", "1e200"])
    def test_extinction_regime_checked_before_solving(self, monkeypatch, capsys, p):
        # q + 1 <= p: one error line, no warning and no step
        calls = []
        real = solver.step
        monkeypatch.setattr(
            solver, "step", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["extinction", "--preset", "extinction-bound", "--p", p]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: extinction analysis requires q + 1 > p\n"
        assert calls == []

    @pytest.mark.parametrize("override", _EMPTY_MASS)
    def test_empty_initial_mass_checked_before_solving(
        self, monkeypatch, capsys, override
    ):
        # int u^{q+1} of the initial row is 0: one error line and no step
        calls = []
        real = solver.step
        monkeypatch.setattr(
            solver, "step", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["extinction", "--preset", "extinction-bound", *override]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: extinction analysis requires a positive initial mass: "
            "int u^{q+1} is 0\n"
        )
        assert calls == []

    @pytest.mark.parametrize("geometry", [
        [], ["--geometry", "cartesian", "--x_lo", "-1", "--x_hi", "1"],
    ])
    def test_vanishing_data_below_q_one_converge(self, capsys, tmp_path, geometry):
        # q < 1 data that vanish converge, with no warning, where beta' is
        # regularized at 1e-12
        argv = ["solve", "--preset", "solver-supercritical-run", "--p", "2",
                "--q", "0.5", "--initial", "steep_bump",
                "--out", str(tmp_path / "run"), *geometry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "overrides, where",
        [
            # the t of the split substep that fails last
            ([], "step 1 of 200, t=4.84375e-05"),
            (["--geometry", "cartesian", "--x_lo", "-1", "--x_hi", "1"],
             "step 1 of 200, t=4.53125e-05"),
        ],
        ids=["radial", "cartesian"],
    )
    def test_solver_failure_names_step_and_ratio(self, capsys, overrides, where):
        argv = ["solve", "--preset", "solver-supercritical-run", "--p", "1.5",
                "--q", "0.3", "--initial", "inner_bump", *overrides]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: nonlinear iteration did not converge at {re.escape(where)}: "
            r"residual \d\.\d{3}e[+-]\d\d = [0-9.e+]+× tol\n",
            err,
        ), err
        ratio = float(err.split(" = ")[1].split("×")[0])
        assert ratio > 100  # acceptance is at 100 × tol

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["gradbound", "--preset", "gradbound-fail-trudinger", "--radii", ""],
             "[probes] radii"),
            (["harnack", "--preset", "harnack-fail-trudinger", "--radii", ""],
             "[probes] radii"),
            (["harnack", "--preset", "harnack-fail-trudinger", "--x_o", ""],
             "[probes] x_o"),
            (["exact-residual", "--preset", "residual-trudinger-gaussian",
              "--h_sequence", ""], "[residual] h_sequence"),
        ],
    )
    def test_empty_list_exits_1(self, capsys, argv, key):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad value for {key}: empty list\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            *[
                ([sub, "--preset", name, "--lattice", n],
                 "bad value for [probes] lattice: must be >= 1")
                for sub, name, n in [
                    ("harnack", "harnack-fail-trudinger", "0"),
                    ("gradbound", "gradbound-fail-trudinger", "-1"),
                    ("integral-harnack", "integral-harnack-supercritical", "0"),
                    ("supbound", "supbound-fast-diffusion", "-3"),
                    ("holder", "holder-supercritical", "0"),
                ]
            ],
            *[
                ([sub, "--preset", name, "--radii", radii],
                 "bad value for [probes] radii: every radius must be finite and > 0")
                for sub, name, radii in [
                    ("harnack", "harnack-fail-trudinger", "0"),
                    ("gradbound", "gradbound-fail-trudinger", "-1"),
                    ("holder", "holder-supercritical", "0.01,0.02,inf,0.04"),
                    ("harnack", "harnack-fail-trudinger", "1,nan"),
                ]
            ],
            (["extinction", "--preset", "extinction-bound", "--x_o", "1"],
             "probe x_o=1.0 is not inside the domain"),
            (["extinction", "--preset", "extinction-bound", "--x_o", "0.2,2"],
             "probe x_o=2.0 is not inside the domain"),
            *[
                ([sub, "--preset", name, f"--{key}", value],
                 f"bad value for [{section}] {key}: {subject} must be finite and > 0")
                for sub, name, section, key, value, subject in [
                    ("integral-harnack", "integral-harnack-supercritical",
                     "probes", "rho", "-0.3", "rho"),
                    ("supbound", "supbound-fast-diffusion",
                     "probes", "s", "0", "s"),
                    ("integral-harnack", "integral-harnack-supercritical",
                     "probes", "s", "nan", "s"),
                    ("expand", "expansion-positivity", "probes", "M", "0", "M"),
                    ("exact-residual", "residual-trudinger-gaussian",
                     "residual", "h_sequence", "0.01,0", "every step"),
                ]
            ],
            *[
                (["harnack", "--preset", "harnack-fail-borderline", "--a", a],
                 "requires a and T finite and > 0")
                for a in ("0", "-1")
            ],
            # rows whose message was reworded keep their pytest ids, which
            # name the message they had before
            pytest.param(
                ["solve", "--preset", "solver-supercritical-run",
                 "--boundary", "dirichlet"],
                "bad value for [solver] boundary: must be one of zero_dirichlet",
                id="argv18-dirichlet boundary requires boundary_values",
            ),
            *[
                (["expand", "--preset", "expansion-positivity", "--alpha", alpha],
                 "bad value for [probes] alpha: alpha must be in (0, 1]")
                for alpha in ("0", "-1", "nan")
            ],
            (["solve", "--preset", "solver-supercritical-run",
              "--newton_tol", "nan"],
             "bad value for [solver] newton_tol: newton_tol must be finite and > 0"),
            (["solve", "--preset", "solver-supercritical-run", "--t_end", "inf"],
             "bad value for [solver] t_end: t_end must be finite"),
            (["solve", "--preset", "solver-supercritical-run", "--t_end", "-1"],
             "t_start and t_end must be finite, t_start < t_end"),
            # each keeps its pytest id, which names the message it had
            # before the scans shared one refusal
            *[
                pytest.param(
                    ["holder", "--preset", "holder-supercritical", "--x_o", x_o],
                    f"cylinder leaves the domain at probe ({x_o}, 0.02, {rho})",
                    id=f"argv{i}-cylinder of radius {rho} leaves the domain",
                )
                for i, x_o, rho in (
                    (25, "1.0", 0.01), (26, "-1.0", 0.01), (27, "0.95", 0.06)
                )
            ],
            (["extinction", "--family.id", "trudinger_gaussian",
              "--family.p", "2", "--family.N", "1"],
             "decay fit needs a family with a time T, not trudinger_gaussian"),
            (["harnack", "--family.id", "separable_blowup", "--x_o", "1",
              "--t_o", "0.5", "--radii", "1"],
             "family 'separable_blowup' requires N, p, q"),
            # a radius whose square overflows is inf, with no numpy warning
            (["harnack", "--preset", "harnack-fail-trudinger", "--x_o", "1e200"],
             "u(x_o,t_o) <= 0 at probe (1e+200, 2.0, 1.0)"),
            (["gradbound", "--preset", "gradbound-supercritical", "--x_o", "1e200",
              "--t_o", "0.5", "--radii", "4"],
             "u(x_o,t_o) <= 0 at probe (1e+200, 0.5, 4.0)"),
            *[
                pytest.param(
                    [sub, "--preset", name, "--x_o", "0", "--rho", "1.5",
                     "--lattice", "2"],
                    "cylinder leaves the domain at probe (0.0, 0.03, 1.5)",
                    id=f"argv{i}-no valid slices in the cylinder",
                )
                for i, sub, name in [
                    (32, "integral-harnack", "integral-harnack-supercritical"),
                    (33, "supbound", "supbound-fast-diffusion"),
                ]
            ],
            (["gradbound", "--family.id", "ivanov_subsolution", "--x_o", "0.5",
              "--t_o", "0", "--radii", "0.46", "--lattice", "2"],
             "cylinder leaves the domain at probe (0.5, 0.0, 0.46)"),
            pytest.param(
                ["holder", "--family.id", "supercritical_extinction",
                 "--family.p", "2", "--family.q", "3", "--family.N", "40",
                 "--x_o", "1", "--t_o", "1.5", "--radii", "1,2,3,4"],
                "u(x_o,t_o) <= 0 at probe (1.0, 1.5, 1.0)",
                id="argv35-u(x_o, t_o) must be positive",
            ),
            # the family constructors' guards
            *[
                (["harnack", "--x_o", "1", "--t_o", "0", "--radii", "1",
                  "--family.id", fid, *keys], message)
                for fid, keys, message in [
                    ("separable_blowup", ["--N", "3", "--p", "2", "--q", "0.5"],
                     "requires q > p-1 and N(q-(p-1)) > pq for a real amplitude"),
                    ("critical_harnack_wave", ["--p", "2", "--N", "1"],
                     "requires N >= 2 and p < N"),
                    ("boundedness_borderline", ["--p", "3", "--N", "3"],
                     "requires p < N"),
                    ("boundedness_borderline", ["--p", "1", "--N", "2"],
                     "requires max{(q+1)/q, p} < N"),
                    ("ivanov_subsolution", ["--p", "3", "--N", "3"],
                     "requires p < N"),
                    ("ivanov_subsolution", ["--q", "0.1"],
                     "requires 1+q >= Np/(N-p)"),
                    ("ivanov_subsolution", ["--r0", "1.5"],
                     "requires r0 in (0, 1)"),
                    ("special_log_profile", ["--N", "1"], "requires N >= 2"),
                ]
            ],
            # a radius whose p-th power overflows
            (["harnack", "--preset", "harnack-fail-trudinger", "--radii", "1e200"],
             "radius 1e+200 is too large: rho^p overflows"),
            (["holder", "--preset", "holder-supercritical",
              "--radii", "0.01,0.02,0.03,1e200"],
             "radius 1e+200 is too large: rho^p overflows"),
            # the critical wave's arbitration, refused for any other family
            (["exact-residual", "--family.id", "supercritical_extinction",
              "--p", "2", "--q", "3", "--N", "4", "--T", "1", "--derive_b", "true"],
             "derive_b is for critical_harnack_wave, not "
             "supercritical_extinction"),
            (["solve", "--preset", "solver-supercritical-run",
              "--boundary", "from_exact"],
             "bad value for [solver] boundary: must be one of zero_dirichlet"),
            # a cylinder whose half-height's u power overflows (u_o = 8e159)
            *[
                ([sub, "--family.id", "separable_blowup", "--N", "5", "--p", "2",
                  "--q", "3", "--x_o", "1e-160", "--t_o", "0.5",
                  "--radii", "1,2,3,4", *lattice],
                 "cylinder half-height overflows at u = 8.16501e+159, radius 1.0")
                for sub, lattice in [
                    ("harnack", []), ("gradbound", ["--lattice", "4"]), ("holder", []),
                ]
            ],
            # more of the family constructors' guards, after the rows above so
            # that those keep their ids
            *[
                (["exact-residual", "--family.id", fid, *keys], message)
                for fid, keys, message in [
                    *[
                        ("special_log_profile", keys,
                         "requires r_max finite and 0.96 sqrt(r_max) > 1e-6")
                        for keys in (
                            ["--family.C", "1e300"], ["--family.N", "1000"],
                            ["--family.C", "-50"],
                        )
                    ],
                    ("ivanov_subsolution", ["--family.r0", "0.01"],
                     "requires rmin < r0"),
                    ("ivanov_subsolution", ["--family.r0", "1e-300"],
                     "requires rmin < r0"),
                ]
            ],
            # a residual lattice with times past T, and a log profile whose
            # table underflows to 0
            (["exact-residual", "--family.id", "separable_blowup", "--N", "5",
              "--p", "2", "--q", "3", "--T", "0.3"],
             "residual lattice leaves the validity domain of separable_blowup: "
             "|x| > 0 and t < T"),
            (["exact-residual", "--family.id", "special_log_profile",
              "--family.C", "250"],
             "requires f > 0 at every node of the profile table"),
            # the dipole's bracket C r^a + b vanishes at C < 0, and its tail
            # takes C > 0
            *[
                (["exact-residual", "--family.id", "dipole_self_similar",
                  "--family.N", "3", "--family.p", "1.1", "--family.C", c],
                 "requires C > 0")
                for c in ("0", "-1")
            ],
            # a dipole whose C r^a at the grid end r = 1e6 leaves the tail's
            # asymptote off by up to 94% (C = 1e-300) or overflows, and an
            # Ivanov rmin below the reach of its rate scan's differences
            *[
                (["exact-residual", "--family.id", fid, *keys], message)
                for fid, keys, message in [
                    ("dipole_self_similar",
                     ["--family.N", "3", "--family.p", "1.1", "--family.C", "1e-300"],
                     "requires C r^a >= 2^52 (2-p)/(p |lam1|) at the grid end "
                     "r = 1e6, a = |lam1|/(p-1)"),
                    *[
                        ("dipole_self_similar", ["--family.N", "3", *keys],
                         "requires r^a and C r^a finite at the grid end r = 1e6, "
                         "a = |lam1|/(p-1)")
                        for keys in (
                            ["--family.p", "1.1", "--family.C", "1e300"],
                            ["--family.p", "1.01"],
                        )
                    ],
                    *[
                        ("ivanov_subsolution", ["--family.rmin", rmin],
                         "requires rmin > 2e-07: the rate scan reads phi at "
                         "rmin - 2e-07")
                        for rmin in ("1e-100", "2e-7")
                    ],
                ]
            ],
            # residual sweeps that leave no order to fit: fewer than two
            # distinct widths, a width whose differences all round to 0, and
            # a sub-solution whose decay rate leaves its window no times
            *[
                (["exact-residual", "--preset", "residual-trudinger-gaussian",
                  "--h_sequence", hs], message)
                for hs, message in [
                    *[
                        (hs, "the residual order needs at least two distinct "
                             f"stencil widths, got {hs.replace(',', ', ')}")
                        for hs in ("0.01", "0.01,0.01")
                    ],
                    ("5e-324,1e-3",
                     "max residual 0 at stencil width 5e-324 is not finite and "
                     "> 0: its logarithm fits no order"),
                ]
            ],
            (["exact-residual", "--family.id", "ivanov_subsolution",
              "--family.rmin", "0.04"],
             "residual window of ivanov_subsolution is empty: r 0.1 to 0.85, "
             "t 0.01 to 0.00914829"),
            # a closed-form center outside the domain: the DomainError of the
            # source's one-point read, with the family's validity description
            (["harnack", "--preset", "harnack-fail-critical-wave", "--x_o", "0",
              "--t_o", "-1e300"],
             "(0.0, -1e+300) outside validity domain of critical_harnack_wave: "
             "|x|^kappa or e^{bt} is at least 2 DBL_MAX^(-1/(gamma+1))"),
        ],
    )
    def test_bad_probe_exits_1(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_parser_survives_a_rejected_run(self, tmp_path, capsys):
        # a usage error returns exit 1 and one line, and leaves the runs
        # before and after it with the same bytes
        def good(tag):
            prefix = tmp_path / tag
            argv = ["harnack", "--preset", "harnack-fail-borderline"]
            assert run(argv + ["--out", str(prefix)]) == 2
            return [prefix.with_suffix(s).read_bytes() for s in (".csv", ".meta")]

        first = good("a")
        assert run(["bogus-subcommand"]) == 1
        assert capsys.readouterr() == ("", _USAGE)
        assert good("b") == first

    def test_subcommand_mismatch_exits_1(self, capsys):
        assert run(["regimes", "--preset", "model-classic-gas"]) == 1
        assert "belongs to subcommand" in capsys.readouterr().err

    def test_bad_override_exits_1(self, capsys):
        assert run(["regimes", "--zz", "1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_required_key_exits_1(self, capsys):
        assert run(["regimes", "--p", "2"]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_section_qualified_override(self, capsys):
        code = run(
            ["regimes", "--exponents.p", "2", "--q", "4", "--N", "3"]
        )
        assert code == 0
        assert "slow" not in capsys.readouterr().out

    def test_config_file_and_output_files(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("[exponents]\np = 2\nq = 2\nN = 3\n")
        prefix = tmp_path / "result"
        code = run(
            ["regimes", "--config", str(cfgfile), "--out", str(prefix)]
        )
        assert code == 0
        csv_text = (prefix.with_suffix(".csv")).read_text()
        assert csv_text.splitlines()[0].startswith("p,q,N,")
        meta_text = (prefix.with_suffix(".meta")).read_text()
        assert "[exponents]" in meta_text
        assert "classification,fast" in meta_text

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert run(["regimes", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            prefix = tmp_path / tag
            code = run(
                [
                    "gradbound",
                    "--preset",
                    "gradbound-fail-trudinger",
                    "--out",
                    str(prefix),
                ]
            )
            assert code == 2
            outputs.append((prefix.with_suffix(".csv")).read_bytes())
        assert outputs[0] == outputs[1]

    def test_residual_preset(self, tmp_path):
        prefix = tmp_path / "res"
        code = run(
            [
                "exact-residual",
                "--preset",
                "residual-trudinger-gaussian",
                "--out",
                str(prefix),
            ]
        )
        assert code == 0
        meta = (prefix.with_suffix(".meta")).read_text()
        assert "verdict,pass" in meta
        assert "fitted_order," in meta


def _row_lines(traj):
    """The `t,x,u` lines as `Output.add_row` formats them, cell by cell:
    bytes, each ending in a newline."""
    out = Output(None)
    xs = traj.problem.grid.centers()
    for t, u in zip(traj.times, traj.fields):
        for x, v in zip(xs, u):
            out.add_row([t, x, v])
    return out.lines


class TestExportLines:
    SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e22, 0.1]

    def test_special_values_match_add_row(self):
        _, cfg = preset("solver-supercritical-run")
        cfg["grid"]["n_cells"] = str(len(self.SPECIAL))
        cfg["solver"]["t_end"] = "4e-4"
        traj = solve(*cli.build_problem(cfg))
        traj.fields[1] = np.array(self.SPECIAL)
        traj.fields[2] = -np.array(self.SPECIAL)
        traj.times[1] = np.float64(traj.times[1])
        # items are blocks of lines; the body bytes are what `emit` writes
        assert b"".join(_export_lines(traj)) == b"".join(_row_lines(traj))

    @staticmethod
    def _check_full_export(tmp_path, monkeypatch, overrides):
        """`solve --out` of the full preset (200 cells, 201 times) against
        the `add_row` text of the trajectory that same run solved."""
        trajs = []

        def recorded(problem, config):
            trajs.append(solve(problem, config))
            return trajs[-1]

        monkeypatch.setattr(cli, "solve", recorded)
        prefix = tmp_path / "run"
        argv = ["solve", "--preset", "solver-supercritical-run", *overrides]
        assert run(argv + ["--out", str(prefix)]) == 0
        (traj,) = trajs
        want = b"t,x,u\n" + b"".join(_row_lines(traj))
        got = prefix.with_suffix(".csv").read_bytes()
        # line lists: a failure names the first differing line at once
        assert got.split(b"\n") == want.split(b"\n")
        assert got.count(b"\n") == 1 + 40_200
        assert b"\r" not in got

    @pytest.mark.parametrize(
        "geometry",
        [
            ["--geometry", "radial"],
            ["--geometry", "cartesian", "--x_lo", "-1", "--x_hi", "1"],
        ],
    )
    def test_solve_export_matches_add_row(self, tmp_path, monkeypatch, geometry):
        self._check_full_export(tmp_path, monkeypatch, geometry)

    def test_q_below_one_export_matches_add_row(self, tmp_path, monkeypatch):
        self._check_full_export(tmp_path, monkeypatch, ["--p", "1.2", "--q", "0.5"])


class TestEmit:
    """`emit` writes the header line and the body items, each ending in a
    newline, to `prefix.csv` and to stdout, followed by the meta: the same
    bytes on both paths, with no carriage return."""

    CFG = {"solver": {"dt": "0.001"}}
    META = serialize_config(CFG)

    @staticmethod
    def _output(case, prefix):
        out = Output(prefix)
        if case != "no-header":
            out.set_header(["t", "x", "u"])
        if case in ("add-row", "mixed"):
            for k in range(5):
                out.add_row([0.1 * k, k, -0.0])
        if case != "add-row":
            line = "0.25,0.123456789,0.98765432101234567"
            out.add_lines(
                "".join(f"{k}.{j},{line}\n" for j in range(300)).encode()
                for k in range(60)
            )
        if case == "mixed":
            out.add_row(["nan", float("inf"), 1e-300])
        return out

    @staticmethod
    def _want(out):
        header = ",".join(out.header) + "\n" if out.header else ""
        return header.encode() + b"".join(out.lines)

    CASES = ["add-row", "blocks", "no-header", "mixed"]

    @pytest.mark.parametrize("case", CASES)
    def test_file_and_stdout(self, case, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        out = self._output(case, prefix)
        want = self._want(out)
        if case != "add-row":
            assert len(want) >= 3 * cli._WRITE_BUFFER
        out.emit(self.CFG)
        csv = (tmp_path / "run.csv").read_bytes()
        assert csv == want
        assert b"\r" not in csv
        meta = (tmp_path / "run.meta").read_bytes()
        assert meta == self.META.encode()
        self._output(case, None).emit(self.CFG)
        # stdout is the two files, one after the other
        assert capsys.readouterr().out.encode() == csv + meta

    @pytest.mark.parametrize("case", CASES)
    def test_text_stream_without_buffer(self, case):
        """stdout redirected to a text stream with no binary buffer gets
        the same text."""
        stream = io.StringIO()
        assert not hasattr(stream, "buffer")
        out = self._output(case, None)
        with contextlib.redirect_stdout(stream):
            out.emit(self.CFG)
        assert stream.getvalue() == self._want(out).decode() + self.META


def _band_values(lo, hi, count, seed):
    """`count` floats drawn uniformly over the bit patterns of [lo, hi)."""
    bits = np.array([lo, hi]).view(np.int64)
    return np.random.default_rng(seed).integers(*bits, count).view(np.float64)


def _near_powers_of_ten(steps=40):
    """The doubles within `steps` ulps of 1e-4, 1e-3, 0.01, 0.1 and 1 that
    lie in [1e-4, 1)."""
    near = []
    for power in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        for toward in (0.0, 2.0):
            v = power
            for _ in range(steps):
                near.append(v)
                v = np.nextafter(v, toward)
    near = np.unique(near)
    return near[(near >= 1e-4) & (near < 1.0)]


class TestDigits17:
    """`_digits17` against dtoa: '0.' + z zeros + m is `'%.17g' % v`."""

    @staticmethod
    def _check(values):
        z, m = _digits17(np.asarray(values, dtype=float))
        got = ["0." + "0" * a + "%d" % b for a, b in zip(z.tolist(), m.tolist())]
        want = ["%.17g" % v for v in values.tolist()]
        assert got == want

    def test_random_bit_patterns(self):
        self._check(_band_values(1e-4, 1.0, 200_000, seed=22))

    def test_next_to_powers_of_ten(self):
        near = _near_powers_of_ten()
        assert near.size > 300
        self._check(near)

    def test_shape_is_kept(self):
        values = _band_values(1e-4, 1.0, 12, seed=3).reshape(3, 4)
        z, m = _digits17(values)
        assert z.shape == m.shape == (3, 4)
        self._check(values.ravel())

    def test_value_written_at_the_next_power(self):
        # 0.099999999999999999 parses to the double nearest 0.1, above it
        self._check(np.array([0.099999999999999999, 0.0099999999999999999,
                              0.00099999999999999999, 0.5, 0.25, 0.125]))

    @pytest.mark.parametrize(
        "bits, lo, hi, X", [(18, 0.1, 1.0, -1), (21, 1e-4, 1e-3, -4),
                            (24, 1e-4, 1.0, None), (28, 1e-4, 1.0, None)]
    )
    def test_binary_fractions_round_half_to_even(self, bits, lo, hi, X):
        """k / 2^bits with k odd, up to about 40,000 of them in [lo, hi):
        x·10^(16−X) = k·5^(16−X)·2^(16−X−bits) ends in exactly .5 where
        X = 17 − bits, so every value at 2^18 in [0.1, 1) and at 2^21 in
        [1e-4, 1e-3) is a tie of 17 digits."""
        # an odd half-stride: k mod 4, and so m's parity, alternates
        first = math.ceil(lo * 2**bits) | 1
        stride = 2 * (int((hi - lo) * 2**bits) // 80_000 | 1)
        values = np.arange(first, hi * 2**bits, stride) / 2.0**bits
        assert values[0] >= lo and values.size > 900
        if X is not None:
            scaled = [Fraction(v) * Fraction(10) ** (16 - X) for v in values[:50]]
            assert {f.denominator for f in scaled} == {2}
        self._check(values)

    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_log10_one_ulp_off(self, monkeypatch, toward):
        """A log10 one ulp low or high gives X one too small at the powers of
        ten, or one too large just below them: the exact product moves X
        back."""
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: np.nextafter(log10(x), toward))
        self._check(np.concatenate([_near_powers_of_ten(),
                                    _band_values(1e-4, 1.0, 20_000, seed=7)]))

    def test_no_double_in_the_band_rounds_to_ten_to_the_17(self):
        """The largest double below each power of ten 10^k in (1e-4, 1]
        scales, exactly, to less than 1e17 - 1/2 at X = k - 1: so m never
        rounds up to 10^17 and needs no carry."""
        for k in range(-3, 1):
            below = np.nextafter(float(Fraction(10) ** k), 0.0)
            if Fraction(below) >= Fraction(10) ** k:
                below = np.nextafter(below, 0.0)
            assert Fraction(below) < Fraction(10) ** k
            assert Fraction(below) * 10 ** (17 - k) < 10**17 - Fraction(1, 2)

    def test_mixed_rows_match_add_row(self):
        """Rows in the band and rows the `%.17g` path keeps, across the
        chunks of 32 rows that 200 cells make: the same bytes as
        `add_row`."""
        _, cfg = preset("solver-supercritical-run")
        cfg["solver"]["t_end"] = "0.014"
        traj = solve(*cli.build_problem(cfg))
        assert len(traj.fields) == 71
        specials = [0.0, -0.0, 1.0, 1.5, 1e-5, 5e-324, float("nan"),
                    float("inf"), -float("inf")]
        band = _band_values(1e-4, 1.0, 200, seed=5)
        for i, special in zip((0, 3, 31, 32, 40, 63, 64, 69, 70), specials):
            row = band.copy()
            row[(7 * i) % 200] = special
            traj.fields[i] = row
        traj.fields[33] = _near_powers_of_ten()[:200]
        for i in (34, 35):
            traj.fields[i] = band
        lines = b"".join(_export_lines(traj))
        assert lines == b"".join(_row_lines(traj))
        assert lines.count(b"\n") == 71 * 200


@pytest.mark.parametrize(
    "argv, key",
    [
        (["integral-harnack", "--preset", "integral-harnack-supercritical",
          "--x_o", "0.4,0.5"], "x_o"),
        (["supbound", "--preset", "supbound-fast-diffusion",
          "--t_o", "0.02,0.03"], "t_o"),
        (["expand", "--preset", "expansion-positivity",
          "--x_o", "0.3,0.4"], "x_o"),
        (["holder", "--preset", "holder-supercritical",
          "--t_o", "0.01,0.02"], "t_o"),
        (["extinction", "--preset", "extinction-decay-fit",
          "--x_o", "0,1"], "x_o"),
    ],
)
def test_one_probe_point_takes_one_value(capsys, argv, key):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad value for [probes] {key}: takes one value\n"


def _exits_cleanly(capfd, argv):
    """`run(argv)`: no exception (warnings are errors) and no C-level output
    such as LAPACK's DLASCL lines; exit 0, 1 or 2, and on exit 1 one
    `error:` line and nothing on stdout.  Returns the exit code."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    out, err = capfd.readouterr()
    assert code in (0, 1, 2), argv
    assert "DLASCL" not in out, argv
    if code == 1:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    else:
        assert err == "", argv
    return code


def _fuzz(capfd, name, section, key):
    """[section] key set to 0, -1, nan, inf and "" on the preset: exits as
    `_exits_cleanly` says, and a value that is no finite number or is empty
    always exits 1."""
    sub = PRESETS[name][0]
    for value in ("0", "-1", "nan", "inf", ""):
        argv = [sub, "--preset", name, f"--{section}.{key}", value]
        code = _exits_cleanly(capfd, argv)
        if value in ("nan", "inf", ""):
            assert code == 1, argv


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_key_fuzzed(capfd, name):
    """Every key of the preset, fuzzed as `_fuzz` says."""
    _, cfg = preset(name)
    for section, key in [(s, k) for s in sorted(cfg) for k in sorted(cfg[s])]:
        _fuzz(capfd, name, section, key)


_SOLVER_KEYS = ("p", "q", "initial_scale", "t_end", "t_start", "newton_tol", "dt",
                "x_lo", "x_hi", "N")
_EXTREMES = ("1e-300", "-1e-300", "5e-324", "1e200", "1e300", "-1e300")
# just past a threshold: p above 1, q above p - 1, p above N, Gamma(N/2)
# overflowing; and a flux power that overflows on the Newton iterates
_NEAR_THRESHOLD = (
    ["--p", "1.000001"],
    ["--p", "2", "--q", "1.000001"],
    ["--p", "1.5", "--q", "0.500001"],
    ["--p", "5", "--N", "3"],
    ["--N", "344"],
    ["--p", "400"],
)


_SCAN_PRESETS = sorted(
    name for name, (sub, _) in PRESETS.items()
    if sub in {"harnack", "integral-harnack", "supbound", "expand", "gradbound", "holder"}
)
_PROBE_EXTREMES = ("1e-300", "5e-324", "1e300", "-1e300", "1.7e308")


@pytest.mark.parametrize("name", _SCAN_PRESETS)
def test_probe_extremes_fuzzed(capfd, name):
    """Each [probes] key of a scan preset at each of `_PROBE_EXTREMES`:
    each exits as `_exits_cleanly` says (warnings are errors)."""
    sub, cfg = preset(name)
    for key in sorted(cfg["probes"]):
        for value in _PROBE_EXTREMES:
            _exits_cleanly(capfd, [sub, "--preset", name, f"--probes.{key}", value])


@pytest.mark.parametrize(
    "name", ["solver-supercritical-run", "extinction-bound", "holder-supercritical"]
)
def test_finite_extremes_fuzzed(capfd, name):
    """Each solver key at each of `_EXTREMES`, and the `_NEAR_THRESHOLD`
    cases, on a solve, an extinction run and a trajectory scan: each exits
    as `_exits_cleanly` says."""
    sub = PRESETS[name][0]
    cases = [[f"--{key}", value] for key in _SOLVER_KEYS for value in _EXTREMES]
    for args in cases + list(_NEAR_THRESHOLD):
        _exits_cleanly(capfd, [sub, "--preset", name, *args])


@pytest.mark.parametrize(
    "name, section, key",
    [
        ("solver-supercritical-run", "solver", "t_start"),
        ("solver-supercritical-run", "solver", "initial_scale"),
        ("solver-supercritical-run", "solver", "newton_tol"),
        ("residual-trudinger-gaussian", "residual", "h_sequence"),
        ("model-classic-gas", "model", "reynolds"),
    ],
)
def test_non_preset_key_fuzzed(capfd, name, section, key):
    """A key that no preset sets, fuzzed on a preset whose run reads it."""
    _fuzz(capfd, name, section, key)


@pytest.mark.parametrize(
    "name, section, key",
    [
        ("residual-trudinger-gaussian", "residual", key)
        for key in ("r_lo", "r_hi", "t_lo", "t_hi", "n_r", "n_t")
    ]
    + [
        ("expansion-positivity", "probes", "delta_scan"),
        ("solver-supercritical-run", "solver", "max_newton"),
        ("solver-supercritical-run", "solver", "floor_eps"),
    ]
    + [
        ("model-classic-gas", "model", key)
        for key in ("porosity", "viscosity", "prefactor")
    ],
)
def test_removed_key_is_unknown(capsys, tmp_path, name, section, key):
    """A key that the schema no longer has exits 1 with one `error:` line,
    given on the command line, bare or with its section, or in a config
    file."""
    sub = PRESETS[name][0]
    assert run([sub, "--preset", name, f"--{section}.{key}", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config key {section}.{key}\n"
    assert run([sub, "--preset", name, f"--{key}", "1e-6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown config key {key!r}\n"
    cfgfile = tmp_path / "removed.cfg"
    cfgfile.write_text(f"[{section}]\n{key} = 1\n")
    assert run([sub, "--preset", name, "--config", str(cfgfile)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: unknown key {key!r} in section [{section}] at line 2, column 1\n"
    )


def test_family_key_the_family_does_not_take_exits_1(capsys):
    argv = ["harnack", "--preset", "harnack-fail-trudinger", "--family.T", "1"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family 'trudinger_gaussian' takes no T\n"


@pytest.mark.parametrize("fid", sorted(cli.FAMILIES))
def test_family_without_its_parameters_exits_cleanly(capsys, fid):
    # a family given by its id alone: runs with the defaults or names what
    # it misses in one line
    code = run(["harnack", "--family.id", fid, "--x_o", "1", "--t_o", "0.5",
                "--radii", "1"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    # what a family misses is named by its config keys: N, not n_dim
    missing = re.fullmatch(rf"error: family '{fid}' requires (.+)\n", err)
    if missing:
        assert set(missing[1].split(", ")) <= set(cli.SCHEMA["family"])
    assert "n_dim" not in err


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["model", "--reynolds", "0.5"], 0, "0.5,power_law,2"),
        (["model", "--law", "power_law", "--alpha", "2", "--state", "polytropic",
          "--n", "2"], 0, "3,0.40000000000000002,4,6.666666666666667,density,"),
        (["model", "--law", "forchheimer", "--state", "ideal_isothermal"], 1,
         "error: forchheimer law does not reduce to a power law: "),
        (["model", "--state", "weakly_compressible", "--K", "2"], 0,
         "2,1,1,6.666666666666667,pressure,inf,True"),
        (["model", "--state", "incompressible"], 0,
         "2,1,1,3.3333333333333335,pressure,inf,True"),
        (["model", "--law", "power_law", "--alpha", "2", "--state",
          "ideal_isothermal", "--m", "1"], 1,
         "error: pressure-dependent permeability is formulated on the Darcy law"),
        (["regimes", "oops", "1"], 1, "error: expected --key, got 'oops'"),
        (["regimes", "--p", "2", "--x_o"], 1, "error: missing value for --x_o"),
        (["regimes", "--nosuch.key", "1"], 1,
         "error: unknown config key nosuch.key"),
        # p >= N: no finite critical Harnack exponent to be close to
        (["regimes", "--p", "3", "--q", "2", "--N", "2"], 0,
         "3,2,2,trudinger,False,False,True,False,6"),
        (["supbound", "--preset", "supbound-fast-diffusion", "--q", "0.5"], 1,
         "error: sup bound requires fast diffusion q > p - 1"),
        (["exact-residual", "--family.id", "ivanov_subsolution"], 0,
         "subsolution_sign,pass"),
        # C < 0: the inner radius R(t) is inf at t >= T, with no warning, and
        # the cylinder that reaches it is refused.  The row keeps its pytest
        # id, which names the line it read before cylinders had to lie
        # inside the domain whole
        pytest.param(
            ["gradbound", "--preset", "gradbound-supercritical", "--lattice", "4",
             "--x_o", "16", "--t_o", "0.5", "--radii", "4", "--family.C", "-1"], 1,
            "error: cylinder leaves the domain at probe (16.0, 0.5, 4.0)\n",
            id="argv12-0-gradient_bound,bounded,0.9132642227262018",
        ),
        # lambda_r = 0.002: (rho^p/s)^(N/lambda_r) overflows
        (["supbound", "--family.id", "boundedness_borderline", "--family.p", "2",
          "--family.N", "3", "--x_o", "0", "--t_o", "0.5", "--rho", "1", "--s",
          "0.2", "--r", "6.001"], 1,
         "error: sup bound right-hand side overflows at lambda_r = 0.002\n"),
        # x_hi^3 overflows: the radial cell volumes cannot be formed
        (["solve", "--preset", "comparison-ordered", "--x_hi", "1e300", "--dt",
          "0.999"], 1, "error: radial grid requires x_hi^N finite\n"),
        # 5^p overflows: the Gaussian's exponent cannot be formed
        (["harnack", "--preset", "harnack-fail-trudinger", "--p", "1e200"], 1,
         "error: (5.0, 2.0) outside validity domain of trudinger_gaussian: "
         "t > 0 and neither t^(-N/(p(p-1))) nor |x|^p/(p t) overflows\n"),
        # rejected before a lattice x lattice array is built
        (["holder", "--preset", "holder-supercritical", "--lattice", "100000000"],
         1, "error: bad value for [probes] lattice: must be <= 1024\n"),
        (["gradbound", "--preset", "gradbound-supercritical", "--lattice", "1025"],
         1, "error: bad value for [probes] lattice: must be <= 1024\n"),
        # 5^2/(2 t) overflows at t = 1e-308
        (["harnack", "--preset", "harnack-fail-trudinger", "--t_o", "1e-308"], 1,
         "error: (5.0, 1e-308) outside validity domain of trudinger_gaussian: "
         "t > 0 and neither t^(-N/(p(p-1))) nor |x|^p/(p t) overflows\n"),
        # more than 10^6 steps: refused before the step list is built
        (["solve", "--preset", "solver-supercritical-run", "--dt", "1e-300"], 1,
         "error: t_end - t_start is 4e+298 steps of dt: over 10^6\n"),
        (["solve", "--preset", "solver-supercritical-run", "--t_end", "1e300"], 1,
         "error: t_end - t_start is 5e+303 steps of dt: over 10^6\n"),
        # the flux factor's power overflows, then beta(u0) and the
        # tolerance: the Newton kernel refuses the first step, with no
        # warning.  Both rows keep their pytest ids, which name the line a
        # check of the initial data printed before the kernel refused them
        pytest.param(
            ["solve", "--preset", "solver-supercritical-run", "--p", "1e200"], 1,
            "error: residual is not finite at step 1 of 200, t=1.5625e-06: "
            "residual nan = nan× tol\n",
            id="argv21-1-error: u^q or the flux |Du|^(p-2) Du overflows at u = "
            "0.999985 (initial data), |Du| = 1.57078, q = 2, p = 1e+200\n",
        ),
        pytest.param(
            ["solve", "--preset", "solver-supercritical-run", "--q", "400",
             "--initial_scale", "10"], 1,
            "error: tolerance is not finite at step 1 of 200, t=1.5625e-06: "
            "residual nan = nan× tol\n",
            id="argv22-1-error: u^q or the flux |Du|^(p-2) Du overflows at u = "
            "9.99985 (initial data), |Du| = 15.7078, q = 400, p = 2\n",
        ),
        # b = (N/q)^p = 1444 at N = 40: e^{bt} overflows, where u = 0
        (["exact-residual", "--preset", "critical-b-arbitration", "--N", "40"], 0,
         "critical_b,1444"),
        # the flux overflows on the first Newton iterates, not on the data
        (["solve", "--preset", "solver-supercritical-run", "--p", "400"], 1,
         "error: residual is not finite at step 1 of 200, t=1.5625e-06: "
         "residual nan = nan× tol\n"),
        # beta(u0) V/dt overflows: a step of the least double is not split
        (["solve", "--preset", "solver-supercritical-run", "--t_end", "5e-324"], 1,
         "error: tolerance is not finite at step 1 of 1, t=4.94066e-324: "
         "residual 2.393e-02 = 0× tol\n"),
        # x_hi / n_cells underflows to 0, x_hi - x_lo overflows to inf
        (["solve", "--preset", "solver-supercritical-run", "--x_hi", "5e-324"], 1,
         "error: cell width h = 0 must be finite and > 0\n"),
        (["harnack", "--preset", "thm-harnack-supercritical", "--x_hi", "5e-324"], 1,
         "error: cell width h = 0 must be finite and > 0\n"),
        (["solve", "--preset", "solver-supercritical-run", "--geometry", "cartesian",
          "--x_lo", "-1.7e308", "--x_hi", "1.7e308"], 1,
         "error: cell width h = inf must be finite and > 0\n"),
        # the unit sphere's area takes Gamma(N/2), which overflows at N = 344
        (["extinction", "--preset", "extinction-bound", "--N", "344"], 1,
         "error: radial grid requires N <= 343: Gamma(N/2) overflows\n"),
        # u^{q+1} underflows to 0 in every cell: no mass to compare with
        *(
            (["extinction", "--preset", "extinction-bound", *override], 1,
             "error: extinction analysis requires a positive initial mass: "
             "int u^{q+1} is 0\n")
            for override in _EMPTY_MASS
        ),
        # u^{q+1} overflows: refused before any step, where the mass would
        # warn (1e150) and the first step's tolerance would not be finite
        *(
            (["extinction", "--preset", "extinction-bound", *override], 1,
             "error: extinction analysis requires a finite initial mass: "
             "int u^{q+1} overflows\n")
            for override in _OVERFLOWING_MASS
        ),
        # p t overflows at t = 1.7e308, and so |x|^p/(p t) with it
        (["harnack", "--preset", "harnack-fail-trudinger", "--t_o", "1.7e308"], 1,
         "error: (5.0, 1.7e+308) outside validity domain of trudinger_gaussian: "
         "t > 0 and neither t^(-N/(p(p-1))) nor |x|^p/(p t) overflows\n"),
        (["gradbound", "--preset", "gradbound-fail-trudinger", "--t_o", "1.7e308"],
         1, "error: (2.0, 1.7e+308) outside validity domain of trudinger_gaussian"),
        # e^{bt} underflows to 0: u is infinite at the cylinder's point r = 0
        (["harnack", "--preset", "harnack-fail-critical-wave", "--t_o", "-1e300"],
         1, "error: cylinder leaves the domain at probe (1.0, -1e+300, 1.0)\n"),
        # rho^p underflows to 0, where s / rho^p divided by zero
        (["integral-harnack", "--preset", "integral-harnack-supercritical",
          "--rho", "1e-300"], 1,
         "error: radius 1e-300 is too small: rho^p underflows to 0\n"),
        (["supbound", "--preset", "supbound-fast-diffusion", "--rho", "5e-324"], 1,
         "error: radius 5e-324 is too small: rho^p underflows to 0\n"),
        # spans that overflow are refused before np.linspace builds a lattice
        (["supbound", "--preset", "supbound-fast-diffusion", "--rho", "1.7e308"], 1,
         "error: cylinder leaves the domain at probe (0.5, 0.03, 1.7e+308)\n"),
        (["expand", "--preset", "expansion-positivity", "--rho", "1.7e308"], 1,
         "error: radius 1.7e+308 is too large: rho^p overflows\n"),
        (["expand", "--preset", "expansion-positivity", "--x_o", "-1.7e308",
          "--rho", "1e154"], 1,
         "error: cylinder leaves the domain at probe (-1.7e+308, 0.005, 1e+154)\n"),
        # the dipole's far field: x * x overflows to a radius of inf, and C
        # xi^a overflows from xi of about 1e19 on
        (["harnack", *_DIPOLE, "--x_o", "1e300", "--t_o", "0.5", "--radii", "1",
          "--sigma", "0"], 1, f"error: (inf, 0.5) {_DIPOLE_DOMAIN}"),
        (["gradbound", *_DIPOLE, "--x_o", "1e200", "--t_o", "0.5", "--radii", "1",
          "--lattice", "1"], 1, f"error: (inf, 0.5) {_DIPOLE_DOMAIN}"),
        (["holder", *_DIPOLE, "--x_o", "1e100", "--t_o", "0.5", "--radii",
          "1,2,3,4"], 1, f"error: (1e+100, 0.5) {_DIPOLE_DOMAIN}"),
        # usage errors: the subcommand first, then --key value pairs only
        ([], 1, _USAGE),
        (["bogus"], 1, _USAGE),
        (["-h"], 1, _USAGE),
        (["--preset", "harnack-fail-trudinger", "harnack"], 1, _USAGE),
        (["harnack", "--preset"], 1, "error: missing value for --preset\n"),
        (["harnack", "--out"], 1, "error: missing value for --out\n"),
        (["harnack", "--preset=harnack-fail-trudinger"], 1,
         "error: missing value for --preset=harnack-fail-trudinger\n"),
        # strict pairing: x_o = "--preset", and the preset's name is a key
        (["harnack", "--x_o", "--preset", "harnack-fail-trudinger"], 1,
         "error: expected --key, got 'harnack-fail-trudinger'\n"),
    ],
)
def test_branch_exit_code(capsys, argv, code, line):
    """Branches of the model cards, the override grammar, `classify` and the
    sub-solution check: exit 0 with `line` starting a line of stdout, or exit
    1 with one `error:` line that `line` starts and nothing on stdout."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    captured = capsys.readouterr()
    if code == 1:
        assert captured.out == ""
        assert captured.err.startswith(line) and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
    else:
        assert captured.err == ""
        assert any(out.startswith(line) for out in captured.out.splitlines())
