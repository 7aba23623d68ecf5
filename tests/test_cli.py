"""Tests for the config grammar and the experiment-runner CLI."""

import warnings

import numpy as np
import pytest

from dnl_lab.cli import (
    ConfigError,
    Output,
    _apply_overrides,
    _export_lines,
    parse_config_text,
    serialize_config,
    PRESETS,
    SUBCOMMANDS,
    preset,
    run,
    run_solver,
)


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
        # no section of `solve` has h_sequence; the schema order finds it
        cfg = _apply_overrides({}, ["--h_sequence", "0.1"], "solve")
        assert cfg == {"residual": {"h_sequence": "0.1"}}

    def test_subcommand_sections_first(self):
        # alpha is a [probes] and a [model] key
        assert _apply_overrides({}, ["--alpha", "1"], "expand") == {
            "probes": {"alpha": "1"}
        }
        assert _apply_overrides({}, ["--alpha", "1"], "model") == {
            "model": {"alpha": "1"}
        }


class TestRun:
    def test_regimes_stdout(self, capsys):
        code = run(["regimes", "--p", "2", "--q", "2", "--N", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "diffusion_kind" in text
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

    def test_solver_failure_exits_1(self, capsys):
        argv = ["solve", "--preset", "solver-supercritical-run"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # q < 1 at u = 0 must not warn
            assert run(argv + ["--p", "1.05", "--q", "0.2", "--dt", "0.01"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: nonlinear iteration did not converge")
        assert err.count("\n") == 1

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
    """The `t,x,u` lines as `Output.add_row` formats them, cell by cell."""
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
        traj = run_solver(cfg)
        traj.fields[1] = np.array(self.SPECIAL)
        traj.fields[2] = -np.array(self.SPECIAL)
        traj.times[1] = np.float64(traj.times[1])
        assert _export_lines(traj) == _row_lines(traj)

    @pytest.mark.parametrize(
        "geometry",
        [["--geometry", "radial"], ["--geometry", "cartesian", "--x_lo", "-1"]],
    )
    def test_solve_export_matches_add_row(self, tmp_path, geometry):
        overrides = ["--n_cells", "9", "--t_end", "2e-3", *geometry]
        prefix = tmp_path / "run"
        argv = ["solve", "--preset", "solver-supercritical-run", *overrides]
        assert run(argv + ["--out", str(prefix)]) == 0
        _, cfg = preset("solver-supercritical-run")
        traj = run_solver(_apply_overrides(cfg, overrides, "solve"))
        want = "t,x,u\n" + "\n".join(_row_lines(traj)) + "\n"
        assert prefix.with_suffix(".csv").read_text() == want
        assert len(traj.times) == 11
