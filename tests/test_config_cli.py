import dataclasses
import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frachp.cli import main
from frachp.config import RunConfig, config_lines, parse_config
from frachp.core import Trajectory, make_grid
from frachp.errors import ConfigError, MissingKey, ParseError, UnknownKey
from frachp.integrator import initial_state

REFERENCE_TEXT = """\
# pendulum run at the reference parameter set
system = pendulum
alpha = 0.6
beta = 0.3
t_eval = 0.8
h = 0.0001
n_steps = 7000
seed = 1
"""


def assert_cli_rejects(tmp_path, capsys, command, text, match):
    """`frachp <command>` on text exits 1 with a one-line error, no outputs."""
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "bad_out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.search(match, err) and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def sha256s(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def small_config(tmp_path, name="run.cfg", **overrides):
    base = {"system": "pendulum", "alpha": 0.6, "beta": 0.3,
            "t_eval": 0.8, "h": 0.001, "n_steps": 300, "seed": 1,
            "out": str(tmp_path / "out")}
    base.update(overrides)
    text = "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"
    cfg_path = tmp_path / name
    cfg_path.write_text(text, encoding="utf-8")
    return cfg_path, base


class TestParseConfig:
    def test_reference_parameter_set(self):
        cfg = parse_config(REFERENCE_TEXT)
        assert cfg.system == "pendulum"
        assert cfg.alpha == 0.6 and cfg.beta == 0.3
        assert cfg.t_eval == 0.8 and cfg.h == 0.0001
        assert cfg.n_steps == 7000 and cfg.seed == 1
        # defaults survive
        assert cfg.gamma == "cos" and cfg.plot is True

    def test_alpha_out_of_range_names_key(self):
        with pytest.raises(ParseError, match="alpha"):
            parse_config(REFERENCE_TEXT.replace("alpha = 0.6", "alpha = 1.5"))

    def test_empty_text_missing_key(self):
        with pytest.raises(MissingKey, match="system"):
            parse_config("")

    def test_unknown_key_with_line_number(self, tmp_path, capsys):
        for key in ("alfa", "rate"):
            text = REFERENCE_TEXT + f"{key} = 0.6\n"
            with pytest.raises(UnknownKey, match=f"line 9.*{key}"):
                parse_config(text)
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(text, encoding="utf-8")
            assert main(["volterra", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
            assert "unknown key" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_duplicate_key_names_both_lines(self, tmp_path, capsys):
        text = REFERENCE_TEXT + "h = 0.001\n"
        with pytest.raises(ParseError, match=r"'h'.*line 6.*line 9"):
            parse_config(text)
        assert_cli_rejects(tmp_path, capsys, "simulate", text,
                           r"duplicate key 'h'")

    @pytest.mark.parametrize("key, line", [("h", "h = 0.0001"),
                                           ("t_eval", "t_eval = 0.8")])
    def test_nan_rejected_with_key(self, tmp_path, capsys, key, line):
        text = REFERENCE_TEXT.replace(line, f"{key} = nan")
        with pytest.raises(ParseError, match=key):
            parse_config(text)
        assert_cli_rejects(tmp_path, capsys, "simulate", text, key)

    @pytest.mark.parametrize("command", ["simulate", "convergence",
                                         "action-check", "volterra"])
    @pytest.mark.parametrize("line", [
        "t_end = inf", "mu = inf", "sigma = inf", "x0 = inf", "t_eval = inf",
        "h = -inf", "alpha = inf", "q0 = nan", "p0 = inf", "q0 = 1.0, -inf",
    ])
    def test_nonfinite_value_rejected_with_key(self, tmp_path, capsys,
                                               command, line):
        key = line.split(" = ")[0]
        text = "\n".join(row for row in REFERENCE_TEXT.splitlines()
                         if not row.startswith(f"{key} ")) + f"\n{line}\n"
        with pytest.raises(ParseError, match=rf"^{key}=.* must be finite"):
            parse_config(text)
        assert_cli_rejects(tmp_path, capsys, command, text,
                           rf"{key}=.* must be finite")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("just words\n" + REFERENCE_TEXT)

    def test_bad_value_reports_key(self):
        with pytest.raises(ParseError, match="n_steps"):
            parse_config(REFERENCE_TEXT.replace("n_steps = 7000",
                                            "n_steps = many"))

    def test_levels_minimum(self):
        with pytest.raises(ParseError, match="levels"):
            parse_config(REFERENCE_TEXT + "levels = 2\n")

    def test_vector_values(self):
        cfg = parse_config(REFERENCE_TEXT + "q0 = 1.0, 2.0\np0 = 0.5, -0.5\n")
        assert cfg.q0 == (1.0, 2.0) and cfg.p0 == (0.5, -0.5)

    def test_roundtrip_through_serializer(self):
        cfg = parse_config(REFERENCE_TEXT + "plot = false\ngamma = const\n")
        again = parse_config(config_lines(cfg))
        assert again == cfg


_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
_VALUES = st.one_of(
    st.sampled_from(["0.5", "1", "0", "-1", "7000", "nan", "inf", "1e400",
                     "true", "off", "1.0, 2.0", "1,", "cos", "const",
                     "pendulum", "metric:polar", "cos(q1); q1", ""]),
    st.text(max_size=12))
_LINES = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _VALUES).map(" = ".join),
    st.tuples(st.text(max_size=8), _VALUES).map(" = ".join),
    st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", REFERENCE_TEXT]), st.lists(_LINES, max_size=12))
def test_any_text_parses_or_raises_config_error(base, lines):
    # Known keys with junk values, unknown keys and junk lines: the schema
    # derived from RunConfig either builds a config or names the problem.
    try:
        cfg = parse_config(base + "\n".join(lines))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


class TestSimulateCommand:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        cfg_path, base = small_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in ("trajectory.csv", "trajectory_deterministic.csv",
                     "p_vs_n.svg", "phase_qp.svg", "p_vs_n_noisy.svg",
                     "phase_qp_noisy.svg", "run_manifest"):
            assert (out / name).exists(), name
        manifest = (out / "run_manifest").read_text()
        assert "alpha = 0.6" in manifest
        assert "resolved_seed = 1" in manifest
        assert "code_version = " in manifest
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "step,s,q_1,p_1,v_1"
        assert "simulate" in capsys.readouterr().out

    def test_reference_csv_bytes_are_pinned(self, tmp_path):
        # Golden sha256 of the README reference pendulum run at seed 1; any
        # change in rounding or in the noise stream shows up here.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(REFERENCE_TEXT, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert sha256s(out, ("trajectory.csv",
                             "trajectory_deterministic.csv")) == {
            "trajectory.csv": "f1c3e0762f8c48f5dc21946791c312d4"
                              "7b0d9e3f76129790eab64bd3f3b93933",
            "trajectory_deterministic.csv": "3107e0380aef759351a926ebe7ae8077"
                                            "25a6ea92566201ac7b50be0e54701ced",
        }

    def test_reference_svg_bytes_are_pinned(self, tmp_path):
        # Golden sha256 of the four orbit plots of the same run: the
        # rounded viewBox and the "%.2f,%.2f" points, to the byte.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(REFERENCE_TEXT, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert sha256s(out, ("p_vs_n.svg", "phase_qp.svg", "p_vs_n_noisy.svg",
                             "phase_qp_noisy.svg")) == {
            "p_vs_n.svg": "94ecc658f7db35b391e06768e2247064"
                          "05595ad6b65bb58d440ca4bc955e2e05",
            "phase_qp.svg": "3467d9b32da20376aac809c69349e382"
                            "687dfa2d3941acb2cf9353d15c6ef7f5",
            "p_vs_n_noisy.svg": "2764835da5d6664bac9700b9c15422e5"
                                "f29a2fd0784d58ea99889251fd4770fb",
            "phase_qp_noisy.svg": "17fd571a87700aa2c06e2ec8d34e588f"
                                  "864adeae12d28a2102a238433cf4fbf9",
        }

    def test_polar_expression_csv_bytes_are_pinned(self, tmp_path):
        # Golden sha256 of the sympy-defined polar metric (the benchmark's
        # simulate-polar-expr config) at seed 1: the metric path's
        # Christoffel symbols, noise matrix and p = g v, to the bit.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            REFERENCE_TEXT.replace("system = pendulum",
                                   "system = metric:custom")
            + "dim = 2\nmetric_expr = 1, 0; 0, q1**2\ngamma_expr = cos(q2)\n"
              "q0 = 1.0, 0.0\np0 = 0.0, 0.5\nplot = false\n",
            encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        assert sha256s(out, ("trajectory.csv",
                             "trajectory_deterministic.csv")) == {
            "trajectory.csv": "c2189614ce420d77cc47123c60d0c98f"
                              "0fa4e20533fed1d83b5f71bd7c2d62aa",
            "trajectory_deterministic.csv": "f303523fc72a617b8a44de6090040db0"
                                            "95215333edc65df50cc2467c6cb18f0c",
        }

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path, _ = small_config(tmp_path)
        main(["simulate", "--config", str(cfg_path),
              "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg_path),
              "--out", str(tmp_path / "b")])
        for name in ("trajectory.csv", "p_vs_n_noisy.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_noise_only(self, tmp_path):
        cfg_path, _ = small_config(tmp_path)
        main(["simulate", "--config", str(cfg_path),
              "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg_path), "--seed", "2",
              "--out", str(tmp_path / "b")])
        det = "trajectory_deterministic.csv"
        assert (tmp_path / "a" / det).read_bytes() == \
            (tmp_path / "b" / det).read_bytes()
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() != \
            (tmp_path / "b" / "trajectory.csv").read_bytes()
        man = (tmp_path / "b" / "run_manifest").read_text()
        assert "resolved_seed = 2" in man

    def test_plot_false_skips_svg(self, tmp_path):
        cfg_path, _ = small_config(tmp_path, plot="false")
        main(["simulate", "--config", str(cfg_path)])
        assert not list((tmp_path / "out").glob("*.svg"))

    def test_validation_error_before_outputs(self, tmp_path, capsys):
        cfg_path, _ = small_config(tmp_path, alpha=1.5)
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert not (tmp_path / "out").exists()
        assert "error" in capsys.readouterr().err

    def test_guard_violation_is_reported(self, tmp_path, capsys):
        # 300 steps of h = 0.01 reaches past t_eval - 10 h
        cfg_path, _ = small_config(tmp_path, h=0.01)
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_metric_system_runs(self, tmp_path):
        cfg_path, _ = small_config(tmp_path, system="metric:polar",
                                   q0="1.0, 0.2", p0="0.0, 0.1")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        header = (tmp_path / "out" / "trajectory.csv").read_text() \
            .splitlines()[0]
        assert header == "step,s,q_1,q_2,p_1,p_2,v_1,v_2"

    @pytest.mark.parametrize("command", ["simulate", "convergence",
                                         "action-check"])
    @pytest.mark.parametrize("system, key, vectors", [
        ("pendulum", "q0", "q0 = 1.0, 2.0\n"),
        ("pendulum", "p0", "p0 = 0.0, 0.5\n"),
        ("metric:polar", "p0", "q0 = 1.0, 0.2\np0 = 0.1\n"),
    ], ids=["pendulum-q0", "pendulum-p0", "polar-p0"])
    def test_initial_vector_length_checked(self, tmp_path, capsys, command,
                                           system, key, vectors):
        text = (REFERENCE_TEXT.replace("system = pendulum",
                                       f"system = {system}") + vectors)
        assert_cli_rejects(tmp_path, capsys, command, text,
                           rf"{key} has \d entries.* dimension \d")

    @pytest.mark.parametrize("key, overrides", [
        ("hamiltonian_expr", {"system": "hamiltonian:custom",
                              "hamiltonian_expr": "p1**2/2 + cos(q1"}),
        ("gamma_expr", {"system": "hamiltonian:custom",
                        "hamiltonian_expr": "p1**2/2 + cos(q1)",
                        "gamma_expr": "cos(q1"}),
        ("metric_expr", {"system": "metric:custom", "dim": 2,
                         "metric_expr": "1, 0; 0, q1**"}),
    ], ids=["hamiltonian_expr", "gamma_expr", "metric_expr"])
    def test_malformed_expression_names_key(self, tmp_path, capsys, key,
                                            overrides):
        cfg_path, _ = small_config(tmp_path, **overrides)
        assert_cli_rejects(tmp_path, capsys, "simulate",
                           cfg_path.read_text(), rf"{key}: cannot parse")

    @pytest.mark.parametrize("overrides, match", [
        ({"hamiltonian_expr": "p1**2/2 + 0*len(open('{pwned}','w').name)"},
         r"hamiltonian_expr: cannot parse .*'len' is not a number"),
        ({"hamiltonian_expr": "p1**2/2 + cos(q1) + x"},
         r"hamiltonian_expr: cannot parse .*'x' is not a number"),
        ({"dim": 2, "q0": "1.0, 0.0", "p0": "0.0, 0.0",
          "hamiltonian_expr": "p1**2/2 + p2**2/2 + cos(q3)"},
         r"hamiltonian_expr: cannot parse .*'q3' is not a number"),
        ({"hamiltonian_expr": "p1**2/2 + cos(q1)",
          "gamma_expr": "cos(q1) + p1"},
         r"gamma_expr: cannot parse .*'p1' is not a number"),
        ({"system": "metric:custom", "dim": 2,
          "metric_expr": "1, 0, 0; 0, q1**2, 0; 0, 0, 1"},
         r"metric_expr: rows of \[3, 3, 3\] entries, need 2 rows of 2"),
        ({"system": "metric:custom", "dim": 2, "metric_expr": "1, 0; 0"},
         r"metric_expr: rows of \[2, 1\] entries, need 2 rows of 2"),
        ({"hamiltonian_expr": "p1**2/2 + log()"},
         r"hamiltonian_expr: cannot parse .* as an expression"),
        ({"dim": 0, "hamiltonian_expr": "p1**2/2"}, r"dim=0 must be >= 1"),
    ], ids=["code", "free-symbol", "q-beyond-dim", "p-in-gamma",
            "metric-3x3", "metric-ragged", "no-argument", "dim-0"])
    def test_rejected_expression_text(self, tmp_path, capsys, overrides,
                                      match):
        pwned = tmp_path / "PWNED"
        overrides = {k: str(v).replace("{pwned}", str(pwned))
                     for k, v in overrides.items()}
        cfg_path, _ = small_config(
            tmp_path, **{"system": "hamiltonian:custom", **overrides})
        assert_cli_rejects(tmp_path, capsys, "simulate",
                           cfg_path.read_text(), match)
        assert not pwned.exists()


@pytest.mark.parametrize("command, overrides", [
    ("simulate", {"hamiltonian_expr": "p1**2/2 + sqrt(q1)", "q0": -1.0}),
    ("simulate", {"hamiltonian_expr": "p1**2/2 + exp(1000*q1)", "q0": 1.0}),
    ("action-check", {"hamiltonian_expr": "p1**2/2 + log(q1)", "q0": -1.0,
                      "gamma": "const"}),
], ids=["simulate-sqrt", "simulate-exp", "action-check-log"])
def test_numerical_failure_names_step(tmp_path, capsys, command, overrides):
    # Domain and range errors of an expression become NaN or inf, which
    # the integrator or the action reports as the step they reach, in one
    # line and without a numpy RuntimeWarning.
    cfg_path, _ = small_config(tmp_path, system="hamiltonian:custom",
                               n_steps=100, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert re.fullmatch(rf"frachp {command}: error: .*step \d+.*\n", err)
    assert not (tmp_path / "out").exists()


def test_metric_losing_definiteness_names_step(tmp_path, capsys):
    # g_22 = q1 turns negative as q1 runs from 0.05 through 0 at speed 1.
    cfg_path, _ = small_config(
        tmp_path, system="metric:custom", dim=2, metric_expr="1, 0; 0, q1",
        q0="0.05, 0.0", p0="-1.0, 0.0", h=1e-3, n_steps=100)
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert re.fullmatch(r"frachp simulate: error: metric not positive "
                        r"definite at q=.* at step \d+ \(s = .*\) on path "
                        r"\d\n", err)
    assert not (tmp_path / "out").exists()


class TestConvergenceCommand:
    def test_slope_and_csv(self, tmp_path, capsys):
        cfg_path, _ = small_config(
            tmp_path, alpha=1.0, beta=1.0, t_eval=10.0, h=0.0004,
            levels=3, n_paths=8, t_end=0.32)
        assert main(["convergence", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "convergence.csv").read_text() \
            .splitlines()
        assert lines[0] == "h,mean_error"
        assert len(lines) == 3  # levels - 1 coarse levels vs reference
        out = capsys.readouterr().out
        assert "slope" in out
        man = (tmp_path / "out" / "run_manifest").read_text()
        assert "fitted_slope = " in man
        # Golden sha256: the h column and the errors, "%.17g" each.
        assert sha256s(tmp_path / "out", ("convergence.csv",)) == {
            "convergence.csv": "36608a00a303d42fe83e90d378beeb06"
                               "1d4d6070c8adb80566f554d1217eddb5"}

    def test_indivisible_grid_is_an_error(self, tmp_path, capsys):
        # 0.4 / 0.0003 = 1333 steps, not a multiple of 2^(levels-1) = 8
        cfg_path, _ = small_config(tmp_path, h=0.0003, t_end=0.4, levels=4,
                                   n_paths=2)
        assert_cli_rejects(tmp_path, capsys, "convergence",
                           cfg_path.read_text(),
                           r"h = 0\.0003.*t_end = 0\.4.*levels = 4")


    def test_t_end_off_the_grid_is_an_error(self, tmp_path, capsys):
        # 0.40009 / 0.0002 = 2000.45 steps; the run used to stop at 0.4.
        cfg_path, _ = small_config(tmp_path, alpha=1.0, beta=1.0,
                                   t_eval=10.0, h=0.0002, t_end=0.40009,
                                   levels=4, n_paths=2)
        assert_cli_rejects(tmp_path, capsys, "convergence",
                           cfg_path.read_text(),
                           r"t_end/h = 2000\.45 steps.*t_end = 0\.40009")


class TestActionCheckCommand:
    def test_pass_on_solution(self, tmp_path, capsys):
        cfg_path, _ = small_config(tmp_path, gamma="const", h=0.0005,
                                   n_steps=1400)
        assert main(["action-check", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max |dA|" in out
        assert "verdict = PASS" in \
            (tmp_path / "out" / "run_manifest").read_text()

    def test_fail_on_frozen_trajectory(self, tmp_path, capsys, monkeypatch):
        import frachp.cli
        from frachp.cli import cmd_action_check
        from frachp.core import FractionalParams
        from frachp.dynamics import pendulum_system
        cfg = RunConfig(system="pendulum", alpha=0.6, beta=0.3, t_eval=0.8,
                        h=0.0005, n_steps=1400, gamma="const",
                        out=str(tmp_path / "out"))
        params = FractionalParams(0.6, 0.3, 0.8)
        grid = make_grid(0.0, 0.0005, 1400, params)
        init = initial_state(pendulum_system(gamma_coupling="const"),
                             [1.0], p0=[0.0])
        frozen = Trajectory(grid, *(np.tile(a, (1401, 1))
                                    for a in (init.q, init.v, init.p)))
        monkeypatch.setattr(frachp.cli, "integrate", lambda run: frozen)
        assert cmd_action_check(cfg) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_noisy_reports_ungated(self, tmp_path, capsys):
        cfg_path, _ = small_config(tmp_path, gamma="cos", n_paths=4,
                                   n_steps=200)
        assert main(["action-check", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "not gated" in out and "mean |dA|" in out


class TestVolterraCommand:
    def test_summary_paths_and_closed_form(self, tmp_path, capsys):
        cfg_path, _ = small_config(
            tmp_path, beta=1.0, h=0.001, n_steps=1000, n_paths=4,
            mu=0.1, sigma=0.0)
        assert main(["volterra", "--config", str(cfg_path)]) == 0
        out_dir = tmp_path / "out"
        lines = (out_dir / "summary.csv").read_text().splitlines()
        assert lines[0] == "n_paths,mean_XT,var_XT"
        n_paths, mean, var = lines[1].split(",")
        assert n_paths == "4"
        assert float(mean) == pytest.approx(np.exp(0.1), rel=0.01)
        assert float(var) == 0.0
        assert len(list(out_dir.glob("path_*.csv"))) == 4
        assert "closed form" in capsys.readouterr().out

    def test_martingale_note_and_path_cap(self, tmp_path, capsys):
        cfg_path, _ = small_config(tmp_path, beta=0.5, h=0.01, n_steps=100,
                                   n_paths=40, mu=0.0, sigma=0.2)
        assert main(["volterra", "--config", str(cfg_path)]) == 0
        # above the per-path dump cap of 32 only the summary is written
        assert not list((tmp_path / "out").glob("path_*.csv"))
        assert "martingale" in capsys.readouterr().out

    def test_noisy_csv_bytes_are_pinned(self, tmp_path):
        # Golden sha256 of a noisy run at seed 1: the substreams, the
        # recursion and the summary statistics, "%.17g" each.
        cfg_path, _ = small_config(tmp_path, beta=0.5, h=0.01, n_steps=100,
                                   n_paths=8, mu=0.1, sigma=0.3)
        assert main(["volterra", "--config", str(cfg_path)]) == 0
        assert sha256s(tmp_path / "out", ("summary.csv", "path_0000.csv")) == {
            "summary.csv": "abcff82dcbb97840b7ee5212d205a0ca"
                           "ff5c4051eb75e11807c66442c54ad277",
            "path_0000.csv": "c284c550427c0cc258df9fec8c0d951a"
                             "823bbf44b89448bf5d2d831e8d5b5322",
        }

    def test_no_singularity_guard(self, tmp_path):
        # the recursion uses the outer time t_{k+1}, so the grid may reach
        # the evaluation time itself
        cfg_path, _ = small_config(tmp_path, beta=0.5, h=0.01,
                                   n_steps=100, t_eval=1.0, n_paths=2)
        assert main(["volterra", "--config", str(cfg_path)]) == 0


def test_missing_config_file_is_an_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "error" in capsys.readouterr().err
