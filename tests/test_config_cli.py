import dataclasses
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frachp
from frachp.cli import _write_csv, main, write_trajectory_csv
from frachp.config import (_SYSTEMS, _TYPES, RunConfig, config_lines,
                           parse_config)
from frachp.core import TimeGrid, Trajectory, make_grid
from frachp.errors import (ConfigError, InvalidArgument, MissingKey,
                           ParseError, UnknownKey)
from frachp.integrator import initial_state
from frachp.svgplot import write_orbit

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


# Values each key type's text rule must carry: finite floats (the config
# rejects the others), vectors of at least one entry (no text reads as an
# empty one), and text that is one stripped line with no comment; an
# expression list's items hold no ";" either.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                              exclude_characters="#"),
                max_size=12).map(str.strip)
_EXPRS = st.lists(_TEXT.map(lambda t: t.replace(";", "")).filter(bool),
                  max_size=3).map(tuple)
_VECTORS = st.lists(_FINITE, min_size=1, max_size=3).map(tuple)
_KEY_TYPE_VALUES = {float: _FINITE, int: st.integers(), str: _TEXT,
                    bool: st.booleans(), tuple[float, ...]: _VECTORS,
                    tuple[str, ...]: _EXPRS}
_TYPED_VALUES = st.one_of(*(st.tuples(st.just(kind), values)
                            for kind, values in _KEY_TYPE_VALUES.items()))


def _bits(v):
    """v with its type, and each float as its IEEE bytes: -0.0 is not 0.0."""
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    return type(v), struct.pack("<d", v) if isinstance(v, float) else v


_CONFIG_KWARGS = st.fixed_dictionaries({
    "system": st.sampled_from(sorted(_SYSTEMS)),
    "alpha": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "beta": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "t_eval": _POSITIVE, "h": _POSITIVE, "t_end": _POSITIVE,
    "x0": _POSITIVE,
    "mu": st.floats(min_value=0.0, allow_infinity=False),
    "sigma": st.floats(min_value=0.0, allow_infinity=False),
    "n_steps": st.integers(min_value=1), "seed": st.integers(),
    "n_paths": st.integers(min_value=1), "dim": st.integers(min_value=1),
    "levels": st.integers(min_value=3),
    "q0": _VECTORS, "p0": _VECTORS, "out": _TEXT,
    "plot": st.booleans(), "eq15_literal": st.booleans(),
    "gamma": st.sampled_from(["cos", "const"]),
    "hamiltonian_expr": _TEXT, "metric_expr": _TEXT, "gamma_expr": _EXPRS,
})
# At most one key given a value its text rule may not carry: text with a
# comment, a line break or surrounding whitespace, an expression list with
# such an item, an empty item or a ";", or an empty vector.
_LOOSE_TEXT = st.text(st.sampled_from("ab1 #;,=\t\n\r\x85\u2028"),
                      max_size=6)
_LOOSE_VALUES = {
    "out": _LOOSE_TEXT, "hamiltonian_expr": _LOOSE_TEXT,
    "metric_expr": _LOOSE_TEXT,
    "gamma_expr": st.lists(_LOOSE_TEXT, max_size=3).map(tuple),
    "q0": st.lists(_FINITE, max_size=2).map(tuple),
    "p0": st.lists(_FINITE, max_size=2).map(tuple)}
_LOOSE = st.one_of(st.just({}), *(st.fixed_dictionaries({key: values})
                                  for key, values in _LOOSE_VALUES.items()))
_REFERENCE_KWARGS = dataclasses.asdict(
    parse_config(REFERENCE_TEXT + "plot = false\ngamma = const\n"))


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

    def test_every_key_type_has_a_text_rule(self):
        kinds = {f.type for f in dataclasses.fields(RunConfig)}
        assert kinds == set(_TYPES) == set(_KEY_TYPE_VALUES)

    @example((float, -0.0))
    @example((float, 5e-324))
    @example((float, 1e308))
    @example((float, 0.1))
    @example((tuple[float, ...], (-0.0, 5e-324, 0.1)))
    @example((bool, False))
    @example((tuple[str, ...], ("cos(q1)", "q1*q2")))
    @example((tuple[str, ...], ()))
    @settings(max_examples=300, deadline=None)
    @given(_TYPED_VALUES)
    def test_key_type_roundtrips_bit_for_bit(self, typed):
        kind, value = typed
        parse, format = _TYPES[kind]
        assert _bits(parse(format(value))) == _bits(value)

    @example(_REFERENCE_KWARGS, {})
    @example(_REFERENCE_KWARGS, {"out": "a#b"})
    @example(_REFERENCE_KWARGS, {"q0": ()})
    @settings(max_examples=300, deadline=None)
    @given(_CONFIG_KWARGS, _LOOSE)
    def test_roundtrip_through_serializer(self, kwargs, loose):
        # A config either raises ParseError, or is written as text that
        # reads back as the same config.
        try:
            cfg = RunConfig(**{**kwargs, **loose})
        except ParseError:
            return
        again = parse_config(config_lines(cfg))
        assert again == cfg
        assert config_lines(again) == config_lines(cfg)


@pytest.mark.parametrize("command", ["volterra", "simulate"])
@pytest.mark.parametrize("line", [
    "alpha = 1.5", "beta = 0", "t_eval = -0.8", "h = -0.001", "n_steps = 0",
    "x0 = 0", "mu = -0.1", "sigma = -0.2", "t_end = 0", "n_paths = 0",
    "gamma = sin",
])
def test_config_rule_names_key(tmp_path, capsys, command, line):
    # Each range rule has one owner, the library type that holds the value
    # (FractionalParams, TimeGrid, VolterraCoefficients) or RunConfig for
    # a key no type holds; every command rejects the value before output.
    key = line.split(" = ")[0]
    text = "\n".join(row for row in REFERENCE_TEXT.splitlines()
                     if not row.startswith(f"{key} ")) + f"\n{line}\n"
    assert_cli_rejects(tmp_path, capsys, command, text,
                       rf"^frachp {command}: error: {key}=")


@pytest.mark.parametrize("key, value", [
    ("out", "a#b"), ("out", " a"), ("out", "a\nb"), ("out", "a\udcff"),
    ("hamiltonian_expr", "p1**2/2 # H"), ("metric_expr", "1\r"),
    ("gamma_expr", ("cos(q1) ",)), ("gamma_expr", ("cos(q1);q1",)),
    ("gamma_expr", ("cos(q1)", "")), ("q0", ()), ("p0", ()),
])
def test_config_holds_only_values_that_read_back(key, value):
    # `out = a#b` used to be written to the manifest and read back as
    # `out = a`, and `q0 = ` was written and then rejected on reading.
    with pytest.raises(ParseError, match=rf"^{key}=.* does not read back"):
        RunConfig(system="pendulum", alpha=0.6, beta=0.3, t_eval=0.8,
                  **{key: value})


def test_out_with_a_comment_is_rejected(tmp_path, capsys):
    cfg_path, _ = small_config(tmp_path)
    out = tmp_path / "x#y"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("frachp simulate: error: out=")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("command", ["volterra", "simulate"])
@pytest.mark.parametrize("system, match", [
    ("nonsense", r"unknown system 'nonsense'"),
    ("hamiltonian:custom", r"hamiltonian:custom needs hamiltonian_expr"),
    ("metric:custom", r"metric:custom needs metric_expr"),
], ids=["unknown", "hamiltonian-no-expr", "metric-no-expr"])
def test_system_rule_applies_to_every_command(tmp_path, capsys, command,
                                              system, match):
    # volterra builds no system, yet records `system` in its manifest.
    text = REFERENCE_TEXT.replace("system = pendulum", f"system = {system}")
    with pytest.raises(ParseError, match=f"^{match}$"):
        parse_config(text)
    assert_cli_rejects(tmp_path, capsys, command, text,
                       rf"^frachp {command}: error: {match}$")


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


def row_rule_bytes(header, fmt, rows):
    """The CSV bytes of the writer's former rule: `fmt % row` over the rows
    taken as floats."""
    lines = [header] + [fmt % tuple(row) for row in
                        np.asarray(rows, dtype=float).tolist()]
    return ("\n".join(lines) + "\n").encode()


class TestWriteCsv:
    """The chunked column writer against the former per-row rule, across
    the chunk edges, with columns that repeat another's bytes."""

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2051])
    def test_columns_match_the_row_rule(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        zero = rows // 2
        p = rng.normal(size=rows)
        p[zero] = 0.0
        v = p.copy()                    # bitwise equal: printed once
        w = p.copy()                    # differs from p by one -0.0 only
        w[zero] = -0.0
        e = rng.normal(size=rows) * 1e300
        e[::3], e[1::5], e[2::7] = np.nan, np.inf, -np.inf
        e2 = e.copy()                   # bitwise equal, nan and inf included
        cols = [np.arange(rows), np.linspace(0.0, 0.1, rows), p, v, w, e, e2]
        _write_csv(tmp_path / "c.csv", "step,s,p,v,w,e,e2", cols)
        got = (tmp_path / "c.csv").read_bytes()
        assert got == row_rule_bytes("step,s,p,v,w,e,e2",
                                     "%d" + ",%.17g" * 6,
                                     np.column_stack(cols))
        p_text, w_text = got.splitlines()[1 + zero].split(b",")[2:5:2]
        assert (p_text, w_text) == (b"0", b"-0")

    @pytest.mark.parametrize("rows", [2, 1023, 1024, 1025, 2051])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_trajectory_matches_the_row_rule(self, tmp_path, dim, rows):
        # As the Hamiltonian pendulum, v is p bitwise; as the polar metric,
        # p_1 is v_1, and here p_2 is v_2 but for one -0.0.
        rng = np.random.default_rng(dim * rows)
        q, p = rng.normal(size=(2, rows, dim))
        v = p.copy()
        if dim == 2:
            p[rows // 2, 1] = 0.0
            v[:, 1] = p[:, 1]
            v[rows // 2, 1] = -0.0
        traj = Trajectory(TimeGrid(0.0, 1e-3, rows - 1), q, v, p)
        write_trajectory_csv(tmp_path / "t.csv", traj)
        header = ",".join(["step", "s"] + [f"{c}_{i + 1}" for c in "qpv"
                                           for i in range(dim)])
        assert (tmp_path / "t.csv").read_bytes() == row_rule_bytes(
            header, "%d" + ",%.17g" * (3 * dim + 1),
            np.column_stack([np.arange(rows), traj.grid.points, q, p, v]))

    @pytest.mark.parametrize("mean, var", [(1.0000000000000002, 0.25),
                                           (0.0, 0.0), (np.nan, np.nan)])
    def test_summary_table(self, tmp_path, mean, var):
        _write_csv(tmp_path / "s.csv", "n_paths,mean_XT,var_XT",
                   [[8], [mean], [var]])
        assert (tmp_path / "s.csv").read_bytes() == row_rule_bytes(
            "n_paths,mean_XT,var_XT", "%d,%.17g,%.17g", [[8, mean, var]])

    def test_convergence_table(self, tmp_path):
        hs = np.array([0.0008, 0.0016, 0.0032])
        errors = np.array([1.5e-5, 3.0000000000000001e-5, 0.0016])
        _write_csv(tmp_path / "c.csv", "h,mean_error", [hs, errors])
        assert (tmp_path / "c.csv").read_bytes() == row_rule_bytes(
            "h,mean_error", "%.17g,%.17g", np.column_stack([hs, errors]))


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _signed(values):
    return st.builds(lambda x, neg: -x if neg else x, values, st.booleans())


def _tie(k: int, j: int) -> float:
    """An odd M times 2**-(k+1), M * 5**k in [2e16, 2e17) and M < 2**53:
    x 10**k is an integer plus one half in [1e16, 1e17), so x has 18
    significant digits, the last a 5, and %.17g rounds it to even."""
    lo = -(-2 * 10 ** 16 // 5 ** k)
    hi = min(-(-2 * 10 ** 17 // 5 ** k), 2 ** 53)
    return math.ldexp(lo + (lo + 1) % 2 + 2 * (j % ((hi - lo) // 2)),
                      -(k + 1))


def _near_ten(j: int, up: bool, step: bool) -> float:
    """10**j correctly rounded, or the double next to it, up or down:
    where a log10 estimate of the decimal exponent is off by one."""
    p = float(10 ** j) if j >= 0 else 1 / 10 ** -j
    return float(np.nextafter(p, np.inf if up else 0.0)) if step else p


_NEAR_TEN = st.builds(_near_ten, st.integers(-7, 17), st.booleans(),
                      st.booleans())
_TIES = st.builds(_tie, st.integers(1, 22), st.integers(0, 2 ** 60))
_SPECIALS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
_SUBNORMALS = st.integers(1, 2 ** 52 - 1).map(_double)
_RAW = st.integers(0, 2 ** 64 - 1).map(_double)
_FLOATS = st.one_of(_RAW, _signed(_NEAR_TEN), _signed(_TIES), _SPECIALS,
                    _signed(_SUBNORMALS), st.floats(1e-7, 1e17),
                    st.floats(allow_nan=True, allow_infinity=True))
_INTS = st.one_of(st.integers(-2 ** 53 - 4, -2 ** 53 + 4),
                  st.integers(2 ** 53 - 4, 2 ** 53 + 4),
                  st.integers(-10 ** 6, 10 ** 6),
                  st.integers(-2 ** 63, 2 ** 63 - 1))


class TestCsvFormat:
    """Each field of the writer is the text of `%` on its value: "%.17g",
    or "%d" in an integer column, whether numpy or % laid it out."""

    @staticmethod
    def _lines(columns):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            _write_csv(path, "i,x,y", columns)
            return path.read_bytes().decode("ascii").splitlines()[1:]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_INTS, _FLOATS), min_size=1, max_size=30))
    def test_fields_are_the_percent_text(self, rows):
        ints, xs = zip(*rows)
        got = self._lines([np.array(ints, dtype=np.int64), np.array(xs),
                           np.array(xs[::-1])])
        assert got == ["%d,%.17g,%.17g" % (i, x, y)
                       for (i, x), y in zip(rows, xs[::-1])]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 22), st.integers(0, 2 ** 60)),
                    min_size=1, max_size=40))
    def test_ties_round_to_even(self, draws):
        xs = [_tie(k, j) for k, j in draws]
        for x in xs:  # the strategy makes ties: 18 digits, the last a 5
            digits = Decimal(x).as_tuple().digits
            assert (len(digits), digits[-1]) == (18, 5), x
        got = self._lines([np.arange(len(xs)), np.array(xs),
                           -np.array(xs)])
        assert got == ["%d,%.17g,%.17g" % (i, x, -x)
                       for i, x in enumerate(xs)]


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

    def test_writes_each_trajectory_through_its_hook(self, tmp_path,
                                                     monkeypatch):
        # The benchmark's tracer and self-test wrap write_trajectory_csv
        # per file, so simulate must call it as (path, traj), once a file.
        calls = []

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return write_trajectory_csv(*args, **kwargs)

        monkeypatch.setattr("frachp.cli.write_trajectory_csv", recorder)
        cfg_path, _ = small_config(tmp_path, n_steps=10, plot="false")
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert [(args[0], kwargs) for args, kwargs in calls] == [
            (out / "trajectory.csv", {}),
            (out / "trajectory_deterministic.csv", {})]
        assert all(len(args) == 2 and isinstance(args[1], Trajectory)
                   for args, _ in calls)

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
        # closed-form geodesic force, noise matrix and p = g v, to the bit.
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
            "trajectory.csv": "7bc5bf3eaa6f429323d6b657485bf759"
                              "db1d4ecd033027510c53b5fa1c0bf4fb",
            "trajectory_deterministic.csv": "8529d115ac695281bfdfa1f0fb965856"
                                            "40283ec618c9647567734f4d5361fa34",
        }

    def test_polar_builtin_and_expression_write_the_same_bytes(self,
                                                               tmp_path):
        # metric:polar and the same metric as text take one closed form
        # each, written in the same arithmetic, so their runs agree.
        digests = []
        for name, system in (("polar", "system = metric:polar\ngamma = cos"),
                             ("custom", "system = metric:custom\n"
                                        "metric_expr = 1, 0; 0, q1**2\n"
                                        "gamma_expr = cos(q2)")):
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(
                REFERENCE_TEXT.replace("system = pendulum", system)
                + "dim = 2\nq0 = 1.0, 0.0\np0 = 0.0, 0.5\nplot = false\n",
                encoding="utf-8")
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            digests.append(sha256s(out, ("trajectory.csv",
                                         "trajectory_deterministic.csv")))
        assert digests[0] == digests[1]

    def test_expression_build_imports_no_numpy_tooling(self):
        # sympy's "numpy" module string runs `from numpy import *`, which
        # imports numpy.f2py, numpy.testing and more; the module object
        # does not.
        text = (REFERENCE_TEXT.replace("system = pendulum",
                                       "system = metric:custom")
                + "dim = 2\nmetric_expr = 1, 0; 0, q1**2\n"
                  "gamma_expr = cos(q2)\n")
        code = ("import sys\n"
                "from frachp.cli import build_system\n"
                "from frachp.config import parse_config\n"
                f"build_system(parse_config({text!r}))\n"
                "print(sorted({'numpy.f2py', 'numpy.testing'}"
                " & set(sys.modules)))\n")
        src = str(Path(frachp.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout == "[]\n"

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

    @pytest.mark.parametrize("xs, ys, match", [
        ([-1e308, 1e308], [0.0, 1.0], r"^xs=\[-1e\+308, 1e\+308\]"),
        ([0.0, 1.75e308], [0.0, 1.0], r"^xs=.*\[0, inf\]"),
        ([0.0, 1.0], [-1e308, 1e308], r"^ys="),
        ([], [], r"^xs=\(0,\), ys=\(0,\)"),
        ([0.0, 1.0, 2.0], [1.0], r"^xs=\(3,\), ys=\(1,\)"),
        ([[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0], [4.0, 9.0]],
         r"^xs=\(2, 2\), ys=\(2, 2\)"),
    ], ids=["span-overflows", "bound-overflows", "ys", "empty", "unequal",
            "2-d"])
    def test_orbit_range_overflow_writes_no_svg(self, tmp_path, xs, ys,
                                                match):
        # Finite data whose rounded bounds or span are not finite floats
        # raise, with no warning, before the file is opened.
        path = tmp_path / "orbit.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgument, match=match):
                write_orbit(path, xs, ys)
        assert not path.exists()

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
        ({"system": "metric:custom", "dim": 2, "q0": "1.0, 0.0",
          "p0": "0.0, 0.5", "metric_expr": "1/0, 0; 0, q1**2"},
         r"metric_expr: '1/0' divides by zero"),
        ({"hamiltonian_expr": "p1**2/2 + 0/0*q1"},
         r"hamiltonian_expr: .* divides by zero"),
    ], ids=["code", "free-symbol", "q-beyond-dim", "p-in-gamma",
            "metric-3x3", "metric-ragged", "no-argument", "dim-0",
            "metric-zoo", "hamiltonian-nan"])
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


@pytest.mark.parametrize("metric", ["1, 0; 0, 0", "1, 0; 0, -1"],
                         ids=["singular", "indefinite"])
def test_metric_not_positive_definite_at_q0(tmp_path, capsys, metric):
    # A singular metric has no closed-form step; both fail at q0, in one
    # line, before any output.
    text = (REFERENCE_TEXT.replace("system = pendulum",
                                   "system = metric:custom")
            + f"dim = 2\nmetric_expr = {metric}\ngamma_expr = cos(q2)\n"
              "q0 = 1.0, 0.0\np0 = 0.0, 0.5\n")
    assert_cli_rejects(tmp_path, capsys, "simulate", text,
                       r"^frachp simulate: error: metric not positive "
                       r"definite at q=\[1\. 0\.\]$")


def test_eq15_literal_rejected_for_pendulum(tmp_path, capsys):
    # The key names a metric-velocity coefficient: a pendulum run rejects
    # it before writing a manifest that records it.
    assert_cli_rejects(tmp_path, capsys, "simulate",
                       REFERENCE_TEXT + "eq15_literal = true\n",
                       r"^frachp simulate: error: eq15_literal=True applies "
                       r"to a MetricSystem only, not to a HamiltonianSystem$")


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

    def test_noisy_runs_every_path(self, tmp_path, capsys):
        # The noisy branch runs the n_paths that its manifest records, past
        # 100 as well.
        cfg_path, _ = small_config(tmp_path, gamma="cos", n_paths=101,
                                   n_steps=4)
        assert main(["action-check", "--config", str(cfg_path)]) == 0
        assert "(noisy, 101 paths)" in capsys.readouterr().out
        assert "n_paths = 101" in \
            (tmp_path / "out" / "run_manifest").read_text()


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

    def test_overflow_is_an_error(self, tmp_path, capsys):
        # mu = 1e6 overflows the recursion at step 73: exit 1 with one line
        # naming the step, and no summary or path files of NaN.
        cfg_path, _ = small_config(tmp_path, beta=0.5, h=0.00025,
                                   n_steps=200, n_paths=8, mu=1e6,
                                   sigma=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["volterra", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("frachp volterra: error: non-finite X at step 73 "
                       "(s = 0.01825) on path 0\n")
        assert not (tmp_path / "out").exists()

    def test_no_singularity_guard(self, tmp_path):
        # the recursion uses the outer time t_{k+1}, so the grid may reach
        # the evaluation time itself
        cfg_path, _ = small_config(tmp_path, beta=0.5, h=0.01,
                                   n_steps=100, t_eval=1.0, n_paths=2)
        assert main(["volterra", "--config", str(cfg_path)]) == 0


def test_missing_config_file_is_an_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "error" in capsys.readouterr().err


# The names `frachp` exported when its __init__ imported every module.
PUBLIC_NAMES = [
    "EulerRun", "FractionalParams", "HamiltonianSystem", "LagrangianSystem",
    "MetricSystem", "NoiseCoupling", "PhaseState", "SampledFunction",
    "SdeFields", "TimeGrid", "Trajectory", "VolterraCoefficients",
    "WienerPath", "action_derivative", "assemble_hp_fields", "christoffel",
    "coarsen", "core", "dynamics", "errors", "evaluate_action", "fracint",
    "fractional_wiener_integral", "gamma", "generate_path",
    "generate_paths", "hp_noise_coefficient", "initial_state", "integrate",
    "integrate_paths", "integrator", "invert_legendre", "legendre_transform",
    "make_grid", "noise", "pendulum_lagrangian_system", "pendulum_system",
    "polar_metric_system", "power_kernel", "random_admissible_perturbation",
    "rl_integral", "spawn_substream", "specfun", "stationarity_ratio",
    "step_weights", "strong_convergence_order", "volterra_paths",
    "zero_path"]
HP_GROUP = ["frachp.dynamics", "frachp.integrator", "frachp.svgplot"]


class TestStartup:
    """`frachp volterra` loads no module of the HP group; the HP commands
    and the package's names load theirs on first use.  Each case runs in
    a fresh interpreter."""

    @staticmethod
    def _fresh(code: str) -> str:
        src = str(Path(frachp.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stderr == ""
        return run.stdout

    def test_volterra_loads_no_hp_module(self, tmp_path):
        cfg_path, _ = small_config(tmp_path, beta=0.5, h=0.01, n_steps=20,
                                   n_paths=2, mu=0.1, sigma=0.3)
        code = ("import contextlib, io, sys\n"
                "from frachp import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main(['volterra', '--config', "
                f"{str(cfg_path)!r}])\n"
                "print(code, sorted(m for m in sys.modules if m == 'sympy'"
                " or m.startswith('frachp.')))\n")
        assert self._fresh(code) == (
            "0 ['frachp.cli', 'frachp.config', 'frachp.core', "
            "'frachp.errors', 'frachp.fracint', 'frachp.noise', "
            "'frachp.specfun']\n")
        assert (tmp_path / "out" / "summary.csv").is_file()

    def test_build_system_loads_the_hp_group(self):
        code = ("import sys\n"
                "from frachp.cli import build_system\n"
                "from frachp.config import parse_config\n"
                f"build_system(parse_config({REFERENCE_TEXT!r}))\n"
                f"print([m in sys.modules for m in {HP_GROUP!r}])\n")
        assert self._fresh(code) == "[True, True, True]\n"

    def test_public_names_are_their_owners_objects(self):
        code = ("import importlib, sys, frachp\n"
                "assert not [m for m in sys.modules"
                " if m.startswith('frachp.')]\n"
                "star = {}\n"
                "exec('from frachp import *', star)\n"
                "listed = dir(frachp)\n"
                "for name in frachp.__all__:\n"
                "    obj = getattr(frachp, name)\n"
                "    assert star[name] is obj and name in listed, name\n"
                "    if isinstance(obj, type(sys)):\n"
                "        assert obj.__name__ == 'frachp.' + name, name\n"
                "    else:\n"
                "        owner = importlib.import_module(obj.__module__)\n"
                "        assert owner.__name__.startswith('frachp.'), name\n"
                "        assert getattr(owner, name) is obj, name\n"
                "print(frachp.__all__)\n")
        assert self._fresh(code) == f"{PUBLIC_NAMES!r}\n"

    def test_unknown_names_raise_attribute_error(self):
        code = ("import frachp, frachp.cli as cli\n"
                "for module in (frachp, cli):\n"
                "    try:\n"
                "        module.no_such_name\n"
                "    except AttributeError as exc:\n"
                "        print(exc)\n"
                "print(hasattr(frachp, 'cli_main'), hasattr(cli, 'gamma'))\n")
        assert self._fresh(code) == (
            "module 'frachp' has no attribute 'no_such_name'\n"
            "module 'frachp.cli' has no attribute 'no_such_name'\n"
            "False False\n")

    def test_name_patched_before_the_first_hp_command_stays(self, tmp_path):
        # A name bound on frachp.cli before the group loads is not
        # overwritten by the group's own object.
        cfg_path, _ = small_config(tmp_path, n_steps=50, plot="false")
        code = ("import contextlib, io\n"
                "from frachp import cli\n"
                "from frachp.integrator import integrate_paths\n"
                "calls = []\n"
                "cli.integrate_paths = (lambda runs: calls.append(len(runs))"
                " or integrate_paths(runs))\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main(['simulate', '--config', "
                f"{str(cfg_path)!r}])\n"
                "print(code, calls, cli.EulerRun.__module__)\n")
        assert self._fresh(code) == "0 [2] frachp.integrator\n"
