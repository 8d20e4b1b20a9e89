"""Command-line front end: simulate, convergence, action-check, volterra.

Every command resolves its configuration, writes its outputs into the run
directory together with a `run_manifest` that is sufficient to reproduce
the run byte for byte.

`volterra` runs on the modules this one imports (`config`, `core`,
`errors`, `fracint`, `noise`, `specfun`).  The Euler commands also run
the HP group, `dynamics`, `integrator` and `svgplot`, which `build_system`
loads on its first call; reading one of the group's names here, as
`frachp.cli.integrate`, loads it too.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_lines, parse_config
from .core import TimeGrid, Trajectory, make_grid
from .errors import FracHPError
from .fracint import volterra_paths
from .noise import (WienerPath, generate_path, generate_paths,
                    spawn_substream, zero_path)

STATIONARITY_GATE = 1e-3

# The HP group: module -> the names the Euler commands call from it.
_HP_GROUP = {
    "dynamics": ("assemble_hp_fields", "pendulum_system",
                 "polar_metric_system"),
    "integrator": ("EulerRun", "initial_state", "integrate",
                   "integrate_paths", "stationarity_ratio",
                   "strong_convergence_order"),
    "svgplot": ("write_orbit",),
}
_HP_NAMES = frozenset(name for names in _HP_GROUP.values()
                      for name in names)


def _load_hp_group() -> None:
    """Import the HP group and bind each of its names not bound yet, so a
    name patched here before stays patched."""
    scope = globals()
    if _HP_NAMES <= scope.keys():
        return
    for module, names in _HP_GROUP.items():
        owner = importlib.import_module(f"{__package__}.{module}")
        for name in names:
            scope.setdefault(name, getattr(owner, name))


def __getattr__(name: str):
    """An HP group name, read before any Euler command ran (PEP 562)."""
    if name not in _HP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    _load_hp_group()
    return globals()[name]


def build_system(cfg: RunConfig):
    """The system `cfg.system` names; RunConfig has checked the name and
    that a custom system has its expression.  Loads the HP group."""
    _load_hp_group()
    if cfg.system == "pendulum":
        return pendulum_system(gamma_coupling=cfg.gamma)
    if cfg.system == "metric:polar":
        return polar_metric_system(gamma_coupling=cfg.gamma)
    gammas = list(cfg.gamma_expr) or ["cos(q1)"]
    if cfg.system == "hamiltonian:custom":
        from .exprsys import hamiltonian_from_expression
        return hamiltonian_from_expression(cfg.hamiltonian_expr, gammas,
                                           cfg.dim)
    from .exprsys import metric_from_expressions
    rows = [[e.strip() for e in row.split(",")]
            for row in cfg.metric_expr.split(";")]
    return metric_from_expressions(rows, gammas, cfg.dim)


def _outdir(cfg: RunConfig) -> Path:
    d = Path(cfg.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_manifest(cfg: RunConfig, outdir: Path, extra: dict | None = None):
    body = config_lines(cfg, {"code_version": __version__,
                              "resolved_seed": cfg.seed, **(extra or {})})
    (outdir / "run_manifest").write_text(body, encoding="utf-8")


_CSV_ROWS = 512  # rows laid out per block; a block's words stay in cache


def _words(texts) -> np.ndarray:
    """One row of uint32 words per text: the text right-aligned in 4 bytes
    per word, NUL before it."""
    size = 4 * -(-max(map(len, texts)) // 4)
    return np.frombuffer(b"".join(t.rjust(size, b"\0") for t in texts),
                         dtype=np.uint32).reshape(len(texts), -1)


def _digit_words() -> np.ndarray:
    """The digits of 0..9999 as one word each, in three runs of 10,000:
    all four, then leading zeros as NUL, then trailing zeros as NUL (0 is
    all NUL in the last two)."""
    digits = np.empty((3, 10_000, 4), dtype=np.uint8)
    for j in range(4):  # digit j is n // 10**(3 - j) % 10
        digits[:, :, j] = np.tile(
            np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).repeat(
                10 ** (3 - j)), 10 ** j)
        digits[1, :10 ** (3 - j), j] = 0  # a leading zero of n < 10**(3-j)
        digits[2, ::10 ** (4 - j), j] = 0  # a trailing zero if 10**(4-j) | n
    return digits.view(np.uint32).ravel()


def _split(t: float) -> tuple:
    """t and its high and low halves of 26 bits, for Dekker's product."""
    hi = 134217729.0 * t - (134217729.0 * t - t)
    return t, hi, t - hi


# The tables below are built from Python numbers: in a fresh interpreter
# the first call of each numpy operation raised resident memory by ~128
# KiB, which a command that writes no CSV would carry for nothing.
# Exact 10**k, k = 0..22, split.
_TEN, _TEN_HI, _TEN_LO = map(np.array, zip(*(_split(float(10 ** k))
                                              for k in range(23))))
# Row k = 16 - e of a value with 17-digit decimal exponent e; rows 23 and
# 24 are the values left to "%.17g" and to "%d".
_E = [16 - k for k in range(23)] + [-1, -1]
_BEFORE = [e + 1 if e >= 0 else int(e < -4) for e in _E]  # digits before .
_DIV = np.array([10 ** (17 - b) for b in _BEFORE])
_MUL = np.array([10 ** b for b in _BEFORE])
_POINT = np.array([ord(".") if b else 0 for b in _BEFORE], dtype=np.uint8)
_EXP = _words([b"e-%02d" % -e if e < -4 else b"" for e in _E])[:, 0]
# The text before the digits of a value with none before the point: "0."
# and the zeros after it, or the format of a value left to %.
_LEADS = [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in _E[:23]]
_DIGITS = np.concatenate([_digit_words(),
                          _words(_LEADS + [b"%.17g", b"%d"]).ravel()])
# _OFFSET[j][k]: where in _DIGITS word j of the part before the point
# looks up its four digits.  A word at or before the first digit drops
# leading zeros; one after it keeps them.  With no digit before the point,
# words 2 and 3 hold row k's text of _LEADS instead.
_OFFSET = np.array([[30_000 + 2 * k + j - 2 if b == 0 and j >= 2
                     else 10_000 if 4 * j <= 16 - b else 0
                     for k, b in enumerate(_BEFORE)] for j in range(4)])
_SEP = _words([b",", b"\n"])[:, 0]


def _four_digit_words(n: np.ndarray):
    """n < 10**16 as four numbers of four digits, the highest first."""
    hi = n // 10 ** 8
    lo = n - hi * 10 ** 8
    hi_hi = hi // 10 ** 4
    lo_hi = lo // 10 ** 4
    return hi_hi, hi - hi_hi * 10 ** 4, lo_hi, lo - lo_hi * 10 ** 4


def _csv_rows(block, is_int, words) -> bytes:
    """The CSV lines of `block`, equal-length columns, each value as
    "%.17g" (as "%d" where `is_int`).

    A value with 1e-6 <= |x| < 1e16 (2**53 for an int) is laid out in
    numpy: D, its 17 significant digits, is the exact product |x| 10**k,
    hi + lo by Dekker's two-product, rounded as hi + rint(lo), which ties
    to even as % does because hi >= 1e16 is even.  A k from log10 that
    leaves the product outside [1e16, 1e17) is retried once at k +- 1.
    Each value fills its 12 words of `words`, the (rows, columns, 12)
    buffer of `_write_csv`: sign, the digits before the point (or "0." and
    zeros), the point and the first digit after it, the other 16 digits
    after it, exponent and separator (set by `_write_csv`), with NUL for
    every unused or stripped byte.  Any other value (0, subnormal, NaN,
    inf, out of range) gets its text from % one at a time.
    """
    x = np.column_stack(block).astype(float, copy=False)
    v = np.abs(x)
    ok = ((v >= 1e-6) & (v < np.where(is_int, 2.0 ** 53, 1e16))).ravel()
    v = v.ravel()
    v[~ok] = 1.0
    k = np.minimum(16 - np.floor(np.log10(v)).astype(np.intp), 22)
    split = 134217729.0 * v
    v_hi = split - (split - v)
    v_lo = v - v_hi
    for _ in range(2):
        ten_hi, ten_lo = _TEN_HI[k], _TEN_LO[k]
        hi = v * _TEN[k]
        lo = (((v_hi * ten_hi - hi) + v_hi * ten_lo + v_lo * ten_hi)
              + v_lo * ten_lo)
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (low | high).any():
            break
        k = np.clip(k + low - high, 0, 22)
    else:
        ok &= ~(low | high)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    k -= carry
    bad = ~ok
    digits[bad] = 0
    k[bad] = 23 + np.broadcast_to(is_int, x.shape).ravel()[bad]
    whole, frac = np.divmod(digits, _DIV[k])
    frac *= _MUL[k]  # the digits after the point, left-aligned in 17
    first = frac // 10 ** 16
    t = words.reshape(-1, 12)
    for j, n in enumerate(_four_digit_words(whole)):
        t[:, 1 + j] = _DIGITS[n + _OFFSET[j][k]]
    zeros_after = np.ones(len(t), dtype=bool)
    for j, n in reversed(list(enumerate(
            _four_digit_words(frac - first * 10 ** 16)))):
        t[:, 6 + j] = _DIGITS[n + 20_000 * zeros_after]
        zeros_after &= n == 0
    t[:, 10] = _EXP[k]
    text = t.view(np.uint8)
    text[:, 0] = np.signbit(x).ravel() * ok * ord("-")
    after = frac != 0
    text[:, 20] = _POINT[k] * after
    text[:, 21] = (first + ord("0")) * after
    out = t.tobytes().translate(None, b"\0")
    if bad.any():
        rows, cols = np.nonzero(bad.reshape(x.shape))
        out %= tuple(block[j][i] for i, j in zip(rows, cols))
    return out


def _write_csv(path: Path, header: str, columns) -> None:
    """Write `header`, then one line per row of the equal-length columns,
    each line ending in "\\n": an integer column prints as "%d" (a step or
    path count), a float column as "%.17g" (exact).

    Rows go out in blocks of _CSV_ROWS, laid out by `_csv_rows` in numpy
    where its exact arithmetic reaches, with % per value elsewhere.
    """
    cols = [c if c.dtype.kind in "iu" else c.astype(float, copy=False)
            for c in map(np.asarray, columns)]
    is_int = np.array([c.dtype.kind in "iu" for c in cols])
    n_rows, width = len(cols[0]), len(cols)
    words = np.zeros((min(n_rows, _CSV_ROWS), width, 12), dtype=np.uint32)
    words[:, :, 11] = _SEP[(np.arange(width) == width - 1).astype(int)]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n_rows, _CSV_ROWS):
            block = [c[lo:lo + _CSV_ROWS] for c in cols]
            fh.write(_csv_rows(block, is_int, words[:len(block[0])]))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    n = traj.dim
    header = ",".join(["step", "s"] + [f"{c}_{i + 1}" for c in "qpv"
                                       for i in range(n)])
    _write_csv(path, header, [np.arange(len(traj.q)), traj.grid.points,
                              *traj.q.T, *traj.p.T, *traj.v.T])


def _hp_fields(cfg: RunConfig):
    """The configured system's fields and initial state."""
    system = build_system(cfg)
    fields = assemble_hp_fields(system, cfg.params,
                                eq15_literal=cfg.eq15_literal)
    return fields, initial_state(system, cfg.q0, cfg.p0)


def cmd_simulate(cfg: RunConfig) -> int:
    grid = make_grid(0.0, cfg.h, cfg.n_steps, cfg.params)
    fields, init = _hp_fields(cfg)
    m = fields.system.noise.m
    noisy, det = integrate_paths([
        EulerRun(fields, grid, path, init, cfg.params)
        for path in (generate_path(cfg.seed, cfg.h, cfg.n_steps, m),
                     zero_path(cfg.h, cfg.n_steps, m))])
    outdir = _outdir(cfg)
    write_trajectory_csv(outdir / "trajectory.csv", noisy)
    write_trajectory_csv(outdir / "trajectory_deterministic.csv", det)
    if cfg.plot:
        steps = np.arange(cfg.n_steps + 1)
        for traj, suffix in ((det, ""), (noisy, "_noisy")):
            p = traj.p[:, 0]
            q = traj.q[:, 0]
            write_orbit(outdir / f"p_vs_n{suffix}.svg", steps, p,
                        f"orbit (n, p(nh)){suffix.replace('_', ' ')}")
            write_orbit(outdir / f"phase_qp{suffix}.svg", q, p,
                        f"orbit (q(nh), p(nh)){suffix.replace('_', ' ')}")
    _write_manifest(cfg, outdir)
    print(f"simulate: wrote {outdir}/trajectory.csv "
          f"({cfg.n_steps} steps, seed {cfg.seed})")
    return 0


def cmd_convergence(cfg: RunConfig) -> int:
    fields, init = _hp_fields(cfg)
    slope, hs, errors = strong_convergence_order(
        fields, init, base_h=cfg.h, levels=cfg.levels,
        n_paths=cfg.n_paths, seed=cfg.seed, t_end=cfg.t_end)
    outdir = _outdir(cfg)
    _write_csv(outdir / "convergence.csv", "h,mean_error", [hs, errors])
    _write_manifest(cfg, outdir, {"fitted_slope": f"{slope:.6g}"})
    print(f"convergence: fitted strong-order slope = {slope:.4f}")
    return 0


def cmd_action_check(cfg: RunConfig) -> int:
    grid = make_grid(0.0, cfg.h, cfg.n_steps, cfg.params)
    fields, init = _hp_fields(cfg)
    system, params, m = fields.system, cfg.params, fields.system.noise.m

    if cfg.gamma == "const":
        path = zero_path(cfg.h, cfg.n_steps, m)
        traj = integrate(EulerRun(fields, grid, path, init, params))
        ratio = stationarity_ratio(traj, system, params, path,
                                   n_perturbations=20, seed=cfg.seed)
        ok = ratio <= STATIONARITY_GATE
        verdict = "PASS" if ok else "FAIL"
        print(f"action-check: max |dA|/||w|| = {ratio:.3e} "
              f"(gate {STATIONARITY_GATE:g}) -> {verdict}")
        _write_manifest(cfg, _outdir(cfg),
                        {"stationarity_ratio": f"{ratio:.6g}",
                         "verdict": verdict})
        return 0 if ok else 1

    # Noisy case: expectation statistics, reported but not gated.
    seeds = [spawn_substream(cfg.seed, i) for i in range(cfg.n_paths)]
    paths = [WienerPath(cfg.h, inc)
             for inc in generate_paths(seeds, cfg.h, cfg.n_steps, m)]
    trajs = integrate_paths([EulerRun(fields, grid, path, init, params)
                             for path in paths])
    ratios = np.array([
        stationarity_ratio(traj, system, params, path, n_perturbations=5,
                           seed=cfg.seed + i)
        for i, (traj, path) in enumerate(zip(trajs, paths))])
    print(f"action-check (noisy, {cfg.n_paths} paths): "
          f"mean |dA|/||w|| = {ratios.mean():.3e}, "
          f"max = {ratios.max():.3e} (not gated)")
    _write_manifest(cfg, _outdir(cfg),
                    {"mean_ratio": f"{ratios.mean():.6g}",
                     "max_ratio": f"{ratios.max():.6g}"})
    return 0


def cmd_volterra(cfg: RunConfig) -> int:
    grid = TimeGrid(0.0, cfg.h, cfg.n_steps)
    seeds = [spawn_substream(cfg.seed, i) for i in range(cfg.n_paths)]
    inc = generate_paths(seeds, cfg.h, cfg.n_steps)[:, :, 0]
    x = volterra_paths(cfg.coeffs, cfg.beta, grid, inc)
    x_t = x[:, -1]
    mean = float(np.mean(x_t))
    var = float(np.var(x_t, ddof=1)) if cfg.n_paths > 1 else 0.0

    outdir = _outdir(cfg)
    _write_csv(outdir / "summary.csv", "n_paths,mean_XT,var_XT",
               [[cfg.n_paths], [mean], [var]])
    if cfg.n_paths <= 32:
        for i, x_i in enumerate(x):
            _write_csv(outdir / f"path_{i:04d}.csv", "step,s,X",
                       [np.arange(x_i.size), grid.points, x_i])

    t_end = grid.t_end
    print(f"volterra: {cfg.n_paths} paths, mean X(T) = {mean:.6g}, "
          f"var = {var:.6g}")
    if cfg.sigma == 0.0 and cfg.beta == 1.0:
        exact = cfg.x0 * math.exp(cfg.mu * t_end)
        print(f"  sigma = 0, beta = 1 closed form X0 exp(mu T) = {exact:.6g} "
              f"(rel err {abs(mean - exact) / exact:.3e})")
    if cfg.mu == 0.0 and cfg.n_paths > 1:
        se = math.sqrt(var / cfg.n_paths)
        print(f"  mu = 0 martingale check: |mean - X0| = "
              f"{abs(mean - cfg.x0):.3e}, standard error = {se:.3e}")
    _write_manifest(cfg, outdir, {"mean_XT": f"{mean:.17g}",
                                  "var_XT": f"{var:.17g}"})
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "convergence": cmd_convergence,
    "action-check": cmd_action_check,
    "volterra": cmd_volterra,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frachp",
        description="Stochastic fractional Hamilton-Pontryagin simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out=args.out)
        # A NaN or inf is reported once, as the FracHPError that names
        # its step, not also as numpy RuntimeWarnings.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cfg)
    except (FracHPError, OSError) as exc:
        print(f"frachp {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
