"""Command-line front end: simulate, convergence, action-check, volterra.

Every command resolves its configuration, writes its outputs into the run
directory together with a `run_manifest` that is sufficient to reproduce
the run byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_lines, parse_config
from .core import FractionalParams, TimeGrid, Trajectory, make_grid
from .dynamics import (assemble_hp_fields, pendulum_system,
                       polar_metric_system)
from .errors import ConfigError, FracHPError, ParseError
from .fracint import VolterraCoefficients, volterra_paths
from .integrator import (EulerRun, initial_state, integrate,
                         integrate_paths, stationarity_ratio,
                         strong_convergence_order)
from .noise import generate_path, spawn_substream, zero_path
from .svgplot import write_orbit

STATIONARITY_GATE = 1e-3


def build_system(cfg: RunConfig):
    if cfg.system == "pendulum":
        return pendulum_system(gamma_coupling=cfg.gamma)
    if cfg.system == "metric:polar":
        return polar_metric_system(gamma_coupling=cfg.gamma)
    if cfg.system == "hamiltonian:custom":
        from .exprsys import hamiltonian_from_expression
        if not cfg.hamiltonian_expr:
            raise ParseError("hamiltonian:custom needs hamiltonian_expr")
        gammas = list(cfg.gamma_expr) or ["cos(q1)"]
        return hamiltonian_from_expression(cfg.hamiltonian_expr, gammas,
                                           cfg.dim)
    if cfg.system == "metric:custom":
        from .exprsys import metric_from_expressions
        if not cfg.metric_expr:
            raise ParseError("metric:custom needs metric_expr")
        rows = [[e.strip() for e in row.split(",")]
                for row in cfg.metric_expr.split(";")]
        gammas = list(cfg.gamma_expr) or ["cos(q1)"]
        return metric_from_expressions(rows, gammas, cfg.dim)
    raise ParseError(f"unknown system {cfg.system!r}")


def _initial_state(cfg: RunConfig, system):
    """initial_state from q0 and p0, each checked against the dimension."""
    for key in ("q0", "p0"):
        n = len(getattr(cfg, key))
        if n != system.dim:
            raise ConfigError(f"{key} has {n} entries, but system "
                              f"{cfg.system!r} has dimension {system.dim}")
    return initial_state(system, cfg.q0, p0=cfg.p0)


def _outdir(cfg: RunConfig) -> Path:
    d = Path(cfg.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_manifest(cfg: RunConfig, outdir: Path, extra: dict | None = None):
    body = config_lines(cfg, {"code_version": __version__,
                              "resolved_seed": cfg.seed, **(extra or {})})
    (outdir / "run_manifest").write_text(body, encoding="utf-8")


def _write_csv(path: Path, header: str, fmt: str, rows) -> None:
    """Write `header`, then `fmt % row` for each row, each line ending in
    "\\n": "%d" for a step or path count, "%.17g" (exact) for a value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % tuple(row) + "\n"
                      for row in np.asarray(rows, dtype=float).tolist())


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    n = traj.dim
    header = ",".join(["step", "s"] + [f"{c}_{i + 1}" for c in "qpv"
                                       for i in range(n)])
    _write_csv(path, header, "%d" + ",%.17g" * (3 * n + 1),
               np.column_stack([np.arange(len(traj.q)), traj.grid.points,
                                traj.q, traj.p, traj.v]))


def _hp_run(cfg: RunConfig):
    """Params, grid, system, fields and initial state of the configured run."""
    params = FractionalParams(cfg.alpha, cfg.beta, cfg.t_eval)
    grid = make_grid(0.0, cfg.h, cfg.n_steps, params)
    system = build_system(cfg)
    fields = assemble_hp_fields(system, params,
                                eq15_literal=cfg.eq15_literal)
    return params, grid, system, fields, _initial_state(cfg, system)


def cmd_simulate(cfg: RunConfig) -> int:
    params, grid, system, fields, init = _hp_run(cfg)
    m = system.noise.m
    noisy, det = integrate_paths([
        EulerRun(fields, grid, path, init, params)
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
    params = FractionalParams(cfg.alpha, cfg.beta, cfg.t_eval)
    system = build_system(cfg)
    fields = assemble_hp_fields(system, params,
                                eq15_literal=cfg.eq15_literal)
    init = _initial_state(cfg, system)
    slope, hs, errors = strong_convergence_order(
        fields, init, params, base_h=cfg.h, levels=cfg.levels,
        n_paths=cfg.n_paths, seed=cfg.seed, t_end=cfg.t_end,
        return_errors=True)
    outdir = _outdir(cfg)
    _write_csv(outdir / "convergence.csv", "h,mean_error", "%.17g,%.17g",
               np.column_stack([hs, errors]))
    _write_manifest(cfg, outdir, {"fitted_slope": f"{slope:.6g}"})
    print(f"convergence: fitted strong-order slope = {slope:.4f}")
    return 0


def cmd_action_check(cfg: RunConfig) -> int:
    params, grid, system, fields, init = _hp_run(cfg)
    m = system.noise.m

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
    n_paths = min(cfg.n_paths, 100)
    paths = [generate_path(spawn_substream(cfg.seed, i), cfg.h, cfg.n_steps,
                           m) for i in range(n_paths)]
    trajs = integrate_paths([EulerRun(fields, grid, path, init, params)
                             for path in paths])
    ratios = np.array([
        stationarity_ratio(traj, system, params, path, n_perturbations=5,
                           seed=cfg.seed + i)
        for i, (traj, path) in enumerate(zip(trajs, paths))])
    print(f"action-check (noisy, {n_paths} paths): "
          f"mean |dA|/||w|| = {ratios.mean():.3e}, "
          f"max = {ratios.max():.3e} (not gated)")
    _write_manifest(cfg, _outdir(cfg),
                    {"mean_ratio": f"{ratios.mean():.6g}",
                     "max_ratio": f"{ratios.max():.6g}"})
    return 0


def cmd_volterra(cfg: RunConfig) -> int:
    grid = TimeGrid(0.0, cfg.h, cfg.n_steps)
    coeffs = VolterraCoefficients(mu=cfg.mu, sigma=cfg.sigma, x0=cfg.x0)
    inc = np.empty((cfg.n_paths, cfg.n_steps))
    for i in range(cfg.n_paths):
        inc[i] = generate_path(spawn_substream(cfg.seed, i), cfg.h,
                               cfg.n_steps, 1).increments[:, 0]
    x = volterra_paths(coeffs, cfg.beta, grid, inc)
    x_t = x[:, -1]
    mean = float(np.mean(x_t))
    var = float(np.var(x_t, ddof=1)) if cfg.n_paths > 1 else 0.0

    outdir = _outdir(cfg)
    _write_csv(outdir / "summary.csv", "n_paths,mean_XT,var_XT",
               "%d,%.17g,%.17g", [[cfg.n_paths, mean, var]])
    if cfg.n_paths <= 32:
        for i, x_i in enumerate(x):
            _write_csv(outdir / f"path_{i:04d}.csv", "step,s,X",
                       "%d,%.17g,%.17g", np.column_stack(
                           [np.arange(x_i.size), grid.points, x_i]))

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
