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


_CSV_CHUNK = 1024  # rows formatted by one % operation


def _write_csv(path: Path, header: str, columns) -> None:
    """Write `header`, then one line per row of the equal-length columns,
    each line ending in "\\n": an integer column prints as "%d" (a step or
    path count), a float column as "%.17g" (exact).

    Rows go out in chunks of _CSV_CHUNK, each formatted by one % over a
    flat list.  A float column whose float64 bytes equal an earlier
    column's is not formatted again: the earlier column's text of the
    chunk is printed through "%s" in both places.
    """
    cols = [c if c.dtype.kind in "iu" else c.astype(float, copy=False)
            for c in map(np.asarray, columns)]
    width = len(cols)
    # first[j]: the first float column with column j's bytes, else j.
    first = list(range(width))
    for j, c in enumerate(cols):
        if c.dtype.kind == "f":
            first[j] = next(i for i in range(j + 1)
                            if cols[i].dtype.kind == "f"
                            and np.array_equal(cols[i].view(np.uint64),
                                               c.view(np.uint64)))
    shared = {i for j, i in enumerate(first) if i != j}
    row = ",".join("%s" if i in shared
                   else "%d" if cols[i].dtype.kind in "iu" else "%.17g"
                   for i in first) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(cols[0]), _CSV_CHUNK):
            part = {i: cols[i][lo:lo + _CSV_CHUNK].tolist()
                    for i in set(first)}
            for i in shared:
                part[i] = ("%.17g\n" * len(part[i])
                           % tuple(part[i])).splitlines()
            rows = len(part[0])
            flat = [None] * (rows * width)
            for j, i in enumerate(first):
                flat[j::width] = part[i]
            fh.write(row * rows % tuple(flat))


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
