"""The five benchmark workloads: their configs, reference data and checks.

Each workload is one `frachp` subcommand on one config.  `prepare` runs in
the orchestrating process before the worker starts (outside every timed
window) and returns the reference data the checks compare against, pinned
values included; `check` runs in the worker after each operation, also
outside the timed window, and returns a list of problems (empty when the
outputs are correct).  Pinned values hold for the reference size only.

The reference data is the benchmark's own: a direct Euler recursion for
the pendulum, the built-in `metric:polar` system for the sympy-defined
polar metric, and a direct sigma = 0 recursion for the Volterra mean.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Seed of the operation whose outputs are pinned below.  Every run starts
# with one warm-up operation at this seed on the workloads that have pins,
# so pinned bytes are checked whatever seed the run is given.
PIN_SEED = 1

# sha256 of trajectory.csv from `frachp simulate` on the reference pendulum
# config at PIN_SEED (the README / acceptance-test C09 run).
PENDULUM_TRAJECTORY_SHA256 = (
    "f1c3e0762f8c48f5dc21946791c312d47b0d9e3f76129790eab64bd3f3b93933")

# Terminal (q_1, q_2, p_1, p_2, v_1, v_2) of the built-in metric:polar
# system on the polar-expr config: noisy at PIN_SEED, and deterministic.
POLAR_TERMINAL_NOISY_PIN = (
    1.1223016025846106, 0.5040376252352586, 0.6431351151908646,
    1.828548250517721, 0.6431351151908646, 1.4517347030637493)
POLAR_TERMINAL_DET_PIN = (
    1.107125555802671, 0.4435925417222643, 0.49283381457886266,
    1.1484501553079576, 0.49283381457886266, 0.9369542800020171)

SLOPE_GATE = 0.45          # acceptance criterion C07
POLAR_REL_TOL = 1e-12      # expression system vs built-in polar metric
PENDULUM_REL_TOL = 1e-9    # CLI trajectory vs the benchmark's recursion
VOLTERRA_SE_GATE = 4.0     # |mean X(T) - E[X(T)]| in standard errors


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    config: dict
    tiny: dict
    prepare: Callable[[dict, set, bool], dict]
    check: Callable[["OpResult", dict, dict], list]
    pinned: bool = False          # has outputs pinned at PIN_SEED
    uses_hp_fields: bool = True   # set-up builds a system and its fields

    def config_for(self, size: str) -> dict:
        if size == "reference":
            return dict(self.config)
        if size == "tiny":
            return {**self.config, **self.tiny}
        raise ValueError(f"unknown size {size!r}")


@dataclass
class OpResult:
    """One CLI invocation as the worker saw it."""

    seed: int
    exit_code: int
    out: Path
    error: str = ""


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def _exit_ok(op: OpResult) -> list:
    if op.error:
        return [f"raised {op.error}"]
    if op.exit_code != 0:
        return [f"exit code {op.exit_code}"]
    return []


def _read_manifest(out: Path) -> dict:
    entries = {}
    for line in (out / "run_manifest").read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition("=")
        entries[key.strip()] = val.strip()
    return entries


_POINTS = re.compile(r'<polyline[^>]*\bpoints="([^"]*)"')


def _svg_problems(path: Path) -> list:
    if not path.is_file():
        return [f"{path.name} missing"]
    match = _POINTS.search(path.read_text(encoding="utf-8"))
    if match is None:
        return [f"{path.name} has no <polyline points>"]
    coords = [float(x) for pair in match.group(1).split()
              for x in pair.split(",")]
    if len(coords) < 4 or not all(math.isfinite(c) for c in coords):
        return [f"{path.name} polyline is empty or not finite"]
    return []


def _trajectory_rows(path: Path, dim: int) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = ",".join(["step", "s"] + [f"{c}_{i + 1}" for c in "qpv"
                                       for i in range(dim)])
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name} header {lines[:1]!r} != {header!r}")
    return np.array([[float(x) for x in line.split(",")]
                     for line in lines[1:]])


def _grid_problems(rows: np.ndarray, name: str, h: float, n: int) -> list:
    if rows.shape[0] != n + 1:
        return [f"{name} has {rows.shape[0]} rows, expected {n + 1}"]
    steps = np.arange(n + 1)
    if not np.array_equal(rows[:, 0], steps):
        return [f"{name} step column is not 0..{n}"]
    if not np.array_equal(rows[:, 1], steps * h):
        return [f"{name} s column is not k*h"]
    return []


def _simulate_file_problems(op: OpResult) -> list:
    names = ("p_vs_n.svg", "phase_qp.svg", "p_vs_n_noisy.svg",
             "phase_qp_noisy.svg")
    problems = []
    for name in names:
        problems += _svg_problems(op.out / name)
    return problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# simulate-pendulum
# ---------------------------------------------------------------------------

def pendulum_euler(cfg: dict, increments) -> np.ndarray:
    """(q, p) rows of the pendulum HP scheme, written out directly.

    H = p^2/2 + cos q and gamma = cos q, so dq = p ds and
    dp = (sin q + (alpha-1)/(t_eval-s) p) ds
         - Gamma(alpha)/Gamma(beta) (t_eval-s)^(beta-alpha) sin q dW,
    with every coefficient taken at the left endpoint.
    """
    alpha, beta = float(cfg["alpha"]), float(cfg["beta"])
    t_eval, h = float(cfg["t_eval"]), float(cfg["h"])
    n = int(cfg["n_steps"])
    ratio = math.gamma(alpha) / math.gamma(beta)
    q, p = float(cfg.get("q0", 1.0)), float(cfg.get("p0", 0.0))
    rows = [(q, p)]
    for k in range(n):
        s = k * h
        damp = 0.0 if alpha == 1.0 else (alpha - 1.0) / (t_eval - s)
        coef = 1.0 if alpha == beta else ratio * (t_eval - s) ** (beta - alpha)
        g = 0.0 if increments is None else increments[k]
        q, p = (q + h * p,
                p + h * (math.sin(q) + damp * p) - coef * math.sin(q) * g)
        rows.append((q, p))
    return np.array(rows)


def _prepare_pendulum(cfg: dict, seeds: set, pinned: bool) -> dict:
    from frachp.noise import generate_path

    def noisy(s):
        path = generate_path(s, float(cfg["h"]), int(cfg["n_steps"]), 1)
        return pendulum_euler(cfg, path.increments[:, 0]).tolist()

    return {"det": pendulum_euler(cfg, None).tolist(),
            "noisy": {str(s): noisy(s) for s in seeds},
            "sha256": ({str(PIN_SEED): PENDULUM_TRAJECTORY_SHA256}
                       if pinned else {}),
            "seen_sha256": {}}


def _close_rows(rows: np.ndarray, ref: np.ndarray, name: str) -> list:
    q, p, v = rows[:, 2], rows[:, 3], rows[:, 4]
    for label, got, want in (("q", q, ref[:, 0]), ("p", p, ref[:, 1]),
                             ("v", v, ref[:, 1])):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        if not np.all(err <= PENDULUM_REL_TOL):
            k = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
            return [f"{name} {label} at step {k} off the reference "
                    f"by {err[k]:.3g} relative"]
    return []


def _check_pendulum(op: OpResult, cfg: dict, refs: dict) -> list:
    problems = _exit_ok(op)
    if problems:
        return problems
    h, n = float(cfg["h"]), int(cfg["n_steps"])
    for name, ref in (("trajectory.csv", refs["noisy"][str(op.seed)]),
                      ("trajectory_deterministic.csv", refs["det"])):
        try:
            rows = _trajectory_rows(op.out / name, 1)
        except (OSError, ValueError) as exc:
            return [f"{name}: {exc}"]
        problems += _grid_problems(rows, name, h, n)
        if not problems:
            problems += _close_rows(rows, np.asarray(ref), name)
    digest = _sha256(op.out / "trajectory.csv")
    pin = refs["sha256"].get(str(op.seed), digest)
    if digest != pin:
        problems.append(f"trajectory.csv sha256 {digest[:12]} != pinned "
                        f"{pin[:12]}")
    # Reruns with one seed must give one set of bytes (criterion C09); the
    # first run's digest is remembered in refs for the later ones.
    first = refs["seen_sha256"].setdefault(str(op.seed), digest)
    if digest != first:
        problems.append("trajectory.csv bytes differ from the first run "
                        "with this seed")
    return problems + _simulate_file_problems(op)


# ---------------------------------------------------------------------------
# simulate-polar-expr
# ---------------------------------------------------------------------------

def _polar_builtin_terminal(cfg: dict, seed: int | None) -> list:
    """Terminal (q, p, v) of the built-in metric:polar system."""
    from frachp import (EulerRun, FractionalParams, assemble_hp_fields,
                        generate_path, initial_state, integrate, make_grid,
                        polar_metric_system, zero_path)
    params = FractionalParams(float(cfg["alpha"]), float(cfg["beta"]),
                              float(cfg["t_eval"]))
    h, n = float(cfg["h"]), int(cfg["n_steps"])
    system = polar_metric_system(gamma_coupling="cos")
    fields = assemble_hp_fields(system, params)
    q0 = [float(x) for x in cfg["q0"].split(",")]
    p0 = [float(x) for x in cfg["p0"].split(",")]
    path = zero_path(h, n, 1) if seed is None else generate_path(seed, h, n, 1)
    traj = integrate(EulerRun(fields, make_grid(0.0, h, n, params), path,
                              initial_state(system, q0, p0=p0), params))
    last = traj.states[-1]
    return [*map(float, last.q), *map(float, last.p), *map(float, last.v)]


def _prepare_polar(cfg: dict, seeds: set, pinned: bool) -> dict:
    noisy = {str(s): (list(POLAR_TERMINAL_NOISY_PIN)
                      if pinned and s == PIN_SEED
                      else _polar_builtin_terminal(cfg, s)) for s in seeds}
    det = (list(POLAR_TERMINAL_DET_PIN) if pinned
           else _polar_builtin_terminal(cfg, None))
    return {"noisy": noisy, "det": det}


def _terminal_problem(rows: np.ndarray, want, name: str) -> list:
    got = rows[-1, 2:]
    want = np.asarray(want, dtype=float)
    rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    if not rel <= POLAR_REL_TOL:
        return [f"{name} terminal state is {rel:.3g} relative from the "
                f"built-in metric:polar result"]
    return []


def _check_polar(op: OpResult, cfg: dict, refs: dict) -> list:
    problems = _exit_ok(op)
    if problems:
        return problems
    h, n = float(cfg["h"]), int(cfg["n_steps"])
    for name, want in (("trajectory.csv", refs["noisy"][str(op.seed)]),
                       ("trajectory_deterministic.csv", refs["det"])):
        try:
            rows = _trajectory_rows(op.out / name, 2)
        except (OSError, ValueError) as exc:
            return [f"{name}: {exc}"]
        problems += _grid_problems(rows, name, h, n)
        if not problems:
            problems += _terminal_problem(rows, want, name)
    return problems + _simulate_file_problems(op)


# ---------------------------------------------------------------------------
# convergence-ensemble
# ---------------------------------------------------------------------------

def fitted_slope(out: Path) -> float:
    """Least-squares slope of log(mean_error) against log(h)."""
    lines = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "h,mean_error":
        raise ValueError(f"convergence.csv header {lines[0]!r}")
    h, err = np.array([[float(x) for x in line.split(",")]
                       for line in lines[1:]]).T
    if not (np.all(err > 0.0) and np.all(np.isfinite(err))):
        raise ValueError("convergence.csv errors are not finite and positive")
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])


def _check_convergence(op: OpResult, cfg: dict, refs: dict) -> list:
    problems = _exit_ok(op)
    if problems:
        return problems
    try:
        slope = fitted_slope(op.out)
    except (OSError, ValueError, IndexError) as exc:
        return [f"convergence.csv: {exc}"]
    if not slope >= SLOPE_GATE:
        return [f"strong-order slope {slope:.4f} < {SLOPE_GATE}"]
    return []


def _prepare_nothing(cfg: dict, seeds: set, pinned: bool) -> dict:
    return {}


# ---------------------------------------------------------------------------
# action-stationarity
# ---------------------------------------------------------------------------

def _check_action(op: OpResult, cfg: dict, refs: dict) -> list:
    problems = _exit_ok(op)
    if problems:
        return problems
    verdict = _read_manifest(op.out).get("verdict")
    if verdict != "PASS":
        return [f"manifest verdict {verdict!r}"]
    return []


# ---------------------------------------------------------------------------
# volterra-ensemble
# ---------------------------------------------------------------------------

def volterra_mean(cfg: dict) -> float:
    """X(T) of the sigma = 0 Volterra-Euler recursion, written out directly.

    The scheme is linear in X with left-endpoint Wiener increments that are
    independent of the past, so E[X(T)] of the noisy scheme equals this.
    """
    beta, mu, x0 = float(cfg["beta"]), float(cfg["mu"]), float(cfg["x0"])
    h, n = float(cfg["h"]), int(cfg["n_steps"])
    s = np.arange(n + 1) * h
    x = np.empty(n + 1)
    x[0] = x0
    for k in range(n):
        lag = s[k + 1] - s[:k + 2]
        w = (lag[:-1] ** beta - lag[1:] ** beta) / beta
        x[k + 1] = x0 + mu * float(x[:k + 1] @ w) / math.gamma(beta)
    return float(x[-1])


def _prepare_volterra(cfg: dict, seeds: set, pinned: bool) -> dict:
    return {"mean": volterra_mean(cfg)}


def _check_volterra(op: OpResult, cfg: dict, refs: dict) -> list:
    problems = _exit_ok(op)
    if problems:
        return problems
    try:
        header, row = (op.out / "summary.csv").read_text(
            encoding="utf-8").splitlines()[:2]
        n_paths, mean, var = (float(x) for x in row.split(","))
    except (OSError, ValueError) as exc:
        return [f"summary.csv: {exc}"]
    if header != "n_paths,mean_XT,var_XT" or n_paths != int(cfg["n_paths"]):
        return [f"summary.csv header {header!r} or path count {n_paths}"]
    se = math.sqrt(var / n_paths)
    gap = abs(mean - refs["mean"])
    if not (math.isfinite(gap) and gap <= VOLTERRA_SE_GATE * se):
        return [f"mean X(T) {mean:.6g} is {gap / se:.2f} standard errors "
                f"from E[X(T)] = {refs['mean']:.6g}"]
    return []


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_REFERENCE_GRID = {"alpha": 0.6, "beta": 0.3, "t_eval": 0.8,
                   "h": 0.0001, "n_steps": 7000}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="simulate-pendulum",
        command="simulate",
        why="one long pendulum path: per-step integrator, Hamiltonian "
            "fields, gamma calls and the CSV/SVG writers",
        config={"system": "pendulum", **_REFERENCE_GRID, "plot": "true"},
        tiny={"n_steps": 300},
        prepare=_prepare_pendulum,
        check=_check_pendulum,
        pinned=True,
    ),
    Workload(
        name="simulate-polar-expr",
        command="simulate",
        why="sympy-defined polar metric: metric-velocity fields and "
            "Christoffel symbols per step, sympy lambdify in set-up",
        config={"system": "metric:custom", "dim": 2,
                "metric_expr": "1, 0; 0, q1**2", "gamma_expr": "cos(q2)",
                "q0": "1.0, 0.0", "p0": "0.0, 0.5", **_REFERENCE_GRID,
                "plot": "true"},
        tiny={"n_steps": 300},
        prepare=_prepare_polar,
        check=_check_polar,
        pinned=True,
    ),
    Workload(
        name="convergence-ensemble",
        command="convergence",
        why="many short pendulum paths with coarsened noise: where batching "
            "over paths shows; alpha = beta bypasses the gamma prefactor",
        config={"system": "pendulum", "gamma": "cos", "alpha": 1.0,
                "beta": 1.0, "t_eval": 10.0, "h": 0.0002, "levels": 4,
                "t_end": 0.4, "n_paths": 16},
        tiny={"n_paths": 2, "h": 0.002},
        prepare=_prepare_nothing,
        check=_check_convergence,
    ),
    Workload(
        name="action-stationarity",
        command="action-check",
        why="discrete action and its derivative over 20 perturbations: "
            "per-step state objects and the Lagrangian",
        config={"system": "pendulum", "gamma": "const", **_REFERENCE_GRID},
        tiny={"n_steps": 300},
        prepare=_prepare_nothing,
        check=_check_action,
    ),
    Workload(
        name="volterra-ensemble",
        command="volterra",
        why="64-path fractional Black-Scholes Volterra recursion, O(P N^2); "
            "bypasses the HP integrator and the writers",
        config={"system": "pendulum", "alpha": 0.5, "beta": 0.5,
                "t_eval": 1.0, "mu": 0.1, "sigma": 0.2, "x0": 1.0,
                "h": 0.00025, "n_steps": 4000, "n_paths": 64},
        tiny={"n_steps": 200, "n_paths": 40},
        prepare=_prepare_volterra,
        check=_check_volterra,
        uses_hp_fields=False,
    ),
)}


def config_text(workload: Workload, size: str) -> str:
    """The workload's config file in `key = value` lines."""
    return "".join(f"{key} = {value}\n"
                   for key, value in workload.config_for(size).items())
