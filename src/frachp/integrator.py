"""Explicit Euler(-Maruyama) stepping for the assembled fractional fields,
strong-convergence measurement, and the discrete action with its
directional derivative (stationarity checking).

Coefficients are always evaluated at the left endpoint of each step (Ito
convention); the momentum/velocity equation carries the noise, the
configuration equation never does.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (FractionalParams, PhaseState, TimeGrid, Trajectory,
                   check_singularity_guard, make_grid)
from .dynamics import (HamiltonianSystem, MetricSystem, SdeFields,
                       SystemSpec, complete_state, system_lagrangian)
from .errors import (BoundaryViolation, GridMismatch, IndivisibleFactor,
                     NotApplicable, NumericalBlowup, SampleError)
from .noise import (WienerPath, _uniforms, coarsen, generate_path,
                    spawn_substream)
from .specfun import gamma, step_weights

BLOWUP_LIMIT = 1e12


def initial_state(sys: SystemSpec, q0, p0) -> PhaseState:
    """The (q, v, p) sample that `complete_state` gives at q0 from p0, so
    p is p0; a metric system, completed from v, first solves g(q0) v0 = p0."""
    q = np.atleast_1d(np.asarray(q0, dtype=float))
    x = np.atleast_1d(np.asarray(p0, dtype=float))
    if isinstance(sys, MetricSystem):
        x = np.linalg.solve(sys.metric_at(q), x)
    return PhaseState(q, *complete_state(sys, q, x))


def euler_step(fields: SdeFields, s: float, q: np.ndarray, v: np.ndarray,
               p: np.ndarray, h: float, increments: np.ndarray,
               damp: float | None = None, coef: float | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One explicit Euler step with left-endpoint coefficients; new (q, v, p).

    q, v and p are stacks (P, n) of P paths, or one sample (n,), and
    increments is (P, m) or (m,) to match.  damp and coef are
    fields.damping(s) and fields.noise_scale(s); the fields take them at s
    when they are not given.  The system type selects the formulation:
    the noise enters p, or v for a metric system, and `complete_state`
    gives the other of the two at the new q.
    """
    g = np.asarray(increments, dtype=float)[..., None]
    sys = fields.system
    y = p if isinstance(sys, HamiltonianSystem) else v
    x = v if isinstance(sys, MetricSystem) else p
    q_new = q + h * fields.drift_q(s, q, y)
    x = (x + h * fields.drift_p(s, q, y, damp)
         + (fields.diffusion_p(s, q, coef) @ g)[..., 0])
    return (q_new, *complete_state(sys, q_new, x))


@dataclass(frozen=True, eq=False)
class EulerRun:
    """Everything needed for one trajectory; validated on construction.

    An initial state that is not finite or exceeds BLOWUP_LIMIT raises
    NumericalBlowup at step 0.
    """

    fields: SdeFields
    grid: TimeGrid
    path: WienerPath
    initial: PhaseState
    params: FractionalParams

    def __post_init__(self):
        self.path.check_aligned(self.grid)
        system = self.fields.system
        if self.path.channels != system.noise.m:
            raise GridMismatch(
                f"path has {self.path.channels} channels, "
                f"fields expect {system.noise.m}")
        if self.initial.dim != system.dim:
            raise GridMismatch("initial state dimension mismatch")
        for c in "qpv":
            if not np.abs(getattr(self.initial, c)).max() <= BLOWUP_LIMIT:
                raise NumericalBlowup(
                    0, f"non-finite or huge initial {c}", self.grid.t_start,
                    component=c)
        if self.params != self.fields.params:
            raise GridMismatch(
                f"run params {self.params} differ from the fields' params "
                f"{self.fields.params}")
        check_singularity_guard(self.grid, self.params)


def _blowup(states: np.ndarray, step: int, s: float,
            batch: bool) -> NumericalBlowup:
    """NumericalBlowup naming the first failing path, its component and its
    (q, p, v) at the step before.

    states is the (3, P, N+1, n) buffer of q, p and v, filled to `step`.
    """
    bad = ~(np.abs(states[:, :, step]) <= BLOWUP_LIMIT)
    path = int(np.argmax(bad.any(axis=(0, 2))))
    comp = "qpv"[int(np.argmax(bad[:, path].any(axis=-1)))]
    on = f" on path {path}" if batch else ""
    return NumericalBlowup(
        step, f"non-finite or huge {comp} at step {step} (s = {s:.6g}){on}",
        s, path, comp, tuple(states[:, path, step - 1].copy()))


def integrate_paths(runs: Sequence[EulerRun]) -> tuple[Trajectory, ...]:
    """Iterate the Euler scheme for P runs at once; one Trajectory per run.

    The runs must share their grid and fields (and so their params), or
    GridMismatch is raised; their initial states and Wiener paths may
    differ.  Each step advances the (P, n) stack of states on the (P, m)
    increments of that step; under the array contract of
    `frachp.dynamics`, row i is what run i alone gives, bit for bit.  The
    fractional coefficients are taken once over the left endpoints of all
    steps.  A state that is not finite or exceeds BLOWUP_LIMIT raises
    NumericalBlowup, which carries the failing path's state at the step
    before.  A metric that stops being positive definite raises
    NotPositiveDefinite, and a Legendre map that cannot be inverted
    SingularHessian or NoConvergence.  Each names the step, and the path
    when P > 1.
    """
    if not runs:
        return ()
    first = runs[0]
    for i, run in enumerate(runs[1:], 1):
        for name in ("grid", "fields"):
            if getattr(run, name) != getattr(first, name):
                raise GridMismatch(
                    f"run {i} has other {name} than run 0; a batch of runs "
                    f"shares its grid, fields and params")
    fields, grid = first.fields, first.grid
    n, h, batch = grid.n_steps, grid.h, len(runs) > 1
    s = grid.points[:-1]
    damp = np.broadcast_to(fields.damping(s), s.shape)
    coef = np.broadcast_to(fields.noise_scale(s), s.shape)
    inc = np.stack([run.path.increments for run in runs], axis=1)  # (N, P, m)
    # states[c, i, k] is component c (q, p, v) of path i at step k, so
    # each path's history is one contiguous block.
    states = np.empty((3, len(runs), n + 1, fields.system.dim))
    states[:, :, 0] = [[getattr(run.initial, c) for run in runs]
                       for c in "qpv"]
    q, p, v = states[:, :, 0]
    for k in range(n):
        try:
            q, v, p = euler_step(fields, grid.point(k), q, v, p, h, inc[k],
                                 damp[k], coef[k])
        except SampleError as exc:
            on = f" on path {exc.sample}" if batch else ""
            raise type(exc)(
                f"{exc} at step {k + 1} (s = {grid.point(k + 1):.6g}){on}",
                exc.sample) from None
        state = states[:, :, k + 1]
        state[0], state[1], state[2] = q, p, v
        # Written so that NaN fails the test as well as inf and huge values.
        if not np.abs(state).max() <= BLOWUP_LIMIT:
            raise _blowup(states, k + 1, grid.point(k + 1), batch)
    states.setflags(write=False)
    return tuple(Trajectory(grid, q, v, p)
                 for q, p, v in np.swapaxes(states, 0, 1))


def integrate(run: EulerRun) -> Trajectory:
    """The trajectory of one run: `integrate_paths` on a batch of one."""
    return integrate_paths((run,))[0]


def strong_convergence_order(fields: SdeFields, initial: PhaseState,
                             params: FractionalParams, base_h: float,
                             levels: int, n_paths: int, seed: int,
                             t_end: float, return_errors: bool = False):
    """Fit the strong order of the Euler scheme by grid coarsening.

    For each path the finest Wiener path (step base_h) is generated once
    and coarsened by powers of two; terminal-state errors at the coarse
    levels are measured against the finest run sharing the same Brownian
    path.  Each level integrates all paths in one batch.  Returns the
    least-squares slope of log(mean error) vs log(h); the grids start at 0.
    t_end/base_h must be a whole multiple of 2^(levels-1), to within
    rounding, or IndivisibleFactor is raised.
    """
    if levels < 3:
        raise ValueError("levels must be >= 3")
    ratio = t_end / base_h
    n_fine = round(ratio) if math.isfinite(ratio) else 0
    top_factor = 2 ** (levels - 1)
    if (not math.isclose(ratio, n_fine, rel_tol=1e-12)
            or n_fine % top_factor != 0 or n_fine < top_factor):
        raise IndivisibleFactor(
            f"t_end/h = {ratio:.12g} steps (h = {base_h!r}, "
            f"t_end = {t_end!r}) is not a whole multiple of "
            f"2^(levels-1) = {top_factor} (levels = {levels})")

    grids = [make_grid(0.0, base_h * 2 ** l, n_fine // 2 ** l, params)
             for l in range(levels)]
    fine = [generate_path(spawn_substream(seed, i), base_h, n_fine,
                          fields.system.noise.m) for i in range(n_paths)]

    def terminals(level: int) -> list:
        """Terminal (q, p) of every path on the grid of this level."""
        paths = fine if level == 0 else [coarsen(f, 2 ** level)
                                         for f in fine]
        return [np.concatenate([t.q[-1], t.p[-1]]) for t in integrate_paths(
            [EulerRun(fields, grids[level], path, initial, params)
             for path in paths])]

    ref = terminals(0)
    errors = np.zeros(levels - 1)
    for l in range(1, levels):
        # Summed in path order, as one path at a time would add them.
        for end, ref_end in zip(terminals(l), ref):
            errors[l - 1] += np.linalg.norm(end - ref_end)
    errors /= n_paths
    if np.all(errors == 0.0):
        raise NotApplicable("all terminal errors are zero (degenerate fields)")
    hs = np.array([base_h * 2 ** l for l in range(1, levels)])
    slope = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    if return_errors:
        return slope, hs, errors
    return slope


# ---------------------------------------------------------------------------
# Discrete action and stationarity
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _action_weights(grid: TimeGrid, t: float, alpha: float) -> np.ndarray:
    """The deterministic action's kernel integrals, read-only, per grid."""
    w = step_weights(t, grid.points, alpha)
    w.setflags(write=False)
    return w


def evaluate_action(trajectory: Trajectory, sys: SystemSpec,
                    params: FractionalParams,
                    path: WienerPath) -> float:
    """Discretized Hamilton-Pontryagin fractional action of a trajectory.

    Deterministic part: left-endpoint integrand against the exact per-step
    integral of (t - s)^(alpha-1); qdot by forward differences.  Stochastic
    part: midpoint (Stratonovich) evaluation of gamma_a against the Wiener
    increments, kernel (t - s)^(beta-1) at the step midpoint.  Both parts
    are evaluated on whole-grid arrays: one call of the Lagrangian and one
    of each coupling, under the array contract of `frachp.dynamics`.
    A non-finite action raises NumericalBlowup naming the first step from
    which the running sum is not finite.
    """
    grid = trajectory.grid
    path.check_aligned(grid)
    t = params.t_eval
    s = grid.points
    h = grid.h
    w_alpha = _action_weights(grid, t, params.alpha)

    q, v, p = trajectory.q[:-1], trajectory.v[:-1], trajectory.p[:-1]
    q_next = trajectory.q[1:]
    qdot = (q_next - q) / h

    # Both sums run over the steps in grid order (a cumulative sum), so the
    # result does not depend on how numpy or BLAS blocks a reduction.
    integrand = (system_lagrangian(sys, q, v)
                 + np.einsum("ki,ki->k", p, qdot - v))
    det = np.cumsum(integrand * w_alpha) / gamma(params.alpha)

    s_mid = s[:-1] + 0.5 * h
    kernel = (t - s_mid) ** (params.beta - 1.0)
    terms = (sys.noise.values(0.5 * (q + q_next)) * kernel[:, None]
             * path.increments)
    stoch = np.cumsum(terms.sum(axis=1)) / gamma(params.beta)

    running = det + stoch
    value = float(running[-1])
    if not math.isfinite(value):
        k = int(np.argmax(~np.isfinite(running)))
        raise NumericalBlowup(
            k + 1, f"discrete action is not finite from step {k + 1} "
            f"(s = {s[k]:.6g}) on")
    return value


def _shift_trajectory(trajectory: Trajectory, dq, dv, dp,
                      eps: float) -> Trajectory:
    return Trajectory(trajectory.grid, trajectory.q + eps * dq,
                      trajectory.v + eps * dv, trajectory.p + eps * dp)


def action_derivative(trajectory: Trajectory, sys: SystemSpec,
                      params: FractionalParams, path: WienerPath,
                      perturbation) -> float:
    """Central-difference directional derivative of the discrete action.

    perturbation is a (dq, dv, dp) triple of (N+1, n) arrays; dq must
    vanish at both endpoints.
    """
    dq, dv, dp = (np.asarray(a, dtype=float) for a in perturbation)
    if np.any(dq[0] != 0.0) or np.any(dq[-1] != 0.0):
        raise BoundaryViolation("dq must vanish at both endpoints")
    eps = 1e-5
    plus = evaluate_action(_shift_trajectory(trajectory, dq, dv, dp, eps),
                           sys, params, path)
    minus = evaluate_action(_shift_trajectory(trajectory, dq, dv, dp, -eps),
                            sys, params, path)
    return (plus - minus) / (2.0 * eps)


def random_admissible_perturbation(grid: TimeGrid, dim: int, seed: int):
    """Smooth random (dq, dv, dp) with dq vanishing at both endpoints.

    dq is a short sine series in the normalized time, so it is C^1 and
    admissible; the triple is normalized to unit sup norm.
    """
    n_modes = 3
    u = _uniforms(seed, 0, 3 * n_modes * dim).reshape(3, dim, n_modes)
    coeff = 2.0 * u - 1.0
    tau = (grid.points - grid.t_start) / (grid.t_end - grid.t_start)

    def series(c, basis):
        out = np.zeros((grid.n_steps + 1, dim))
        for j in range(n_modes):
            out += np.outer(basis((j + 1) * math.pi * tau), c[:, j])
        return out

    dq = series(coeff[0], np.sin)
    dq[0] = 0.0
    dq[-1] = 0.0  # sin(j*pi) is only zero up to rounding
    dv = series(coeff[1], np.cos)
    dp = series(coeff[2], np.cos)
    scale = max(np.max(np.abs(dq)), np.max(np.abs(dv)), np.max(np.abs(dp)))
    if scale == 0.0:
        raise NotApplicable("degenerate zero perturbation")
    return dq / scale, dv / scale, dp / scale


def stationarity_ratio(trajectory: Trajectory, sys: SystemSpec,
                       params: FractionalParams, path: WienerPath,
                       n_perturbations: int = 20, seed: int = 0) -> float:
    """Max |action derivative| over seeded unit-norm admissible perturbations."""
    if n_perturbations < 1:
        raise NotApplicable("need at least one perturbation")
    worst = 0.0
    for i in range(n_perturbations):
        pert = random_admissible_perturbation(
            trajectory.grid, trajectory.dim, spawn_substream(seed, i))
        worst = max(worst, abs(action_derivative(
            trajectory, sys, params, path, pert)))
    return worst
