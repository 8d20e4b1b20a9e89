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
                   check_singularity_guard, check_whole, make_grid)
from .dynamics import (SdeFields, SystemSpec, _formulation, complete_state,
                       system_lagrangian)
from .errors import (BatchShapeError, GridMismatch, InvalidArgument,
                     NotApplicable, NumericalBlowup, SampleError)
from .noise import (WienerPath, _uniforms, coarsen, generate_paths,
                    spawn_substream)
from .specfun import gamma, step_weights

BLOWUP_LIMIT = 1e12
_BLOWUP_BLOCK = 256  # steps of the Euler loop written and tested at once
# A batch's float lanes cost about P times one path, while the numpy
# step's cost barely grows with P.  At N = 2000, in 10 alternating pairs
# on one CPU, pendulum lanes beat numpy at P = 16, 24 and 32 (7.3, 10.8
# and 14.1 against 16.7, 17.4 and 17.7 ms), but polar-metric lanes only at
# P = 16 (21.2 against 27.8 ms; 32.8 against 31.6 ms at P = 24 and 44.3
# against 34.8 ms at P = 32, slower in 10 of 10 pairs).
_LANE_PATHS = 16


def initial_state(sys: SystemSpec, q0, p0) -> PhaseState:
    """The (q, v, p) sample that `complete_state` gives at q0 from p0, so
    p is p0; a metric system, completed from v, first solves g(q0) v0 = p0.
    A q0 or p0 without sys.dim entries raises GridMismatch."""
    q, p = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (q0, p0))
    for name, a in (("q0", q), ("p0", p)):
        if a.size != sys.dim:
            raise GridMismatch(f"{name} has {a.size} entries, but the "
                               f"system has dimension {sys.dim}")
    form = _formulation(sys)
    return PhaseState(q, *form.complete(q, form.from_p(q, p)))


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
        system = self.fields.system
        self.path.check_aligned(self.grid, system.noise.m)
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


def _first_bad_row(parts, start: int, stop: int) -> int | None:
    """The first of rows start..stop at which one of the (N+1, P, n)
    histories in parts is not finite or exceeds BLOWUP_LIMIT, or None."""
    # Written so that NaN fails the test as well as inf and huge values.
    # One maximum per history clears the usual case faster than the maxima
    # of each row.
    if all(np.abs(a[start:stop + 1]).max(initial=0.0) <= BLOWUP_LIMIT
           for a in parts):
        return None
    bad = np.zeros(max(stop + 1 - start, 0), dtype=bool)
    for a in parts:
        bad |= ~(np.abs(a[start:stop + 1]).max(axis=(1, 2)) <= BLOWUP_LIMIT)
    return start + int(np.argmax(bad))


def _blowup(states: np.ndarray, step: int, grid: TimeGrid,
            batch: bool) -> NumericalBlowup:
    """NumericalBlowup naming the first failing path, its component and its
    (q, p, v) at the step before.

    states is the (3, N+1, P, n) buffer of q, p and v, filled to `step`.
    """
    bad = ~(np.abs(states[:, step]) <= BLOWUP_LIMIT)
    path = int(np.argmax(bad.any(axis=(0, 2))))
    comp = "qpv"[int(np.argmax(bad[:, path].any(axis=-1)))]
    s = grid.point(step)
    on = f" on path {path}" if batch else ""
    return NumericalBlowup(
        step, f"non-finite or huge {comp} at step {step} (s = {s:.6g}){on}",
        s, path, comp, tuple(states[:, step - 1, path].copy()))


def _at_step(exc: SampleError, step: int, grid: TimeGrid,
             batch: bool) -> SampleError:
    """exc with the step, and for a batch the path, that it failed at."""
    on = f" on path {exc.sample}" if batch else ""
    return type(exc)(f"{exc} at step {step} (s = {grid.point(step):.6g}){on}",
                     exc.sample)


def _complete_history(states: np.ndarray, fields: SdeFields, last: int,
                      grid: TimeGrid, batch: bool) -> None:
    """Write v and p on rows 1..last as one `complete_state` call over rows
    0..last returns them (the carried one unchanged, the other filled),
    which for a metric system also checks g at every q, q0 included.

    If that call fails, rows 0..last are completed one at a time, as a
    step-by-step run would, and the first failing row raises its error
    (or a blow-up of a completed row before it, NumericalBlowup).
    """
    q, p, v = states
    x = states["qpv".index(fields.carried[1])]

    def complete(rows):
        return complete_state(fields.system, q[rows], x[rows])

    try:
        v_all, p_all = complete(slice(0, last + 1))
        v[1:last + 1], p[1:last + 1] = v_all[1:], p_all[1:]
    except Exception:
        for k in range(last + 1):
            try:
                v_k, p_k = complete(k)
            except SampleError as exc:
                raise _at_step(exc, k, grid, batch) from None
            if k:
                v[k], p[k] = v_k, p_k
                if _first_bad_row(states, k, k) is not None:
                    raise _blowup(states, k, grid, batch) from None
        raise


def _check_rows(fields: SdeFields, q, x, driven: bool) -> None:
    """Raise BatchShapeError unless each call of the step's formulation
    record (y_of, the kernels of its terms, then the noise column or
    matrix if `driven`) gives on the (P, n) stacks q and x, row for row,
    the bits it gives on that row alone, as the array contract of
    `frachp.dynamics` asks; the step composes them by elementwise
    arithmetic, which steps each row as alone.  The error names the first
    call and the first path that differ.  A call that raises on the stack
    is left to the loop."""
    form = _formulation(fields.system)
    noise = (("noise column", form.kernels["C"])
             if fields.system.noise.m == 1 else
             ("noise matrix", form.noise_matrix))
    try:  # the stack's calls; one that raises is the loop's to report
        y = form.y_of(q, x)
        calls = [("y_of", form.y_of, (q, x), y)] + [
            (f"kernel {key}", fn, (q, y), fn(q, y))
            for key, fn in form.kernels.items() if key != "C"]
        if driven:
            calls.append((*noise, (q,), noise[1](q)))
    except Exception:
        return
    for role, fn, args, whole in calls:
        alone = [np.asarray(fn(*(a[i:i + 1] for a in args)), dtype=float)
                 for i in range(len(q))]
        try:
            rows = np.broadcast_to(np.asarray(whole, dtype=float),
                                   (len(q),) + alone[0].shape[1:])
        except ValueError:
            rows = None
        for i, one in enumerate(alone):
            if rows is None or rows[i].tobytes() != one[0].tobytes():
                name = getattr(fn, "__qualname__", repr(fn))
                raise BatchShapeError(
                    f"{role} {name} gives path {i} of a batch of {len(q)} "
                    f"other bits than that path alone; it must map "
                    f"(..., n) to (...) + its tail row by row")


def _lane_block(lanes, stepped, start: int, stop: int, h: float, damp,
                coef, inc) -> bool:
    """Step rows start+1..stop of the (N+1, P, n) histories in `stepped`
    with lanes, the float-lane step of `SdeFields` for P paths, on the
    (N, P, 1) increments inc (None: drift-only), and write them; False if
    a lane raises where numpy gives inf or NaN: a float division by zero,
    or math's sin, cos or sqrt outside its domain.  One call steps every
    path over the block's rows, so the block's rows x 2n x P floats (up to
    _BLOWUP_BLOCK x 2n x P) are alive at once."""
    q, x = (a[start].ravel().tolist() for a in stepped)
    w = None if inc is None else inc[start:stop, :, 0].tolist()
    try:
        rows = lanes(q, x, h, damp[start:stop].tolist(),
                     coef[start:stop].tolist(), w)
    except (ArithmeticError, ValueError):
        return False
    rows = np.array(rows, dtype=float).reshape(
        stop - start, len(stepped), *stepped[0].shape[1:])
    for j, a in enumerate(stepped):
        a[start + 1:stop + 1] = rows[:, j]
    return True


def integrate_paths(runs: Sequence[EulerRun]) -> tuple[Trajectory, ...]:
    """Iterate the Euler scheme for P runs at once; one Trajectory per run.

    The runs must share their grid and fields (and so their params), or
    GridMismatch is raised; their initial states and Wiener paths may
    differ.  Each step advances the (P, n) stacks of q and x, the
    components `fields.step` carries, on the (P, m) increments of that
    step; under the array contract of `frachp.dynamics`, row i is what
    run i alone gives, bit for bit.  When no increment of the (N, P, m)
    table is nonzero, as on `zero_path`, each step gets inc=None and makes
    the drift-only update without evaluating the noise matrix (see
    `SdeFields`).  The fractional coefficients damping(s) and
    noise_scale(s) are taken once over the left endpoints of all steps,
    and each step gets them, and h, as 0-d arrays.  The step is
    `fields.step` without its width check (`step.unchecked`), since
    EulerRun has checked each path.  Once per call with P > 1, at the
    first block on the numpy step whose rows differ, each call the step
    makes is compared on the stack with the same call on each row alone,
    bit for bit, and a difference raises BatchShapeError (`_check_rows`):
    a callable that reads one row for all, as `q.flat[0]` does, would
    otherwise step every path but the one it reads wrongly, unseen.
    The component no step carries (v, or p = g(q) v) is filled by one
    `complete_state` call over the run's time-major (N+1, P, n) history,
    which for a metric system also checks g at every q visited.

    Where `fields.lanes` is not None and P is at most _LANE_PATHS, each
    block of _BLOWUP_BLOCK steps is one call of `fields.lanes(P)`, which
    steps every path as a lane of Python floats, with the step's bits, and
    holds the block's _BLOWUP_BLOCK x 2n x P floats at once; a block in
    which a lane raises (a division by zero, math's sin, cos or sqrt
    outside its domain) is redone from its first row with the numpy step,
    so every outcome, error included, is the numpy loop's.

    The loop runs with numpy floating-point warnings off and tests for a
    blow-up once every _BLOWUP_BLOCK steps; the error is still the one of
    the earliest failing step, as if each step were tested.  A state that
    is not finite or exceeds BLOWUP_LIMIT raises NumericalBlowup, which
    carries the failing path's state at the step before.  A metric that is
    not positive definite at a q reached raises NotPositiveDefinite (at
    step 0 for q0), and a Legendre map that cannot be inverted
    SingularHessian or NoConvergence; at one step these win over a
    blow-up.  Each names the step, and the path when P > 1 (the lowest
    failing one).
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
    # EulerRun has checked each path's width: step without the check.
    step = getattr(fields.step, "unchecked", fields.step)
    lanes = (fields.lanes(len(runs))
             if fields.lanes is not None and len(runs) <= _LANE_PATHS
             else None)
    # h and each step's coefficients go to the step as 0-d arrays, which
    # multiply an array faster than a Python float or a numpy scalar does
    # and give the same bits.
    n, batch = grid.n_steps, len(runs) > 1
    h = np.asarray(grid.h, dtype=float)
    s = grid.points[:-1]
    damp = np.broadcast_to(fields.damping(s), s.shape)
    coef = np.broadcast_to(fields.noise_scale(s), s.shape)
    inc = np.stack([run.path.increments for run in runs], axis=1)  # (N, P, m)
    driven = inc.any()
    if not driven:  # no increment drives the batch: drift-only steps
        inc = [None] * n
    # states[c, k, i] is component c (q, p, v) of path i at step k: time
    # major, so the first failing row is the earliest failing step.
    states = np.empty((3, n + 1, len(runs), fields.system.dim))
    states[:, 0] = [[getattr(run.initial, c) for run in runs]
                    for c in "qpv"]
    stepped = [states["qpv".index(c)] for c in fields.carried]
    # Rows 1..last are completed: all of them, or those up to the first
    # stepped row that is not finite or huge, or up to a failed step.
    last, failure = n, None
    unchecked = batch  # the numpy step's rows are not checked yet
    with np.errstate(all="ignore"):
        for start in range(0, n, _BLOWUP_BLOCK):
            stop = min(start + _BLOWUP_BLOCK, n)
            if lanes is None or not _lane_block(
                    lanes, stepped, start, stop, grid.h, damp, coef,
                    inc if driven else None):
                rows, state = [], tuple(a[start] for a in stepped)
                if unchecked and any((a != a[:1]).any() for a in state):
                    _check_rows(fields, *state, driven)
                    unchecked = False
                for k in range(start, stop):
                    try:
                        state = step(*state, h, damp[k, ...], coef[k, ...],
                                     inc[k])
                    except Exception as exc:
                        # Raised below unless an earlier row failed, since
                        # a step from a row past a failure may raise
                        # anything; a failed Legendre solve at the step's
                        # own row is named when that row, the last, is
                        # completed.
                        failure = exc
                        break
                    rows.append(state)
                stop = start + len(rows)
                for a, col in zip(stepped, zip(*rows)):
                    a[start + 1:stop + 1] = col
            bad = _first_bad_row(stepped, start + 1, stop)
            if failure is not None or bad is not None:
                last = stop if bad is None else bad
                break
        _complete_history(states, fields, last, grid, batch)
    bad = _first_bad_row(states, 1, last)
    if bad is not None:
        raise _blowup(states, bad, grid, batch)
    if failure is not None:
        raise failure
    states.setflags(write=False)
    q, p, v = states
    return tuple(Trajectory(grid, q[:, i], v[:, i], p[:, i])
                 for i in range(len(runs)))


def integrate(run: EulerRun) -> Trajectory:
    """The trajectory of one run: `integrate_paths` on a batch of one."""
    return integrate_paths((run,))[0]


def strong_convergence_order(fields: SdeFields, initial: PhaseState,
                             base_h: float, levels: int, n_paths: int,
                             seed: int, t_end: float):
    """Fit the strong order of the Euler scheme by grid coarsening.

    For each path the finest Wiener path (step base_h) is generated once
    and coarsened by powers of two; terminal-state errors at the coarse
    levels are measured against the finest run sharing the same Brownian
    path.  Each level integrates all paths in one batch, at fields.params.
    Returns (slope, hs, errors): the least-squares slope of log(mean error)
    vs log(h), the coarse steps and their mean errors; grids start at 0.
    t_end/base_h must be a whole multiple of 2^(levels-1), to within
    rounding, or InvalidArgument is raised.
    """
    check_whole("levels", levels)
    check_whole("n_paths", n_paths)
    if levels < 3:
        raise InvalidArgument(f"levels={levels} must be >= 3")
    if n_paths < 1:
        raise InvalidArgument(f"n_paths={n_paths} must be >= 1")
    ratio = t_end / base_h
    n_fine = round(ratio) if math.isfinite(ratio) else 0
    top_factor = 2 ** (levels - 1)
    if (not math.isclose(ratio, n_fine, rel_tol=1e-12)
            or n_fine % top_factor != 0 or n_fine < top_factor):
        raise InvalidArgument(
            f"t_end/h = {ratio:.12g} steps (h = {base_h!r}, "
            f"t_end = {t_end!r}) is not a whole multiple of "
            f"2^(levels-1) = {top_factor} (levels = {levels})")

    grids = [make_grid(0.0, base_h * 2 ** l, n_fine // 2 ** l, fields.params)
             for l in range(levels)]
    seeds = [spawn_substream(seed, i) for i in range(n_paths)]
    fine = [WienerPath(base_h, inc) for inc in generate_paths(
        seeds, base_h, n_fine, fields.system.noise.m)]

    def terminals(level: int) -> list:
        """Terminal (q, p) of every path on the grid of this level."""
        paths = fine if level == 0 else [coarsen(f, 2 ** level)
                                         for f in fine]
        return [np.concatenate([t.q[-1], t.p[-1]]) for t in integrate_paths(
            [EulerRun(fields, grids[level], path, initial, fields.params)
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
    return slope, hs, errors


# ---------------------------------------------------------------------------
# Discrete action and stationarity
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _action_weights(grid: TimeGrid, t: float, alpha: float) -> np.ndarray:
    """The deterministic action's kernel integrals, read-only, per grid."""
    w = step_weights(t, grid.points, alpha)
    w.setflags(write=False)
    return w


@functools.lru_cache(maxsize=8)
def _midpoint_kernel(grid: TimeGrid, t: float, beta: float) -> np.ndarray:
    """The stochastic action's kernel (t - s)^(beta-1) at the step
    midpoints, read-only, per grid."""
    kernel = (t - (grid.points[:-1] + 0.5 * grid.h)) ** (beta - 1.0)
    kernel.setflags(write=False)
    return kernel


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
    A trajectory or path that does not fit sys raises GridMismatch; a
    non-finite action raises NumericalBlowup naming the first step from
    which the running sum is not finite.
    """
    grid = trajectory.grid
    path.check_aligned(grid, sys.noise.m)
    if trajectory.dim != sys.dim:
        raise GridMismatch(f"trajectory has dimension {trajectory.dim}, "
                           f"system has {sys.dim}")
    w_alpha = _action_weights(grid, params.t_eval, params.alpha)

    q, v, p = trajectory.q[:-1], trajectory.v[:-1], trajectory.p[:-1]
    q_next = trajectory.q[1:]
    qdot = (q_next - q) / grid.h

    # Both sums run over the steps in grid order (a cumulative sum), so the
    # result does not depend on how numpy or BLAS blocks a reduction.
    integrand = (system_lagrangian(sys, q, v)
                 + np.einsum("ki,ki->k", p, qdot - v))
    det = np.cumsum(integrand * w_alpha) / gamma(params.alpha)

    kernel = _midpoint_kernel(grid, params.t_eval, params.beta)
    terms = (sys.noise.values(0.5 * (q + q_next)) * kernel[:, None]
             * path.increments)
    stoch = np.cumsum(terms.sum(axis=1)) / gamma(params.beta)

    running = det + stoch
    value = float(running[-1])
    if not math.isfinite(value):
        k = int(np.argmax(~np.isfinite(running)))
        raise NumericalBlowup(
            k + 1, f"discrete action is not finite from step {k + 1} "
            f"(s = {grid.point(k):.6g}) on")
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
        raise InvalidArgument(
            "perturbation dq must vanish at both endpoints")
    eps = 1e-5
    plus = evaluate_action(_shift_trajectory(trajectory, dq, dv, dp, eps),
                           sys, params, path)
    minus = evaluate_action(_shift_trajectory(trajectory, dq, dv, dp, -eps),
                            sys, params, path)
    return (plus - minus) / (2.0 * eps)


@functools.lru_cache(maxsize=8)
def _perturbation_bases(grid: TimeGrid) -> np.ndarray:
    """sin and cos of j pi tau, j = 1, 2, 3, over the grid's normalized
    times tau: the perturbations' modes, read-only, per grid."""
    tau = (grid.points - grid.t_start) / (grid.t_end - grid.t_start)
    bases = np.array([[f(j * math.pi * tau) for j in (1, 2, 3)]
                      for f in (np.sin, np.cos)])
    bases.setflags(write=False)
    return bases


def random_admissible_perturbation(grid: TimeGrid, dim: int, seed: int):
    """Smooth random (dq, dv, dp) with dq vanishing at both endpoints.

    dq is a short sine series in the normalized time, so it is C^1 and
    admissible; the triple is normalized to unit sup norm.
    """
    check_whole("dim", dim)
    check_whole("seed", seed)
    if dim < 1:
        raise InvalidArgument(f"dim={dim} must be >= 1")
    n_modes = 3  # the modes of _perturbation_bases
    u = _uniforms(seed, 0, 3 * n_modes * dim).reshape(3, dim, n_modes)
    coeff = 2.0 * u - 1.0
    sin, cos = _perturbation_bases(grid)

    def series(c, basis):
        out = np.zeros((grid.n_steps + 1, dim))
        for j in range(n_modes):
            out += np.outer(basis[j], c[:, j])
        return out

    dq = series(coeff[0], sin)
    dq[0] = 0.0
    dq[-1] = 0.0  # sin(j*pi) is only zero up to rounding
    dv = series(coeff[1], cos)
    dp = series(coeff[2], cos)
    scale = max(np.max(np.abs(dq)), np.max(np.abs(dv)), np.max(np.abs(dp)))
    if scale == 0.0:
        raise NotApplicable("degenerate zero perturbation")
    return dq / scale, dv / scale, dp / scale


def stationarity_ratio(trajectory: Trajectory, sys: SystemSpec,
                       params: FractionalParams, path: WienerPath,
                       n_perturbations: int = 20, seed: int = 0) -> float:
    """Max |action derivative| over seeded unit-norm admissible perturbations."""
    check_whole("n_perturbations", n_perturbations)
    if n_perturbations < 1:
        raise InvalidArgument(
            f"n_perturbations={n_perturbations} must be >= 1")
    worst = 0.0
    for i in range(n_perturbations):
        pert = random_admissible_perturbation(
            trajectory.grid, trajectory.dim, spawn_substream(seed, i))
        worst = max(worst, abs(action_derivative(
            trajectory, sys, params, path, pert)))
    return worst
