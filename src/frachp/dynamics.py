"""System definitions (Hamiltonian, hyperregular Lagrangian, metric
Lagrangian), noise couplings, Legendre transform, Christoffel symbols, and
assembly of the Ito drift/diffusion fields of the fractional momentum
equations.

All dynamics run in global coordinates on flat space; angle variables are
plain reals and are never wrapped.

Array contract.  Every callable a system holds maps samples (..., n) to
values (...) + tail: tail () for L, H and each coupling gamma_a; (n,) for
grad_q, grad_p, grad_v and gamma_grad; (n, n) for metric and v_hessian;
(n, n, n) for metric_grad.  One sample (n,) has no batch axes, and row i
of a batch must equal the call on row i.  `_call_batched` checks the
result where a batch is formed (the action's L and gamma_a, `metric_at`,
H and grad_p in the Legendre fallback): a value of shape tail alone, such
as the 0.0 of `lambda q, v: 0.0`, is broadcast and must equal the value on
the last sample; another shape or a TypeError raises BatchShapeError
naming the callable.  The integrator's per-step calls pass the (P, n)
stack of the P paths it steps together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .core import FractionalParams
from .errors import (BatchShapeError, InvalidArgument, NoConvergence,
                     NoiseShapeUnsupported, NotPositiveDefinite,
                     SingularHessian)
from .specfun import gamma, hp_noise_coefficient, power_kernel

_FD_BASE_STEP = 1e-6


def central_gradient(f: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray) -> np.ndarray:
    """Central-difference derivative with step 1e-6 * (1 + |x_i|).

    x has shape (..., n) and f maps it to values of shape (...) + S; the
    derivative axis is last, so the result has shape (...) + S + (n,).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.shape[-1]):
        step = _FD_BASE_STEP * (1.0 + np.abs(x[..., i]))
        xp, xm = x.copy(), x.copy()
        xp[..., i] += step
        xm[..., i] -= step
        diff = (np.asarray(f(xp), dtype=float)
                - np.asarray(f(xm), dtype=float))
        cols.append(diff / (2.0 * step).reshape(
            step.shape + (1,) * (diff.ndim - step.ndim)))
    return np.stack(cols, axis=-1)


def _call_batched(fn, role: str, batch: tuple, tail: tuple,
                  *args) -> np.ndarray:
    """fn(*args) under the array contract: shape batch + tail.

    One value of shape tail is broadcast over the batch if it equals fn on
    the last sample.  That catches a per-sample callable reading row 0 of
    the batch, as `v.flat[0]` does; a per-sample `float(v[0])` raises
    TypeError, reported the same way.
    """
    name = getattr(fn, "__qualname__", repr(fn))
    want = batch + tail
    must = f"it must map (..., n) to (...) + {tail}"
    try:
        out = np.asarray(fn(*args), dtype=float)
    except TypeError as exc:
        raise BatchShapeError(f"{role} {name} failed on a batch of shape "
                              f"{batch} ({exc}); {must}") from exc
    if out.shape == want:
        return out
    if out.shape == tail:
        last = fn(*(a[(-1,) * len(batch)] for a in args))
        if np.array_equal(out, np.asarray(last, dtype=float), equal_nan=True):
            return np.broadcast_to(out, want)
    raise BatchShapeError(
        f"{role} {name} returned shape {out.shape} for a batch of shape "
        f"{batch}, not {want} nor one value equal to that on its last "
        f"sample; {must}")


def _fd_partial(f, which: int):
    """Derivative of f(x0, x1) in argument `which` by central differences."""

    def grad(a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if which == 0:
            return central_gradient(lambda x: f(x, b), a)
        return central_gradient(lambda x: f(a, x), b)

    return grad


# ---------------------------------------------------------------------------
# Noise couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseCoupling:
    """m scalar couplings gamma_a(q) with their gradients."""

    gamma: tuple
    gamma_grad: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(self.gamma))
        grads = self.gamma_grad
        if grads is None:
            grads = (partial(central_gradient, g) for g in self.gamma)
        object.__setattr__(self, "gamma_grad", tuple(grads))
        if len(self.gamma) != len(self.gamma_grad) or len(self.gamma) == 0:
            raise NoiseShapeUnsupported(
                "need matching, nonempty gamma and gradient lists")

    @property
    def m(self) -> int:
        return len(self.gamma)

    def values(self, q) -> np.ndarray:
        """All m couplings on configurations of shape (..., n), as (..., m)."""
        q = np.asarray(q, dtype=float)
        return np.stack([_call_batched(g, f"gamma[{a}]", q.shape[:-1], (),
                                       q)
                         for a, g in enumerate(self.gamma)], axis=-1)

    def grad_matrix(self, q: np.ndarray) -> np.ndarray:
        """(..., n, m) array whose column a is the gradient of gamma_a."""
        cols = [g(q) for g in self.gamma_grad]  # np.stack is slower per step
        out = np.empty(np.shape(cols[0]) + (self.m,))
        for a, col in enumerate(cols):
            out[..., a] = col
        return out

    @classmethod
    def constant(cls, values) -> "NoiseCoupling":
        """Constant couplings; gradients vanish, so the noise drops out."""
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        return cls(tuple((lambda q, c=c: np.full(np.shape(q)[:-1], c))
                         for c in vals),
                   tuple((lambda q: np.zeros(np.shape(q))) for _ in vals))

    @classmethod
    def cos_q(cls) -> "NoiseCoupling":
        """The pendulum coupling gamma(q) = cos q on a 1-d configuration."""
        return cls((lambda q: np.cos(q[..., 0]),), (lambda q: -np.sin(q),))


# ---------------------------------------------------------------------------
# System variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianSystem:
    """Explicit Hamiltonian H(q, p) with analytic or fallback gradients."""

    dim: int
    hamiltonian: Callable
    noise: NoiseCoupling
    grad_q: Optional[Callable] = None
    grad_p: Optional[Callable] = None
    lagrangian: Optional[Callable] = None  # optional analytic L(q, v)

    def __post_init__(self):
        if self.grad_q is None:
            object.__setattr__(self, "grad_q",
                               _fd_partial(self.hamiltonian, 0))
        if self.grad_p is None:
            object.__setattr__(self, "grad_p",
                               _fd_partial(self.hamiltonian, 1))


@dataclass(frozen=True)
class LagrangianSystem:
    """Hyperregular Lagrangian L(q, v); the velocity Hessian must be invertible."""

    dim: int
    lagrangian: Callable
    noise: NoiseCoupling
    grad_q: Optional[Callable] = None
    grad_v: Optional[Callable] = None
    v_hessian: Optional[Callable] = None

    def __post_init__(self):
        if self.grad_q is None:
            object.__setattr__(self, "grad_q",
                               _fd_partial(self.lagrangian, 0))
        if self.grad_v is None:
            object.__setattr__(self, "grad_v",
                               _fd_partial(self.lagrangian, 1))
        if self.v_hessian is None:
            object.__setattr__(self, "v_hessian",
                               _fd_partial(self.grad_v, 1))


@dataclass(frozen=True)
class MetricSystem:
    """Kinetic Lagrangian L = (1/2) g_ij(q) v^i v^j.

    metric_grad(q)[i, j, k] = d g_ij / d q^k.

    The system keeps the validated metric of the last configuration stack
    it was asked about, and its inverse once asked for it, as read-only
    arrays: an Euler step takes the Christoffel symbols and the noise
    matrix at q, then p = g v at the q it steps to, which the next step
    starts from.  So each distinct q is evaluated, checked and inverted
    once, and the metric callable must be a pure function of q.
    """

    dim: int
    metric: Callable
    noise: NoiseCoupling
    metric_grad: Optional[Callable] = None
    # ((q.shape, q.bytes), g, g^-1 or None), replaced whole.
    _memo: tuple = field(default=(None, None, None), init=False,
                         repr=False, compare=False)

    def __post_init__(self):
        if self.metric_grad is None:
            object.__setattr__(self, "metric_grad",
                               partial(central_gradient, self.metric))

    def metric_at(self, q: np.ndarray) -> np.ndarray:
        """The metric on configurations (..., n), as a read-only
        (..., n, n) array.

        Each sample must be symmetric, to 1e-12 of its largest entry (or
        of 1), and positive definite; the error names the first that is
        not, with its flat batch index.
        """
        return self._entry(q)[1]

    def _entry(self, q) -> tuple:
        """The memo entry for q; on a miss g is evaluated and checked."""
        q = np.asarray(q, dtype=float)
        key, memo = (q.shape, q.tobytes()), self._memo
        if memo[0] == key:
            return memo
        n = self.dim
        g = _call_batched(self.metric, "metric", q.shape[:-1], (n, n), q)
        g_t = np.swapaxes(g, -1, -2)
        if not (g == g_t).all():  # only then can the tolerance matter
            asym = np.abs(g - g_t).max(axis=(-2, -1))
            bad = asym > 1e-12 * np.maximum(np.abs(g).max(axis=(-2, -1)), 1.0)
            if bad.any():
                raise NotPositiveDefinite(
                    f"metric is not symmetric at q={q[bad][0]}",
                    int(np.flatnonzero(bad)[0]))
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            # Name the first sample that fails on its own.
            for i, (x, gx) in enumerate(zip(q.reshape(-1, n),
                                            g.reshape(-1, n, n))):
                try:
                    np.linalg.cholesky(gx)
                except np.linalg.LinAlgError:
                    raise NotPositiveDefinite(
                        f"metric not positive definite at q={x}", i) from None
        g = g.view()  # read-only without freezing the callable's own array
        g.setflags(write=False)
        memo = (key, g, None)
        object.__setattr__(self, "_memo", memo)
        return memo

    def inverse_at(self, q: np.ndarray) -> np.ndarray:
        """np.linalg.inv of `metric_at(q)`, read-only, taken once per q."""
        key, g, g_inv = self._entry(q)
        if g_inv is None:
            g_inv = np.linalg.inv(g)
            g_inv.setflags(write=False)
            object.__setattr__(self, "_memo", (key, g, g_inv))
        return g_inv

    def lagrangian(self, q, v):
        """(1/2) g(q)(v, v) on samples of shape (..., n).

        metric_at validates the metric of every sample.
        """
        v = np.asarray(v, dtype=float)
        return 0.5 * np.einsum("...i,...ij,...j->...", v, self.metric_at(q),
                               v)


SystemSpec = Union[HamiltonianSystem, LagrangianSystem, MetricSystem]


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

_HESS_DET_TOL = 1e-12
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 50


def _invertible(jac, q, x, what: str, rows=None) -> np.ndarray:
    """jac, if every sample has |det| > 1e-12; else SingularHessian naming
    the first sample's q and x (the velocity or iterate jac was taken at).

    Its sample is that sample's flat index, or its entry in rows: the
    flat indices in the caller's batch of the samples given.
    """
    jac = np.asarray(jac, dtype=float)
    singular = np.abs(np.linalg.det(jac)) <= _HESS_DET_TOL
    if singular.any():
        first = int(np.flatnonzero(singular)[0])
        raise SingularHessian(
            f"{what} singular at q={q[singular][0]}, x={x[singular][0]}",
            first if rows is None else int(rows[first]))
    return jac


def _newton(fn, jac, q, y, what: str) -> np.ndarray:
    """Solve fn(q, x) = y for x by Newton iteration from x = y.

    q and y have shape (..., n), and jac(q, x) is the (..., n, n) Jacobian
    of fn in x.  A row stops once its residual is within _NEWTON_TOL: the
    Jacobian is taken and the step made on the other rows only, so every
    row takes the iterates it takes alone.  A failure's sample is the flat
    index of the row it names.
    """
    x = np.array(y, dtype=float)
    for it in range(_NEWTON_MAX_ITER + 1):
        res = np.asarray(fn(q, x), dtype=float) - y
        if np.abs(res).max() <= _NEWTON_TOL:  # every row has converged
            return x
        todo = ~(np.abs(res).max(axis=-1) <= _NEWTON_TOL)
        if it == _NEWTON_MAX_ITER:
            break
        qt, xt = q[todo], x[todo]
        step = np.linalg.solve(_invertible(jac(qt, xt), qt, xt, what,
                                           np.flatnonzero(todo)),
                               res[todo][..., None])
        x[todo] = xt - step[..., 0]
    raise NoConvergence(
        f"Newton iteration on the {what}: residual "
        f"{np.abs(res[todo]).max():.3g} after {_NEWTON_MAX_ITER} iterations "
        f"at q={q[todo][0]}", int(np.flatnonzero(todo)[0]))


def legendre_transform(sys: LagrangianSystem, q, v):
    """(p, H) with p = dL/dv and H = <p, v> - L(q, v) on samples (..., n)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    _invertible(sys.v_hessian(q, v), q, v, "velocity Hessian")
    p = np.asarray(sys.grad_v(q, v), dtype=float)
    return p, np.einsum("...i,...i->...", p, v) - sys.lagrangian(q, v)


def invert_legendre(sys: LagrangianSystem, q, p) -> np.ndarray:
    """Solve dL/dv(q, v) = p for v by Newton iteration from v0 = p.

    q and p have shape (..., n); each row converges on its own.
    """
    return _newton(sys.grad_v, sys.v_hessian, np.asarray(q, dtype=float),
                   np.asarray(p, dtype=float), "velocity Hessian")


def complete_state(sys: SystemSpec, q, x) -> tuple[np.ndarray, np.ndarray]:
    """(v, p) at configurations q (..., n) from x, the variable the noise
    drives: p, giving v = dH/dp or the v solving dL/dv(q, v) = p, or for a
    metric system v, giving p = g(q) v.  x is returned as it is."""
    if isinstance(sys, HamiltonianSystem):
        return np.asarray(sys.grad_p(q, x), dtype=float), x
    if isinstance(sys, LagrangianSystem):
        return invert_legendre(sys, q, x), x
    if isinstance(sys, MetricSystem):
        return x, (sys.metric_at(q) @ x[..., None])[..., 0]
    raise TypeError(f"unsupported system {type(sys)!r}")


def system_lagrangian(sys: SystemSpec, q, v):
    """L(q, v) for any variant on samples of shape (..., n).

    The result has shape (...), and is a float for a single sample.  A
    Hamiltonian system without an analytic L goes through the Legendre
    map: grad_p H(q, p) = v is solved for p by Newton iteration with a
    central-difference Jacobian, and L = <p, v> - H(q, p).
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    batch = q.shape[:-1]
    if sys.lagrangian is not None:
        out = _call_batched(sys.lagrangian, "lagrangian", batch, (), q, v)
    else:
        def grad_p(q, p):
            return _call_batched(sys.grad_p, "grad_p", q.shape[:-1],
                                 (sys.dim,), q, p)

        p = _newton(grad_p, lambda q, p: central_gradient(
            lambda x: grad_p(q, x), p), q, v, "Jacobian of grad_p H")
        out = (np.einsum("...i,...i->...", p, v)
               - _call_batched(sys.hamiltonian, "hamiltonian", batch, (),
                               q, p))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def christoffel(sys: MetricSystem, q) -> np.ndarray:
    """Gamma^i_jk = (1/2) g^il (dg_lj/dq^k + dg_lk/dq^j - dg_jk/dq^l).

    q has shape (..., n); the result has shape (..., n, n, n).
    """
    q = np.asarray(q, dtype=float)
    g_inv = sys.inverse_at(q)
    dg = np.asarray(sys.metric_grad(q), dtype=float)
    # lower[..., l, j, k] = dg_lj/dq^k + dg_lk/dq^j - dg_jk/dq^l
    # The last term moves the last axis of dg to the front: two swapaxes
    # do that ~5 us faster per call than np.moveaxis.
    lower = (dg + np.swapaxes(dg, -1, -2)
             - np.swapaxes(np.swapaxes(dg, -1, -3), -1, -2))
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", g_inv, lower)
    # Symmetrize in (j, k) so the symmetry holds exactly as computed.
    return 0.5 * (gamma + np.swapaxes(gamma, -1, -2))


# ---------------------------------------------------------------------------
# Drift / diffusion assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdeFields:
    """Assembled Ito-form right-hand sides for one system and parameter set.

    step(q, v, p, h, damp, coef, inc) is one explicit Euler step from
    samples (..., n) on increments (..., m); it returns the new (q, v, p).
    q moves by h drift_q, x (p, or v for a metric system) by h drift_p
    plus diffusion_p @ inc, and `complete_state` completes x at the new q.
    damp and coef are damping(s) and noise_scale(s) at the left endpoint
    s; both take arrays of s, so a caller takes them once over a grid.

    drift_q(s, q, y) and drift_p(s, q, y), where y is p for the
    Hamiltonian formulation and v for the others, return (..., n), and
    diffusion_p(s, q) returns the (..., n, m) noise matrix; q never
    carries noise.  The system owns system.dim and system.noise.m, and
    its type selects the formulation; params is the triple the
    coefficients use.
    """

    step: Callable
    drift_q: Callable
    drift_p: Callable
    diffusion_p: Callable
    damping: Callable
    noise_scale: Callable
    system: SystemSpec = field(repr=False)
    params: FractionalParams


def _alpha_drift_factor(params: FractionalParams, s):
    """(alpha - 1)/(t_eval - s); s may be a float or an array of times."""
    if params.alpha == 1.0:
        return 0.0
    return (params.alpha - 1.0) / (params.t_eval - s)


def _given_velocity(q, v):  # velocity of the formulations with y = v
    return np.asarray(v, dtype=float)


def assemble_hp_fields(sys: SystemSpec, params: FractionalParams,
                       eq15_literal: bool = False) -> SdeFields:
    """Build the Euler step and the Ito drift and diffusion for a system.

    eq15_literal switches the metric-velocity noise coefficient to the
    printed variant Gamma(beta)/Gamma(alpha) (t-s)^(beta-1) instead of the
    one obtained from the Hamiltonian form through the Legendre map; the
    other formulations ignore it.
    """
    noise, damping = sys.noise, partial(_alpha_drift_factor, params)
    if eq15_literal and isinstance(sys, MetricSystem):
        def noise_scale(s):
            return (gamma(params.beta) / gamma(params.alpha)
                    * power_kernel(params.t_eval, s, params.beta - 1.0))
    else:
        def noise_scale(s):
            return hp_noise_coefficient(params, s)

    # velocity(q, y), force(q, y, damp) and noise_matrix(q) per formulation;
    # y is p for a Hamiltonian system and v otherwise, and the noise drives
    # x: p, or v for a metric system.
    y_is_p = isinstance(sys, HamiltonianSystem)
    x_is_p = not isinstance(sys, MetricSystem)
    if isinstance(sys, HamiltonianSystem):
        def velocity(q, p):
            return np.asarray(sys.grad_p(q, p), dtype=float)

        def force(q, p, damp):
            base = -np.asarray(sys.grad_q(q, p), dtype=float)
            return base + damp * np.asarray(p)

        noise_matrix = noise.grad_matrix

    elif isinstance(sys, LagrangianSystem):
        velocity = _given_velocity

        def force(q, v, damp):
            base = np.asarray(sys.grad_q(q, v), dtype=float)
            return base + damp * np.asarray(sys.grad_v(q, v), dtype=float)

        noise_matrix = noise.grad_matrix

    elif isinstance(sys, MetricSystem):
        velocity = _given_velocity

        def force(q, v, damp):
            v = np.asarray(v, dtype=float)
            gam = christoffel(sys, q)
            geo = -np.einsum("...ijk,...j,...k->...i", gam, v, v)
            return geo - damp * v

        def noise_matrix(q):
            return sys.inverse_at(q) @ noise.grad_matrix(q)

    else:
        raise TypeError(f"unsupported system type {type(sys)!r}")

    def step(q, v, p, h, damp, coef, inc):
        y, x = p if y_is_p else v, p if x_is_p else v
        q_new = q + h * velocity(q, y)
        x = (x + h * force(q, y, damp)
             + ((coef * noise_matrix(q)) @ inc[..., None])[..., 0])
        return (q_new, *complete_state(sys, q_new, x))

    return SdeFields(step, lambda s, q, y: velocity(q, y),
                     lambda s, q, y: force(q, y, damping(s)),
                     lambda s, q: noise_scale(s) * noise_matrix(q),
                     damping, noise_scale, sys, params)


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def _builtin_coupling(name: str, cos: NoiseCoupling) -> NoiseCoupling:
    """The "cos" coupling given, or the noise-free "const" one."""
    if name == "cos":
        return cos
    if name == "const":
        return NoiseCoupling.constant([1.0])
    raise InvalidArgument(f"gamma_coupling={name!r} is not 'cos' or 'const'")


def _pendulum_parts(potential, gamma_coupling: str):
    """(U, U', L, coupling) shared by both pendulum builders.

    U and U' are numpy functions of the coordinate, applied elementwise to
    arrays; L(q, v) = v^2/2 - U(q).
    """
    if potential == "cos":
        u, du = np.cos, (lambda x: -np.sin(x))
    else:
        u, du = potential

    def lagrangian(q, v):
        return 0.5 * v[..., 0] ** 2 - u(q[..., 0])

    noise = _builtin_coupling(gamma_coupling, NoiseCoupling.cos_q())
    return u, du, lagrangian, noise


def pendulum_system(potential: str | tuple = "cos",
                    gamma_coupling: str = "cos") -> HamiltonianSystem:
    """Noisy pendulum: H = p^2/2 + U(q) on the line, gamma(q) = cos q.

    potential: "cos" for U(q) = cos q, or a (U, U') pair of elementwise
    numpy functions.  gamma_coupling: "cos" or "const" (constant coupling
    turns the noise off).
    """
    u, du, lagrangian, noise = _pendulum_parts(potential, gamma_coupling)

    def h_fn(q, p):
        return 0.5 * p[..., 0] ** 2 + u(q[..., 0])

    def grad_q(q, p):
        return du(q)

    def grad_p(q, p):
        return np.array(p, dtype=float)

    return HamiltonianSystem(1, h_fn, noise, grad_q=grad_q, grad_p=grad_p,
                             lagrangian=lagrangian)


def pendulum_lagrangian_system(gamma_coupling: str = "cos"
                               ) -> LagrangianSystem:
    """The pendulum as a Lagrangian system, L = v^2/2 - cos q; the coupling
    as for `pendulum_system`."""
    _, du, lagrangian, noise = _pendulum_parts("cos", gamma_coupling)

    def grad_q(q, v):
        return -du(q)

    def grad_v(q, v):
        return np.array(v, dtype=float)

    def v_hessian(q, v):
        return np.ones(np.shape(v) + (1,))

    return LagrangianSystem(1, lagrangian, noise, grad_q=grad_q,
                            grad_v=grad_v, v_hessian=v_hessian)


def polar_metric_system(gamma_coupling: str = "cos") -> MetricSystem:
    """Plane in polar coordinates (r, theta): g = diag(1, r^2), r > 0."""

    def metric(q):
        g = np.zeros(np.shape(q)[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = q[..., 0] ** 2
        return g

    def metric_grad(q):
        dg = np.zeros(np.shape(q)[:-1] + (2, 2, 2))
        dg[..., 1, 1, 0] = 2.0 * q[..., 0]
        return dg

    def cos_theta_grad(q):
        grad = np.zeros(np.shape(q))
        grad[..., 1] = -np.sin(q[..., 1])
        return grad

    cos_theta = NoiseCoupling((lambda q: np.cos(q[..., 1]),),
                              (cos_theta_grad,))
    return MetricSystem(2, metric, _builtin_coupling(gamma_coupling,
                                                     cos_theta),
                        metric_grad=metric_grad)
