"""System definitions (Hamiltonian, hyperregular Lagrangian, metric
Lagrangian), noise couplings, Legendre transform, Christoffel symbols, and
assembly of the Ito drift/diffusion fields of the fractional momentum
equations.

All dynamics run in global coordinates on flat space; angle variables are
plain reals and are never wrapped.

Batch contract.  A system's Lagrangian L(q, v) and every noise coupling
gamma_a(q) accept leading batch axes: arrays of shape (..., n) map to
values of shape (...).  A scalar () return is broadcast over the batch, so
constants such as `lambda q, v: 0.0` keep working; it must equal the
callable's value on the last sample.  Any other shape, a scalar that does
not, or a TypeError from the batched call raises BatchShapeError naming
the callable.  `system_lagrangian` and `NoiseCoupling.values` evaluate
through this contract, which is what lets the discrete action take one
call per grid instead of one per step.  The per-step callables the
integrator uses (gradients, `metric`, `metric_at`, Hessians) see one
sample of shape (n,) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import FractionalParams
from .errors import (BatchShapeError, NoConvergence, NoiseShapeUnsupported,
                     NotPositiveDefinite, SingularHessian)
from .specfun import gamma, hp_noise_coefficient, power_kernel

_FD_BASE_STEP = 1e-6


def central_gradient(f: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray) -> np.ndarray:
    """Central-difference derivative with step 1e-6 * (1 + |x_i|).

    f may be scalar- or array-valued; the derivative axis is last, so f
    with values of shape S gives a result of shape S + (x.size,).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        step = _FD_BASE_STEP * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        cols.append((np.asarray(f(xp), dtype=float)
                     - np.asarray(f(xm), dtype=float)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _call_batched(fn, role: str, batch: tuple, *args) -> np.ndarray:
    """fn(*args) under the batch contract: shape `batch`, or a broadcast ().

    A scalar for more than one sample must equal fn on the last sample.
    That catches a per-sample callable reading row 0 of the batch, as
    `float(v[0])` does without error under numpy < 2.4; under later numpy
    that conversion raises TypeError, reported the same way.
    """
    name = getattr(fn, "__qualname__", repr(fn))
    try:
        out = np.asarray(fn(*args), dtype=float)
        if out.shape == () and math.prod(batch) > 1:
            last = (-1,) * len(batch)
            probe = np.asarray(fn(*(a[last] for a in args)), dtype=float)
            if not np.array_equal(out, probe, equal_nan=True):
                raise BatchShapeError(
                    f"{role} {name} returned one scalar for a batch of shape "
                    f"{batch}, but {probe} on its last sample; it must map "
                    f"(..., n) to (...)")
    except TypeError as exc:
        raise BatchShapeError(
            f"{role} {name} failed on a batch of shape {batch} ({exc}); it "
            f"must map (..., n) to (...)") from exc
    if out.shape == ():
        return np.broadcast_to(out, batch)
    if out.shape != batch:
        raise BatchShapeError(
            f"{role} {name} returned shape {out.shape} for a batch of shape "
            f"{batch}; expected {batch} or a scalar")
    return out


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
            grads = tuple(
                (lambda g: (lambda q: central_gradient(g, q)))(g)
                for g in self.gamma)
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
        return np.stack([_call_batched(g, f"gamma[{a}]", q.shape[:-1], q)
                         for a, g in enumerate(self.gamma)], axis=-1)

    def grad_matrix(self, q: np.ndarray) -> np.ndarray:
        """n x m matrix whose column a is the gradient of gamma_a at q."""
        return np.column_stack([g(q) for g in self.gamma_grad])

    @classmethod
    def constant(cls, values, dim: int) -> "NoiseCoupling":
        """Constant couplings; gradients vanish, so the noise drops out."""
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        zero = np.zeros(dim)
        return cls(tuple((lambda c: (lambda q: float(c)))(c) for c in vals),
                   tuple((lambda q: zero.copy()) for _ in vals))

    @classmethod
    def cos_q(cls) -> "NoiseCoupling":
        """The pendulum coupling gamma(q) = cos q on a 1-d configuration."""
        return cls((lambda q: np.cos(q[..., 0]),),
                   (lambda q: np.array([-math.sin(q[0])]),))


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
    """

    dim: int
    metric: Callable
    noise: NoiseCoupling
    metric_grad: Optional[Callable] = None

    def __post_init__(self):
        if self.metric_grad is None:
            metric = self.metric
            object.__setattr__(self, "metric_grad",
                               lambda q: central_gradient(metric, q))

    def metric_at(self, q: np.ndarray) -> np.ndarray:
        g = np.asarray(self.metric(q), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError(f"metric shape {g.shape}")
        if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
            raise NotPositiveDefinite("metric is not symmetric")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(f"metric not positive definite at q={q}")
        return g

    def lagrangian(self, q, v):
        """(1/2) g(q)(v, v) on samples of shape (..., n).

        metric_at validates the metric of every sample.
        """
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        g = np.array([self.metric_at(x) for x in q.reshape(-1, self.dim)])
        g = g.reshape(q.shape + (self.dim,))
        return 0.5 * np.einsum("...i,...ij,...j->...", v, g, v)


SystemSpec = Union[HamiltonianSystem, LagrangianSystem, MetricSystem]


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

_HESS_DET_TOL = 1e-12


def _checked_hessian(sys: LagrangianSystem, q, v) -> np.ndarray:
    hess = np.asarray(sys.v_hessian(q, v), dtype=float)
    if abs(np.linalg.det(hess)) <= _HESS_DET_TOL:
        raise SingularHessian(f"velocity Hessian singular at q={q}, v={v}")
    return hess


def legendre_transform(sys: LagrangianSystem, q, v):
    """Return (p, H) with p = dL/dv and H = <p, v> - L(q, v)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    _checked_hessian(sys, q, v)
    p = np.asarray(sys.grad_v(q, v), dtype=float)
    return p, float(p @ v) - float(sys.lagrangian(q, v))


def invert_legendre(sys: LagrangianSystem, q, p,
                    tol: float = 1e-10, max_iter: int = 50) -> np.ndarray:
    """Solve dL/dv(q, v) = p for v by Newton iteration from v0 = p."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    v = p.copy()
    for _ in range(max_iter):
        residual = np.asarray(sys.grad_v(q, v), dtype=float) - p
        if np.max(np.abs(residual)) <= tol:
            return v
        hess = _checked_hessian(sys, q, v)
        v = v - np.linalg.solve(hess, residual)
    residual = np.asarray(sys.grad_v(q, v), dtype=float) - p
    if np.max(np.abs(residual)) <= tol:
        return v
    raise NoConvergence(
        f"Legendre inversion residual {np.max(np.abs(residual)):.3g} "
        f"after {max_iter} iterations")


def hamiltonian_from_lagrangian(sys: LagrangianSystem) -> HamiltonianSystem:
    """Legendre-transformed Hamiltonian view of a hyperregular Lagrangian."""

    def h_fn(q, p):
        v = invert_legendre(sys, q, p)
        return float(np.asarray(p) @ v) - float(sys.lagrangian(q, v))

    def grad_q(q, p):
        v = invert_legendre(sys, q, p)
        return -np.asarray(sys.grad_q(q, v), dtype=float)

    def grad_p(q, p):
        return invert_legendre(sys, q, p)

    return HamiltonianSystem(sys.dim, h_fn, sys.noise,
                             grad_q=grad_q, grad_p=grad_p,
                             lagrangian=sys.lagrangian)


def system_lagrangian(sys: SystemSpec, q, v):
    """L(q, v) for any variant (Hamiltonian variant via Legendre inverse).

    q and v have shape (..., n); the result has shape (...), and is a float
    for a single sample.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    if sys.lagrangian is not None:
        out = _call_batched(sys.lagrangian, "lagrangian", q.shape[:-1], q, v)
    else:
        out = np.array([_legendre_lagrangian(sys, x, y) for x, y in
                        zip(q.reshape(-1, sys.dim), v.reshape(-1, sys.dim))])
        out = out.reshape(q.shape[:-1])
    return float(out) if out.ndim == 0 else out


def _legendre_lagrangian(sys: HamiltonianSystem, q, v) -> float:
    """L = <p, v> - H(q, p) at one sample, solving grad_p H(q, p) = v for p
    by Newton iteration with a finite-difference Jacobian."""
    p = v.copy()
    for _ in range(50):
        res = np.asarray(sys.grad_p(q, p), dtype=float) - v
        if np.max(np.abs(res)) <= 1e-10:
            break
        jac = central_gradient(lambda x: sys.grad_p(q, x), p)
        p = p - np.linalg.solve(jac, res)
    else:
        raise NoConvergence("could not invert grad_p H")
    return float(p @ v) - float(sys.hamiltonian(q, p))


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def christoffel(sys: MetricSystem, q) -> np.ndarray:
    """Gamma^i_jk = (1/2) g^il (dg_lj/dq^k + dg_lk/dq^j - dg_jk/dq^l)."""
    q = np.asarray(q, dtype=float)
    g = sys.metric_at(q)
    dg = np.asarray(sys.metric_grad(q), dtype=float)
    g_inv = np.linalg.inv(g)
    # lower[l, j, k] = dg_lj/dq^k + dg_lk/dq^j - dg_jk/dq^l
    lower = dg + np.transpose(dg, (0, 2, 1)) - np.transpose(dg, (2, 0, 1))
    gamma = 0.5 * np.einsum("il,ljk->ijk", g_inv, lower)
    # Symmetrize in (j, k) so the symmetry holds exactly as computed.
    return 0.5 * (gamma + np.transpose(gamma, (0, 2, 1)))


# ---------------------------------------------------------------------------
# Drift / diffusion assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdeFields:
    """Assembled Ito-form right-hand sides for one system and parameter set.

    drift_q/drift_p take (s, q, y) where y is p for the Hamiltonian
    formulation and v for the HP-Lagrangian and metric-velocity ones.
    diffusion_p(s, q) is the n x m noise matrix of the momentum (or
    velocity) equation; the q-equation never carries noise.

    The fractional coefficients depend on s alone: damping(s) is the
    memory-drift factor of drift_p and noise_scale(s) the kernel
    coefficient of diffusion_p, and both also take arrays of s.  drift_p
    and diffusion_p accept that coefficient as an optional last argument,
    so a caller that has taken it once over a whole grid passes it in
    instead of having it recomputed per step.

    The system owns the dimension (system.dim) and the channel count
    (system.noise.m), and its type selects the formulation; params is the
    triple the coefficients use.
    """

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


def assemble_hp_fields(sys: SystemSpec, params: FractionalParams,
                       eq15_literal: bool = False) -> SdeFields:
    """Build the Ito drift and diffusion evaluators for a system.

    eq15_literal switches the metric-velocity noise coefficient to the
    printed variant Gamma(beta)/Gamma(alpha) (t-s)^(beta-1) instead of the
    one obtained from the Hamiltonian form through the Legendre map; the
    other formulations ignore it.
    """
    noise = sys.noise

    def damping(s):
        return _alpha_drift_factor(params, s)

    if eq15_literal and isinstance(sys, MetricSystem):
        def noise_scale(s):
            return (gamma(params.beta) / gamma(params.alpha)
                    * power_kernel(params.t_eval, s, params.beta - 1.0))
    else:
        def noise_scale(s):
            return hp_noise_coefficient(params, s)

    if isinstance(sys, HamiltonianSystem):
        def drift_q(s, q, p):
            return np.asarray(sys.grad_p(q, p), dtype=float)

        def momentum_drift(q, p, damp):
            base = -np.asarray(sys.grad_q(q, p), dtype=float)
            return base + damp * np.asarray(p)

        noise_matrix = noise.grad_matrix

    elif isinstance(sys, LagrangianSystem):
        def drift_q(s, q, v):
            return np.asarray(v, dtype=float)

        def momentum_drift(q, v, damp):
            base = np.asarray(sys.grad_q(q, v), dtype=float)
            return base + damp * np.asarray(sys.grad_v(q, v), dtype=float)

        noise_matrix = noise.grad_matrix

    elif isinstance(sys, MetricSystem):
        def drift_q(s, q, v):
            return np.asarray(v, dtype=float)

        def momentum_drift(q, v, damp):
            v = np.asarray(v, dtype=float)
            gam = christoffel(sys, q)
            geo = -np.einsum("ijk,j,k->i", gam, v, v)
            return geo - damp * v

        def noise_matrix(q):
            g_inv = np.linalg.inv(sys.metric_at(np.asarray(q, dtype=float)))
            return g_inv @ noise.grad_matrix(q)

    else:
        raise TypeError(f"unsupported system type {type(sys)!r}")

    def drift_p(s, q, y, damp=None):
        return momentum_drift(q, y, damping(s) if damp is None else damp)

    def diffusion_p(s, q, coef=None):
        return (noise_scale(s) if coef is None else coef) * noise_matrix(q)

    return SdeFields(drift_q, drift_p, diffusion_p, damping, noise_scale,
                     sys, params)


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def _builtin_coupling(name: str, cos: NoiseCoupling,
                      dim: int) -> NoiseCoupling:
    """The "cos" coupling given, or the noise-free "const" one."""
    if name == "cos":
        return cos
    if name == "const":
        return NoiseCoupling.constant([1.0], dim)
    raise ValueError(f"unknown gamma coupling {name!r}")


def _pendulum_parts(potential, gamma_coupling: str):
    """(U, U', L, coupling) shared by both pendulum builders.

    U and U' serve the per-step callables on floats; L(q, v) = v^2/2 - U(q)
    follows the batch contract, so a custom U must also accept arrays.
    """
    if potential == "cos":
        u, du, u_batch = math.cos, (lambda x: -math.sin(x)), np.cos
    else:
        u, du = potential
        u_batch = u

    def lagrangian(q, v):
        return 0.5 * v[..., 0] ** 2 - u_batch(q[..., 0])

    noise = _builtin_coupling(gamma_coupling, NoiseCoupling.cos_q(), 1)
    return u, du, lagrangian, noise


def pendulum_system(potential: str | tuple = "cos",
                    gamma_coupling: str = "cos") -> HamiltonianSystem:
    """Noisy pendulum: H = p^2/2 + U(q) on the line, gamma(q) = cos q.

    potential: "cos" for U(q) = cos q, or a (U, U') pair of numpy-callable
    functions (U is evaluated on floats and on arrays of samples).
    gamma_coupling: "cos" or "const" (constant coupling turns the noise
    off).
    """
    u, du, lagrangian, noise = _pendulum_parts(potential, gamma_coupling)

    def h_fn(q, p):
        return 0.5 * float(p[0]) ** 2 + u(float(q[0]))

    def grad_q(q, p):
        return np.array([du(float(q[0]))])

    def grad_p(q, p):
        return np.array([float(p[0])])

    return HamiltonianSystem(1, h_fn, noise, grad_q=grad_q, grad_p=grad_p,
                             lagrangian=lagrangian)


def pendulum_lagrangian_system(potential: str | tuple = "cos",
                               gamma_coupling: str = "cos") -> LagrangianSystem:
    """The pendulum as a Lagrangian system, L = v^2/2 - U(q); arguments as
    for `pendulum_system`."""
    _, du, lagrangian, noise = _pendulum_parts(potential, gamma_coupling)

    def grad_q(q, v):
        return np.array([-du(float(q[0]))])

    def grad_v(q, v):
        return np.array([float(v[0])])

    def v_hessian(q, v):
        return np.eye(1)

    return LagrangianSystem(1, lagrangian, noise, grad_q=grad_q,
                            grad_v=grad_v, v_hessian=v_hessian)


def polar_metric_system(gamma_coupling: str = "cos") -> MetricSystem:
    """Plane in polar coordinates (r, theta): g = diag(1, r^2), r > 0."""

    def metric(q):
        r = float(q[0])
        return np.array([[1.0, 0.0], [0.0, r * r]])

    def metric_grad(q):
        r = float(q[0])
        dg = np.zeros((2, 2, 2))
        dg[1, 1, 0] = 2.0 * r
        return dg

    cos_theta = NoiseCoupling((lambda q: np.cos(q[..., 1]),),
                              (lambda q: np.array([0.0, -math.sin(q[1])]),))
    noise = _builtin_coupling(gamma_coupling, cos_theta, 2)
    return MetricSystem(2, metric, noise, metric_grad=metric_grad)
