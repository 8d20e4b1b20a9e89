"""System definitions (Hamiltonian, hyperregular Lagrangian, metric
Lagrangian), noise couplings, Legendre transform, Christoffel symbols, and
assembly of the Ito drift/diffusion fields of the fractional momentum
equations.

All dynamics run in global coordinates on flat space; angle variables are
plain reals and are never wrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import FractionalParams
from .errors import (NoConvergence, NoiseShapeUnsupported, NotPositiveDefinite,
                     SingularHessian)
from .specfun import hp_noise_coefficient

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
        return cls((lambda q: math.cos(q[0]),),
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

    def velocity(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_p(q, p), dtype=float)


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
        v = np.asarray(v, dtype=float)
        return 0.5 * float(v @ self.metric_at(q) @ v)


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


def system_lagrangian(sys: SystemSpec, q, v) -> float:
    """L(q, v) for any variant (Hamiltonian variant via Legendre inverse)."""
    if isinstance(sys, (LagrangianSystem, MetricSystem)):
        return float(sys.lagrangian(q, v))
    if sys.lagrangian is not None:
        return float(sys.lagrangian(q, v))
    # Solve grad_p H(q, p) = v for p (Newton, FD Jacobian), then L = <p,v> - H.
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
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

    drift_q/drift_p take (s, q, y) where y is p for the Hamiltonian and
    HP-Lagrangian formulations and v for the metric-velocity formulation.
    diffusion_p(s, q) is the n x m noise matrix of the momentum (or
    velocity) equation; the q-equation never carries noise.
    """

    drift_q: Callable
    drift_p: Callable
    diffusion_p: Callable
    formulation: str
    dim: int
    channels: int
    system: SystemSpec = field(repr=False, default=None)
    params: FractionalParams = None


def _alpha_drift_factor(params: FractionalParams, s: float) -> float:
    if params.alpha == 1.0:
        return 0.0
    return (params.alpha - 1.0) / (params.t_eval - s)


def assemble_hp_fields(sys: SystemSpec, params: FractionalParams,
                       eq15_literal: bool = False) -> SdeFields:
    """Build the Ito drift and diffusion evaluators for a system.

    eq15_literal switches the metric-velocity noise coefficient to the
    printed variant Gamma(beta)/Gamma(alpha) (t-s)^(beta-1) instead of the
    one obtained from the Hamiltonian form through the Legendre map.
    """
    noise = sys.noise
    if noise.m < 1:
        raise NoiseShapeUnsupported("at least one noise channel required")

    if isinstance(sys, HamiltonianSystem):
        def drift_q(s, q, p):
            return np.asarray(sys.grad_p(q, p), dtype=float)

        def drift_p(s, q, p):
            base = -np.asarray(sys.grad_q(q, p), dtype=float)
            return base + _alpha_drift_factor(params, s) * np.asarray(p)

        def diffusion_p(s, q):
            return hp_noise_coefficient(params, s) * noise.grad_matrix(q)

        tag = "Hamiltonian"

    elif isinstance(sys, LagrangianSystem):
        def drift_q(s, q, v):
            return np.asarray(v, dtype=float)

        def drift_p(s, q, v):
            base = np.asarray(sys.grad_q(q, v), dtype=float)
            return base + _alpha_drift_factor(params, s) * np.asarray(
                sys.grad_v(q, v), dtype=float)

        def diffusion_p(s, q):
            return hp_noise_coefficient(params, s) * noise.grad_matrix(q)

        tag = "HP-Lagrangian"

    elif isinstance(sys, MetricSystem):
        def drift_q(s, q, v):
            return np.asarray(v, dtype=float)

        def drift_p(s, q, v):
            v = np.asarray(v, dtype=float)
            gam = christoffel(sys, q)
            geo = -np.einsum("ijk,j,k->i", gam, v, v)
            return geo - _alpha_drift_factor(params, s) * v

        if eq15_literal:
            from .specfun import gamma as _gamma, power_kernel

            def diffusion_p(s, q):
                coef = (_gamma(params.beta) / _gamma(params.alpha)
                        * power_kernel(params.t_eval, s, params.beta - 1.0))
                g_inv = np.linalg.inv(sys.metric_at(np.asarray(q, dtype=float)))
                return coef * (g_inv @ noise.grad_matrix(q))
        else:
            def diffusion_p(s, q):
                coef = hp_noise_coefficient(params, s)
                g_inv = np.linalg.inv(sys.metric_at(np.asarray(q, dtype=float)))
                return coef * (g_inv @ noise.grad_matrix(q))

        tag = "Metric-velocity"

    else:
        raise TypeError(f"unsupported system type {type(sys)!r}")

    return SdeFields(drift_q, drift_p, diffusion_p, tag,
                     sys.dim, noise.m, system=sys, params=params)


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def pendulum_system(potential: str | tuple = "cos",
                    gamma_coupling: str = "cos") -> HamiltonianSystem:
    """Noisy pendulum: H = p^2/2 + U(q) on the line, gamma(q) = cos q.

    potential: "cos" for U(q) = cos q, or a (U, U') pair of callables on
    floats.  gamma_coupling: "cos" or "const" (constant coupling turns the
    noise off).
    """
    if potential == "cos":
        u, du = math.cos, lambda q: -math.sin(q)
    else:
        u, du = potential

    def h_fn(q, p):
        return 0.5 * float(p[0]) ** 2 + u(float(q[0]))

    def grad_q(q, p):
        return np.array([du(float(q[0]))])

    def grad_p(q, p):
        return np.array([float(p[0])])

    def lagrangian(q, v):
        return 0.5 * float(v[0]) ** 2 - u(float(q[0]))

    if gamma_coupling == "cos":
        noise = NoiseCoupling.cos_q()
    elif gamma_coupling == "const":
        noise = NoiseCoupling.constant([1.0], 1)
    else:
        raise ValueError(f"unknown gamma coupling {gamma_coupling!r}")

    return HamiltonianSystem(1, h_fn, noise, grad_q=grad_q, grad_p=grad_p,
                             lagrangian=lagrangian)


def pendulum_lagrangian_system(potential: str | tuple = "cos",
                               gamma_coupling: str = "cos") -> LagrangianSystem:
    """The pendulum as a Lagrangian system, L = v^2/2 - U(q)."""
    if potential == "cos":
        u, du = math.cos, lambda q: -math.sin(q)
    else:
        u, du = potential

    def lagrangian(q, v):
        return 0.5 * float(v[0]) ** 2 - u(float(q[0]))

    def grad_q(q, v):
        return np.array([-du(float(q[0]))])

    def grad_v(q, v):
        return np.array([float(v[0])])

    def v_hessian(q, v):
        return np.eye(1)

    if gamma_coupling == "cos":
        noise = NoiseCoupling.cos_q()
    elif gamma_coupling == "const":
        noise = NoiseCoupling.constant([1.0], 1)
    else:
        raise ValueError(f"unknown gamma coupling {gamma_coupling!r}")

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

    if gamma_coupling == "cos":
        noise = NoiseCoupling(
            (lambda q: math.cos(q[1]),),
            (lambda q: np.array([0.0, -math.sin(q[1])]),))
    elif gamma_coupling == "const":
        noise = NoiseCoupling.constant([1.0], 2)
    else:
        raise ValueError(f"unknown gamma coupling {gamma_coupling!r}")

    return MetricSystem(2, metric, noise, metric_grad=metric_grad)
