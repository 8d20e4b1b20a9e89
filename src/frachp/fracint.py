"""Fractional Riemann-Liouville integrals of sampled functions, fractional
Wiener (Ito) integrals, and the fractional Black-Scholes Volterra demo.

Quadrature convention for the singular kernels ("singularity-absorbing
rule"): integrands are sampled at the LEFT endpoint of each step while the
power kernel is integrated exactly over the step.  For the stochastic sum
the kernel is evaluated at the left endpoint when the grid stops short of
t; when the grid reaches t the per-step root-mean-square kernel weight is
used instead, which keeps the Ito isometry exact even though the pointwise
kernel diverges at the endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import TimeGrid
from .errors import (BadChannel, GridMismatch, InvalidOrder, NegativeRate)
from .noise import WienerPath
from .specfun import gamma, step_weights

_END_TOL = 1e-12


@dataclass(frozen=True)
class SampledFunction:
    """Function samples on a uniform grid, values[k] = f(grid.point(k))."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (self.grid.n_steps + 1,):
            raise GridMismatch(
                f"{v.shape[0]} values for {self.grid.n_steps + 1} grid points")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _check_order(beta: float) -> None:
    if not (0.0 < beta <= 1.0):
        raise InvalidOrder(f"order {beta} outside (0, 1]")


def _check_span(grid: TimeGrid, t: float) -> None:
    if grid.t_end > t + _END_TOL * max(1.0, abs(t)):
        raise GridMismatch(f"grid end {grid.t_end} exceeds t = {t}")


def rl_integral(f: SampledFunction, beta: float, t: float) -> float:
    """Riemann-Liouville integral (1/Gamma(beta)) int_0^t f(s)(t-s)^(beta-1) ds.

    Product rectangle rule: left-endpoint samples, exact kernel integral per
    step.  The grid may reach t; the rule absorbs the endpoint singularity.
    """
    _check_order(beta)
    _check_span(f.grid, t)
    w = step_weights(t, f.grid.points, beta)
    return float(np.dot(f.values[:-1], w) / gamma(beta))


def fractional_wiener_integral(g: SampledFunction, beta: float, t: float,
                               path: WienerPath, channel: int = 0) -> float:
    """Ito-sum approximation of the fractional Wiener integral of g.

    Sum_k g(s_k) kappa_k G(k) / Gamma((beta+1)/2), with g at the left
    endpoint (Ito convention).  kappa_k is the kernel (t - s_k)^((beta-1)/2)
    at the left endpoint when the grid stops short of t, and the per-step
    RMS kernel when the grid reaches t.
    """
    _check_order(beta)
    _check_span(g.grid, t)
    if not (0 <= channel < path.channels):
        raise BadChannel(f"channel {channel} of {path.channels}")
    path.check_aligned(g.grid)
    s = g.grid.points
    if g.grid.t_end >= t - _END_TOL * max(1.0, abs(t)):
        # Endpoint touches t: RMS weight keeps sum_k kappa_k^2 h exact.
        kappa = np.sqrt(step_weights(t, s, beta) / g.grid.h)
    else:
        kappa = (t - s[:-1]) ** ((beta - 1.0) / 2.0)
    total = np.dot(g.values[:-1] * kappa, path.increments[:, channel])
    return float(total / gamma((beta + 1.0) / 2.0))


def bank_account(rate: Callable[[float], float], t: float, h: float) -> float:
    """A_t = exp(int_0^t r(s) ds), trapezoidal rule with step ~h."""
    if t <= 0.0:
        raise ValueError(f"t={t} must be positive")
    n = max(1, round(t / h))
    s = np.linspace(0.0, t, n + 1)
    r = np.array([rate(x) for x in s])
    if np.any(r < 0.0):
        raise NegativeRate("interest rate must be nonnegative on [0, t]")
    return float(np.exp(np.trapezoid(r, s)))


CoefficientLike = Callable[[float], float] | Sequence[float] | float


def _grid_samples(c: CoefficientLike, grid: TimeGrid) -> np.ndarray:
    """Values at the grid points of a callable, a constant, or grid samples."""
    if callable(c):
        return np.array([c(s) for s in grid.points])
    if np.isscalar(c):
        return np.full(grid.n_steps + 1, float(c))
    vals = np.asarray(c, dtype=float)
    if vals.shape != (grid.n_steps + 1,):
        raise GridMismatch("coefficient samples do not match the grid")
    return vals


@dataclass(frozen=True)
class VolterraCoefficients:
    """Coefficients of the fractional Black-Scholes Volterra equation."""

    mu: CoefficientLike
    sigma: CoefficientLike
    x0: float

    def __post_init__(self):
        if not self.x0 > 0.0:
            raise ValueError(f"x0={self.x0} must be positive")

    def sampled(self, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        mu = _grid_samples(self.mu, grid)
        sg = _grid_samples(self.sigma, grid)
        if np.any(mu < 0.0) or np.any(sg < 0.0):
            raise NegativeRate("mu and sigma must be nonnegative")
        return mu, sg


def volterra_paths(coeffs: VolterraCoefficients, beta: float, grid: TimeGrid,
                   increments: np.ndarray) -> np.ndarray:
    """Explicit Volterra-Euler recursion for a batch of Wiener paths.

    increments has shape (n_paths, N); returns X of shape (n_paths, N+1).
    The kernels' outer time is the current grid point, so each step
    re-evaluates the full history sums (O(N^2)).  On the uniform grid a
    kernel weight depends only on the lag between the outer time and the
    step, so the weights are taken once, with outer time t_end: step k
    reads the last k + 1 of them.
    """
    _check_order(beta)
    inc = np.atleast_2d(np.asarray(increments, dtype=float))
    if inc.shape[1] != grid.n_steps:
        raise GridMismatch("increment table does not match the grid")
    mu, sg = coeffs.sampled(grid)
    n = grid.n_steps
    w = step_weights(grid.t_end, grid.points, beta)
    kappa = np.sqrt(w / grid.h)
    g_beta = gamma(beta)
    g_half = gamma((beta + 1.0) / 2.0)

    x = np.empty((inc.shape[0], n + 1))
    x_inc = np.empty_like(inc)                  # X(s_j) dW_j, one per step
    x[:, 0] = coeffs.x0
    for k in range(n):
        lag = n - 1 - k
        x_inc[:, k] = x[:, k] * inc[:, k]
        drift = x[:, :k + 1] @ (mu[:k + 1] * w[lag:])
        stoch = x_inc[:, :k + 1] @ (sg[:k + 1] * kappa[lag:])
        x[:, k + 1] = coeffs.x0 + drift / g_beta + stoch / g_half
    return x


def solve_fractional_black_scholes(coeffs: VolterraCoefficients, beta: float,
                                   grid: TimeGrid,
                                   path: WienerPath) -> SampledFunction:
    """Price path X on the grid for a single Wiener path (first channel)."""
    path.check_aligned(grid)
    x = volterra_paths(coeffs, beta, grid, path.increments[:, 0][None, :])
    return SampledFunction(grid, x[0])
