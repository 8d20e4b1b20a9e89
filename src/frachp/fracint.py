"""Fractional Riemann-Liouville integrals of sampled functions, fractional
Wiener (Ito) integrals, and the fractional Black-Scholes Volterra demo.

Quadrature convention for the singular kernels ("singularity-absorbing
rule"): integrands are sampled at the LEFT endpoint of each step while the
power kernel is integrated exactly over the step.  For the stochastic sum
the kernel is evaluated at the left endpoint when the grid stops short of
t; when the grid reaches t the per-step root-mean-square kernel weight is
used instead, which keeps the Ito isometry exact even though the pointwise
kernel diverges at the endpoint.

The Volterra demo's history sums are causal convolutions on the uniform
grid; `volterra_paths` sums them by divide-and-conquer FFT products, in
O(P N log^2 N) for P paths of N steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import TimeGrid, check_order, check_whole
from .errors import GridMismatch, InvalidArgument
from .noise import WienerPath
from .specfun import gamma, step_weights

_END_TOL = 1e-12
_BLOCK = 64                 # steps solved by the direct Volterra loop
_FFT_ELEMENTS = 1 << 16     # paths x FFT length per chunk of a fold


@dataclass(frozen=True, eq=False)
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


def _check_span(grid: TimeGrid, t: float) -> None:
    if not np.isfinite(t):
        raise InvalidArgument(f"t={t} must be finite")
    if grid.t_end > t + _END_TOL * max(1.0, abs(t)):
        raise GridMismatch(f"grid end {grid.t_end} exceeds t = {t}")


def rl_integral(f: SampledFunction, beta: float, t: float) -> float:
    """Riemann-Liouville integral (1/Gamma(beta)) int_0^t f(s)(t-s)^(beta-1) ds.

    Product rectangle rule: left-endpoint samples, exact kernel integral per
    step.  The grid may reach t; the rule absorbs the endpoint singularity.
    """
    check_order("beta", beta)
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
    check_order("beta", beta)
    _check_span(g.grid, t)
    check_whole("channel", channel)
    if not 0 <= channel < path.channels:
        raise InvalidArgument(f"channel={channel} outside the path's "
                              f"{path.channels} channels")
    path.check_aligned(g.grid)
    s = g.grid.points
    if g.grid.t_end >= t - _END_TOL * max(1.0, abs(t)):
        # Endpoint touches t: RMS weight keeps sum_k kappa_k^2 h exact.
        kappa = np.sqrt(step_weights(t, s, beta) / g.grid.h)
    else:
        kappa = (t - s[:-1]) ** ((beta - 1.0) / 2.0)
    total = np.dot(g.values[:-1] * kappa, path.increments[:, channel])
    return float(total / gamma((beta + 1.0) / 2.0))


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


@dataclass(frozen=True, eq=False)
class VolterraCoefficients:
    """Coefficients of the fractional Black-Scholes Volterra equation:
    x0 > 0 and, at every grid point, mu, sigma >= 0, all finite."""

    mu: CoefficientLike
    sigma: CoefficientLike
    x0: float

    def __post_init__(self):
        if not 0.0 < self.x0 < np.inf:
            raise InvalidArgument(f"x0={self.x0} must be positive and finite")

    def sampled(self, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
        mu = _grid_samples(self.mu, grid)
        sg = _grid_samples(self.sigma, grid)
        for name, vals in (("mu", mu), ("sigma", sg)):
            bad = ~((vals >= 0.0) & (vals < np.inf))
            if bad.any():
                k = int(np.argmax(bad))
                raise InvalidArgument(
                    f"{name}={vals[k]} at s = {grid.point(k)} must be "
                    f"nonnegative and finite")
        return mu, sg


def volterra_paths(coeffs: VolterraCoefficients, beta: float, grid: TimeGrid,
                   increments: np.ndarray) -> np.ndarray:
    """Explicit Volterra-Euler recursion for a batch of Wiener paths.

    increments has shape (n_paths, N); returns X of shape (n_paths, N+1),

        X_m = x0 + sum_{j<m} X_j (mu_j a_{m-1-j} + sigma_j dW_j b_{m-1-j}),

    where a_d = w_d / Gamma(beta) and b_d = sqrt(w_d / h) / Gamma((beta+1)/2)
    come from the exact kernel integral w_d of a step at lag d.  On the
    uniform grid a weight depends only on the lag, so the weights are taken
    once, with outer time t_end, and both history sums are causal
    convolutions.  They are summed by the divide-and-conquer FFT scheme of
    Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985):
    blocks of _BLOCK steps are solved by a direct loop, and each finished,
    aligned run of 2^l blocks adds its history to the next 2^l blocks with
    one FFT product over all paths.  That is O(P N log^2 N) and exact up
    to FFT rounding.
    """
    check_order("beta", beta)
    inc = np.atleast_2d(np.asarray(increments, dtype=float))
    if inc.shape[1] != grid.n_steps:
        raise GridMismatch("increment table does not match the grid")
    mu, sg = coeffs.sampled(grid)
    n = grid.n_steps
    w = step_weights(grid.t_end, grid.points, beta)
    # Weights by time, as the direct loop reads them: step j before
    # target m has weight index n - m + j.
    wd = w / gamma(beta)
    ws = np.sqrt(w / grid.h) / gamma((beta + 1.0) / 2.0)

    x = np.full((inc.shape[0], n + 1), float(coeffs.x0))
    spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for lo in range(0, n + 1, _BLOCK):
        end = min(lo + _BLOCK, n + 1)
        _solve_block(x, inc, mu, sg, wd, ws, lo, end)
        if end <= n:
            runs = end // _BLOCK
            span = _BLOCK * (runs & -runs)  # the aligned run ending here
            _fold_history(x, inc, mu, sg, wd, ws, spectra, end, span,
                          min(span, n + 1 - end))
    return x


def _solve_block(x: np.ndarray, inc: np.ndarray, mu: np.ndarray,
                 sg: np.ndarray, wd: np.ndarray, ws: np.ndarray,
                 lo: int, end: int) -> None:
    """Finish X at the points [lo, end), whose history before lo is in X.

    Target m adds the steps [lo, m) of its own block by two dot products
    over contiguous weight slices.
    """
    n = inc.shape[1]
    x_inc = np.empty((x.shape[0], end - lo))   # X_j dW_j of the block
    for m in range(lo, end):
        if m > lo:
            k = slice(n - m + lo, n)
            x[:, m] += (x[:, lo:m] @ (mu[lo:m] * wd[k])
                        + x_inc[:, :m - lo] @ (sg[lo:m] * ws[k]))
        if m < n:
            x_inc[:, m - lo] = x[:, m] * inc[:, m]


def _fold_history(x: np.ndarray, inc: np.ndarray, mu: np.ndarray,
                  sg: np.ndarray, wd: np.ndarray, ws: np.ndarray,
                  spectra: dict, start: int, span: int, count: int) -> None:
    """Add the steps [start - span, start) to X at [start, start + count).

    The lags run from 0 to span + count - 2, so a cyclic convolution of any
    length L >= span + count - 1 gives the targets without wrap-around.
    Each L's kernel spectra are taken once per call of `volterra_paths`,
    and the paths go through in chunks of about _FFT_ELEMENTS samples.
    """
    size = 1 << (span + count - 2).bit_length()
    if size not in spectra:
        # Kernels by lag: lag d has weight index n - 1 - d.
        spectra[size] = (np.fft.rfft(wd[::-1], size),
                         np.fft.rfft(ws[::-1], size))
    f_drift, f_noise = spectra[size]
    src = slice(start - span, start)
    rows = max(1, _FFT_ELEMENTS // size)
    for r in range(0, x.shape[0], rows):
        xs = x[r:r + rows, src]
        f = np.fft.rfft(xs * mu[src], size)
        f *= f_drift
        f += np.fft.rfft(xs * inc[r:r + rows, src] * sg[src], size) * f_noise
        x[r:r + rows, start:start + count] += np.fft.irfft(f, size)[
            :, span - 1:span - 1 + count]

