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
O(P N log^2 N) for P paths of N steps, its direct loop on block buffers
and views made once per call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, check_order, check_whole
from .errors import GridMismatch, InvalidArgument, NumericalBlowup
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
            got = (f"{v.size} values" if v.ndim == 1 else
                   f"values of shape {v.shape}")
            raise GridMismatch(
                f"{got} for {self.grid.n_steps + 1} grid points")
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


@dataclass(frozen=True)
class VolterraCoefficients:
    """Constant coefficients of the fractional Black-Scholes Volterra
    equation: mu, sigma >= 0 and x0 > 0, each a finite real number."""

    mu: float
    sigma: float
    x0: float

    def __post_init__(self):
        for name, sign in (("mu", "nonnegative"), ("sigma", "nonnegative"),
                           ("x0", "positive")):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real):  # a callable, an array
                raise InvalidArgument(f"{name}={v!r} must be a real number")
            if not (math.isfinite(v)
                    and (v > 0.0 if sign == "positive" else v >= 0.0)):
                raise InvalidArgument(f"{name}={v} must be {sign} and finite")


def volterra_paths(coeffs: VolterraCoefficients, beta: float, grid: TimeGrid,
                   increments: np.ndarray) -> np.ndarray:
    """Explicit Volterra-Euler recursion for a batch of Wiener paths.

    increments has shape (n_paths, N); returns X of shape (n_paths, N+1),

        X_m = x0 + sum_{j<m} X_j (mu a_{m-1-j} + sigma dW_j b_{m-1-j}),

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

    The direct loop copies each block's X and dW into (P, _BLOCK) buffers,
    and step j reads views made once per call: X_j, the history X[:, :j]
    and (X dW)[:, :j], and the weight tails a[n - j:] and b[n - j:].  A
    view holds the numbers of the slice of X it replaces in the same order,
    with another row stride only, so the matvecs give the same bits.

    X is tested once, after the recursion: if some X is not finite,
    NumericalBlowup names the first grid index at which one is, and the
    lowest path that is not finite there.  A finite X has no bound, unlike
    the HP integrator's states: x0 exp(mu T) may legitimately pass 1e12.
    """
    check_order("beta", beta)
    inc = np.atleast_2d(np.asarray(increments, dtype=float))
    if inc.ndim != 2 or inc.shape[1] != grid.n_steps:
        raise GridMismatch(f"increments {inc.shape}, not (P, {grid.n_steps})")
    mu, sigma = coeffs.mu, coeffs.sigma
    n = grid.n_steps
    w = step_weights(grid.t_end, grid.points, beta)
    # Weights by time, as the direct loop reads them: step j before
    # target m has weight index n - m + j.
    wd = w / gamma(beta)
    ws = np.sqrt(w / grid.h) / gamma((beta + 1.0) / 2.0)
    a, b = mu * wd, sigma * ws

    x = np.full((inc.shape[0], n + 1), float(coeffs.x0))
    # One block's X, X dW and dW, and the views that step j of a block
    # reads (to finish X dW at j - 1, then X_j), made once per call.
    xb, xi, db = (np.empty((inc.shape[0], _BLOCK)) for _ in range(3))
    steps = [(xb[:, j - 1], db[:, j - 1], xi[:, j - 1], xb[:, j],
              xb[:, :j], xi[:, :j], a[n - j:], b[n - j:])
             for j in range(1, min(_BLOCK, n + 1))]
    spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    with np.errstate(all="ignore"):  # an overflow is reported below
        for lo in range(0, n + 1, _BLOCK):
            end = min(lo + _BLOCK, n + 1)
            k = end - lo - 1           # the steps after the block's first
            xb[:, :k + 1] = x[:, lo:end]
            db[:, :k] = inc[:, lo:end - 1]
            for prev, dw, x_dw, col, hist, x_dw_hist, a_j, b_j in steps[:k]:
                np.multiply(prev, dw, out=x_dw)
                col += hist @ a_j + x_dw_hist @ b_j
            x[:, lo:end] = xb[:, :k + 1]
            if end <= n:
                runs = end // _BLOCK
                span = _BLOCK * (runs & -runs)  # the aligned run ending here
                _fold_history(x, inc, mu, sigma, wd, ws, spectra, end, span,
                              min(span, n + 1 - end))
    finite = np.isfinite(x)
    if not finite.all():
        bad = ~finite
        m = int(np.argmax(bad.any(axis=0)))
        path, s = int(np.argmax(bad[:, m])), grid.point(m)
        raise NumericalBlowup(
            m, f"non-finite X at step {m} (s = {s:.6g}) on path {path}", s,
            path)
    return x


def _fold_history(x: np.ndarray, inc: np.ndarray, mu: float, sigma: float,
                  wd: np.ndarray, ws: np.ndarray, spectra: dict,
                  start: int, span: int, count: int) -> None:
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
        f = np.fft.rfft(xs * mu, size)
        f *= f_drift
        f += np.fft.rfft(xs * inc[r:r + rows, src] * sigma, size) * f_noise
        x[r:r + rows, start:start + count] += np.fft.irfft(f, size)[
            :, span - 1:span - 1 + count]

