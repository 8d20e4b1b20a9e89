"""Independent numerical oracles used only by the tests."""

from __future__ import annotations

import numpy as np

from frachp.dynamics import christoffel, system_lagrangian
from frachp.specfun import gamma


def rk4_terminal(fields, q0, p0, t_start, t_end, n_steps):
    """Classical RK4 on the drift-only (q, p) system; noise must be off.

    Used as a high-order reference for the explicit Euler scheme.  Works on
    the terms fields.step composes, drift_q(q, p) and drift_p(q, p,
    damping(s)), but is an entirely different discretization.
    """
    h = (t_end - t_start) / n_steps
    q = np.array(q0, dtype=float)
    p = np.array(p0, dtype=float)

    def rhs(s, q, p):
        return fields.drift_q(q, p), fields.drift_p(q, p, fields.damping(s))

    for k in range(n_steps):
        s = t_start + k * h
        k1q, k1p = rhs(s, q, p)
        k2q, k2p = rhs(s + h / 2, q + h / 2 * k1q, p + h / 2 * k1p)
        k3q, k3p = rhs(s + h / 2, q + h / 2 * k2q, p + h / 2 * k2p)
        k4q, k4p = rhs(s + h, q + h * k3q, p + h * k3p)
        q = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        p = p + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return q, p


def metric_fields_reference(sys, q, v):
    """(-Gamma(q)(v, v), g^-1(q) grad gamma(q)) of a MetricSystem, taken
    numerically from `christoffel`, the inverse of `metric_at` and
    `grad_matrix`.

    The oracle for the closed forms a system gives as geodesic and
    noise_matrix.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    geodesic = -np.einsum("...ijk,...j,...k->...i", christoffel(sys, q), v, v)
    return (geodesic,
            np.linalg.inv(sys.metric_at(q)) @ sys.noise.grad_matrix(q))


def action_reference(trajectory, sys, params, path) -> float:
    """The discrete HP action by a direct loop over steps.

    One Lagrangian call, one constraint dot product and one call of each
    coupling per step: the quadrature of `evaluate_action`, written
    sample by sample.
    """
    grid = trajectory.grid
    t, h, s = params.t_eval, grid.h, grid.points
    w_alpha = ((t - s[:-1]) ** params.alpha
               - (t - s[1:]) ** params.alpha) / params.alpha
    qs, vs, ps = trajectory.q, trajectory.v, trajectory.p
    qdot = (qs[1:] - qs[:-1]) / h

    det = 0.0
    for k in range(grid.n_steps):
        lag = system_lagrangian(sys, qs[k], vs[k])
        det += (lag + float(ps[k] @ (qdot[k] - vs[k]))) * w_alpha[k]
    det /= gamma(params.alpha)

    kernel = (t - (s[:-1] + 0.5 * h)) ** (params.beta - 1.0)
    q_mid = 0.5 * (qs[:-1] + qs[1:])
    stoch = 0.0
    for a, gamma_a in enumerate(sys.noise.gamma):
        vals = np.array([gamma_a(q_mid[k]) for k in range(grid.n_steps)])
        stoch += float(np.dot(vals * kernel, path.increments[:, a]))
    return det + stoch / gamma(params.beta)


def volterra_reference(coeffs, beta, grid, increments):
    """The Volterra-Euler recursion of `volterra_paths`, weights per step.

    Each step k takes its drift weights, the exact integrals of
    (t_{k+1} - u)^(beta-1) over the steps so far, and their RMS kernel
    directly at the outer time t_{k+1}, instead of slicing one weight
    vector taken at t_end.
    """
    inc = np.atleast_2d(np.asarray(increments, dtype=float))
    mu = np.full(grid.n_steps + 1, coeffs.mu)
    sg = np.full(grid.n_steps + 1, coeffs.sigma)
    s = grid.points
    h = grid.h
    g_beta = gamma(beta)
    g_half = gamma((beta + 1.0) / 2.0)

    x = np.empty((inc.shape[0], grid.n_steps + 1))
    x[:, 0] = coeffs.x0
    for k in range(grid.n_steps):
        t_next = s[k + 1]
        left = np.maximum(t_next - s[:k + 1], 0.0)
        right = np.maximum(t_next - s[1:k + 2], 0.0)
        w = (left ** beta - right ** beta) / beta                # (k+1,)
        kappa = np.sqrt(w / h)
        drift = x[:, :k + 1] @ (mu[:k + 1] * w)
        stoch = (x[:, :k + 1] * inc[:, :k + 1]) @ (sg[:k + 1] * kappa)
        x[:, k + 1] = coeffs.x0 + drift / g_beta + stoch / g_half
    return x


def normal_cdf(x):
    from math import erf, sqrt
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + np.vectorize(erf)(x / sqrt(2.0)))


def ks_statistic(samples):
    """Kolmogorov-Smirnov distance of samples to the standard normal."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    cdf = normal_cdf(x)
    return max(float(np.max(cdf - np.arange(n) / n)),
               float(np.max(np.arange(1, n + 1) / n - cdf)))
