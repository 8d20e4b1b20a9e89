"""Gamma function, the singular power kernels used by every fractional
formula in the package, and the kernels' exact per-step integrals.

The gamma function is a Lanczos approximation (g = 7, 9 coefficients), good
to about 15 significant digits for positive real arguments.  It is kept
rather than `math.gamma` because every pinned output with alpha != beta or
beta != 1 was recorded with it: the two differ, by up to 3.5e-15
relative, at ~90 % of uniform x in (0.01, 3), 0.6 and 0.3 among them, so a
switch would move those pins.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FractionalParams
from .errors import InvalidArgument

# Lanczos coefficients, g = 7.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(x: float) -> float:
    """Euler gamma function for positive finite real x.

    Where gamma(x) overflows a float, past x ~ 171.62 or below x ~ 5.6e-309,
    InvalidArgument is raised, as it is for x <= 0 and a non-finite x.
    """
    if not 0.0 < x < math.inf:
        raise InvalidArgument(f"x={x} must be positive and finite")
    if x < 0.5:
        # Reflection keeps the Lanczos series in its accurate range.
        value = math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    else:
        z = x - 1.0
        acc = _LANCZOS_C[0]
        for i, c in enumerate(_LANCZOS_C[1:], start=1):
            acc += c / (z + i)
        t = z + _LANCZOS_G + 0.5
        try:
            return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * acc
        except OverflowError:  # t^(z + 1/2) overflows from x ~ 142.4
            value = math.inf
        if x < 172.0:  # the power in two halves, each finite to x ~ 280
            half = t ** (0.5 * (z + 0.5))
            value = _SQRT_TWO_PI * half * math.exp(-t) * acc * half
    if value < math.inf:
        return value
    raise InvalidArgument(f"x={x} is out of range: gamma(x) overflows a "
                          f"float")


def power_kernel(t: float, s: float, exponent: float):
    """(t - s)^exponent; t and s may be floats or numpy arrays.

    Raises InvalidArgument unless every t - s > 0 (a NaN fails).
    """
    dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    if not np.all(dt > 0.0):
        raise InvalidArgument(f"t={t} must exceed s: t - s = {dt}")
    out = np.exp(exponent * np.log(dt))
    return float(out) if out.ndim == 0 else out


def hp_noise_coefficient(params: FractionalParams, s):
    """Noise coefficient (Gamma(alpha)/Gamma(beta)) (t_eval - s)^(beta - alpha).

    s may be a float or an array of times.  Short-circuits to exactly 1.0
    (a float, whatever s is) when alpha == beta bitwise, so the
    alpha = beta specialization of the momentum equation is exact rather
    than a rounding artifact.
    """
    if params.alpha == params.beta:
        return 1.0
    ratio = gamma(params.alpha) / gamma(params.beta)
    return ratio * power_kernel(params.t_eval, s, params.beta - params.alpha)


def step_weights(t: float, s, order: float) -> np.ndarray:
    """Exact integrals of (t - u)^(order - 1) over each step [s[j], s[j+1]].

    s holds the increasing grid points, so there is one weight per step:
    ((t - s[j])^order - (t - s[j+1])^order) / order.  A step that ends
    before t takes it as -(t - s[j])^order expm1(order log1p(-h_j /
    (t - s[j]))) / order with h_j = s[j+1] - s[j], which keeps a long-lag
    weight to a few ulps where the difference of two nearly equal powers
    would lose about lag/order of them.  A step that reaches t keeps the
    difference with t - s clamped at 0, so a step past t gets weight 0
    rather than a NaN.  This is the kernel half of the product rectangle
    rule behind every fractional integral in the package.
    """
    s = np.asarray(s, dtype=float)
    lag = t - s[:-1]
    k = int(np.searchsorted(s[1:], t))  # steps j < k end before t
    w = np.empty_like(lag)
    head = lag[:k]
    w[:k] = (-head ** order / order
             * np.expm1(order * np.log1p(-np.diff(s[:k + 1]) / head)))
    w[k:] = np.maximum(lag[k:], 0.0) ** order / order
    return w
