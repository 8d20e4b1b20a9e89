"""Reproducible multi-channel Wiener increment tables.

The generator is counter-based: draw k of stream `seed` is a pure function
of (seed, k), so tables are bitwise identical across runs and platforms and
substreams can be generated concurrently.  Constants are versioned below;
changing any of them is a format break.

  * uniform bits: splitmix64 evaluated at state seed + (k+1)*GOLDEN
  * normals: Acklam's rational approximation of the inverse normal CDF
    (max relative error ~1.15e-9), one uniform draw per increment
  * increments are laid out row-major: counter k = step*channels + channel
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatch, IndivisibleFactor, InvalidArgument,
                     NonPositiveStep, ZeroSteps)

RNG_VERSION = "frachp-rng-v1"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SUBSTREAM_SALT = np.uint64(0x3C79AC492BA7B653)


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function on uint64 input (vectorized)."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """`count` uniforms in (0, 1) from counters start..start+count-1."""
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + counters * _GOLDEN
    bits = _finalize(state)
    # 53 random bits, shifted into the open interval (0, 1).
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


# Acklam inverse normal CDF coefficients.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02,
          -2.759285104469687e+02, 1.383577518672690e+02,
          -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02,
          -1.556989798598866e+02, 6.680131188771972e+01,
          -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01,
          -2.400758277161838e+00, -2.549732539343734e+00,
          4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01,
          2.445134137142996e+00, 3.754408661907416e+00)
_ACK_SPLIT = 0.02425


def normal_inv_cdf(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF, Acklam's rational approximation."""
    u = np.asarray(u, dtype=float)
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    out = np.empty_like(u)

    lo = u < _ACK_SPLIT
    hi = u > 1.0 - _ACK_SPLIT
    mid = ~(lo | hi)

    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        out[mid] = num * q / den
    for mask, sign, p in ((lo, 1.0, u[lo]), (hi, -1.0, 1.0 - u[hi])):
        if np.any(mask):
            q = np.sqrt(-2.0 * np.log(p))
            num = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                   + c[5])
            den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
            out[mask] = sign * num / den
    return out


@dataclass(frozen=True, eq=False)
class WienerPath:
    """Discretized m-channel Brownian path: increments[k, a] = W^a((k+1)h) - W^a(kh)."""

    h: float
    increments: np.ndarray

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float)  # (n_steps, channels)
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def channels(self) -> int:
        return self.increments.shape[1]

    def check_aligned(self, grid, channels: int | None = None) -> None:
        """Raise GridMismatch unless the path has the grid's steps and h,
        and `channels` channels when that is given.

        The steps must agree to a relative 1e-12, so the check does not
        depend on the scale of h.
        """
        if (self.n_steps != grid.n_steps
                or not math.isclose(self.h, grid.h, rel_tol=1e-12,
                                    abs_tol=0.0)):
            raise GridMismatch(
                f"grid ({grid.n_steps} steps of h = {grid.h!r}) and Wiener "
                f"path ({self.n_steps} steps of h = {self.h!r}) are not "
                f"aligned")
        if channels is not None and self.channels != channels:
            raise GridMismatch(f"path has {self.channels} channels, "
                               f"system expects {channels}")

    @property
    def terminal(self) -> np.ndarray:
        """W(T) per channel, summed pairwise for coarsening invariance."""
        return _pairwise_sum(self.increments[None, :, :])[0]


def _check_table(h: float, n_steps: int, channels: int) -> None:
    if h <= 0.0:
        raise NonPositiveStep(f"h={h}")
    if n_steps < 1:
        raise ZeroSteps(f"n_steps={n_steps}")
    if channels < 1:
        raise InvalidArgument(f"channels={channels} must be >= 1")


def generate_path(seed: int, h: float, n_steps: int,
                  channels: int = 1) -> WienerPath:
    """Deterministic Wiener increment table for (seed, h, n_steps, channels)."""
    _check_table(h, n_steps, channels)
    u = _uniforms(seed, 0, n_steps * channels)
    inc = normal_inv_cdf(u).reshape(n_steps, channels) * np.sqrt(h)
    return WienerPath(h, inc)


def zero_path(h: float, n_steps: int, channels: int = 1) -> WienerPath:
    """All-zero increment table (deterministic twin of a noisy run)."""
    _check_table(h, n_steps, channels)
    return WienerPath(h, np.zeros((n_steps, channels)))


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum axis 1 of an (n0, L, n2) array by a fixed balanced binary tree.

    The split point is the largest power of two below L, so summing groups
    and then summing the group sums reproduces the direct sum bit for bit
    whenever the group boundaries align with the tree (e.g. coarsening by 2
    twice equals coarsening by 4 once).
    """
    length = x.shape[1]
    if length == 1:
        return x[:, 0, :]
    half = 1
    while half * 2 < length:
        half *= 2
    return _pairwise_sum(x[:, :half, :]) + _pairwise_sum(x[:, half:, :])


def coarsen(path: WienerPath, factor: int) -> WienerPath:
    """The same Brownian path sampled with step h*factor.

    Coarse increment k is the (pairwise) sum of fine increments
    k*factor .. (k+1)*factor - 1.
    """
    if factor < 2 or path.n_steps % factor != 0:
        raise IndivisibleFactor(
            f"factor {factor} does not divide n_steps={path.n_steps}")
    n_coarse = path.n_steps // factor
    grouped = path.increments.reshape(n_coarse, factor, path.channels)
    inc = _pairwise_sum(grouped)
    return WienerPath(path.h * factor, inc)


def spawn_substream(seed: int, index: int) -> int:
    """Deterministic child seed for per-trajectory streams."""
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _SUBSTREAM_SALT
    with np.errstate(over="ignore"):
        child = _finalize(base + np.uint64(index & 0xFFFFFFFFFFFFFFFF) * _MIX2)
    return int(child)

