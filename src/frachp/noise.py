"""Reproducible multi-channel Wiener increment tables.

The generator is counter-based: draw k of stream `seed` is a pure function
of (seed, k), so tables are bitwise identical across runs and platforms and
substreams can be generated concurrently.  Constants are versioned below;
changing any of them is a format break.

  * uniform bits: splitmix64 evaluated at state seed + (k+1)*GOLDEN
  * normals: Acklam's rational approximation of the inverse normal CDF
    (max relative error ~1.15e-9), one uniform draw per increment
  * increments are laid out row-major: counter k = step*channels + channel

`generate_paths` draws the tables of many seeds at once: its counters form
a (seed, counter) grid, taken in passes of about `_DRAWS` draws (as many
whole seeds as fit, and at least one), so each pass's arrays stay in cache
and the per-call cost is paid once per pass, not once per seed.  Row i is
`generate_path(seeds[i], ...)`'s table bit for bit; `generate_path` is its
one-seed call.

The splitmix64 rounds run in place on one uint64 array, whose arithmetic
wraps modulo 2^64 without a warning, so no errstate guards them;
`spawn_substream` takes the same rounds on Python ints masked to 64 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, check_whole
from .errors import GridMismatch, InvalidArgument

RNG_VERSION = "frachp-rng-v1"

_M64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SUBSTREAM_SALT = 0x3C79AC492BA7B653
# Draws per pass of generate_paths: few passes pay the per-call cost, and
# a pass's temporaries (256 KiB each) stay in cache.
_DRAWS = 1 << 15


def _uniforms(seed, start: int, count: int) -> np.ndarray:
    """`count` uniforms in (0, 1) from counters start..start+count-1 of
    stream `seed`, an int, or one row per seed of a (P, 1) uint64 column."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GOLDEN
    if isinstance(seed, np.ndarray):
        z = z + seed
    else:
        z += int(seed) & _M64
    t = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):  # splitmix64's output
        z ^= np.right_shift(z, shift, out=t)
        z *= mix
    z ^= np.right_shift(z, 31, out=t)
    # 53 random bits, shifted into the open interval (0, 1).
    u = np.right_shift(z, 11, out=t).astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


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


def _horner(x: np.ndarray, coeffs: tuple) -> np.ndarray:
    """coeffs[0] x^k + ... + coeffs[k] by Horner's rule, in one new array."""
    out = coeffs[0] * x
    for c in coeffs[1:-1]:
        out += c
        out *= x
    out += coeffs[-1]
    return out


def normal_inv_cdf(u: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF, Acklam's rational approximation.

    The central rational is taken over the whole array, and only the
    draws in the tails are then patched with the tail rational.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    q = flat - 0.5
    r = q * q
    out = _horner(r, _ACK_A)
    out *= q
    out /= _horner(r, _ACK_B + (1.0,))
    tail = np.flatnonzero((flat < _ACK_SPLIT) | (flat > 1.0 - _ACK_SPLIT))
    t = flat[tail]
    low = t < 0.5
    q = np.sqrt(-2.0 * np.log(np.where(low, t, 1.0 - t)))
    num = _horner(q, _ACK_C)
    num /= _horner(q, _ACK_D + (1.0,))
    out[tail] = np.where(low, num, -num)
    return out.reshape(u.shape)


@dataclass(frozen=True, eq=False)
class WienerPath:
    """Discretized m-channel Brownian path: increments[k, a] = W^a((k+1)h) - W^a(kh)."""

    h: float
    increments: np.ndarray

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float)  # (n_steps, channels)
        if inc.ndim != 2:
            raise InvalidArgument(f"increments=shape {inc.shape} is not "
                                  f"(n_steps, channels)")
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


def _check_table(h: float, n_steps: int, channels: int) -> None:
    TimeGrid(0.0, h, n_steps)  # the grid's checks of h and n_steps
    check_whole("channels", channels)
    if channels < 1:
        raise InvalidArgument(f"channels={channels} must be >= 1")


def generate_paths(seeds, h: float, n_steps: int,
                   channels: int = 1) -> np.ndarray:
    """Deterministic Wiener increment tables of many seeds, as one
    (len(seeds), n_steps, channels) array whose row i is
    `generate_path(seeds[i], h, n_steps, channels).increments`.

    Every seed and the table are checked before any draw.  The draws are
    taken max(1, _DRAWS // (n_steps * channels)) seeds per pass.
    """
    seeds = list(seeds)
    for seed in seeds:
        check_whole("seed", seed)
    _check_table(h, n_steps, channels)
    column = np.array([int(seed) & _M64 for seed in seeds],
                      dtype=np.uint64).reshape(-1, 1)
    draws = n_steps * channels
    out = np.empty((len(seeds), draws))
    per_pass = max(1, _DRAWS // draws)
    scale = np.sqrt(h)
    for lo in range(0, len(seeds), per_pass):
        rows = slice(lo, lo + per_pass)
        np.multiply(normal_inv_cdf(_uniforms(column[rows], 0, draws)), scale,
                    out=out[rows])
    return out.reshape(len(seeds), n_steps, channels)


def generate_path(seed: int, h: float, n_steps: int,
                  channels: int = 1) -> WienerPath:
    """Deterministic Wiener increment table for (seed, h, n_steps, channels)."""
    return WienerPath(h, generate_paths([seed], h, n_steps, channels)[0])


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
    check_whole("factor", factor)
    if factor < 2 or path.n_steps % factor != 0:
        raise InvalidArgument(
            f"factor={factor} must be at least 2 and divide "
            f"n_steps={path.n_steps}")
    n_coarse = path.n_steps // factor
    grouped = path.increments.reshape(n_coarse, factor, path.channels)
    inc = _pairwise_sum(grouped)
    return WienerPath(path.h * factor, inc)


def spawn_substream(seed: int, index: int) -> int:
    """Deterministic child seed for per-trajectory streams."""
    check_whole("seed", seed)
    check_whole("index", index)
    z = (((int(seed) & _M64) ^ _SUBSTREAM_SALT)
         + (int(index) & _M64) * _MIX2) & _M64
    for shift, mix in ((30, _MIX1), (27, _MIX2)):  # splitmix64's output
        z = ((z ^ (z >> shift)) * mix) & _M64
    return z ^ (z >> 31)

