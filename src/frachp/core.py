"""Shared domain types: fractional parameters, the uniform time grid,
phase-space samples and sampled paths.

All types are frozen dataclasses; array fields are made read-only so that
instances can be shared freely between threads.  The types that hold arrays
compare and hash by identity (eq=False), since a field-wise == would ask
numpy for the truth value of an array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridReachesSingularity, InvalidArgument

# The grid must stop this many steps short of the kernel evaluation time
# t_eval: (t - s)^(beta - alpha) is unbounded as s -> t_eval when beta < alpha.
EPSILON_GUARD_STEPS = 10


def _frozen_vector(name: str, x) -> np.ndarray:
    a = np.atleast_1d(np.array(x, dtype=float))
    if a.ndim != 1:
        raise InvalidArgument(f"{name}=shape {a.shape}, not a 1-d vector")
    a.setflags(write=False)
    return a


def check_whole(name: str, value) -> None:
    """Raise InvalidArgument naming `name` unless `value` is an int or a
    numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgument(f"{name}={value!r} must be a whole number")


def check_order(name: str, value: float) -> None:
    """Raise InvalidArgument naming `name` unless the fractional order
    `value` lies in (0, 1]; NaN fails."""
    if not 0.0 < value <= 1.0:
        raise InvalidArgument(f"{name}={value} outside (0, 1]")


@dataclass(frozen=True)
class FractionalParams:
    """The triple (alpha, beta, t_eval) parameterizing every fractional kernel.

    Both orders live in (0, 1]; the closed right endpoint is accepted because
    alpha = beta = 1 is the classical limit used throughout the tests.
    """

    alpha: float
    beta: float
    t_eval: float

    def __post_init__(self):
        check_order("alpha", self.alpha)
        check_order("beta", self.beta)
        if not 0.0 < self.t_eval < math.inf:
            raise InvalidArgument(
                f"t_eval={self.t_eval} must be positive and finite")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start + k*h for k = 0..n_steps.

    t_start must be finite, h positive and finite, and n_steps a whole
    number (`check_whole`) of at least 1.
    """

    t_start: float
    h: float
    n_steps: int

    def __post_init__(self):
        if not math.isfinite(self.t_start):
            raise InvalidArgument(f"t_start={self.t_start} must be finite")
        if not 0.0 < self.h < math.inf:
            raise InvalidArgument(f"h={self.h} must be positive and finite")
        check_whole("n_steps", self.n_steps)
        if self.n_steps < 1:
            raise InvalidArgument(f"n_steps={self.n_steps} must be at least 1")

    @property
    def t_end(self) -> float:
        return self.t_start + self.n_steps * self.h

    def point(self, k: int) -> float:
        # Direct formula, never cumulative summation: point(N) is exact to
        # one rounding of t_start + N*h.
        return self.t_start + k * self.h

    @property
    def points(self) -> np.ndarray:
        p = self.t_start + np.arange(self.n_steps + 1) * self.h
        p.setflags(write=False)
        return p


def check_singularity_guard(grid: TimeGrid, params: FractionalParams) -> None:
    """Require the grid to end EPSILON_GUARD_STEPS * h before params.t_eval."""
    guard = EPSILON_GUARD_STEPS * grid.h
    if not grid.t_end <= params.t_eval - guard:  # NaN fails as well
        raise GridReachesSingularity(
            f"grid ends at {grid.t_end}, must stay below "
            f"t_eval - {EPSILON_GUARD_STEPS}h = {params.t_eval - guard}")


def make_grid(t_start: float, h: float, n_steps: int,
              params: FractionalParams) -> TimeGrid:
    """Build a grid and validate it against the kernel singularity guard."""
    grid = TimeGrid(t_start, h, n_steps)
    check_singularity_guard(grid, params)
    return grid


@dataclass(frozen=True, eq=False)
class PhaseState:
    """One (q, v, p) sample of the Hamilton-Pontryagin state."""

    q: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name in ("q", "v", "p"):
            a = _frozen_vector(name, getattr(self, name))
            object.__setattr__(self, name, a)
            if a.shape != self.q.shape:
                raise InvalidArgument(f"{name}={a.tolist()} has {a.size} "
                                      f"entries, q has {self.q.size}")

    @property
    def dim(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One sampled path: q, v and p as read-only (N+1, n) arrays.

    A read-only float array is kept as given, so that the trajectories of
    a batch share its buffer; anything else is copied.
    """

    grid: TimeGrid
    q: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name in ("q", "v", "p"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype == float
                    and not a.flags.writeable):
                a = np.array(a, dtype=float)
                a.setflags(write=False)
            object.__setattr__(self, name, a)
            if a.shape != self.q.shape:
                raise InvalidArgument(f"{name}=shape {a.shape}, "
                                      f"q has shape {self.q.shape}")
        if self.q.ndim != 2 or self.q.shape[0] != self.grid.n_steps + 1:
            raise InvalidArgument(f"q=shape {self.q.shape} for "
                                  f"{self.grid.n_steps} steps")

    @property
    def dim(self) -> int:
        return self.q.shape[1]

    @property
    def states(self) -> tuple[PhaseState, ...]:
        """Per-step PhaseState view, built on demand."""
        return tuple(map(PhaseState, self.q, self.v, self.p))
