"""Shared domain types: fractional parameters, the uniform time grid,
phase-space samples and sampled paths.

All types are frozen dataclasses; array fields are made read-only so that
instances can be shared freely between threads.  The types that hold arrays
compare and hash by identity (eq=False), since a field-wise == would ask
numpy for the truth value of an array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridReachesSingularity, NonPositiveStep, ZeroSteps

# The grid must stop this many steps short of the kernel evaluation time
# t_eval: (t - s)^(beta - alpha) is unbounded as s -> t_eval when beta < alpha.
EPSILON_GUARD_STEPS = 10


def _frozen_vector(x) -> np.ndarray:
    a = np.array(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise ValueError("expected a 1-d vector")
    a.setflags(write=False)
    return a


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
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name}={v} outside (0, 1]")
        if not self.t_eval > 0.0:
            raise ValueError(f"t_eval={self.t_eval} must be positive")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_start + k*h for k = 0..n_steps."""

    t_start: float
    h: float
    n_steps: int

    def __post_init__(self):
        if self.h <= 0.0:
            raise NonPositiveStep(f"h={self.h}")
        if self.n_steps < 1:
            raise ZeroSteps(f"n_steps={self.n_steps}")

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
    if grid.t_end > params.t_eval - guard:
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
        object.__setattr__(self, "q", _frozen_vector(self.q))
        object.__setattr__(self, "v", _frozen_vector(self.v))
        object.__setattr__(self, "p", _frozen_vector(self.p))
        n = self.q.shape[0]
        if self.v.shape[0] != n or self.p.shape[0] != n:
            raise ValueError("q, v, p must share the same dimension")

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
        if self.q.ndim != 2 or self.q.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"q of shape {self.q.shape} for {self.grid.n_steps} steps")
        if self.v.shape != self.q.shape or self.p.shape != self.q.shape:
            raise ValueError("q, v, p must share the same shape")

    @property
    def dim(self) -> int:
        return self.q.shape[1]

    @property
    def states(self) -> tuple[PhaseState, ...]:
        """Per-step PhaseState view, built on demand."""
        return tuple(map(PhaseState, self.q, self.v, self.p))

    def component(self, name: str) -> np.ndarray:
        """The (N+1, n) array of q, v or p."""
        return {"q": self.q, "v": self.v, "p": self.p}[name]
