"""Span tracer for the traced benchmark run.

The tracer wraps public `frachp` callables from outside the package: module
functions where `cli`, `integrator`, `dynamics`, `specfun` and `fracint`
look them up by name, two class hooks in `core` and `dynamics`, and the
`SdeFields` callables that `assemble_hp_fields` returns.  Each call records
a span (name, start, end, parent) in flat in-memory arrays, and some calls
also add to a counter.  A name that a later version of the package no
longer has is reported as absent; it never stops the run.

Patches are installed around one traced operation and removed after it,
so untraced operations in the same process run the unmodified package.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _integrate_steps(args, kwargs, result):
    run = args[0] if args else kwargs["run"]
    return run.grid.n_steps


def _path_draws(args, kwargs, result):
    return np.size(result.increments)


def _volterra_path_steps(args, kwargs, result):
    n_paths, n_points = np.shape(result)
    return n_paths * (n_points - 1)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# Counter name -> what one call adds to it.
COUNTERS = {
    "integrator.steps": _integrate_steps,
    "noise.draws": _path_draws,
    "fracint.path_steps": _volterra_path_steps,
    "cli.csv_bytes": _file_bytes,
    "svgplot.svg_bytes": _file_bytes,
}

# (module, attribute, span name, counter).  One span name may be patched
# in several namespaces, because each module calls what it imported.
SPANS = (
    ("frachp.cli", "main", "cli.main", None),
    ("frachp.cli", "build_system", "cli.build_system", None),
    ("frachp.cli", "write_trajectory_csv", "cli.write_trajectory_csv",
     "cli.csv_bytes"),
    ("frachp.cli", "parse_config", "config.parse_config", None),
    ("frachp.cli", "make_grid", "core.make_grid", None),
    ("frachp.integrator", "make_grid", "core.make_grid", None),
    ("frachp.core", "PhaseState.__post_init__", "core.PhaseState", None),
    ("frachp.core", "Trajectory.__post_init__", "core.Trajectory", None),
    ("frachp.cli", "initial_state", "integrator.initial_state", None),
    ("frachp.cli", "integrate", "integrator.integrate", "integrator.steps"),
    ("frachp.integrator", "integrate", "integrator.integrate",
     "integrator.steps"),
    ("frachp.cli", "strong_convergence_order",
     "integrator.strong_convergence_order", None),
    ("frachp.cli", "stationarity_ratio", "integrator.stationarity_ratio",
     None),
    ("frachp.integrator", "random_admissible_perturbation",
     "integrator.random_admissible_perturbation", None),
    ("frachp.integrator", "action_derivative",
     "integrator.action_derivative", None),
    ("frachp.integrator", "evaluate_action", "integrator.evaluate_action",
     None),
    ("frachp.integrator", "system_lagrangian", "dynamics.system_lagrangian",
     None),
    ("frachp.integrator", "invert_legendre", "dynamics.invert_legendre",
     None),
    ("frachp.dynamics", "invert_legendre", "dynamics.invert_legendre", None),
    ("frachp.dynamics", "christoffel", "dynamics.christoffel", None),
    ("frachp.dynamics", "MetricSystem.metric_at", "dynamics.metric_at", None),
    ("frachp.dynamics", "hp_noise_coefficient",
     "specfun.hp_noise_coefficient", None),
    ("frachp.specfun", "gamma", "specfun.gamma", None),
    ("frachp.specfun", "power_kernel", "specfun.power_kernel", None),
    ("frachp.integrator", "gamma", "specfun.gamma", None),
    ("frachp.fracint", "gamma", "specfun.gamma", None),
    ("frachp.cli", "generate_path", "noise.generate_path", "noise.draws"),
    ("frachp.integrator", "generate_path", "noise.generate_path",
     "noise.draws"),
    ("frachp.cli", "zero_path", "noise.zero_path", None),
    ("frachp.cli", "spawn_substream", "noise.spawn_substream", None),
    ("frachp.integrator", "spawn_substream", "noise.spawn_substream", None),
    ("frachp.integrator", "coarsen", "noise.coarsen", None),
    ("frachp.cli", "volterra_paths", "fracint.volterra_paths",
     "fracint.path_steps"),
    ("frachp.cli", "write_orbit", "svgplot.write_orbit", "svgplot.svg_bytes"),
    ("frachp.exprsys", "metric_from_expressions", "exprsys.build", None),
    ("frachp.exprsys", "hamiltonian_from_expression", "exprsys.build", None),
)

# assemble_hp_fields returns the per-step callables; each gets a span too.
ASSEMBLE = ("frachp.cli", "assemble_hp_fields", "dynamics.assemble_hp_fields")
FIELD_CALLABLES = ("drift_q", "drift_p", "diffusion_p")


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.present: set[str] = set()   # patched at least once
        self.missing: set[str] = set()   # not found when patching
        self.broken: set[str] = set()    # found, but not of the known shape

    @property
    def absent(self) -> set[str]:
        """Span and counter names the package no longer provides."""
        return (self.missing - self.present) | self.broken

    def reset(self) -> None:
        for buf in (self.name_of, self.parent, self.start, self.end):
            del buf[:]
        del self._stack[1:]
        self.counters.update(dict.fromkeys(COUNTERS, 0))

    def wrap(self, name: str, fn, counter: str | None = None):
        """`fn` recording one span per call and adding to `counter`."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        measure = COUNTERS.get(counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if measure is not None:
                try:
                    counters[counter] += int(measure(args, kwargs, result))
                except (AttributeError, TypeError, KeyError, IndexError,
                        ValueError, OSError):
                    self.broken.add(counter)
            return result

        return traced

    def _wrap_fields(self, fields):
        try:
            traced = dataclasses.replace(fields, **{
                attr: self.wrap(f"dynamics.{attr}", getattr(fields, attr))
                for attr in FIELD_CALLABLES})
        except (TypeError, AttributeError):
            self.broken.update(f"dynamics.{a}" for a in FIELD_CALLABLES)
            return fields
        return traced

    def _traced_assemble(self, name: str, fn, counter: str | None = None):
        def assemble(*args, **kwargs):
            return self._wrap_fields(fn(*args, **kwargs))
        return self.wrap(name, functools.wraps(fn)(assemble))

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        self.reset()
        undo = []
        targets = [(*span, self.wrap) for span in SPANS]
        targets.append((*ASSEMBLE, None, self._traced_assemble))
        try:
            for module, attr, name, counter, make in targets:
                owner_path, _, leaf = attr.rpartition(".")
                try:
                    owner = importlib.import_module(module)
                    for part in filter(None, owner_path.split(".")):
                        owner = getattr(owner, part)
                    # A class attribute is restored as the raw object.
                    original = (vars(owner)[leaf] if isinstance(owner, type)
                                else getattr(owner, leaf))
                except (ImportError, AttributeError, KeyError):
                    self.missing.update(filter(None, (name, counter)))
                    continue
                setattr(owner, leaf, make(name, original, counter))
                undo.append((owner, leaf, original))
                self.present.update(filter(None, (name, counter)))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def span_arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover.  Inclusive time leaves out spans directly nested in a span
        of the same name (recursion), so no interval is counted twice.
        """
        spans = self.span_arrays()
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        nested = has_parent & (name[np.maximum(parent, 0)] == name)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name[~nested], weights=dur[~nested],
                            minlength=n_names)
        own = np.bincount(name, weights=dur - child, minlength=n_names)
        return {"spans": {n: {"calls": int(calls[i]), "s": float(total[i]),
                              "self_s": float(own[i])}
                          for i, n in enumerate(self.names)},
                "counters": dict(self.counters)}
