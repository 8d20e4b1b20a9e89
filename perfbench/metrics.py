"""Names, units and definitions of every metric the benchmark reports.

End-to-end metrics come from untraced runs.  Per-layer metrics come from
the traced run and are derived per operation from the tracer's summary:
`.calls`, `.steps`, `.draws` and `_bytes` metrics are exact counts that
must repeat from one operation to the next; `.s` is inclusive time, and
`self_s` is time in a layer's own spans minus their child spans.  The
layers are the `frachp` modules.
"""

from __future__ import annotations

import math
import statistics

from tracer import FIELD_CALLABLES

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "1",
}

EXACT_UNITS = ("count", "bytes")


class _Op:
    """Accessors over one traced operation's summary."""

    def __init__(self, summary: dict):
        self.spans = summary["spans"]
        self.counters = summary["counters"]

    def calls(self, name: str) -> int:
        return self.spans.get(name, {}).get("calls", 0)

    def s(self, name: str) -> float:
        return self.spans.get(name, {}).get("s", 0.0)

    def own(self, name: str) -> float:
        return self.spans.get(name, {}).get("self_s", 0.0)

    def layer_self(self, layer: str) -> float:
        return sum(v["self_s"] for k, v in self.spans.items()
                   if k.startswith(layer + "."))

    def per(self, value: float, counter: str, scale: float) -> float:
        """value * scale per counted unit; 0 when the layer did no work."""
        n = self.counters.get(counter, 0)
        return value * scale / n if n else 0.0


_FIELDS = tuple(f"dynamics.{a}" for a in FIELD_CALLABLES)

# name -> (unit, span and counter names it is made of, value of one op)
PER_LAYER = {
    "integrator.integrate.calls": (
        "count", ("integrator.integrate",),
        lambda m: m.calls("integrator.integrate")),
    "integrator.integrate.self_s": (
        "s", ("integrator.integrate",),
        lambda m: m.own("integrator.integrate")),
    "integrator.steps": (
        "count", ("integrator.steps",),
        lambda m: m.counters["integrator.steps"]),
    "integrator.self_us_per_step": (
        "us", ("integrator.integrate", "integrator.steps"),
        lambda m: m.per(m.own("integrator.integrate"), "integrator.steps",
                        1e6)),
    "dynamics.field_calls": (
        "count", _FIELDS, lambda m: sum(m.calls(f) for f in _FIELDS)),
    "dynamics.fields.self_s": (
        "s", _FIELDS, lambda m: sum(m.own(f) for f in _FIELDS)),
    "dynamics.christoffel.calls": (
        "count", ("dynamics.christoffel",),
        lambda m: m.calls("dynamics.christoffel")),
    "dynamics.metric_at.calls": (
        "count", ("dynamics.metric_at",),
        lambda m: m.calls("dynamics.metric_at")),
    "dynamics.system_lagrangian.calls": (
        "count", ("dynamics.system_lagrangian",),
        lambda m: m.calls("dynamics.system_lagrangian")),
    "specfun.gamma.calls": (
        "count", ("specfun.gamma",), lambda m: m.calls("specfun.gamma")),
    "specfun.hp_noise_coefficient.calls": (
        "count", ("specfun.hp_noise_coefficient",),
        lambda m: m.calls("specfun.hp_noise_coefficient")),
    "specfun.self_s": (
        "s", ("specfun.gamma", "specfun.hp_noise_coefficient"),
        lambda m: m.layer_self("specfun")),
    "core.phase_states": (
        "count", ("core.PhaseState",), lambda m: m.calls("core.PhaseState")),
    "core.trajectories": (
        "count", ("core.Trajectory",), lambda m: m.calls("core.Trajectory")),
    "integrator.evaluate_action.calls": (
        "count", ("integrator.evaluate_action",),
        lambda m: m.calls("integrator.evaluate_action")),
    "integrator.evaluate_action.s": (
        "s", ("integrator.evaluate_action",),
        lambda m: m.s("integrator.evaluate_action")),
    "integrator.action_derivative.self_s": (
        "s", ("integrator.action_derivative",),
        lambda m: m.own("integrator.action_derivative")),
    "noise.generate_path.calls": (
        "count", ("noise.generate_path",),
        lambda m: m.calls("noise.generate_path")),
    "noise.draws": (
        "count", ("noise.draws",), lambda m: m.counters["noise.draws"]),
    "noise.generate_path.s": (
        "s", ("noise.generate_path",), lambda m: m.s("noise.generate_path")),
    "noise.coarsen.s": (
        "s", ("noise.coarsen",), lambda m: m.s("noise.coarsen")),
    "fracint.volterra_paths.s": (
        "s", ("fracint.volterra_paths",),
        lambda m: m.s("fracint.volterra_paths")),
    "fracint.ns_per_path_step": (
        "ns", ("fracint.volterra_paths", "fracint.path_steps"),
        lambda m: m.per(m.s("fracint.volterra_paths"), "fracint.path_steps",
                        1e9)),
    "cli.write_trajectory_csv.s": (
        "s", ("cli.write_trajectory_csv",),
        lambda m: m.s("cli.write_trajectory_csv")),
    "cli.csv_bytes": (
        "bytes", ("cli.csv_bytes",), lambda m: m.counters["cli.csv_bytes"]),
    "svgplot.write_orbit.s": (
        "s", ("svgplot.write_orbit",), lambda m: m.s("svgplot.write_orbit")),
    "svgplot.svg_bytes": (
        "bytes", ("svgplot.svg_bytes",),
        lambda m: m.counters["svgplot.svg_bytes"]),
    "cli.self_s": (
        "s", ("cli.main",), lambda m: m.layer_self("cli")),
    "exprsys.build_s": (
        "s", ("exprsys.build",), lambda m: m.s("exprsys.build")),
    "config.parse_config.s": (
        "s", ("config.parse_config",), lambda m: m.s("config.parse_config")),
}

# Traced minus untraced wall time of one operation; set by the run itself.
TRACE_OVERHEAD = ("trace.overhead_s", "s")


def per_layer_units() -> dict:
    units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    return units


def layer_values(summary: dict) -> dict:
    """Every per-layer metric of one traced operation."""
    op = _Op(summary)
    return {name: value(op) for name, (_, _, value) in PER_LAYER.items()}


def absent_metrics(absent_names) -> list:
    """Metrics built from a span or counter the package no longer has."""
    absent_names = set(absent_names)
    return sorted(name for name, (_, sources, _) in PER_LAYER.items()
                  if absent_names.intersection(sources))


def upper_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile above the median that has at
    least ten samples beyond it; None for runs of fewer than 40 samples.
    """
    n = len(values)
    for p in (99.0, 95.0, 90.0, 75.0):
        if math.floor(n * (1.0 - p / 100.0)) >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, math.ceil(n * p / 100.0) - 1)]
    return None


def describe(name: str, value: float, unit: str, samples) -> str:
    """One human-readable metric line with its sample count."""
    line = f"{name} = {value!r} {unit}"
    if samples is None:
        return line
    line += f"  (median of {len(samples)})"
    upper = upper_percentile(samples)
    if upper is not None:
        line += f", p{upper[0]:g} = {upper[1]!r}"
    return line


def median(values) -> float:
    return float(statistics.median(values))
