"""Flat key = value run configuration.

The format is deliberately minimal: one `key = value` per line, `#`
comments, no nesting.  Unknown keys are hard errors so typos never pass
silently.
"""

import dataclasses
import math
from dataclasses import dataclass, field

from .core import FractionalParams, TimeGrid
from .errors import InvalidArgument, MissingKey, ParseError, UnknownKey
from .fracint import VolterraCoefficients

# The `system` names `cli.build_system` builds -> the expression key each
# one requires, or None.
_SYSTEMS = {"pendulum": None, "metric:polar": None,
            "hamiltonian:custom": "hamiltonian_expr",
            "metric:custom": "metric_expr"}


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_vector(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_exprs(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(";") if part.strip())


@dataclass(frozen=True)
class RunConfig:
    """One run's settings.  The fields are the config schema: each is a key,
    parsed by its declared type, and required when it has no default; a
    value whose config line would not read back equal raises ParseError.
    `params` and `coeffs`, not keys, are the run's FractionalParams and
    VolterraCoefficients."""

    system: str
    alpha: float
    beta: float
    t_eval: float
    h: float = 1e-4
    n_steps: int = 7000
    seed: int = 1
    n_paths: int = 64
    q0: tuple[float, ...] = (1.0,)
    p0: tuple[float, ...] = (0.0,)
    out: str = "out"
    plot: bool = True
    eq15_literal: bool = False
    gamma: str = "cos"
    levels: int = 4
    t_end: float = 0.4
    mu: float = 0.1
    sigma: float = 0.0
    x0: float = 1.0
    dim: int = 1
    hamiltonian_expr: str = ""
    metric_expr: str = ""
    gamma_expr: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            floats = {float: (v,), tuple[float, ...]: v}.get(f.type, ())
            if not all(map(math.isfinite, floats)):
                raise ParseError(f"{f.name}={v} must be finite")
            if not _reads_back(f.type, v):
                raise ParseError(f"{f.name}={v!r} does not read back from "
                                 f"the config line it is written as")
        # The library types own the range rules of the values they hold.
        try:
            object.__setattr__(self, "params", FractionalParams(
                self.alpha, self.beta, self.t_eval))
            TimeGrid(0.0, self.h, self.n_steps)
            object.__setattr__(self, "coeffs", VolterraCoefficients(
                self.mu, self.sigma, self.x0))
        except InvalidArgument as exc:
            raise ParseError(str(exc)) from None
        if self.system not in _SYSTEMS:
            raise ParseError(f"unknown system {self.system!r}")
        key = _SYSTEMS[self.system]
        if key and not getattr(self, key):
            raise ParseError(f"{self.system} needs {key}")
        # Keys that no library type holds.
        if not self.t_end > 0.0:
            raise ParseError(f"t_end={self.t_end} must be positive")
        if self.n_paths < 1:
            raise ParseError(f"n_paths={self.n_paths} must be >= 1")
        if self.dim < 1:
            raise ParseError(f"dim={self.dim} must be >= 1")
        if self.levels < 3:
            raise ParseError(f"levels={self.levels} must be >= 3")
        if self.gamma not in ("cos", "const"):
            raise ParseError(f"gamma={self.gamma!r} must be cos or const")


# Key type -> (parse, format): its text rule, read and written.
_TYPES = {
    float: (float, str),
    int: (int, str),
    str: (str, str),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    tuple[float, ...]: (_parse_vector, lambda v: ",".join(map(str, v))),
    tuple[str, ...]: (_parse_exprs, ";".join),
}


def _reads_back(kind, value) -> bool:
    """Whether `value`, written as a config line's value by its key type's
    rule, is read back equal: one UTF-8 line with no comment and no
    surrounding whitespace, that parses to `value`."""
    parse, write = _TYPES[kind]
    try:
        text = write(value)
        text.encode("utf-8")
        return ("#" not in text and text == text.strip()
                and len(text.splitlines()) <= 1 and parse(text) == value)
    except (ValueError, TypeError):
        return False


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines into a validated RunConfig."""
    values: dict = {}
    seen: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value, "
                             f"got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELDS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ParseError(f"duplicate key {key!r} on line {seen[key]} "
                             f"and line {lineno}")
        seen[key] = lineno
        try:
            values[key] = _TYPES[_FIELDS[key].type][0](val)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}")
    for key, f in _FIELDS.items():
        if (key not in values and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise MissingKey(f"missing required key {key!r}")
    return RunConfig(**values)


def config_lines(cfg: RunConfig, extra: dict | None = None) -> str:
    """Serialize a config (plus extra entries) back to key = value text."""
    parts = [f"{key} = {_TYPES[f.type][1](getattr(cfg, key))}"
             for key, f in _FIELDS.items()]
    parts += [f"{key} = {v}" for key, v in (extra or {}).items()]
    return "\n".join(parts) + "\n"
