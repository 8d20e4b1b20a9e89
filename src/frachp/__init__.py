"""frachp: stochastic fractional Hamilton-Pontryagin / Langevin simulation.

The public names load on first use (PEP 562): `frachp.integrate` imports
`frachp.integrator` the first time it is read, and `import frachp` alone
imports no submodule.  So `import frachp.cli` compiles only the modules
the CLI imports itself, and `frachp volterra` none of the Euler ones.
"""

import importlib

__version__ = "0.1.0"

# Owner module -> the public names it defines.  Each module's own name is
# public too.
_EXPORTS = {
    "core": ("FractionalParams", "PhaseState", "TimeGrid", "Trajectory",
             "make_grid"),
    "dynamics": ("HamiltonianSystem", "LagrangianSystem", "MetricSystem",
                 "NoiseCoupling", "SdeFields", "assemble_hp_fields",
                 "christoffel", "invert_legendre", "legendre_transform",
                 "pendulum_lagrangian_system", "pendulum_system",
                 "polar_metric_system"),
    "errors": (),
    "fracint": ("SampledFunction", "VolterraCoefficients",
                "fractional_wiener_integral", "rl_integral",
                "volterra_paths"),
    "integrator": ("EulerRun", "action_derivative", "evaluate_action",
                   "initial_state", "integrate", "integrate_paths",
                   "random_admissible_perturbation", "stationarity_ratio",
                   "strong_convergence_order"),
    "noise": ("WienerPath", "coarsen", "generate_path", "generate_paths",
              "spawn_substream", "zero_path"),
    "specfun": ("gamma", "hp_noise_coefficient", "power_kernel",
                "step_weights"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in (module, *names)}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the owner of a public name and bind the name here."""
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    module = importlib.import_module(f"{__package__}.{owner}")
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
