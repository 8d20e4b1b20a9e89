"""frachp: stochastic fractional Hamilton-Pontryagin / Langevin simulation."""

__version__ = "0.1.0"

from .core import FractionalParams, PhaseState, TimeGrid, Trajectory, make_grid
from .dynamics import (HamiltonianSystem, LagrangianSystem, MetricSystem,
                       NoiseCoupling, SdeFields, assemble_hp_fields,
                       christoffel, invert_legendre, legendre_transform,
                       pendulum_lagrangian_system, pendulum_system,
                       polar_metric_system)
from .fracint import (SampledFunction, VolterraCoefficients,
                      fractional_wiener_integral, rl_integral, volterra_paths)
from .integrator import (EulerRun, action_derivative, evaluate_action,
                         initial_state, integrate, integrate_paths,
                         random_admissible_perturbation, stationarity_ratio,
                         strong_convergence_order)
from .noise import (WienerPath, coarsen, generate_path, spawn_substream,
                    zero_path)
from .specfun import (gamma, hp_noise_coefficient, power_kernel,
                      step_weights)

__all__ = [name for name in dir() if not name.startswith("_")]
