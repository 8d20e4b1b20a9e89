import ast
import builtins
import importlib
import pathlib
import typing

import numpy as np
import pytest

import frachp
from frachp.core import (FractionalParams, PhaseState, TimeGrid, Trajectory,
                         make_grid)
from frachp.dynamics import (NoiseCoupling, assemble_hp_fields,
                             pendulum_lagrangian_system, pendulum_system)
from frachp.errors import (FracHPError, GridReachesSingularity,
                           InvalidArgument)
from frachp.fracint import (SampledFunction, VolterraCoefficients,
                            fractional_wiener_integral, rl_integral)
from frachp.integrator import (EulerRun, initial_state, integrate,
                               random_admissible_perturbation,
                               stationarity_ratio, strong_convergence_order)
from frachp.noise import coarsen, generate_path, spawn_substream, zero_path
from frachp.specfun import gamma, power_kernel


class TestFractionalParams:
    def test_reference_values(self):
        p = FractionalParams(0.6, 0.3, 0.8)
        assert p.alpha == 0.6 and p.beta == 0.3

    def test_classical_endpoint_allowed(self):
        FractionalParams(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.1, 0.5),
                                            (0.5, 0.0), (0.5, -0.2)])
    def test_orders_outside_unit_interval(self, alpha, beta):
        with pytest.raises(ValueError):
            FractionalParams(alpha, beta, 1.0)

    def test_t_eval_positive(self):
        with pytest.raises(ValueError):
            FractionalParams(0.5, 0.5, 0.0)

    @pytest.mark.parametrize("t_eval", [np.inf, np.nan])
    def test_t_eval_finite(self, t_eval):
        # inf used to pass: t_eval - 10 h is inf, so no grid met the guard.
        with pytest.raises(InvalidArgument, match=f"t_eval={t_eval}"):
            FractionalParams(0.6, 0.3, t_eval)


class TestMakeGrid:
    def test_reference_grid(self):
        params = FractionalParams(0.6, 0.3, 0.8)
        grid = make_grid(0.0, 0.0001, 7000, params)
        assert grid.t_end == pytest.approx(0.7)
        assert grid.t_end < 0.8

    def test_single_step(self):
        grid = make_grid(0.0, 0.1, 1, FractionalParams(0.5, 0.5, 10.0))
        assert grid.points.tolist() == pytest.approx([0.0, 0.1])

    def test_guard_violation(self):
        with pytest.raises(GridReachesSingularity):
            make_grid(0.0, 0.1, 9, FractionalParams(0.5, 0.5, 0.8))

    def test_nonpositive_step(self):
        with pytest.raises(InvalidArgument, match="^h=0.0 "):
            make_grid(0.0, 0.0, 10, FractionalParams(0.5, 0.5, 0.8))

    def test_zero_steps(self):
        with pytest.raises(InvalidArgument, match="^n_steps=0 "):
            TimeGrid(0.0, 0.1, 0)

    @pytest.mark.parametrize("args, name", [
        ((0.0, np.nan, 10), "h=nan"),
        ((0.0, np.inf, 10), "h=inf"),
        ((np.nan, 1e-3, 10), "t_start=nan"),
        ((-np.inf, 1e-3, 10), "t_start=-inf"),
        ((0.0, 1e-3, 2.5), "n_steps=2.5"),
        ((0.0, 1e-3, 10.0), "n_steps=10.0"),
    ], ids=["h-nan", "h-inf", "t_start-nan", "t_start-inf", "n_steps-half",
            "n_steps-float"])
    def test_non_finite_or_fractional_grid_rejected(self, args, name):
        # Each used to be accepted: nan <= 0.0 and 2.5 < 1 are False.
        with pytest.raises(InvalidArgument, match=name):
            TimeGrid(*args)

    def test_numpy_integer_steps_accepted(self):
        assert TimeGrid(0.0, 0.1, np.int64(3)).points.shape == (4,)

    def test_nan_start_fails_before_the_guard(self):
        # make_grid(nan, ...) used to pass check_singularity_guard, since
        # nan > t_eval - 10 h is False.
        with pytest.raises(InvalidArgument, match="t_start=nan"):
            make_grid(np.nan, 1e-4, 100, FractionalParams(0.6, 0.3, 0.8))

    def test_overflowing_end_fails_the_guard(self):
        # t_end = 10 * 1e308 is inf, past any t_eval.
        with pytest.raises(GridReachesSingularity):
            make_grid(0.0, 1e308, 10, FractionalParams(0.6, 0.3, 0.8))

    def test_points_are_direct_formula(self):
        grid = TimeGrid(0.3, 1e-4, 7000)
        # point N must be one rounding of t_start + N*h, no accumulation
        assert grid.point(7000) == 0.3 + 7000 * 1e-4
        assert grid.points[-1] == grid.point(7000)


class TestPhaseState:
    def test_dimension_check(self):
        with pytest.raises(ValueError):
            PhaseState([1.0], [1.0, 2.0], [1.0])

    def test_scalar_promotes_to_vector(self):
        s = PhaseState(1.0, 2.0, 3.0)
        assert s.dim == 1

    def test_immutable_arrays(self):
        s = PhaseState([1.0], [2.0], [3.0])
        with pytest.raises(ValueError):
            s.q[0] = 9.0


class TestTrajectory:
    def test_length_invariant(self):
        grid = TimeGrid(0.0, 0.1, 2)
        z = np.zeros((3, 1))
        Trajectory(grid, z, z, z)
        with pytest.raises(ValueError):
            Trajectory(grid, z[:2], z[:2], z[:2])

    def test_dimension_constant(self):
        grid = TimeGrid(0.0, 0.1, 1)
        with pytest.raises(ValueError):
            Trajectory(grid, np.zeros((2, 1)), np.zeros((2, 2)),
                       np.zeros((2, 1)))

    def test_component_stacking(self):
        grid = TimeGrid(0.0, 0.1, 1)
        traj = Trajectory(grid, [[1.0], [4.0]], [[2.0], [5.0]],
                          [[3.0], [6.0]])
        assert np.array_equal(traj.p, [[3.0], [6.0]])


def _euler_run():
    params = FractionalParams(0.6, 0.3, 0.8)
    sys = pendulum_system()
    return EulerRun(assemble_hp_fields(sys, params),
                    make_grid(0.0, 0.01, 5, params),
                    generate_path(1, 0.01, 5, 1),
                    initial_state(sys, [1.0], [0.0]), params)


ARRAY_HOLDERS = {
    "WienerPath": lambda: generate_path(1, 0.1, 5, 1),
    "PhaseState": lambda: PhaseState([1.0, 2.0], [3.0, 4.0], [5.0, 6.0]),
    "Trajectory": lambda: Trajectory(TimeGrid(0.0, 0.1, 2),
                                     *np.ones((3, 3, 2))),
    "EulerRun": _euler_run,
    "SampledFunction": lambda: SampledFunction(TimeGrid(0.0, 0.1, 2),
                                               [1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(),
                         ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(build):
    # A generated field-wise __eq__ would ask numpy for the truth value of
    # an array comparison and raise.
    a, b = build(), build()
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a)


def _ones():
    return SampledFunction(TimeGrid(0.0, 0.1, 5), np.ones(6))


def _wiener(beta=0.5, t=1.0, channel=0):
    return fractional_wiener_integral(_ones(), beta, t,
                                      generate_path(1, 0.1, 5, 2), channel)


def _stationarity(n_perturbations):
    run = _euler_run()
    return stationarity_ratio(integrate(run), run.fields.system, run.params,
                              run.path, n_perturbations)


def _perturbation(dim=1, seed=0):
    return random_admissible_perturbation(TimeGrid(0.0, 0.1, 10), dim, seed)


def _convergence(levels=3, n_paths=2):
    sys = pendulum_system()
    params = FractionalParams(1.0, 1.0, 10.0)
    strong_convergence_order(assemble_hp_fields(sys, params),
                             initial_state(sys, [1.0], [0.0]),
                             1e-2, levels, n_paths, 0, t_end=0.32)


# Library arguments outside their domain: (call, the argument's name).
INVALID_ARGUMENTS = {
    "levels": (lambda: _convergence(levels=2), "levels"),
    "n_paths=0": (lambda: _convergence(n_paths=0), "n_paths"),
    "levels=3.5": (lambda: _convergence(levels=3.5), "levels"),
    "n_paths=1.5": (lambda: _convergence(n_paths=1.5), "n_paths"),
    "gamma_coupling": (lambda: pendulum_lagrangian_system("sin"),
                       "gamma_coupling"),
    "rl_integral t=nan": (lambda: rl_integral(_ones(), 0.5, np.nan), "t"),
    "rl_integral t=inf": (lambda: rl_integral(_ones(), 0.5, np.inf), "t"),
    "rl_integral beta": (lambda: rl_integral(_ones(), 1.5, 1.0), "beta"),
    "wiener_integral t=nan": (lambda: _wiener(t=np.nan), "t"),
    "wiener_integral beta": (lambda: _wiener(beta=0.0), "beta"),
    "wiener_integral channel=2": (lambda: _wiener(channel=2), "channel"),
    "wiener_integral channel=0.5": (lambda: _wiener(channel=0.5), "channel"),
    "x0": (lambda: VolterraCoefficients(mu=0.0, sigma=0.0, x0=-1.0), "x0"),
    "x0=inf": (lambda: VolterraCoefficients(mu=0.0, sigma=0.0, x0=np.inf),
               "x0"),
    "mu negative": (lambda: VolterraCoefficients(mu=-1.0, sigma=0.2, x0=1.0),
                    "mu"),
    "mu=nan": (lambda: VolterraCoefficients(mu=np.nan, sigma=0.2, x0=1.0),
               "mu"),
    "sigma=inf": (lambda: VolterraCoefficients(mu=0.1, sigma=np.inf, x0=1.0),
                  "sigma"),
    "sigma=nan": (lambda: VolterraCoefficients(mu=0.1, sigma=np.nan, x0=1.0),
                  "sigma"),
    "TimeGrid h": (lambda: TimeGrid(0.0, -0.1, 10), "h"),
    "TimeGrid n_steps": (lambda: TimeGrid(0.0, 0.1, 0), "n_steps"),
    "gamma x": (lambda: gamma(-1.3), "x"),
    "power_kernel t": (lambda: power_kernel(0.5, 0.7, -0.3), "t"),
    "power_kernel t=nan": (lambda: power_kernel(np.nan, 0.0, -0.3), "t"),
    "generate_path seed": (lambda: generate_path(1.5, 0.1, 4), "seed"),
    "generate_path channels": (lambda: generate_path(1, 0.1, 10, 0),
                               "channels"),
    "spawn_substream seed": (lambda: spawn_substream(1.5, 0), "seed"),
    "spawn_substream index": (lambda: spawn_substream(1, 0.5), "index"),
    "coarsen factor": (lambda: coarsen(generate_path(1, 0.1, 10), 3),
                       "factor"),
    "NoiseCoupling gamma": (lambda: NoiseCoupling((np.cos,), ()), "gamma"),
    "n_perturbations": (lambda: _stationarity(0), "n_perturbations"),
    "n_perturbations=1.5": (lambda: _stationarity(1.5), "n_perturbations"),
    "perturbation dim=0": (lambda: _perturbation(dim=0), "dim"),
    "perturbation dim=-1": (lambda: _perturbation(dim=-1), "dim"),
    "perturbation dim=1.5": (lambda: _perturbation(dim=1.5), "dim"),
    "perturbation seed=2.7": (lambda: _perturbation(seed=2.7), "seed"),
    "perturbation seed=True": (lambda: _perturbation(seed=True), "seed"),
    "zero_path channels=0": (lambda: zero_path(0.1, 10, 0), "channels"),
    "zero_path channels=-1": (lambda: zero_path(0.1, 10, -1), "channels"),
    "FractionalParams alpha": (lambda: FractionalParams(0.0, 0.5, 1.0),
                               "alpha"),
    "FractionalParams beta": (lambda: FractionalParams(0.5, 1.1, 1.0),
                              "beta"),
    "FractionalParams t_eval": (lambda: FractionalParams(0.5, 0.5, 0.0),
                                "t_eval"),
    "PhaseState 2-d q": (lambda: PhaseState([[1.0]], [1.0], [1.0]), "q"),
    "PhaseState v": (lambda: PhaseState([1.0], [1.0, 2.0], [1.0]), "v"),
    "PhaseState p": (lambda: PhaseState([1.0], [1.0], [1.0, 2.0]), "p"),
    "Trajectory q rows": (lambda: Trajectory(TimeGrid(0.0, 0.1, 2),
                                             *[np.zeros((2, 1))] * 3), "q"),
    "Trajectory v shape": (lambda: Trajectory(
        TimeGrid(0.0, 0.1, 1), np.zeros((2, 1)), np.zeros((2, 2)),
        np.zeros((2, 1))), "v"),
}


@pytest.mark.parametrize("call, name", INVALID_ARGUMENTS.values(),
                         ids=INVALID_ARGUMENTS.keys())
def test_invalid_argument_is_a_frachp_error(call, name):
    with pytest.raises(InvalidArgument, match=f"^{name}=") as exc:
        call()
    assert isinstance(exc.value, FracHPError)
    assert isinstance(exc.value, ValueError)


# The only raises of an error outside the hierarchy, as (module, function,
# class): parse_config turns _parse_bool's ValueError into a ParseError,
# _formulation's TypeError is a caller passing a non-system object, and a
# module __getattr__ must raise AttributeError for an unknown name (PEP
# 562), which hasattr and `from frachp import fracint` rely on.
RAISES_OUTSIDE_HIERARCHY = {("config", "_parse_bool", "ValueError"),
                            ("dynamics", "_formulation", "TypeError"),
                            ("__init__", "__getattr__", "AttributeError"),
                            ("cli", "__getattr__", "AttributeError")}


def _raise_calls(node, where):
    """(innermost enclosing function, called name) of each `raise C(...)`
    under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else where
        if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
            yield inner, child.exc.func.id
        yield from _raise_calls(child, inner)


def _raised_classes():
    """(module, function, class) of every `raise C(...)` in frachp; for a
    helper that builds the error, its return type is the class."""
    for path in sorted(pathlib.Path(frachp.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"frachp.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, name in _raise_calls(tree, "<module>"):
            called = getattr(module, name, None) or getattr(builtins, name)
            if not isinstance(called, type):
                called = typing.get_type_hints(called)["return"]
            yield path.stem, where, called


def test_every_raised_error_is_in_the_hierarchy():
    seen = set()
    for module, where, cls in _raised_classes():
        if not issubclass(cls, Exception):
            continue  # SystemExit: the CLI's exit status, not an error
        site = (module, where, cls.__name__)
        if site in RAISES_OUTSIDE_HIERARCHY:
            seen.add(site)
        else:
            assert issubclass(cls, FracHPError), site
    assert seen == RAISES_OUTSIDE_HIERARCHY
