import numpy as np
import pytest

from frachp.core import (FractionalParams, PhaseState, TimeGrid, Trajectory,
                         make_grid)
from frachp.dynamics import (assemble_hp_fields, pendulum_lagrangian_system,
                             pendulum_system)
from frachp.errors import (FracHPError, GridReachesSingularity,
                           InvalidArgument, NonPositiveStep, ZeroSteps)
from frachp.fracint import (SampledFunction, VolterraCoefficients,
                            bank_account)
from frachp.integrator import (EulerRun, initial_state,
                               strong_convergence_order)
from frachp.noise import generate_path, zero_path


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
        with pytest.raises(NonPositiveStep):
            make_grid(0.0, 0.0, 10, FractionalParams(0.5, 0.5, 0.8))

    def test_zero_steps(self):
        with pytest.raises(ZeroSteps):
            TimeGrid(0.0, 0.1, 0)

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
        assert np.array_equal(traj.component("p"), [[3.0], [6.0]])


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
    "VolterraCoefficients": lambda: VolterraCoefficients(
        mu=np.full(3, 0.1), sigma=np.full(3, 0.2), x0=1.0),
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


def _convergence(levels=3, n_paths=2):
    sys = pendulum_system()
    params = FractionalParams(1.0, 1.0, 10.0)
    strong_convergence_order(assemble_hp_fields(sys, params),
                             initial_state(sys, [1.0], [0.0]), params,
                             1e-2, levels, n_paths, 0, t_end=0.32)


# Library arguments outside their domain: (call, the argument's name).
INVALID_ARGUMENTS = {
    "levels": (lambda: _convergence(levels=2), "levels"),
    "n_paths=0": (lambda: _convergence(n_paths=0), "n_paths"),
    "gamma_coupling": (lambda: pendulum_lagrangian_system("sin"),
                       "gamma_coupling"),
    "bank_account t=0": (lambda: bank_account(lambda s: 0.0, 0.0, 0.1), "t"),
    "bank_account t=nan": (lambda: bank_account(lambda s: 0.0, np.nan, 0.1),
                           "t"),
    "bank_account t=inf": (lambda: bank_account(lambda s: 0.0, np.inf, 0.1),
                           "t"),
    "x0": (lambda: VolterraCoefficients(mu=0.0, sigma=0.0, x0=-1.0), "x0"),
    "generate_path channels": (lambda: generate_path(1, 0.1, 10, 0),
                               "channels"),
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
