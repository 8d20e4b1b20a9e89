import math
import re

import numpy as np
import pytest

from frachp.core import (FractionalParams, PhaseState, TimeGrid, Trajectory,
                         make_grid)
from frachp.dynamics import (HamiltonianSystem, LagrangianSystem,
                             MetricSystem, NoiseCoupling, SdeFields,
                             assemble_hp_fields, complete_state,
                             invert_legendre,
                             legendre_transform, pendulum_lagrangian_system,
                             pendulum_system, polar_metric_system,
                             system_lagrangian)
from frachp.errors import (BatchShapeError, BoundaryViolation, GridMismatch,
                           GridReachesSingularity, IndivisibleFactor,
                           NoConvergence, NotApplicable, NotPositiveDefinite,
                           NumericalBlowup)
from frachp.exprsys import (hamiltonian_from_expression,
                            metric_from_expressions)
from frachp.integrator import (EulerRun, action_derivative, evaluate_action,
                               initial_state, integrate, integrate_paths,
                               random_admissible_perturbation,
                               stationarity_ratio, strong_convergence_order)
from frachp.noise import generate_path, zero_path
from frachp.specfun import step_weights

from ._reference import action_reference, rk4_terminal

CLASSICAL = FractionalParams(1.0, 1.0, 10.0)
REFERENCE = FractionalParams(0.6, 0.3, 0.8)


def pendulum_run(params, h, n, path=None, gamma="cos", q0=1.0, p0=0.0):
    sys = pendulum_system(gamma_coupling=gamma)
    fields = assemble_hp_fields(sys, params)
    grid = make_grid(0.0, h, n, params)
    if path is None:
        path = zero_path(h, n, 1)
    init = initial_state(sys, [q0], p0=[p0])
    return sys, fields, EulerRun(fields, grid, path, init, params)


def step_at(fields, s, q, v, p, h, inc):
    """fields.step at time s, as a PhaseState."""
    return PhaseState(*fields.step(q, v, p, h, fields.damping(s),
                                   fields.noise_scale(s), np.asarray(inc)))


def drift_only_fields(drift):
    """Hand-built pendulum fields whose step moves p (and v = p) by
    h * drift(p) alone."""

    def step(q, v, p, h, damp, coef, inc):
        p = p + h * drift(p)
        return q, p, p

    return SdeFields(
        step=step, drift_q=lambda s, q, y: np.zeros_like(y),
        drift_p=lambda s, q, y: drift(y),
        diffusion_p=lambda s, q: np.zeros(np.shape(q) + (1,)),
        damping=lambda s: 0.0, noise_scale=lambda s: 1.0,
        system=pendulum_system(), params=CLASSICAL)


def _fd_pendulum_lagrangian():
    sys = pendulum_lagrangian_system()
    return LagrangianSystem(1, sys.lagrangian, sys.noise)


# (system, eq15_literal, q, x, and which of v and p are y and x).
STEP_CASES = {
    "hamiltonian": (pendulum_system, False, [1.0], [0.4], "pp"),
    "hamiltonian:custom": (
        lambda: hamiltonian_from_expression("p1**2/2 + cos(q1)",
                                            ["cos(q1)"], 1),
        False, [1.0], [0.4], "pp"),
    "lagrangian": (pendulum_lagrangian_system, False, [1.0], [0.4], "vp"),
    "lagrangian-fd": (_fd_pendulum_lagrangian, False, [1.0], [0.4], "vp"),
    "metric": (polar_metric_system, False, [1.5, 0.2], [0.3, -0.4], "vv"),
    "metric:custom": (
        lambda: metric_from_expressions([["1", "0"], ["0", "q1**2"]],
                                        ["cos(q2)"], 2),
        False, [1.5, 0.2], [0.3, -0.4], "vv"),
    "eq15_literal": (polar_metric_system, True, [1.5, 0.2], [0.3, -0.4],
                     "vv"),
}


class TestEulerStep:
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("case", list(STEP_CASES))
    def test_step_is_the_euler_formula_bitwise(self, case, stack):
        make, literal, q0, x0, (y_name, x_name) = STEP_CASES[case]
        sys = make()
        fields = assemble_hp_fields(sys, REFERENCE, eq15_literal=literal)
        s, h = 0.1, 0.0371
        q, x0 = np.array(q0), np.array(x0)
        inc = np.array([0.173])
        if stack:
            q = np.stack([q, 1.1 * q])
            x0 = np.stack([x0, -0.5 * x0])
            inc = np.array([[0.173], [-0.291]])
        v, p = complete_state(sys, q, x0)
        y, x = ({"v": v, "p": p}[c] for c in (y_name, x_name))
        damp, coef = fields.damping(s), fields.noise_scale(s)
        q_new = q + h * fields.drift_q(s, q, y)
        x_new = (x + h * fields.drift_p(s, q, y)
                 + (fields.diffusion_p(s, q) @ inc[..., None])[..., 0])
        want = (q_new, *complete_state(sys, q_new, x_new))
        got = fields.step(q, v, p, h, damp, coef, inc)
        for a, b in zip(got, want):
            assert a.shape == q.shape
            assert np.array_equal(a, b)

    def test_hand_evaluated_pendulum_step(self):
        # alpha = beta = 1, x = 1, y = 0, h = 0.1, G = 0.05:
        # x' = 1, y' = 0.1 sin(1) - sin(1) * 0.05 = 0.0420735...
        sys = pendulum_system()
        fields = assemble_hp_fields(sys, CLASSICAL)
        q, v, p = np.array([1.0]), np.array([0.0]), np.array([0.0])
        out = step_at(fields, 0.0, q, v, p, 0.1, [0.05])
        assert out.q[0] == pytest.approx(1.0)
        assert out.p[0] == pytest.approx(0.1 * math.sin(1.0)
                                         - math.sin(1.0) * 0.05, rel=1e-12)
        assert out.p[0] == pytest.approx(0.0420735, rel=1e-5)

    def test_zero_fields_leave_state_unchanged(self):
        # H with vanishing gradients and a constant coupling: the step
        # formula runs, and every term it adds is zero.
        sys = HamiltonianSystem(
            1, lambda q, p: np.zeros(np.shape(q)[:-1]),
            NoiseCoupling.constant([1.0]),
            grad_q=lambda q, p: np.zeros(np.shape(q)),
            grad_p=lambda q, p: np.zeros(np.shape(p)))
        fields = assemble_hp_fields(sys, CLASSICAL)
        q, v, p = np.array([1.0]), np.array([0.0]), np.array([0.5])
        out = step_at(fields, 0.0, q, v, p, 0.1, [0.3])
        assert out.q[0] == 1.0 and out.p[0] == 0.5 and out.v[0] == 0.0

    def test_zero_increment_is_deterministic_euler(self):
        sys = pendulum_system()
        fields = assemble_hp_fields(sys, CLASSICAL)
        q, v, p = np.array([1.0]), np.array([0.7]), np.array([0.7])
        out = step_at(fields, 0.0, q, v, p, 0.01, [0.0])
        assert out.q[0] == pytest.approx(1.0 + 0.01 * 0.7)
        assert out.p[0] == pytest.approx(0.7 + 0.01 * math.sin(1.0))

    def test_lagrangian_route_matches_hamiltonian(self):
        lsys = pendulum_lagrangian_system()
        hsys = pendulum_system()
        fl = assemble_hp_fields(lsys, REFERENCE)
        fh = assemble_hp_fields(hsys, REFERENCE)
        q, v, p = np.array([1.0]), np.array([0.4]), np.array([0.4])
        g = [0.02]
        a = step_at(fl, 0.1, q, v, p, 1e-3, g)
        b = step_at(fh, 0.1, q, v, p, 1e-3, g)
        assert np.allclose(a.q, b.q, rtol=1e-12)
        assert np.allclose(a.p, b.p, rtol=1e-12)
        assert np.allclose(a.v, b.v, atol=1e-10)


class TestIntegrate:
    def test_reference_parameter_run_is_finite(self):
        path = generate_path(1, 1e-4, 7000, 1)
        _, _, run = pendulum_run(REFERENCE, 1e-4, 7000, path)
        traj = integrate(run)
        assert len(traj.states) == 7001
        assert np.all(np.isfinite(traj.component("p")))

    def test_bitwise_determinism(self):
        path = generate_path(42, 1e-3, 500, 1)
        _, _, run1 = pendulum_run(REFERENCE, 1e-3, 500, path)
        _, _, run2 = pendulum_run(REFERENCE, 1e-3, 500, path)
        a, b = integrate(run1), integrate(run2)
        assert np.array_equal(a.component("p"), b.component("p"))
        assert np.array_equal(a.component("q"), b.component("q"))

    def test_momentum_constraint_along_trajectory(self):
        # p = dL/dv = v for the pendulum at every accepted sample
        path = generate_path(3, 1e-3, 500, 1)
        _, _, run = pendulum_run(REFERENCE, 1e-3, 500, path)
        traj = integrate(run)
        assert np.allclose(traj.component("p"), traj.component("v"),
                           atol=1e-10)

    def test_first_step_q_ignores_noise(self):
        pa = generate_path(1, 1e-3, 500, 1)
        pb = generate_path(2, 1e-3, 500, 1)
        _, _, ra = pendulum_run(REFERENCE, 1e-3, 500, pa)
        _, _, rb = pendulum_run(REFERENCE, 1e-3, 500, pb)
        ta, tb = integrate(ra), integrate(rb)
        assert ta.states[1].q[0] == tb.states[1].q[0]
        assert ta.states[1].p[0] != tb.states[1].p[0]

    @pytest.mark.parametrize("drift", [1e15, np.nan], ids=["huge", "nan"])
    def test_blowup_reports_step(self, drift):
        fields = drift_only_fields(lambda p: np.full(np.shape(p), drift))
        grid = make_grid(0.0, 0.1, 5, CLASSICAL)
        run = EulerRun(fields, grid, zero_path(0.1, 5, 1),
                       PhaseState([0.0], [0.0], [0.0]), CLASSICAL)
        with pytest.raises(NumericalBlowup) as exc:
            integrate(run)
        assert exc.value.step == 1

    def test_blowup_carries_last_state(self):
        # p grows by h per step until the drift turns NaN at s = 0.3, so
        # path 1 (p0 = 1) fails at step 4 from its state at step 3.
        fields = drift_only_fields(lambda p: np.where(p > 1.25, np.nan, 1.0))
        grid = make_grid(0.0, 0.1, 8, CLASSICAL)
        runs = [EulerRun(fields, grid, zero_path(0.1, 8, 1),
                         PhaseState([q0], [p0], [p0]), CLASSICAL)
                for q0, p0 in ((0.5, 0.0), (2.0, 1.0))]
        with pytest.raises(NumericalBlowup) as exc:
            integrate_paths(runs)
        err = exc.value
        assert (err.step, err.path, err.component) == (4, 1, "p")
        q, p, v = err.last_state
        assert q.tolist() == [2.0]
        assert p.tolist() == v.tolist() == [1.0 + 0.1 + 0.1 + 0.1]
        assert np.isfinite(np.concatenate(err.last_state)).all()

    @pytest.mark.parametrize("c", ["q", "p", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e13])
    def test_nonfinite_initial_state_rejected(self, c, bad):
        sys, fields, run = pendulum_run(CLASSICAL, 0.1, 5)
        state = {"q": [1.0], "p": [0.0], "v": [0.0], c: [bad]}
        with pytest.raises(NumericalBlowup, match=f"initial {c}") as exc:
            EulerRun(fields, run.grid, run.path,
                     PhaseState(state["q"], state["v"], state["p"]),
                     CLASSICAL)
        assert (exc.value.step, exc.value.component) == (0, c)

    def test_raw_grid_reaching_t_eval_rejected(self):
        # A TimeGrid built directly skips make_grid; EulerRun still guards.
        params = FractionalParams(0.6, 0.3, 1.0)
        sys = pendulum_system()
        grid = TimeGrid(0.0, 0.1, 10)
        with pytest.raises(GridReachesSingularity):
            EulerRun(assemble_hp_fields(sys, params), grid,
                     zero_path(0.1, 10, 1),
                     initial_state(sys, [1.0], p0=[0.0]), params)

    def test_run_params_must_match_fields(self):
        # Fields at t_eval = 0.80005 would let the kernels reach their
        # singularity 500 steps before the end of a grid checked against
        # t_eval = 10.
        sys = pendulum_system()
        fields = assemble_hp_fields(sys, FractionalParams(0.6, 0.6, 0.80005))
        run_params = FractionalParams(0.6, 0.6, 10.0)
        grid = make_grid(0.0, 1e-4, 8500, run_params)
        with pytest.raises(GridMismatch,
                           match=r"t_eval=10\.0.*t_eval=0\.80005"):
            EulerRun(fields, grid, zero_path(1e-4, 8500, 1),
                     initial_state(sys, [1.0], p0=[0.0]), run_params)

    def test_mismatched_path_rejected(self):
        sys = pendulum_system()
        fields = assemble_hp_fields(sys, CLASSICAL)
        grid = make_grid(0.0, 1e-3, 100, CLASSICAL)
        with pytest.raises(GridMismatch):
            EulerRun(fields, grid, zero_path(1e-3, 99, 1),
                     initial_state(sys, [1.0], p0=[0.0]), CLASSICAL)


class TestStrongConvergence:
    def test_deterministic_euler_order_one(self):
        sys = pendulum_system(gamma_coupling="const")
        fields = assemble_hp_fields(sys, CLASSICAL)
        init = initial_state(sys, [1.0], p0=[0.0])
        slope = strong_convergence_order(fields, init, CLASSICAL,
                                         base_h=2e-4, levels=4, n_paths=1,
                                         seed=0, t_end=0.4)
        # Self-referencing against the finest Euler level inflates the
        # fitted slope above the ideal 1 (error ~ h - h_ref), so accept a
        # window around [1, log2(3)] rather than exactly 1.
        assert 0.85 <= slope <= 1.7

    def test_degenerate_fields_not_applicable(self):
        fields = drift_only_fields(np.zeros_like)
        with pytest.raises(NotApplicable):
            strong_convergence_order(fields,
                                     PhaseState([0.0], [0.0], [0.0]),
                                     CLASSICAL, base_h=1e-2, levels=3,
                                     n_paths=2, seed=0, t_end=0.32)

    def test_levels_validation(self):
        sys = pendulum_system()
        fields = assemble_hp_fields(sys, CLASSICAL)
        init = initial_state(sys, [1.0], p0=[0.0])
        with pytest.raises(ValueError):
            strong_convergence_order(fields, init, CLASSICAL, 1e-3, 2, 4, 0,
                                     t_end=0.4)


    @pytest.mark.parametrize("t_end", [0.40009, 0.4 + 1e-4, math.inf,
                                       math.nan])
    def test_t_end_off_the_grid_rejected(self, t_end):
        # 0.40009 / 2e-4 = 2000.45 steps used to run to 0.4 unannounced.
        sys = pendulum_system()
        fields = assemble_hp_fields(sys, CLASSICAL)
        init = initial_state(sys, [1.0], p0=[0.0])
        with pytest.raises(IndivisibleFactor,
                           match=rf"t_end = {t_end!r}.*levels = 4"):
            strong_convergence_order(fields, init, CLASSICAL, 2e-4, 4, 1, 0,
                                     t_end=t_end)


class TestReferenceAgreement:
    def test_euler_error_linear_in_h(self):
        sys = pendulum_system(gamma_coupling="const")
        fields = assemble_hp_fields(sys, CLASSICAL)
        init = initial_state(sys, [1.0], p0=[0.0])
        q_ref, p_ref = rk4_terminal(fields, [1.0], [0.0], 0.0, 0.5, 2000)
        errs = []
        for h, n in ((2e-3, 250), (1e-3, 500)):
            grid = make_grid(0.0, h, n, CLASSICAL)
            traj = integrate(EulerRun(fields, grid, zero_path(h, n, 1),
                                      init, CLASSICAL))
            term = traj.states[-1]
            errs.append(abs(term.q[0] - q_ref[0]) + abs(term.p[0] - p_ref[0]))
        assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.25)


class TestAction:
    def test_all_zero_action(self):
        import frachp.dynamics as dyn
        sys = dyn.LagrangianSystem(
            1, lambda q, v: 0.0, NoiseCoupling.constant([0.0]),
            grad_q=lambda q, v: np.zeros(1),
            grad_v=lambda q, v: np.zeros(1),
            v_hessian=lambda q, v: np.eye(1))
        grid = make_grid(0.0, 0.01, 50, CLASSICAL)
        zero = np.zeros((51, 1))
        traj = Trajectory(grid, zero, zero, zero)
        path = generate_path(1, 0.01, 50, 1)
        assert evaluate_action(traj, sys, CLASSICAL, path) == 0.0

    def test_weights_taken_once_per_grid(self, monkeypatch):
        import frachp.integrator as integ
        calls = []

        def counted(*args):
            calls.append(args)
            return step_weights(*args)

        monkeypatch.setattr(integ, "step_weights", counted)
        integ._action_weights.cache_clear()
        sys, _, run = pendulum_run(REFERENCE, 1e-3, 200)
        traj = integrate(run)
        path = zero_path(1e-3, 200, 1)
        first = evaluate_action(traj, sys, REFERENCE, path)
        assert evaluate_action(traj, sys, REFERENCE, path) == first
        assert len(calls) == 1
        w = integ._action_weights(run.grid, REFERENCE.t_eval,
                                  REFERENCE.alpha)
        assert not w.flags.writeable

    def test_path_channels_must_match_the_noise(self):
        # A 2-channel path against the 1-coupling pendulum used to
        # broadcast (N, 1) * (N, 2) into an action of -1.2036.
        sys, _, run = pendulum_run(CLASSICAL, 1e-3, 500)
        traj = integrate(run)
        with pytest.raises(GridMismatch,
                           match="path has 2 channels, system expects 1"):
            evaluate_action(traj, sys, CLASSICAL,
                            generate_path(1, 1e-3, 500, 2))

    def test_constant_gamma_stochastic_term(self):
        # alpha = beta = 1, gamma == c: stochastic term is c W(T)
        c = 2.5
        import frachp.dynamics as dyn
        sys = dyn.LagrangianSystem(
            1, lambda q, v: 0.0, NoiseCoupling.constant([c]),
            grad_q=lambda q, v: np.zeros(1),
            grad_v=lambda q, v: np.zeros(1),
            v_hessian=lambda q, v: np.eye(1))
        grid = make_grid(0.0, 0.01, 50, CLASSICAL)
        zero = np.zeros((51, 1))
        traj = Trajectory(grid, zero, zero, zero)
        path = generate_path(4, 0.01, 50, 1)
        val = evaluate_action(traj, sys, CLASSICAL, path)
        assert val == pytest.approx(c * float(np.sum(path.increments)),
                                    rel=1e-12)

    def test_constraint_term_isolated(self):
        # L == 0, gamma == 0, v != qdot: action = int <p, qdot - v> ds
        import frachp.dynamics as dyn
        sys = dyn.LagrangianSystem(
            1, lambda q, v: 0.0, NoiseCoupling.constant([0.0]),
            grad_q=lambda q, v: np.zeros(1),
            grad_v=lambda q, v: np.zeros(1),
            v_hessian=lambda q, v: np.eye(1))
        grid = make_grid(0.0, 0.01, 50, CLASSICAL)
        # q constant (qdot = 0), v = 1, p = 1 -> integrand = -1
        one = np.ones((51, 1))
        traj = Trajectory(grid, np.zeros((51, 1)), one, one)
        path = zero_path(0.01, 50, 1)
        val = evaluate_action(traj, sys, CLASSICAL, path)
        assert val == pytest.approx(-0.5, rel=1e-10)  # -(T = 0.5)

    def test_classical_action_harmonic_oscillator(self):
        # alpha = beta = 1, gamma = 0, v = qdot: Riemann-sum action of
        # L = v^2/2 - q^2/2 along q = sin(s) over [0, 1]
        import frachp.dynamics as dyn
        sys = dyn.LagrangianSystem(
            1, lambda q, v: 0.5 * v[..., 0] ** 2 - 0.5 * q[..., 0] ** 2,
            NoiseCoupling.constant([0.0]),
            grad_q=lambda q, v: np.array([-float(q[0])]),
            grad_v=lambda q, v: np.array([float(v[0])]),
            v_hessian=lambda q, v: np.eye(1))
        h, n = 1e-3, 1000
        grid = make_grid(0.0, h, n, CLASSICAL)
        qs, vs = np.empty((n + 1, 1)), np.empty((n + 1, 1))
        for k in range(n + 1):
            s = k * h
            q = math.sin(s)
            # v matches the discrete forward difference of q
            v = (math.sin(min(s + h, n * h)) - q) / h if k < n else math.cos(s)
            qs[k], vs[k] = q, v
        traj = Trajectory(grid, qs, vs, vs)
        val = evaluate_action(traj, sys, CLASSICAL, zero_path(h, n, 1))
        # exact: int_0^1 (cos^2 - sin^2)/2 ds = sin(2)/4
        assert val == pytest.approx(math.sin(2.0) / 4.0, abs=5e-3)

    def test_zero_perturbation_derivative(self):
        path = generate_path(2, 1e-3, 500, 1)
        sys, _, run = pendulum_run(REFERENCE, 1e-3, 500, path)
        traj = integrate(run)
        n1 = traj.grid.n_steps + 1
        zero = (np.zeros((n1, 1)), np.zeros((n1, 1)), np.zeros((n1, 1)))
        assert action_derivative(traj, sys, REFERENCE, path, zero) == 0.0

    def test_boundary_violation(self):
        path = generate_path(2, 1e-3, 500, 1)
        sys, _, run = pendulum_run(REFERENCE, 1e-3, 500, path)
        traj = integrate(run)
        n1 = traj.grid.n_steps + 1
        bad = (np.ones((n1, 1)), np.zeros((n1, 1)), np.zeros((n1, 1)))
        with pytest.raises(BoundaryViolation):
            action_derivative(traj, sys, REFERENCE, path, bad)


ACTION_SYSTEMS = {
    "pendulum-cos": lambda: pendulum_system(gamma_coupling="cos"),
    "pendulum-const": lambda: pendulum_system(gamma_coupling="const"),
    "pendulum-lagrangian": pendulum_lagrangian_system,
    "metric-polar": polar_metric_system,
    "metric-custom": lambda: metric_from_expressions(
        [["1", "0"], ["0", "q1**2"]], ["cos(q2)"], 2),
    "hamiltonian-custom": lambda: hamiltonian_from_expression(
        "p1**2/2 + cos(q1)", ["cos(q1)"], 1),
}


def _lagrangian_system(lagrangian=lambda q, v: 0.0, gamma=lambda q: 1.0):
    return LagrangianSystem(
        1, lagrangian, NoiseCoupling((gamma,), (lambda q: np.zeros(1),)),
        grad_q=lambda q, v: np.zeros(1), grad_v=lambda q, v: v,
        v_hessian=lambda q, v: np.eye(1))


def _fallback_twin(sys):
    """sys with every derivative it may omit left to the fallbacks."""
    noise = NoiseCoupling(sys.noise.gamma, None)
    if isinstance(sys, HamiltonianSystem):
        return HamiltonianSystem(sys.dim, sys.hamiltonian, noise)
    if isinstance(sys, LagrangianSystem):
        return LagrangianSystem(sys.dim, sys.lagrangian, noise)
    return MetricSystem(sys.dim, sys.metric, noise)


def _held_callables(sys):
    """{role: (f(q, y), tail)} for every callable sys holds, and for the
    Lagrangian and Legendre maps built on them."""
    n = sys.dim

    def of_q(f):
        return lambda q, y: f(q)

    calls = {}
    for role, tail in (("hamiltonian", ()), ("lagrangian", ()),
                       ("grad_q", (n,)), ("grad_p", (n,)), ("grad_v", (n,)),
                       ("v_hessian", (n, n))):
        if getattr(sys, role, None) is not None:
            calls[role] = (getattr(sys, role), tail)
    for role, tail in (("metric", (n, n)), ("metric_at", (n, n)),
                       ("metric_grad", (n, n, n))):
        if hasattr(sys, role):
            calls[role] = (of_q(getattr(sys, role)), tail)
    for a, (g, dg) in enumerate(zip(sys.noise.gamma, sys.noise.gamma_grad)):
        calls[f"gamma[{a}]"] = (of_q(g), ())
        calls[f"gamma_grad[{a}]"] = (of_q(dg), (n,))
    calls["grad_matrix"] = (of_q(sys.noise.grad_matrix), (n, sys.noise.m))
    calls["system_lagrangian"] = (
        lambda q, y: system_lagrangian(sys, q, y), ())
    if isinstance(sys, LagrangianSystem):
        calls["invert_legendre"] = (lambda q, y: invert_legendre(sys, q, y),
                                    (n,))
        calls["legendre_transform"] = (
            lambda q, y: legendre_transform(sys, q, y)[1], ())
    return calls


class TestArrayContract:
    """Every callable maps (..., n) to (...) + tail, row by row."""

    @pytest.mark.parametrize("fallback", [False, True],
                             ids=["analytic", "fallback"])
    @pytest.mark.parametrize("name", list(ACTION_SYSTEMS))
    def test_batch_rows_equal_samples(self, name, fallback):
        sys = ACTION_SYSTEMS[name]()
        if fallback:
            sys = _fallback_twin(sys)
        rng = np.random.default_rng(12)
        q = rng.uniform(0.5, 1.5, (5, sys.dim))
        y = rng.uniform(-1.0, 1.0, (5, sys.dim))
        for role, (fn, tail) in _held_callables(sys).items():
            out = fn(q, y)
            assert np.shape(out) == (5,) + tail, role
            for i in range(5):
                assert np.array_equal(out[i], fn(q[i], y[i])), (role, i)


class TestActionOnArrays:
    """evaluate_action against the step-by-step loop of the reference."""

    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "zero"])
    @pytest.mark.parametrize("name", list(ACTION_SYSTEMS))
    def test_matches_step_loop(self, name, noisy):
        sys = ACTION_SYSTEMS[name]()
        h, n = 1e-3, 200
        q0, p0 = ([1.0], [0.3]) if sys.dim == 1 else ([1.0, 0.2], [0.1, 0.4])
        grid = make_grid(0.0, h, n, REFERENCE)
        path = (generate_path(3, h, n, sys.noise.m) if noisy
                else zero_path(h, n, sys.noise.m))
        traj = integrate(EulerRun(assemble_hp_fields(sys, REFERENCE), grid,
                                  path, initial_state(sys, q0, p0=p0),
                                  REFERENCE))
        # Perturb off the solution so that v != qdot and every term counts.
        dq, dv, dp = random_admissible_perturbation(grid, sys.dim, seed=9)
        traj = Trajectory(grid, traj.q + 0.05 * dq, traj.v + 0.05 * dv,
                          traj.p + 0.05 * dp)
        want = action_reference(traj, sys, REFERENCE, path)
        got = evaluate_action(traj, sys, REFERENCE, path)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("system, role", [
        (lambda: _lagrangian_system(lagrangian=lambda q, v: v[0]),
         "lagrangian"),
        (lambda: _lagrangian_system(
            lagrangian=lambda q, v: 0.5 * float(v[0]) ** 2), "lagrangian"),
        (lambda: _lagrangian_system(
            lagrangian=lambda q, v: 0.5 * v.flat[0] ** 2), "lagrangian"),
        (lambda: _lagrangian_system(gamma=lambda q: q[0]), r"gamma\[0\]"),
        (lambda: _lagrangian_system(gamma=lambda q: math.cos(q[0])),
         r"gamma\[0\]"),
        (lambda: MetricSystem(
            1, lambda q: np.array([[float(q[0]) ** 2]]),
            NoiseCoupling.constant([1.0]),
            metric_grad=lambda q: np.array([[[2.0 * float(q[0])]]])),
         "metric"),
        (lambda: HamiltonianSystem(
            1, lambda q, p: 0.5 * p[..., 0] ** 2,
            NoiseCoupling.constant([1.0]), grad_q=lambda q, p: np.zeros(1),
            grad_p=lambda q, p: np.array([float(p[0])])), "grad_p"),
    ], ids=["lagrangian", "lagrangian-float", "lagrangian-flat", "coupling",
            "coupling-math", "metric", "legendre-fallback-grad_p"])
    def test_per_sample_callable_rejected(self, system, role):
        sys = system()
        grid = make_grid(0.0, 0.01, 50, CLASSICAL)
        x = np.linspace(0.5, 1.5, 51)[:, None]
        with pytest.raises(BatchShapeError,
                           match=rf"{role} .*<lambda>.*\(50,\)"):
            evaluate_action(Trajectory(grid, x, x, x), sys,
                            CLASSICAL, zero_path(0.01, 50, 1))


def _quartic_lagrangian(fallback=False):
    """L = v^2/2 + v^4/4 - cos q, whose p = v + v^3 is not linear in v."""
    def lagrangian(q, v):
        return (0.5 * v[..., 0] ** 2 + 0.25 * v[..., 0] ** 4
                - np.cos(q[..., 0]))

    if fallback:
        return LagrangianSystem(1, lagrangian, NoiseCoupling.cos_q())
    return LagrangianSystem(
        1, lagrangian, NoiseCoupling.cos_q(), grad_q=lambda q, v: np.sin(q),
        grad_v=lambda q, v: v + v ** 3,
        v_hessian=lambda q, v: (1.0 + 3.0 * v ** 2)[..., None])


class TestInitialState:
    """initial_state is the completion rule of the Euler step at q0."""

    @pytest.mark.parametrize("fallback", [False, True],
                             ids=["analytic", "fallback"])
    def test_lagrangian_keeps_p0(self, fallback):
        sys = _quartic_lagrangian(fallback)
        rng = np.random.default_rng(8)
        for q0, p0 in rng.uniform(-2.0, 2.0, (200, 2)):
            init = initial_state(sys, [q0], p0=[p0])
            assert init.p[0] == p0, (q0, p0)
            assert abs(sys.grad_v(init.q, init.v)[0] - p0) <= 1e-10

    @pytest.mark.parametrize("name", list(ACTION_SYSTEMS))
    def test_equals_completion_at_q0(self, name):
        sys = ACTION_SYSTEMS[name]()
        q0, p0 = ([1.0], [0.3]) if sys.dim == 1 else ([1.0, 0.2], [0.1, 0.4])
        init = initial_state(sys, q0, p0=p0)
        x = init.v if isinstance(sys, MetricSystem) else init.p
        v, p = complete_state(sys, init.q, x)
        assert np.array_equal(v, init.v) and np.array_equal(p, init.p)
        if isinstance(sys, MetricSystem):
            assert np.allclose(init.p, p0, rtol=1e-15, atol=0.0)
        else:
            assert np.array_equal(init.p, p0)


class TestMetricEvaluations:
    """An Euler step evaluates the metric once per distinct q."""

    def test_one_metric_call_per_step(self):
        builtin = polar_metric_system()
        calls = []

        def metric(q):
            calls.append(q.shape)
            return builtin.metric(q)

        sys = MetricSystem(2, metric, builtin.noise, builtin.metric_grad)
        init = initial_state(sys, [1.0, 0.0], p0=[0.0, 0.5])
        assert len(calls) == 1
        n = 500
        fields = assemble_hp_fields(sys, REFERENCE)
        run = EulerRun(fields, make_grid(0.0, 1e-4, n, REFERENCE),
                       generate_path(1, 1e-4, n, 1), init, REFERENCE)
        counted = integrate(run)
        # Step 1 takes q0 as a (1, 2) stack, a new key; then one q_new a
        # step, which the next step starts from.
        assert len(calls) == 1 + n + 1
        plain = integrate(EulerRun(
            assemble_hp_fields(builtin, REFERENCE), run.grid, run.path,
            initial_state(builtin, [1.0, 0.0], p0=[0.0, 0.5]), REFERENCE))
        for c in "qvp":
            assert np.array_equal(getattr(counted, c), getattr(plain, c))


class TestIntegratePaths:
    """One Euler loop over a (P, n) stack equals P single-path runs."""

    @staticmethod
    def _runs(sys, params=REFERENCE, h=1e-3, n=200):
        fields = assemble_hp_fields(sys, params)
        grid = make_grid(0.0, h, n, params)
        starts = ([([1.0], [0.3]), ([0.5], [-0.2]), ([1.5], [0.1])]
                  if sys.dim == 1 else
                  [([1.0, 0.2], [0.1, 0.4]), ([0.8, -0.1], [0.3, -0.2]),
                   ([1.2, 0.4], [-0.1, 0.2])])
        return [EulerRun(fields, grid, generate_path(20 + i, h, n,
                                                     sys.noise.m),
                         initial_state(sys, q0, p0=p0), params)
                for i, (q0, p0) in enumerate(starts)]

    @pytest.mark.parametrize("name", list(ACTION_SYSTEMS))
    def test_batch_rows_equal_single_runs(self, name):
        runs = self._runs(ACTION_SYSTEMS[name]())
        batch = integrate_paths(runs)
        assert len(batch) == len(runs)
        for i, (run, traj) in enumerate(zip(runs, batch)):
            alone = integrate(run)
            for c in "qvp":
                assert np.array_equal(traj.component(c),
                                      alone.component(c)), (i, c)

    def test_runs_must_share_grid_and_fields(self):
        sys = pendulum_system()
        runs = self._runs(sys)
        other_grid = self._runs(sys, h=5e-4, n=400)[1]
        other_fields = self._runs(sys)[1]
        other_params = self._runs(sys, params=CLASSICAL)[1]
        for bad, what in ((other_grid, "grid"), (other_fields, "fields"),
                          (other_params, "fields")):
            with pytest.raises(GridMismatch, match=f"run 1 has other {what}"):
                integrate_paths([runs[0], bad, runs[2]])
        assert integrate_paths([]) == ()

    def test_blowup_names_path_and_step(self):
        # U = -q^4 blows up in finite time, the sooner the larger q0 is;
        # only path 2 starts far enough out to do so on this grid.
        sys = pendulum_system(potential=(lambda x: -x ** 4,
                                         lambda x: -4.0 * x ** 3))
        fields = assemble_hp_fields(sys, CLASSICAL)
        grid = make_grid(0.0, 1e-2, 200, CLASSICAL)
        runs = [EulerRun(fields, grid, generate_path(i, 1e-2, 200, 1),
                         initial_state(sys, [q0], p0=[0.0]), CLASSICAL)
                for i, q0 in enumerate((0.1, 0.2, 3.0))]
        with pytest.raises(NumericalBlowup) as alone:
            integrate(runs[2])
        with pytest.raises(NumericalBlowup) as exc:
            integrate_paths(runs)
        err = exc.value
        assert (err.path, err.step) == (2, alone.value.step)
        assert err.component in ("q", "p")
        assert err.s == grid.point(err.step)
        assert str(err).endswith(f"at step {err.step} (s = {err.s:.6g}) "
                                 f"on path 2")
        assert "path" not in str(alone.value)

    def test_lost_definiteness_names_path_and_step(self):
        # g_22 = q1 turns negative on path 1 only, which runs q1 through 0.
        sys = metric_from_expressions([["1", "0"], ["0", "q1"]],
                                      ["cos(q2)"], 2)
        fields = assemble_hp_fields(sys, REFERENCE)
        grid = make_grid(0.0, 1e-3, 100, REFERENCE)
        runs = [EulerRun(fields, grid, zero_path(1e-3, 100, 1),
                         initial_state(sys, [q1, 0.0], p0=[-1.0, 0.0]),
                         REFERENCE)
                for q1 in (1.0, 0.05)]
        with pytest.raises(NotPositiveDefinite,
                           match=r"at step \d+ \(s = .*\) on path 1$") as exc:
            integrate_paths(runs)
        assert exc.value.sample == 1

    def test_failed_legendre_names_path_and_step(self):
        # L = v^2/2 - v^3/3 + q: p grows as s, and dL/dv = v - v^2 has no
        # root v once p passes 1/4; path 1 gets there, path 0 stays below.
        sys = LagrangianSystem(
            1, lambda q, v: 0.5 * v[..., 0] ** 2 - v[..., 0] ** 3 / 3.0
            + q[..., 0], NoiseCoupling.constant([1.0]),
            grad_q=lambda q, v: np.ones(np.shape(q)),
            grad_v=lambda q, v: v - v ** 2,
            v_hessian=lambda q, v: (1.0 - 2.0 * v)[..., None])
        fields = assemble_hp_fields(sys, CLASSICAL)
        grid = make_grid(0.0, 1e-2, 100, CLASSICAL)
        runs = [EulerRun(fields, grid, zero_path(1e-2, 100, 1),
                         initial_state(sys, [0.0], p0=[p0]), CLASSICAL)
                for p0 in (-1.0, 0.0)]
        with pytest.raises(NoConvergence) as alone:
            integrate(runs[1])
        step = re.search(r"at step (\d+) \(s = ", str(alone.value))
        assert step and "path" not in str(alone.value)
        with pytest.raises(NoConvergence,
                           match=rf"at step {step[1]} \(s = .*\) on path 1$"
                           ) as exc:
            integrate_paths(runs)
        assert exc.value.sample == 1


class TestStationarity:
    def test_solution_is_near_critical_and_tightens(self):
        ratios = {}
        for h, n in ((5e-4, 1400), (2.5e-4, 2800)):
            sys, _, run = pendulum_run(REFERENCE, h, n, gamma="const")
            traj = integrate(run)
            ratios[h] = stationarity_ratio(traj, sys, REFERENCE,
                                           zero_path(h, n, 1),
                                           n_perturbations=10, seed=7)
        assert ratios[5e-4] <= 5e-3
        assert ratios[2.5e-4] < ratios[5e-4]

    def test_frozen_trajectory_is_not_critical(self):
        h, n = 5e-4, 1400
        sys, _, run = pendulum_run(REFERENCE, h, n, gamma="const")
        grid = make_grid(0.0, h, n, REFERENCE)
        init = initial_state(sys, [1.0], p0=[0.0])
        frozen = Trajectory(grid, *(np.tile(a, (n + 1, 1))
                                    for a in (init.q, init.v, init.p)))
        ratio = stationarity_ratio(frozen, sys, REFERENCE, zero_path(h, n, 1),
                                   n_perturbations=10, seed=7)
        assert ratio > 0.05

    def test_perturbations_are_admissible_and_unit_norm(self):
        grid = TimeGrid(0.0, 0.01, 100)
        dq, dv, dp = random_admissible_perturbation(grid, 2, seed=5)
        assert not dq[0].any() and not dq[-1].any()
        assert max(np.abs(dq).max(), np.abs(dv).max(),
                   np.abs(dp).max()) == pytest.approx(1.0)
