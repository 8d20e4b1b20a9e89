import math

import numpy as np
import pytest

from frachp.core import FractionalParams
from frachp.dynamics import (HamiltonianSystem, LagrangianSystem,
                             MetricSystem, NoiseCoupling, assemble_hp_fields,
                             central_gradient, christoffel, invert_legendre,
                             legendre_transform, pendulum_lagrangian_system,
                             pendulum_system, polar_metric_system,
                             system_lagrangian)
from frachp.errors import (InvalidArgument, NoConvergence,
                           NotPositiveDefinite, SingularHessian)
from frachp.specfun import gamma, hp_noise_coefficient

from ._reference import metric_fields_reference


def quadratic_lagrangian(g):
    """L = (1/2) v^T g v with a constant matrix g."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    return LagrangianSystem(
        n,
        lambda q, v: 0.5 * float(np.asarray(v) @ g @ np.asarray(v)),
        NoiseCoupling.constant([1.0]),
        grad_q=lambda q, v: np.zeros(n),
        grad_v=lambda q, v: g @ np.asarray(v, dtype=float),
        v_hessian=lambda q, v: g)


class TestLegendre:
    def test_euclidean(self):
        sys = quadratic_lagrangian(np.eye(2))
        p, h_val = legendre_transform(sys, [0.0, 0.0], [1.0, 2.0])
        assert np.allclose(p, [1.0, 2.0])
        assert h_val == pytest.approx(2.5)

    def test_diagonal_metric(self):
        sys = quadratic_lagrangian(np.diag([2.0, 3.0]))
        p, h_val = legendre_transform(sys, [0.0, 0.0], [1.0, 1.0])
        assert np.allclose(p, [2.0, 3.0])
        assert h_val == pytest.approx(2.5)

    def test_pendulum(self):
        sys = pendulum_lagrangian_system()
        q = np.array([0.4])
        p, h_val = legendre_transform(sys, q, [0.7])
        assert p[0] == pytest.approx(0.7)
        assert h_val == pytest.approx(0.5 * 0.49 + math.cos(0.4))

    def test_invert_identity_metric(self):
        sys = quadratic_lagrangian(np.eye(2))
        assert np.allclose(invert_legendre(sys, [0.0, 0.0], [1.5, -2.0]),
                           [1.5, -2.0])

    def test_invert_linear_solve(self):
        sys = quadratic_lagrangian(np.diag([2.0, 3.0]))
        assert np.allclose(invert_legendre(sys, [0.0, 0.0], [2.0, 3.0]),
                           [1.0, 1.0], atol=1e-10)

    def test_round_trip_random_quadratic(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rng.standard_normal((2, 2))
            sys = quadratic_lagrangian(a @ a.T + 2.0 * np.eye(2))
            q = rng.standard_normal(2)
            v = rng.standard_normal(2)
            p, _ = legendre_transform(sys, q, v)
            assert np.allclose(invert_legendre(sys, q, p), v, atol=1e-10)

    def test_singular_hessian(self):
        sys = quadratic_lagrangian(np.zeros((1, 1)))
        with pytest.raises(SingularHessian):
            legendre_transform(sys, [0.0], [1.0])

    def test_newton_failures_name_the_batch_row(self):
        # dL/dv = v - v^2 peaks at p = 1/4, where the Hessian 1 - 2v is 0.
        sys = LagrangianSystem(
            1, lambda q, v: 0.5 * v[..., 0] ** 2 - v[..., 0] ** 3 / 3.0,
            NoiseCoupling.constant([1.0]), grad_q=lambda q, v: np.zeros(1),
            grad_v=lambda q, v: v - v ** 2,
            v_hessian=lambda q, v: (1.0 - 2.0 * v)[..., None])
        q = np.zeros((3, 1))
        # Row 0 has converged, so the Jacobian is taken on rows 1 and 2;
        # the first Newton iterate of row 2 is v = 1/2.
        with pytest.raises(SingularHessian) as exc:
            invert_legendre(sys, q, [[0.0], [0.1], [0.5]])
        assert exc.value.sample == 2
        with pytest.raises(NoConvergence, match="after 50 iterations") as exc:
            invert_legendre(sys, q, [[0.0], [0.1], [0.3]])
        assert exc.value.sample == 2


class TestChristoffel:
    def test_constant_metric_vanishes(self):
        sys = MetricSystem(
            2, lambda q: np.diag([2.0, 3.0]),
            NoiseCoupling.constant([1.0]),
            metric_grad=lambda q: np.zeros((2, 2, 2)))
        assert not christoffel(sys, [0.3, 0.5]).any()

    def test_one_dimensional_q_squared(self):
        # g = q^2 for q > 0: Gamma = 1/q
        sys = MetricSystem(
            1, lambda q: np.array([[float(q[0]) ** 2]]),
            NoiseCoupling.constant([1.0]),
            metric_grad=lambda q: np.array([[[2.0 * float(q[0])]]]))
        for q in (0.5, 1.0, 2.0):
            assert christoffel(sys, [q])[0, 0, 0] == pytest.approx(1.0 / q)

    def test_polar_plane(self):
        sys = polar_metric_system()
        r = 1.7
        gam = christoffel(sys, [r, 0.3])
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 1] = -r
        expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / r
        assert np.allclose(gam, expected, atol=1e-12)

    def test_symmetry_exact(self):
        sys = polar_metric_system()
        gam = christoffel(sys, [2.2, -0.4])
        assert np.array_equal(gam, np.transpose(gam, (0, 2, 1)))

    def test_not_positive_definite(self):
        sys = MetricSystem(1, lambda q: np.array([[-1.0]]),
                           NoiseCoupling.constant([1.0]),
                           metric_grad=lambda q: np.zeros((1, 1, 1)))
        with pytest.raises(NotPositiveDefinite):
            christoffel(sys, [0.0])

    def test_stacked_metric_names_indefinite_sample(self):
        def metric(q):  # diag(1, q1): indefinite where q1 < 0
            g = np.zeros(q.shape[:-1] + (2, 2))
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = q[..., 0]
            return g

        sys = MetricSystem(2, metric, NoiseCoupling.constant([1.0]))
        q = np.array([[1.0, 0.0], [2.0, 0.1], [0.5, 0.2], [-0.5, 0.3],
                      [3.0, 0.4]])
        with pytest.raises(NotPositiveDefinite, match=r"q=\[-0\.5\s+0\.3\]"):
            sys.metric_at(q)


def _skewed_metric(scale, skew):
    """scale * diag(1, 1), with skew * q1 added above the diagonal only."""
    def metric(q):
        g = np.zeros(np.shape(q)[:-1] + (2, 2))
        g[..., 0, 0] = g[..., 1, 1] = scale
        g[..., 0, 1] = skew * q[..., 0]
        return g

    return MetricSystem(2, metric, NoiseCoupling.constant([1.0]))


class TestMetricSymmetry:
    """metric_at accepts an asymmetry up to 1e-12 of the largest entry,
    or of 1, and names the first sample beyond it."""

    # q1 = 0 is symmetric; 1e-4 gives 1e-13 of skew, 1.0 and 2.0 beyond.
    Q = np.array([[0.0, 0.0], [1e-4, 0.1], [1.0, 0.5], [2.0, 0.0]])

    @pytest.mark.parametrize("shape", [(4, 2), (2, 2, 2)],
                             ids=["one-axis", "two-axes"])
    def test_asymmetry_beyond_tolerance_names_sample(self, shape):
        sys = _skewed_metric(2.0, 1e-9)
        with pytest.raises(NotPositiveDefinite,
                           match=r"^metric is not symmetric at "
                                 r"q=\[1\.\s+0\.5\]$") as exc:
            sys.metric_at(self.Q.reshape(shape))
        assert exc.value.sample == 2

    @pytest.mark.parametrize("scale, skew", [(2.0, 1e-9), (1e6, 1e-3)],
                             ids=["unit", "large-entries"])
    def test_asymmetry_within_tolerance_passes(self, scale, skew):
        # 1e-13 of skew against 2 (tolerance 2e-12), and 1e-7 against 1e6
        # (tolerance 1e-6): g comes back as the callable gave it.
        sys = _skewed_metric(scale, skew)
        q = self.Q[:2]
        g = sys.metric_at(q)
        assert g[1, 0, 1] != g[1, 1, 0]
        assert np.array_equal(g, sys.metric(q))


class TestMetricMemo:
    """MetricSystem evaluates and checks g at every call: it keeps no
    memo."""

    def test_in_place_change_of_q_is_seen(self):
        sys = polar_metric_system()
        q = np.array([1.5, 0.3])
        assert sys.metric_at(q)[1, 1] == 2.25
        q[0] = 2.0
        assert sys.metric_at(q)[1, 1] == 4.0

    def test_arrays_are_read_only(self):
        g_user = np.diag([2.0, 3.0])
        sys = MetricSystem(2, lambda q: g_user,
                           NoiseCoupling.constant([1.0]),
                           metric_grad=lambda q: np.zeros((2, 2, 2)))
        q = np.array([0.3, 0.5])
        g = sys.metric_at(q)
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 7.0
        assert g_user.flags.writeable  # the callable's array stays as it was

    def test_batches_keep_their_shape(self):
        # One sample with a batch axis of one, and a run's (N+1, P, n)
        # history.
        sys = polar_metric_system()
        q = np.array([1.0, 0.2])
        assert sys.metric_at(q[None]).shape == (1, 2, 2)
        history = np.random.default_rng(6).uniform(0.5, 2.0, (4, 3, 2))
        assert np.array_equal(sys.metric_at(history), sys.metric(history))

    def test_failure_is_not_kept(self):
        sys = MetricSystem(1, lambda q: np.array([[-1.0]]),
                           NoiseCoupling.constant([1.0]),
                           metric_grad=lambda q: np.zeros((1, 1, 1)))
        for _ in range(2):
            with pytest.raises(NotPositiveDefinite):
                sys.metric_at([0.0])

    def test_memo_is_not_compared(self):
        a = polar_metric_system()
        b = MetricSystem(a.dim, a.metric, a.noise, a.metric_grad)
        b.metric_at([1.0, 0.0])
        assert a == b and hash(a) == hash(b)
        assert "_memo" not in repr(b)


# A dense, non-diagonal 3-d metric, positive definite by diagonal
# dominance, with two couplings.
DENSE_METRIC = [["2 + sin(q1)**2", "cos(q2)/3", "exp(-q3**2)/10"],
                ["cos(q2)/3", "1 + q1**2", "sin(q3)/5"],
                ["exp(-q3**2)/10", "sin(q3)/5", "3/2 + cos(q1*q2)"]]
DENSE_GAMMAS = ["cos(q1)*q3", "exp(q2/2)*sin(q3)"]


def _metric_system(name):
    from frachp.exprsys import metric_from_expressions
    if name == "polar":
        return polar_metric_system()
    if name == "polar:custom":
        return metric_from_expressions([["1", "0"], ["0", "q1**2"]],
                                       ["cos(q2)"], 2)
    return metric_from_expressions(DENSE_METRIC, DENSE_GAMMAS, 3)


class TestClosedFormMetricFields:
    """geodesic and noise_matrix against the numeric Christoffel oracle."""

    @pytest.mark.parametrize("name", ["polar", "polar:custom", "dense-3d"])
    def test_match_numeric_oracle(self, name):
        sys = _metric_system(name)
        rng = np.random.default_rng(21)
        q = rng.uniform(0.5, 2.0, (50, sys.dim))
        v = rng.uniform(-1.5, 1.5, (50, sys.dim))
        want_geo, want_noise = metric_fields_reference(sys, q, v)
        for got, want in ((sys.geodesic(q, v), want_geo),
                          (sys.noise_matrix(q), want_noise)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_numeric_default_is_the_oracle(self):
        dense = _metric_system("dense-3d")
        sys = MetricSystem(3, dense.metric, dense.noise, dense.metric_grad)
        q = np.random.default_rng(22).uniform(0.5, 2.0, (7, 3))
        v = np.random.default_rng(23).uniform(-1.0, 1.0, (7, 3))
        want_geo, want_noise = metric_fields_reference(sys, q, v)
        assert np.array_equal(sys.geodesic(q, v), want_geo)
        assert np.array_equal(sys.noise_matrix(q), want_noise)

    def test_singular_metric_takes_the_numeric_default(self):
        # det g = 0 identically: no closed form.  The default inverts g
        # unchecked, as the closed forms divide by it; initial_state
        # checks g first and names it.
        from frachp.exprsys import metric_from_expressions
        from frachp.integrator import initial_state
        sys = metric_from_expressions([["1", "0"], ["0", "0"]],
                                      ["cos(q2)"], 2)
        q, v = np.array([1.0, 0.0]), np.array([0.0, 0.5])
        with pytest.raises(np.linalg.LinAlgError):
            sys.geodesic(q, v)
        with pytest.raises(NotPositiveDefinite):
            initial_state(sys, q, p0=v)


class TestGradientChecks:
    """All analytic gradients vs central differences at random states."""

    def test_pendulum_hamiltonian(self):
        sys = pendulum_system()
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = rng.uniform(-3, 3, 1)
            p = rng.uniform(-3, 3, 1)
            fd_q = central_gradient(lambda x: sys.hamiltonian(x, p), q)
            fd_p = central_gradient(lambda x: sys.hamiltonian(q, x), p)
            assert np.allclose(sys.grad_q(q, p), fd_q, rtol=1e-6, atol=1e-6)
            assert np.allclose(sys.grad_p(q, p), fd_p, rtol=1e-6, atol=1e-6)

    def test_pendulum_noise_coupling(self):
        sys = pendulum_system()
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = rng.uniform(-3, 3, 1)
            fd = central_gradient(sys.noise.gamma[0], q)
            assert np.allclose(sys.noise.grad_matrix(q)[:, 0], fd,
                               rtol=1e-6, atol=1e-6)

    def test_polar_metric_derivatives(self):
        sys = polar_metric_system()
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = np.array([rng.uniform(0.5, 3.0), rng.uniform(-3, 3)])
            dg = sys.metric_grad(q)
            for k in range(2):
                step = 1e-6 * (1.0 + abs(q[k]))
                qp, qm = q.copy(), q.copy()
                qp[k] += step
                qm[k] -= step
                fd = (sys.metric(qp) - sys.metric(qm)) / (2 * step)
                assert np.allclose(dg[:, :, k], fd, rtol=1e-5, atol=1e-5)

    def test_fd_fallback_when_gradients_omitted(self):
        sys = HamiltonianSystem(
            1, lambda q, p: 0.5 * float(p[0]) ** 2 + math.cos(float(q[0])),
            NoiseCoupling.constant([1.0]))
        q, p = np.array([1.1]), np.array([0.4])
        assert sys.grad_q(q, p)[0] == pytest.approx(-math.sin(1.1), rel=1e-6)
        assert sys.grad_p(q, p)[0] == pytest.approx(0.4, rel=1e-6)

    def test_v_hessian_fallback(self):
        # L = v1^4/4 + v1 v2 + v2^2 with analytic grad_v; the Hessian
        # [[3 v1^2, 1], [1, 2]] comes from central differences of grad_v.
        sys = LagrangianSystem(
            2, lambda q, v: v[0] ** 4 / 4 + v[0] * v[1] + v[1] ** 2,
            NoiseCoupling.constant([1.0]),
            grad_q=lambda q, v: np.zeros(2),
            grad_v=lambda q, v: np.array([v[0] ** 3 + v[1],
                                          v[0] + 2.0 * v[1]]))
        hess = sys.v_hessian(np.zeros(2), np.array([0.7, -1.2]))
        assert np.allclose(hess, [[3 * 0.49, 1.0], [1.0, 2.0]],
                           rtol=1e-6, atol=1e-8)

    def test_metric_grad_fallback_polar(self):
        builtin = polar_metric_system()
        sys = MetricSystem(2, builtin.metric, builtin.noise)
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = np.array([rng.uniform(0.5, 3.0), rng.uniform(-3, 3)])
            exact = np.zeros((2, 2, 2))
            exact[1, 1, 0] = 2.0 * q[0]
            assert np.allclose(sys.metric_grad(q), exact,
                               rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("mass", [1.0, 2.0])
    def test_system_lagrangian_legendre_fallback(self, mass):
        # Pendulum H = p^2/(2m) + cos q without an analytic Lagrangian;
        # for m != 1 the Newton solve for p needs the Jacobian of grad_p.
        sys = HamiltonianSystem(
            1, lambda q, p: p[..., 0] ** 2 / (2 * mass) + np.cos(q[..., 0]),
            NoiseCoupling.cos_q(),
            grad_q=lambda q, p: -np.sin(q),
            grad_p=lambda q, p: p / mass)
        q, v = np.array([0.4]), np.array([-0.9])
        exact = 0.5 * mass * 0.81 - math.cos(0.4)
        assert system_lagrangian(sys, q, v) == pytest.approx(exact,
                                                             rel=1e-9)


class TestAssembly:
    params = FractionalParams(0.6, 0.3, 0.8)

    def test_pendulum_drift_and_diffusion(self):
        # dp = (-U' + p (alpha-1)/(t-s)) ds - coef sin(q) dW for U = cos
        fields = assemble_hp_fields(pendulum_system(), self.params)
        s, q, p = 0.2, np.array([1.0]), np.array([0.7])
        expect = math.sin(1.0) + 0.7 * (0.6 - 1.0) / (0.8 - 0.2)
        assert fields.drift_p(q, p, fields.damping(s))[0] == pytest.approx(
            expect, rel=1e-12)
        assert fields.noise_scale(s) == hp_noise_coefficient(self.params, s)
        assert fields.diffusion_p(q)[0, 0] == pytest.approx(-math.sin(1.0),
                                                            rel=1e-12)
        assert fields.drift_q(q, p)[0] == 0.7

    def test_alpha_one_drops_fractional_drift(self):
        params = FractionalParams(1.0, 1.0, 10.0)
        fields = assemble_hp_fields(pendulum_system(), params)
        for s in (0.1, 5.0):  # s-independent classical coefficients
            assert fields.damping(s) == 0.0
            assert fields.noise_scale(s) == 1.0

    def test_constant_gamma_kills_diffusion(self):
        fields = assemble_hp_fields(
            pendulum_system(gamma_coupling="const"), self.params)
        assert not fields.diffusion_p(np.array([1.2])).any()

    def test_lagrangian_vs_hamiltonian_route(self):
        lsys = pendulum_lagrangian_system()
        hsys = pendulum_system()
        f_l = assemble_hp_fields(lsys, self.params)
        f_h = assemble_hp_fields(hsys, self.params)
        rng = np.random.default_rng(6)
        for _ in range(25):
            s = rng.uniform(0.0, 0.7)
            q = rng.uniform(-2, 2, 1)
            v = rng.uniform(-2, 2, 1)
            p, _ = legendre_transform(lsys, q, v)
            assert np.allclose(f_l.drift_p(q, v, f_l.damping(s)),
                               f_h.drift_p(q, p, f_h.damping(s)),
                               rtol=1e-8, atol=1e-8)
            assert np.allclose(f_l.noise_scale(s) * f_l.diffusion_p(q),
                               f_h.noise_scale(s) * f_h.diffusion_p(q),
                               rtol=1e-8)
            assert np.allclose(f_l.drift_q(q, v), f_h.drift_q(q, p),
                               rtol=1e-8)

    def test_metric_momentum_form_identity(self):
        # (1/2) dg_kl/dq^i p^k p^l (raised indices) == -dH/dq^i for
        # H = (1/2) g^kl p_k p_l
        sys = polar_metric_system()
        rng = np.random.default_rng(7)
        for _ in range(25):
            q = np.array([rng.uniform(0.5, 3.0), rng.uniform(-3, 3)])
            p = rng.standard_normal(2)
            g = sys.metric_at(q)
            g_inv = np.linalg.inv(g)
            dg = sys.metric_grad(q)
            p_up = g_inv @ p
            lhs = 0.5 * np.einsum("kli,k,l->i", dg, p_up, p_up)

            def h_fn(x):
                return 0.5 * float(p @ np.linalg.inv(sys.metric_at(x)) @ p)

            rhs = -central_gradient(h_fn, q)
            assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_metric_velocity_fields(self):
        sys = polar_metric_system()
        fields = assemble_hp_fields(sys, self.params)
        s = 0.1
        q = np.array([1.5, 0.2])
        v = np.array([0.3, -0.4])
        gam = christoffel(sys, q)
        geo = -np.einsum("ijk,j,k->i", gam, v, v)
        expect = geo - (0.6 - 1.0) / (0.8 - s) * v
        assert np.allclose(fields.drift_p(q, v, fields.damping(s)), expect,
                           rtol=1e-12)
        coef = hp_noise_coefficient(self.params, s)
        g_inv = np.linalg.inv(sys.metric_at(q))
        assert np.allclose(fields.noise_scale(s) * fields.diffusion_p(q),
                           coef * g_inv @ sys.noise.grad_matrix(q),
                           rtol=1e-12)

    def test_eq15_literal_variant(self):
        sys = polar_metric_system()
        lit = assemble_hp_fields(sys, self.params, eq15_literal=True)
        std = assemble_hp_fields(sys, self.params, eq15_literal=False)
        s, q = 0.1, np.array([1.5, 0.2])
        ratio = (gamma(0.3) / gamma(0.6)) * (0.8 - s) ** (0.3 - 1.0) \
            / ((gamma(0.6) / gamma(0.3)) * (0.8 - s) ** (0.3 - 0.6))
        assert np.allclose(lit.noise_scale(s) * lit.diffusion_p(q),
                           ratio * std.noise_scale(s) * std.diffusion_p(q),
                           rtol=1e-12)
        # drift is unchanged by the switch
        v = np.array([0.3, -0.4])
        assert np.allclose(lit.drift_p(q, v, lit.damping(s)),
                           std.drift_p(q, v, std.damping(s)))

    @pytest.mark.parametrize("make", [pendulum_system,
                                      pendulum_lagrangian_system],
                             ids=["hamiltonian", "lagrangian"])
    def test_eq15_literal_needs_a_metric_system(self, make):
        # The printed coefficient belongs to the metric-velocity form, so
        # another system rejects the switch rather than ignoring it.
        with pytest.raises(InvalidArgument,
                           match=r"^eq15_literal=True applies to a "
                                 r"MetricSystem only"):
            assemble_hp_fields(make(), self.params, eq15_literal=True)


class TestNoiseCouplingChecks:
    def test_fd_gradient_fallback(self):
        coupling = NoiseCoupling((lambda q: math.sin(q[0]) * q[1],), None)
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = rng.uniform(-2, 2, 2)
            expect = np.array([math.cos(q[0]) * q[1], math.sin(q[0])])
            assert np.allclose(coupling.grad_matrix(q)[:, 0], expect,
                               rtol=1e-6, atol=1e-6)

    def test_constant_coupling_zero_gradient(self):
        coupling = NoiseCoupling.constant([2.0, 3.0])
        assert coupling.m == 2
        assert not coupling.grad_matrix(np.array([0.3, 0.4])).any()


# Each built-in kernel record and the numpy formula it replaced.
BUILTIN_KERNELS = {
    "pendulum-hamiltonian": (
        lambda: pendulum_system().hamiltonian,
        lambda q, p: 0.5 * p[..., 0] ** 2 + np.cos(q[..., 0])),
    "pendulum-lagrangian": (  # both pendulums share it
        lambda: pendulum_system().lagrangian,
        lambda q, v: 0.5 * v[..., 0] ** 2 - np.cos(q[..., 0])),
    "cos_q-gamma": (lambda: NoiseCoupling.cos_q().gamma[0],
                    lambda q: np.cos(q[..., 0])),
    "polar-gamma": (lambda: polar_metric_system().noise.gamma[0],
                    lambda q: np.cos(q[..., 1])),
    "lagrangian-grad_q": (lambda: pendulum_lagrangian_system().grad_q,
                          lambda q, v: np.sin(q)),
    "lagrangian-grad_v": (lambda: pendulum_lagrangian_system().grad_v,
                          lambda q, v: np.array(v, dtype=float)),
    "lagrangian-v_hessian": (lambda: pendulum_lagrangian_system().v_hessian,
                             lambda q, v: np.ones(np.shape(v) + (1,))),
}


class TestBuiltinKernelRecords:
    """Built-in kernels are kernel records with the bits of the numpy
    formulas they replaced, and a record binds every numpy name its text
    uses."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300,
                        0.7, -2.3, 1e-300, 3.0, -1.0])

    @staticmethod
    def _assert_bitwise(kernel, formula, arrays):
        # One sample, the (P, n) stack and an (N+1, P, n) history.
        for layout in (lambda a: a[5], lambda a: a,
                       lambda a: a.reshape((3, 4, a.shape[-1]))):
            xs = [layout(a) for a in arrays]
            with np.errstate(all="ignore"):
                got = np.asarray(kernel(*xs))
                want = np.asarray(formula(*xs), dtype=float)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), xs

    @pytest.mark.parametrize("make, formula", BUILTIN_KERNELS.values(),
                             ids=BUILTIN_KERNELS.keys())
    def test_matches_the_numpy_formula_bitwise(self, make, formula):
        kernel = make()
        n = len(kernel.spec["args"][0])
        columns = [np.roll(self.SPECIAL, 5 * j) for j in range(2 * n)]
        arrays = [np.stack(columns[i * n:(i + 1) * n], axis=-1)
                  for i in range(len(kernel.spec["args"]))]
        self._assert_bitwise(kernel, formula, arrays)

    def test_record_binds_the_numpy_names_it_uses(self):
        from frachp.dynamics import _builtin
        kernel = _builtin([["q1", "q2"]], [2], "sqrt(q1)*pi - 2.5e3",
                          "arctan(q2/e)")
        q = np.stack([self.SPECIAL, np.roll(self.SPECIAL, 3)], axis=-1)
        self._assert_bitwise(kernel, lambda q: np.stack(
            [np.sqrt(q[..., 0]) * np.pi - 2.5e3,
             np.arctan(q[..., 1] / np.e)], axis=-1), [q])

    def test_record_naming_no_numpy_name_fails_to_compile(self):
        from frachp.dynamics import _builtin
        for _ in range(2):  # a record that fails is not kept
            with pytest.raises(InvalidArgument,
                               match=r"^spec=.* names \['arcsinh2'\]"):
                _builtin([["q1"]], [1], "arcsinh2(q1) + sin(q1)")

    @pytest.mark.parametrize("make", [pendulum_system,
                                      pendulum_lagrangian_system,
                                      polar_metric_system])
    def test_equal_records_compile_once(self, make):
        first, second = make(), make()
        names = ("hamiltonian", "lagrangian", "grad_q", "grad_p", "grad_v",
                 "v_hessian", "metric", "metric_grad", "geodesic",
                 "noise_matrix")
        kernels = [(getattr(first, a), getattr(second, a)) for a in names
                   if hasattr(getattr(first, a, None), "spec")]
        kernels += list(zip(first.noise.gamma + first.noise.gamma_grad,
                            second.noise.gamma + second.noise.gamma_grad))
        assert len(kernels) >= 5 and all(a is b for a, b in kernels)
        n = first.dim
        q = np.stack([np.roll(self.SPECIAL, j) for j in range(n)], axis=-1)
        x = np.roll(q, 5, axis=0)
        with np.errstate(all="ignore"):
            for a, b in kernels:
                args = (q, x)[:len(a.spec["args"])]
                assert a(*args).tobytes() == b(*args).tobytes()
        assert isinstance(first.noise.gamma[0].spec["entries"], tuple)
        with pytest.raises(TypeError):
            first.noise.gamma[0].spec["entries"] = ("q1",)


class TestExpressionSystems:
    def test_custom_hamiltonian(self):
        from frachp.exprsys import hamiltonian_from_expression
        sys = hamiltonian_from_expression(
            "p1**2/2 + cos(q1)", ["cos(q1)"], 1)
        q, p = np.array([1.0]), np.array([0.7])
        assert sys.hamiltonian(q, p) == pytest.approx(
            0.5 * 0.49 + math.cos(1.0))
        assert sys.grad_q(q, p)[0] == pytest.approx(-math.sin(1.0))
        assert sys.grad_p(q, p)[0] == pytest.approx(0.7)
        assert sys.noise.grad_matrix(q)[0, 0] == pytest.approx(-math.sin(1.0))

    def test_custom_polar_matches_builtin_bitwise(self):
        # Both evaluate q1**2, the gradients and the closed-form geodesic
        # force and noise matrix with the same numpy arithmetic, so they
        # agree to the bit on every sample.
        from frachp.exprsys import metric_from_expressions
        custom = metric_from_expressions([["1", "0"], ["0", "q1**2"]],
                                         ["cos(q2)"], 2)
        builtin = polar_metric_system()
        q = np.random.default_rng(3).uniform(0.5, 3.0, (20_000, 2))
        assert np.array_equal(custom.metric(q), builtin.metric(q))
        assert np.array_equal(custom.metric_grad(q), builtin.metric_grad(q))
        assert np.array_equal(custom.noise.grad_matrix(q),
                              builtin.noise.grad_matrix(q))
        v = np.random.default_rng(24).uniform(-2.0, 2.0, (20_000, 2))
        assert np.array_equal(custom.geodesic(q, v), builtin.geodesic(q, v))
        assert np.array_equal(custom.noise_matrix(q), builtin.noise_matrix(q))

    @pytest.mark.parametrize("texts", [
        ["0", "1", "1/3", "-2/3"],
        ["pi", "1/3", "q1*pi", "0"],
        ["sin(1)", "q1**2", "2.5", "0"],
        ["1"],
        ["0", "0", "0", "q2"],
    ], ids=["rationals", "pi", "float", "one-constant", "one-live"])
    def test_constant_row_matches_lambdify(self, texts):
        # Rational entries are filled from one row, the others are
        # lambdified; every entry is as lambdifying the whole list gives it.
        import sympy
        from frachp.exprsys import _compile, _source
        qs = sympy.symbols("q1:3")
        exprs = [sympy.sympify(t) for t in texts]
        q = np.random.default_rng(4).uniform(-2.0, 2.0, (9, 2))
        kernel = _compile(_source(qs, exprs, (len(exprs),)))
        got = kernel(q)
        every = sympy.lambdify(qs, exprs, modules="numpy")(q[:, 0], q[:, 1])
        for j, want in enumerate(every):
            # Bytes, so that a sign of zero counts.
            col = np.broadcast_to(np.asarray(want, dtype=float), (9,))
            assert (np.ascontiguousarray(got[:, j]).tobytes()
                    == np.ascontiguousarray(col).tobytes()), texts[j]
        assert got.shape == (9, len(exprs))
        assert kernel(q[0]).shape == (len(exprs),)

    # Inputs on which numpy's functions are most likely to differ: NaN,
    # +-inf, +-0, huge and tiny values, and points outside the real
    # domains of log, sqrt, asin and acos.
    SPECIAL = np.array([-1.0, 2.0, 1000.0, -1000.0, 0.5, -0.3, 0.0, -0.0,
                        1e-300, np.nan, np.inf, -np.inf])

    @staticmethod
    def _assert_kernel_is_lambdify(args, exprs, shape, arrays, cse=False):
        # The generated kernel against sympy's own lambdify of the same
        # entries with modules="numpy", called on the columns the kernel
        # reads, on one sample, a (P, n) stack and an (N+1, P, n) history.
        import sympy
        from frachp.exprsys import _compile, _source
        groups = (args,) if isinstance(args[0], sympy.Symbol) else args
        kernel = _compile(_source(args, exprs, shape, cse=cse))
        oracle = sympy.lambdify([x for g in groups for x in g], exprs,
                                modules="numpy", cse=cse)
        for layout in (lambda a: a[3], lambda a: a,
                       lambda a: a.reshape((3, 4, a.shape[-1]))):
            xs = [layout(a) for a in arrays]
            batch = xs[0].shape[:-1]
            with np.errstate(all="ignore"):
                got = kernel(*xs)
                want = oracle(*(x[..., j] for x in xs
                                for j in range(x.shape[-1])))
            assert got.shape == batch + shape and got.dtype == float
            flat = got.reshape(batch + (-1,))
            for j, (e, w) in enumerate(zip(exprs, want)):
                w = np.broadcast_to(np.asarray(w, dtype=float), batch)
                assert flat[..., j].tobytes() == w.tobytes(), (e, batch)

    def test_kernels_match_numpy_lambdify_bitwise(self):
        # Each whitelisted function and constant gives the bits lambdify
        # gives with modules="numpy", NaN, inf and signed zeros included.
        import sympy
        from frachp.exprsys import _CONSTANTS, _FUNCTIONS
        qs = sympy.symbols("q1:3")
        q = np.stack([np.linspace(-2.0, 2.0, 12), self.SPECIAL], axis=-1)
        for name in sorted(_FUNCTIONS):
            exprs = [sympy.sympify(f"{name}(q2)"),
                     sympy.sympify(f"q1 * {name}(q2)")]
            self._assert_kernel_is_lambdify(qs, exprs, (2,), [q])
        for name in sorted(_CONSTANTS):
            exprs = [sympy.sympify(name), sympy.sympify(f"{name} * q2")]
            self._assert_kernel_is_lambdify(qs, exprs, (2,), [q])

    def test_cse_kernels_match_lambdify_cse_bitwise(self):
        # With cse, a kernel takes the common subexpressions lambdify's
        # cse=True takes: the dense metric's noise matrix, and entries in
        # two arrays with a Rational zero and a Rational literal.
        import sympy
        qs, vs = sympy.symbols("q1:4"), sympy.symbols("v1:4")
        g = sympy.Matrix([[sympy.sympify(e) for e in row]
                          for row in DENSE_METRIC])
        gammas = [sympy.sympify(e) for e in DENSE_GAMMAS]
        grad = sympy.Matrix(3, 2, lambda i, a: gammas[a].diff(qs[i]))
        noise = list(g.adjugate() * grad / g.det())
        rng = np.random.default_rng(25)
        q = rng.uniform(0.5, 2.0, (12, 3))
        self._assert_kernel_is_lambdify(qs, noise, (3, 2), [q], cse=True)
        w = sympy.sin(qs[0] * vs[1]) / (1 + qs[1] ** 2)
        exprs = [w ** 2 + vs[0] * w, sympy.S.Zero, sympy.Rational(-2, 3),
                 sympy.sqrt(w + vs[2] ** 2)]
        v = np.stack([self.SPECIAL, -self.SPECIAL, self.SPECIAL[::-1]],
                     axis=-1)
        self._assert_kernel_is_lambdify((qs, vs), exprs, (2, 2), [q, v],
                                        cse=True)

    def test_custom_metric(self):
        from frachp.exprsys import metric_from_expressions
        sys = metric_from_expressions([["1", "0"], ["0", "q1**2"]],
                                      ["cos(q2)"], 2)
        gam = christoffel(sys, [2.0, 0.1])
        assert gam[0, 1, 1] == pytest.approx(-2.0)
        assert gam[1, 0, 1] == pytest.approx(0.5)


class TestLaneFunctions:
    """Float lanes call math's sin, cos and sqrt where the numpy step calls
    numpy's.  numpy may send float64 sin and cos to its own SIMD code on
    some CPUs; then this test fails by name, before any history pin."""

    @staticmethod
    def _sample():
        rng = np.random.default_rng(16)
        tiny = np.finfo(float).smallest_subnormal
        x = np.concatenate([
            [0.0, -0.0, 1e300, -1e300, tiny, -tiny, 1e-310, -1e-310,
             np.finfo(float).max, -np.finfo(float).max],
            tiny * rng.integers(1, 2 ** 52, 64),      # subnormals
            np.arange(-64, 65) * math.pi,             # multiples of pi
            np.arange(-64, 65) * (math.pi / 2),
            rng.uniform(-10.0, 10.0, 4096),
            rng.standard_normal(4096) * 10.0 ** rng.uniform(-300, 300, 4096),
        ])
        return np.concatenate([x, -x])

    @pytest.mark.parametrize("name", ["sin", "cos", "sqrt"])
    def test_numpy_float64_is_math_bitwise(self, name):
        x = self._sample()
        if name == "sqrt":
            x = np.abs(x)  # math.sqrt raises below 0; a lane falls back
        want = np.array([getattr(math, name)(v) for v in x.tolist()])
        # Contiguous, a strided column as a kernel reads x[..., j], and the
        # short arrays of a small batch.
        cases = [(x, want), (np.stack([x, -x], axis=-1)[..., 0], want)]
        cases += [(x[i:i + k], want[i:i + k])
                  for k in (1, 2, 3, 16) for i in range(0, 48, 7)]
        for a, ref in cases:
            differ = (getattr(np, name)(a).view(np.int64)
                      != ref.view(np.int64))
            assert not differ.any(), (name, a[differ][:5])
