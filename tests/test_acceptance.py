"""End-to-end acceptance gate.

Each test checks one released guarantee at its stated tolerance and prints
a single PASS line (visible with `pytest -s` or on failure).  Tolerances
here are contractual: do not loosen them to make a failing build green.
"""

import math
import time

import numpy as np
import pytest

from frachp.cli import main as cli_main
from frachp.core import FractionalParams, TimeGrid, make_grid
from frachp.dynamics import (assemble_hp_fields, invert_legendre,
                             legendre_transform, pendulum_lagrangian_system,
                             pendulum_system, polar_metric_system)
from frachp.fracint import (SampledFunction, VolterraCoefficients,
                            fractional_wiener_integral, rl_integral,
                            volterra_paths)
from frachp.integrator import (EulerRun, initial_state, integrate,
                               stationarity_ratio, strong_convergence_order)
from frachp.noise import generate_path, spawn_substream, zero_path
from frachp.specfun import gamma, hp_noise_coefficient

from ._reference import rk4_terminal

REFERENCE = FractionalParams(0.6, 0.3, 0.8)

REFERENCE_CONFIG = """\
system = pendulum
alpha = 0.6
beta = 0.3
t_eval = 0.8
h = 0.0001
n_steps = 7000
seed = 1
"""


def report(tag: str, detail: str, elapsed: float, limit: float):
    print(f"[{tag}] PASS  {detail}  ({elapsed:.2f}s < {limit:g}s)")
    assert elapsed < limit, f"{tag} exceeded runtime budget"


def test_c01_gamma_accuracy():
    mpmath = pytest.importorskip("mpmath")
    t0 = time.perf_counter()
    pts = list(np.linspace(0.1001, 10.0, 193))
    pts += [0.3, 0.5, 0.6, 0.65, 1.0, 1.3, 5.0]
    assert len(pts) == 200
    worst = 0.0
    with mpmath.workdps(30):
        for x in pts:
            exact = float(mpmath.gamma(x))
            worst = max(worst, abs(gamma(x) - exact) / abs(exact))
    assert worst <= 1e-12
    report("C01", f"gamma vs 30-digit oracle, max rel err {worst:.2e} "
           "<= 1e-12 at 200 points", time.perf_counter() - t0, 1.0)


def test_c02_riemann_liouville_closed_form():
    t0 = time.perf_counter()
    beta, t = 0.3, 0.8
    exact = t ** beta / gamma(beta + 1.0)
    errs = {}
    for h, n in ((1e-3, 800), (1e-4, 8000)):
        grid = TimeGrid(0.0, h, n)
        f = SampledFunction(grid, np.ones(n + 1))
        errs[h] = abs(rl_integral(f, beta, t) - exact) / exact
    assert errs[1e-3] <= 0.01
    assert errs[1e-4] <= 0.001
    report("C02", f"I^0.3[1](0.8): rel err {errs[1e-3]:.2e} <= 1% at h=1e-3, "
           f"{errs[1e-4]:.2e} <= 0.1% at h=1e-4",
           time.perf_counter() - t0, 1.0)


def test_c03_fractional_wiener_variance():
    t0 = time.perf_counter()
    beta, t, h, n = 0.3, 0.8, 8e-4, 1000  # grid end touches t
    grid = TimeGrid(0.0, h, n)
    g = SampledFunction(grid, np.ones(n + 1))
    vals = np.array([
        fractional_wiener_integral(
            g, beta, t, generate_path(spawn_substream(2024, i), h, n, 1), 0)
        for i in range(10_000)])
    target = t ** beta / (beta * gamma((beta + 1.0) / 2.0) ** 2)
    rel = abs(vals.var() - target) / target
    assert rel <= 0.05
    report("C03", f"Ito isometry: var {vals.var():.4f} vs {target:.4f}, "
           f"rel err {rel:.2%} <= 5% over 1e4 paths",
           time.perf_counter() - t0, 30.0)


def test_c04_alpha_equals_beta_collapse():
    t0 = time.perf_counter()
    params = FractionalParams(0.6, 0.6, 0.8)
    system = pendulum_system()
    fields = assemble_hp_fields(system, params)
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = rng.uniform(0.0, 0.79)
        q = rng.uniform(-3.0, 3.0, size=1)
        assert hp_noise_coefficient(params, s) == 1.0
        assert np.array_equal(fields.noise_scale(s) * fields.diffusion_p(q),
                              system.noise.grad_matrix(q))
    report("C04", "alpha == beta: diffusion equals d(gamma)/dq bitwise "
           "(coefficient exactly 1.0) at 100 random (s, q)",
           time.perf_counter() - t0, 1.0)


def _pendulum_energy(traj):
    q = traj.q[:, 0]
    p = traj.p[:, 0]
    return 0.5 * p * p + np.cos(q)


def test_c05_classical_limit_energy_drift():
    t0 = time.perf_counter()
    params = FractionalParams(1.0, 1.0, 10.0)
    system = pendulum_system(gamma_coupling="const")
    fields = assemble_hp_fields(system, params)
    init = initial_state(system, [1.0], p0=[0.0])
    drift = {}
    for h, n in ((1e-4, 7000), (5e-5, 14_000)):
        grid = make_grid(0.0, h, n, params)
        traj = integrate(EulerRun(fields, grid, zero_path(h, n, 1),
                                  init, params))
        energy = _pendulum_energy(traj)
        drift[h] = float(np.max(np.abs(energy - energy[0])))
    ratio = drift[5e-5] / drift[1e-4]
    assert ratio <= 0.55
    report("C05", f"energy drift {drift[1e-4]:.2e} -> {drift[5e-5]:.2e}, "
           f"halving ratio {ratio:.3f} <= 0.55",
           time.perf_counter() - t0, 10.0)


def test_c06_deterministic_reference():
    t0 = time.perf_counter()
    params = FractionalParams(1.0, 1.0, 10.0)
    system = pendulum_system(gamma_coupling="const")
    fields = assemble_hp_fields(system, params)
    init = initial_state(system, [1.0], p0=[0.0])
    t_end = 0.7
    # step-doubled high-order oracle: 4th order, doubled resolution agrees
    q_a, p_a = rk4_terminal(fields, [1.0], [0.0], 0.0, t_end, 2000)
    q_b, p_b = rk4_terminal(fields, [1.0], [0.0], 0.0, t_end, 4000)
    assert abs(q_a[0] - q_b[0]) + abs(p_a[0] - p_b[0]) < 1e-12
    errs = {}
    for h, n in ((1e-4, 7000), (5e-5, 14_000)):
        grid = make_grid(0.0, h, n, params)
        traj = integrate(EulerRun(fields, grid, zero_path(h, n, 1),
                                  init, params))
        term = traj.states[-1]
        errs[h] = abs(term.q[0] - q_b[0]) + abs(term.p[0] - p_b[0])
    assert errs[1e-4] < 1e-3
    ratio = errs[5e-5] / errs[1e-4]
    assert 0.375 <= ratio <= 0.625  # halves with h to within 25%
    report("C06", f"terminal err {errs[1e-4]:.2e} < 1e-3 at h=1e-4, "
           f"halving ratio {ratio:.3f} in [0.375, 0.625]",
           time.perf_counter() - t0, 10.0)


def test_c07_strong_convergence_order():
    t0 = time.perf_counter()
    params = FractionalParams(1.0, 1.0, 10.0)
    system = pendulum_system()
    fields = assemble_hp_fields(system, params)
    init = initial_state(system, [1.0], p0=[0.0])
    slope, _, _ = strong_convergence_order(fields, init, base_h=2e-4,
                                           levels=4, n_paths=64, seed=1,
                                           t_end=0.4)
    assert slope >= 0.45
    report("C07", f"noisy pendulum strong-order slope {slope:.3f} >= 0.45 "
           "(64 paths, 4 levels from h=2e-4)",
           time.perf_counter() - t0, 60.0)


def test_c08_action_stationarity():
    t0 = time.perf_counter()
    system = pendulum_lagrangian_system(gamma_coupling="const")
    init = initial_state(system, [1.0], p0=[0.0])
    ratios = {}
    for h, n in ((1e-4, 7000), (5e-5, 14_000)):
        fields = assemble_hp_fields(system, REFERENCE)
        grid = make_grid(0.0, h, n, REFERENCE)
        traj = integrate(EulerRun(fields, grid, zero_path(h, n, 1),
                                  init, REFERENCE))
        ratios[h] = stationarity_ratio(traj, system, REFERENCE,
                                       zero_path(h, n, 1),
                                       n_perturbations=20, seed=11)
    assert ratios[1e-4] <= 1e-3
    assert ratios[5e-5] < ratios[1e-4]
    report("C08", f"max |dA|/||w|| {ratios[1e-4]:.2e} <= 1e-3 at h=1e-4, "
           f"decreases to {ratios[5e-5]:.2e} at h/2",
           time.perf_counter() - t0, 60.0)


@pytest.fixture(scope="module")
def reference_runs(tmp_path_factory):
    """Two `frachp simulate` executions of the reference parameter set."""
    root = tmp_path_factory.mktemp("reference")
    cfg = root / "run.cfg"
    cfg.write_text(REFERENCE_CONFIG, encoding="utf-8")
    dirs, times = [], []
    for name in ("a", "b"):
        out = root / name
        t0 = time.perf_counter()
        assert cli_main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        times.append(time.perf_counter() - t0)
        dirs.append(out)
    return dirs, times


def test_c09_byte_identical_reruns(reference_runs):
    (a, b), times = reference_runs
    assert (a / "trajectory.csv").read_bytes() == \
        (b / "trajectory.csv").read_bytes()
    report("C09", "two seed-1 reference runs: trajectory.csv byte-identical",
           max(times), 10.0)


def _p_column(csv_path):
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    return data[:, 3]  # step, s, q_1, p_1, v_1


def test_c10_qualitative_figures(reference_runs):
    (a, _), times = reference_runs
    t0 = time.perf_counter()
    for name in ("p_vs_n.svg", "phase_qp.svg", "p_vs_n_noisy.svg",
                 "phase_qp_noisy.svg"):
        body = (a / name).read_text()
        assert "<polyline" in body and "NaN" not in body and "inf" not in body
    qv_det = float(np.sum(np.diff(
        _p_column(a / "trajectory_deterministic.csv")) ** 2))
    qv_noisy = float(np.sum(np.diff(_p_column(a / "trajectory.csv")) ** 2))
    assert np.isfinite(qv_noisy) and qv_noisy >= 10.0 * qv_det
    report("C10", f"4 SVG orbits emitted, finite; noisy p quadratic "
           f"variation {qv_noisy:.3e} >= 10x deterministic {qv_det:.3e}",
           times[0] + time.perf_counter() - t0, 20.0)


def test_c11_volterra_demo():
    t0 = time.perf_counter()
    # sigma = 0, beta = 1: classical growth at rate mu
    grid = TimeGrid(0.0, 1e-3, 1000)
    det = volterra_paths(VolterraCoefficients(mu=0.1, sigma=0.0, x0=1.0),
                         1.0, grid, np.zeros((1, 1000)))
    rel = abs(det[0, -1] - math.exp(0.1)) / math.exp(0.1)
    assert rel <= 0.01
    # mu = 0: martingale mean over 1e4 paths
    n = 64
    mgrid = TimeGrid(0.0, 1.0 / n, n)
    inc = np.vstack([
        generate_path(spawn_substream(31, i), 1.0 / n, n, 1).increments[:, 0]
        for i in range(10_000)])
    x_t = volterra_paths(VolterraCoefficients(mu=0.0, sigma=0.2, x0=1.0),
                         0.5, mgrid, inc)[:, -1]
    se = x_t.std(ddof=1) / math.sqrt(len(x_t))
    dev = abs(float(x_t.mean()) - 1.0)
    assert dev <= 3.0 * se
    report("C11", f"X(1) rel err {rel:.2e} <= 1% vs e^0.1; driftless mean "
           f"dev {dev:.2e} <= 3 SE ({3 * se:.2e}) over 1e4 paths",
           time.perf_counter() - t0, 60.0)


def test_c12_legendre_and_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    lag = pendulum_lagrangian_system()
    worst_rt = 0.0
    for _ in range(100):
        q = rng.uniform(-3.0, 3.0, size=1)
        v = rng.uniform(-3.0, 3.0, size=1)
        p, _ = legendre_transform(lag, q, v)
        back = invert_legendre(lag, q, p)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - v))))
    assert worst_rt <= 1e-10

    def fd(f, x, i, eps=1e-6):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        return (f(xp) - f(xm)) / (2.0 * eps)

    worst_g = 0.0
    ham = pendulum_system()
    met = polar_metric_system()
    for _ in range(100):
        q1 = rng.uniform(-3.0, 3.0, size=1)
        p1 = rng.uniform(-3.0, 3.0, size=1)
        worst_g = max(worst_g, abs(
            ham.grad_q(q1, p1)[0]
            - fd(lambda x: ham.hamiltonian(x, p1), q1, 0)))
        worst_g = max(worst_g, abs(
            ham.grad_p(q1, p1)[0]
            - fd(lambda x: ham.hamiltonian(q1, x), p1, 0)))
        worst_g = max(worst_g, abs(
            lag.grad_q(q1, p1)[0]
            - fd(lambda x: lag.lagrangian(x, p1), q1, 0)))
        worst_g = max(worst_g, abs(
            lag.grad_v(q1, p1)[0]
            - fd(lambda x: lag.lagrangian(q1, x), p1, 0)))
        q2 = np.array([rng.uniform(0.5, 3.0), rng.uniform(-3.0, 3.0)])
        dg = met.metric_grad(q2)
        for k in range(2):
            fd_g = fd(met.metric_at, q2, k)
            worst_g = max(worst_g, float(np.max(np.abs(dg[:, :, k] - fd_g))))
        ga = met.noise.grad_matrix(q2)
        fd_ga = np.column_stack(
            [[fd(lambda x: met.noise.gamma[0](x), q2, k)] for k in range(2)]
        ).reshape(2, 1)
        worst_g = max(worst_g, float(np.max(np.abs(ga - fd_ga))))
    assert worst_g <= 1e-6
    report("C12", f"Legendre round trip max err {worst_rt:.2e} <= 1e-10; "
           f"analytic vs central-difference gradients max err "
           f"{worst_g:.2e} <= 1e-6 (100 states per built-in)",
           time.perf_counter() - t0, 5.0)
