import gc
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frachp import fracint
from frachp.core import TimeGrid
from frachp.errors import GridMismatch, InvalidArgument, NumericalBlowup
from frachp.fracint import (SampledFunction, VolterraCoefficients,
                            fractional_wiener_integral, rl_integral,
                            volterra_paths)
from frachp.noise import generate_path, spawn_substream
from frachp.specfun import gamma, step_weights

from ._reference import volterra_reference


def const_sample(value, h, n):
    grid = TimeGrid(0.0, h, n)
    return SampledFunction(grid, np.full(n + 1, float(value)))


class TestRlIntegral:
    def test_zero_integrand(self):
        assert rl_integral(const_sample(0.0, 0.01, 100), 0.3, 2.0) == 0.0

    def test_classical_limit(self):
        # beta = 1 reduces to the ordinary integral of 1 over [0, 2]
        f = const_sample(1.0, 1e-3, 2000)
        assert rl_integral(f, 1.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_closed_form_constant(self):
        # int = t^beta / Gamma(beta + 1)
        expected = 0.8 ** 0.3 / gamma(1.3)
        coarse = rl_integral(const_sample(1.0, 1e-3, 800), 0.3, 0.8)
        fine = rl_integral(const_sample(1.0, 1e-4, 8000), 0.3, 0.8)
        assert coarse == pytest.approx(expected, rel=0.01)
        assert fine == pytest.approx(expected, rel=0.001)

    def test_order_validation(self):
        f = const_sample(1.0, 0.01, 10)
        with pytest.raises(InvalidArgument, match="^beta=0.0 "):
            rl_integral(f, 0.0, 1.0)
        with pytest.raises(InvalidArgument, match="^beta=1.5 "):
            rl_integral(f, 1.5, 1.0)

    def test_grid_past_t(self):
        with pytest.raises(GridMismatch):
            rl_integral(const_sample(1.0, 0.1, 10), 0.5, 0.5)

    def test_values_must_match_the_grid(self):
        with pytest.raises(GridMismatch,
                           match="^10 values for 11 grid points$"):
            SampledFunction(TimeGrid(0.0, 0.1, 10), np.ones(10))

    @pytest.mark.parametrize("values, shape", [(1.0, "()"),
                                               (np.ones((11, 1)), "(11, 1)")])
    def test_values_of_another_shape_are_named(self, values, shape):
        # A scalar has no length for the message to name: its shape is.
        with pytest.raises(GridMismatch,
                           match=rf"^values of shape {re.escape(shape)} "
                                 rf"for 11 grid points$"):
            SampledFunction(TimeGrid(0.0, 0.1, 10), values)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=25)
    def test_linearity(self, a, b):
        grid = TimeGrid(0.0, 0.01, 50)
        rng = np.random.default_rng(3)
        fv = rng.standard_normal(51)
        gv = rng.standard_normal(51)
        lhs = rl_integral(SampledFunction(grid, a * fv + b * gv), 0.4, 0.8)
        rhs = (a * rl_integral(SampledFunction(grid, fv), 0.4, 0.8)
               + b * rl_integral(SampledFunction(grid, gv), 0.4, 0.8))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_beta_one_matches_plain_rectangle(self):
        grid = TimeGrid(0.0, 0.01, 80)
        f = SampledFunction(grid, np.sin(grid.points))
        assert rl_integral(f, 1.0, 0.8) == pytest.approx(
            np.sum(f.values[:-1]) * grid.h, rel=1e-12)

    def test_refinement_order_at_least_one(self):
        # smooth integrand, fractional kernel: error ~ C h
        expected_ref = rl_integral(SampledFunction(
            TimeGrid(0.0, 1e-5, 80_000),
            np.exp(TimeGrid(0.0, 1e-5, 80_000).points)), 0.5, 0.8)
        errs = []
        for h, n in ((4e-3, 200), (2e-3, 400), (1e-3, 800)):
            grid = TimeGrid(0.0, h, n)
            val = rl_integral(SampledFunction(grid, np.exp(grid.points)),
                              0.5, 0.8)
            errs.append(abs(val - expected_ref))
        order = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert order >= 0.9


class TestFractionalWienerIntegral:
    def test_zero_integrand(self):
        g = const_sample(0.0, 0.01, 80)
        path = generate_path(1, 0.01, 80, 1)
        assert fractional_wiener_integral(g, 0.3, 0.8, path, 0) == 0.0

    def test_beta_one_is_terminal_brownian(self):
        g = const_sample(1.0, 0.01, 80)
        path = generate_path(2, 0.01, 80, 1)
        val = fractional_wiener_integral(g, 1.0, 0.8, path, 0)
        assert val == pytest.approx(float(np.sum(path.increments[:, 0])),
                                    rel=1e-12)

    def test_bad_channel(self):
        g = const_sample(1.0, 0.01, 80)
        path = generate_path(1, 0.01, 80, 1)
        with pytest.raises(InvalidArgument, match="^channel=1 "):
            fractional_wiener_integral(g, 0.3, 0.8, path, 1)

    def test_grid_mismatch(self):
        g = const_sample(1.0, 0.01, 80)
        path = generate_path(1, 0.01, 40, 1)
        with pytest.raises(GridMismatch):
            fractional_wiener_integral(g, 0.3, 0.8, path, 0)

    def test_step_mismatch_is_relative(self):
        # h differs by 1e-9 relative, far below an absolute 1e-12 at h = 1e-4
        g = const_sample(1.0, 1e-4, 80)
        path = generate_path(1, 1e-4 * (1 + 1e-9), 80, 1)
        with pytest.raises(GridMismatch):
            fractional_wiener_integral(g, 0.3, 0.8, path, 0)

    def test_linearity_in_g(self):
        grid = TimeGrid(0.0, 0.01, 60)
        path = generate_path(5, 0.01, 60, 1)
        rng = np.random.default_rng(1)
        gv = rng.standard_normal(61)
        one = fractional_wiener_integral(SampledFunction(grid, gv),
                                         0.4, 0.8, path, 0)
        three = fractional_wiener_integral(SampledFunction(grid, 3.0 * gv),
                                           0.4, 0.8, path, 0)
        assert three == pytest.approx(3.0 * one, rel=1e-12)

    def test_ito_isometry_guarded_grid(self):
        # grid stops short of t: variance matches the left-endpoint sum
        beta, t, h, n = 0.3, 0.8, 1e-3, 700
        grid = TimeGrid(0.0, h, n)
        g = SampledFunction(grid, np.ones(n + 1))
        vals = [fractional_wiener_integral(
            g, beta, t, generate_path(spawn_substream(77, i), h, n, 1), 0)
            for i in range(4000)]
        s = grid.points[:-1]
        predicted = np.sum((t - s) ** (beta - 1.0)) * h \
            / gamma((beta + 1.0) / 2.0) ** 2
        assert np.var(vals) == pytest.approx(predicted, rel=0.1)


# Coefficient sets the recursion is checked on against the per-step
# reference, by name.
COEFFICIENTS = {"constant": VolterraCoefficients(mu=0.05, sigma=0.3, x0=1.0)}


class TestVolterra:
    def test_no_dynamics(self):
        grid = TimeGrid(0.0, 0.01, 50)
        coeffs = VolterraCoefficients(mu=0.0, sigma=0.0, x0=2.5)
        x = volterra_paths(coeffs, 0.5, grid, np.zeros((1, 50)))
        assert np.all(x == 2.5)

    def test_classical_ode_limit(self):
        grid = TimeGrid(0.0, 1e-3, 1000)
        coeffs = VolterraCoefficients(mu=0.1, sigma=0.0, x0=1.0)
        x = volterra_paths(coeffs, 1.0, grid, np.zeros((1, 1000)))
        assert x[0, -1] == pytest.approx(math.exp(0.1), rel=0.01)

    def test_martingale_mean(self):
        grid = TimeGrid(0.0, 1.0 / 64, 64)
        inc = np.vstack([
            generate_path(spawn_substream(9, i), 1.0 / 64, 64, 1)
            .increments[:, 0] for i in range(2000)])
        coeffs = VolterraCoefficients(mu=0.0, sigma=0.2, x0=1.0)
        xt = volterra_paths(coeffs, 0.5, grid, inc)[:, -1]
        se = xt.std(ddof=1) / math.sqrt(len(xt))
        assert abs(xt.mean() - 1.0) <= 3.0 * se

    @pytest.mark.parametrize("coeffs", COEFFICIENTS.values(),
                             ids=COEFFICIENTS.keys())
    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 1.0])
    def test_matches_per_step_reference(self, beta, coeffs, monkeypatch):
        n, h = 2000, 5e-4
        grid = TimeGrid(0.0, h, n)
        inc = np.vstack([
            generate_path(spawn_substream(21, i), h, n, 1).increments[:, 0]
            for i in range(8)])
        calls = []

        def counted(*args):
            calls.append(args)
            return step_weights(*args)

        monkeypatch.setattr(fracint, "step_weights", counted)
        x = volterra_paths(coeffs, beta, grid, inc)
        assert len(calls) == 1
        x_ref = volterra_reference(coeffs, beta, grid, inc)
        # Relative to the largest value, not pointwise: X passes near 0.
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    @pytest.mark.parametrize("n_paths", [1, 8])
    @pytest.mark.parametrize("coeffs", COEFFICIENTS.values(),
                             ids=COEFFICIENTS.keys())
    @pytest.mark.parametrize("n", [1, 2, fracint._BLOCK - 1, fracint._BLOCK,
                                   fracint._BLOCK + 1,
                                   2 * fracint._BLOCK + 1, 1001])
    def test_matches_reference_across_block_edges(self, n, coeffs, n_paths):
        h = 1e-3
        grid = TimeGrid(0.0, h, n)
        inc = np.vstack([
            generate_path(spawn_substream(22, i), h, n, 1).increments[:, 0]
            for i in range(n_paths)])
        x = volterra_paths(coeffs, 0.3, grid, inc)
        x_ref = volterra_reference(coeffs, 0.3, grid, inc)
        assert x.shape == x_ref.shape
        assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))

    def _ensemble(self, n=4 * fracint._BLOCK + 3, n_paths=5):
        grid = TimeGrid(0.0, 1e-3, n)
        inc = np.vstack([
            generate_path(spawn_substream(23, i), 1e-3, n, 1)
            .increments[:, 0] for i in range(n_paths)])
        return grid, inc

    def test_repeat_calls_are_bitwise_equal(self):
        grid, inc = self._ensemble()
        coeffs = VolterraCoefficients(mu=0.05, sigma=0.3, x0=1.0)
        x = volterra_paths(coeffs, 0.4, grid, inc)
        assert np.array_equal(x, volterra_paths(coeffs, 0.4, grid, inc))

    @pytest.mark.parametrize("n, digest", [
        (1001, "f688ac79da0992a8fb8e1e836673908b"
               "00679efebb6d3f21efb11db2e98cfa03"),
        (4 * fracint._BLOCK + 3, "e15d499a5c9b37b14131dc48e53bd6fd"
                                 "baf085a7cae0fa1a1cd679c23de41d75"),
    ])
    def test_output_bytes_are_pinned(self, n, digest):
        # Golden sha256 of X over many blocks and folds of every size the
        # grid reaches: the direct loop's matvecs and the FFT products, to
        # the bit.
        grid = TimeGrid(0.0, 1e-3, n)
        inc = np.vstack([
            generate_path(spawn_substream(24, i), 1e-3, n, 1)
            .increments[:, 0] for i in range(8)])
        x = volterra_paths(COEFFICIENTS["constant"], 0.3, grid, inc)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    def test_interleaved_calls_match_calls_alone(self):
        # Each call owns its buffers: calls of other shapes in between
        # leave no trace in the bits.
        coeffs = COEFFICIENTS["constant"]
        shapes = [(5, 4 * fracint._BLOCK + 3), (1, fracint._BLOCK - 1),
                  (8, 2 * fracint._BLOCK + 1), (3, 1)]
        cases = [self._ensemble(n, n_paths) for n_paths, n in shapes]
        alone = [volterra_paths(coeffs, 0.3, grid, inc)
                 for grid, inc in cases]
        for order in (range(4), (3, 0, 2, 1, 0, 3)):
            for i in order:
                assert np.array_equal(
                    volterra_paths(coeffs, 0.3, *cases[i]), alone[i])

    def test_no_dynamics_across_folds(self):
        # Many blocks, so the FFT folds run; zero sources fold to exactly 0.
        grid, inc = self._ensemble()
        coeffs = VolterraCoefficients(mu=0.0, sigma=0.0, x0=2.5)
        assert np.all(volterra_paths(coeffs, 0.5, grid, inc) == 2.5)

    def test_leaves_no_garbage(self):
        # A reference cycle would keep the call's arrays alive until the
        # cyclic collector runs.
        grid, inc = self._ensemble()
        coeffs = VolterraCoefficients(mu=0.05, sigma=0.3, x0=1.0)
        gc.collect()
        gc.disable()
        try:
            volterra_paths(coeffs, 0.5, grid, inc)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_overflow_names_step_and_path(self):
        # mu = 1e6 overflows every path from step 73 on; no RuntimeWarning
        # comes before the error.
        h, n = 0.00025, 200
        grid = TimeGrid(0.0, h, n)
        inc = np.vstack([
            generate_path(spawn_substream(1, i), h, n, 1).increments[:, 0]
            for i in range(8)])
        coeffs = VolterraCoefficients(mu=1e6, sigma=0.2, x0=1.0)
        with pytest.raises(NumericalBlowup,
                           match=r"^non-finite X at step 73 \(s = 0.01825\) "
                                 r"on path 0$") as info:
            volterra_paths(coeffs, 0.5, grid, inc)
        assert (info.value.step, info.value.path) == (73, 0)
        assert info.value.s == grid.point(73)

    def test_overflow_names_the_lowest_failing_path(self):
        # Path 0 is never driven; paths 1 and 2 overflow at step 2, when
        # X_1 ~ 1e200 meets a second increment of 1e200.
        grid = TimeGrid(0.0, 0.01, 5)
        inc = np.zeros((3, 5))
        inc[1:] = 1e200
        coeffs = VolterraCoefficients(mu=0.0, sigma=1.0, x0=1.0)
        with pytest.raises(NumericalBlowup) as info:
            volterra_paths(coeffs, 0.5, grid, inc)
        assert (info.value.step, info.value.path) == (2, 1)

    def test_huge_finite_values_pass(self):
        # X(T) ~ 1.1e17, past the HP integrator's 1e12, is finite and is
        # returned.
        grid = TimeGrid(0.0, 1e-3, 1000)
        coeffs = VolterraCoefficients(mu=40.0, sigma=0.0, x0=1.0)
        x = volterra_paths(coeffs, 1.0, grid, np.zeros((1, 1000)))
        assert 1e16 < x[0, -1] < np.inf

    @pytest.mark.parametrize("shape", [(2, 10, 1), (2, 9)],
                             ids=["3-d", "wrong-N"])
    def test_increment_table_must_be_paths_by_steps(self, shape):
        # A (2, 10, 1) table used to fail inside numpy's broadcasting.
        coeffs = VolterraCoefficients(mu=0.1, sigma=0.2, x0=1.0)
        with pytest.raises(GridMismatch,
                           match=rf"^increments \({shape[0]}, .*\(P, 10\)"):
            volterra_paths(coeffs, 0.5, TimeGrid(0.0, 0.1, 10),
                           np.zeros(shape))

    def test_negative_coefficients_rejected(self):
        with pytest.raises(InvalidArgument, match="^mu=-1.0 "):
            VolterraCoefficients(mu=-1.0, sigma=0.0, x0=1.0)

    @pytest.mark.parametrize("name, value", [
        ("mu", lambda s: 0.1), ("sigma", lambda s: 0.2),
        ("mu", np.full(11, 0.1)), ("sigma", [0.2] * 11)],
        ids=["callable-mu", "callable-sigma", "array-mu", "list-sigma"])
    def test_non_constant_coefficients_rejected(self, name, value):
        # The coefficients are constants: a callable or grid samples fail
        # at construction, naming the field, not later inside numpy.
        kwargs = {"mu": 0.1, "sigma": 0.2, "x0": 1.0, name: value}
        with pytest.raises(InvalidArgument,
                           match=f"^{name}=.* must be a real number$"):
            VolterraCoefficients(**kwargs)

    def test_compare_by_value(self):
        a = VolterraCoefficients(mu=0.1, sigma=0.2, x0=1.0)
        assert a == VolterraCoefficients(mu=0.1, sigma=0.2, x0=1.0)
        assert hash(a) == hash(VolterraCoefficients(0.1, 0.2, 1.0))
        assert a != VolterraCoefficients(mu=0.1, sigma=0.3, x0=1.0)

    def test_x0_positive(self):
        with pytest.raises(ValueError):
            VolterraCoefficients(mu=0.0, sigma=0.0, x0=0.0)
