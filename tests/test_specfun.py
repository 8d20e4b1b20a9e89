import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frachp.core import FractionalParams
from frachp.errors import InvalidArgument
from frachp.specfun import (gamma, hp_noise_coefficient, power_kernel,
                            step_weights)


def mp_gamma(x):
    import mpmath as mp
    with mp.workdps(30):
        return float(mp.gamma(mp.mpf(repr(x))))


class TestGamma:
    def test_integers(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_against_high_precision_oracle(self):
        assert gamma(0.6) == pytest.approx(1.4891922488128171, rel=1e-12)
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.1, 10.0, size=100):
            assert gamma(float(x)) == pytest.approx(mp_gamma(float(x)),
                                                    rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgument, match="^x=0.0 "):
            gamma(0.0)
        with pytest.raises(InvalidArgument, match="^x=-1.3 "):
            gamma(-1.3)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, x):
        with pytest.raises(InvalidArgument, match=f"^x={x} "):
            gamma(x)

    def test_large_arguments_match_math_gamma(self):
        # t^(z + 1/2) overflows from x ~ 142.4; gamma(x) only at ~171.62.
        for x in [142.0, 142.5, 150.0, *np.linspace(143.0, 171.6, 60)]:
            assert gamma(float(x)) == pytest.approx(math.gamma(float(x)),
                                                    rel=1e-12)

    @pytest.mark.parametrize("x", [171.7, 200.0, 1e300, 5e-309, 5e-324])
    def test_overflow_names_x(self, x):
        with pytest.raises(InvalidArgument, match="overflows") as exc:
            gamma(x)
        assert str(exc.value).startswith(f"x={x} ")

    def test_bits_below_the_overflow_are_pinned(self):
        # The bits of the unsplit Lanczos formula, which the package's
        # orders in (0, 1] take.
        pins = {0.3: "2.9915689876875904", 0.6: "1.489192248812818",
                1.0: "0.9999999999999998", 7.5: "1871.2543057977916",
                142.0: "1.8981437590760007e+243"}
        assert {x: repr(gamma(x)) for x in pins} == pins

    @given(st.floats(min_value=0.1, max_value=9.0))
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)

    @given(st.floats(min_value=0.1, max_value=0.9))
    def test_reflection(self, x):
        val = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        assert val == pytest.approx(1.0, rel=1e-10)


class TestPowerKernel:
    def test_zero_exponent(self):
        for h in (1e-8, 1e-4, 0.1):
            assert power_kernel(0.8, 0.8 - h, 0.0) == 1.0

    def test_fractional_value(self):
        assert power_kernel(0.8, 0.0, 0.3 - 0.6) == pytest.approx(
            1.0692345999911880, rel=1e-13)

    def test_one_base(self):
        assert power_kernel(1.0, 0.0, 0.3 - 1.0) == pytest.approx(1.0)

    def test_singularity(self):
        with pytest.raises(InvalidArgument, match="^t=0.5 "):
            power_kernel(0.5, 0.5, -0.3)
        with pytest.raises(InvalidArgument, match="^t=0.5 "):
            power_kernel(0.5, 0.7, -0.3)

    @given(st.floats(min_value=0.01, max_value=0.69),
           st.floats(min_value=0.01, max_value=0.69))
    @settings(max_examples=50)
    def test_monotone_in_s(self, s1, s2):
        # negative exponent: kernel increases as s approaches t
        t, e = 0.8, -0.4
        lo, hi = sorted((s1, s2))
        if lo < hi:
            assert power_kernel(t, lo, e) <= power_kernel(t, hi, e)


class TestNoiseCoefficient:
    def test_alpha_equals_beta_is_exact_one(self):
        params = FractionalParams(0.6, 0.6, 0.8)
        rng = np.random.default_rng(0)
        for s in rng.uniform(0.0, 0.79, size=100):
            assert hp_noise_coefficient(params, float(s)) == 1.0

    def test_classical_limit(self):
        params = FractionalParams(1.0, 1.0, 0.8)
        assert hp_noise_coefficient(params, 0.3) == 1.0

    def test_composite_value(self):
        params = FractionalParams(0.6, 0.3, 0.8)
        expected = (gamma(0.6) / gamma(0.3)) * 0.8 ** (0.3 - 0.6)
        assert hp_noise_coefficient(params, 0.0) == pytest.approx(
            expected, rel=1e-13)
        assert hp_noise_coefficient(params, 0.0) == pytest.approx(
            0.53226112619256554, rel=1e-12)


class TestStepWeights:
    def test_sum_is_the_kernel_integral(self):
        s = np.linspace(0.0, 0.8, 81)
        w = step_weights(0.8, s, 0.3)
        assert w.shape == (80,)
        assert np.sum(w) == pytest.approx(0.8 ** 0.3 / 0.3, rel=1e-13)

    def test_steps_past_t_weigh_zero(self):
        w = step_weights(0.5, np.linspace(0.0, 1.0, 11), 0.3)
        assert np.all(w[:5] > 0.0) and np.all(w[5:] == 0.0)

    @pytest.mark.parametrize("order", [0.1, 0.3, 0.6])
    def test_against_40_digit_weights(self, order):
        # h = 2^-11 makes the float grid the exact grid j*h; the weight of
        # each step, long lags included, is then within a few ulps.
        import mpmath as mp
        h, n = 2.0 ** -11, 2000
        s = np.arange(n + 1) * h
        for k in (n, n // 2):  # the t_end frame and a per-step one
            t = float(s[k])
            got = step_weights(t, s, order)
            assert np.all(got[k:] == 0.0)
            with mp.workdps(40):
                o, big_h = mp.mpf(order), mp.mpf(h)
                want = [((k - j) ** o - (k - j - 1) ** o) * big_h ** o / o
                        for j in range(k)]
                ulps = max(abs(mp.mpf(float(x)) - w) / (w * 2.0 ** -52)
                           for x, w in zip(got[:k], want))
            assert ulps <= 4.0, (k, float(ulps))
