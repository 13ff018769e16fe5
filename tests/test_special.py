import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from numpy.testing import assert_allclose

from entsense.special import RngStream, hyp1f1, sample_scaled_chi2


# Frozen oracle values (exact rational / brute-force series).
L3_1_5 = -0.6875  # L_3(1.5) = (6 - 18x + 9x^2 - x^3) / 6, exact
HYP_HALF_2_1 = 1.3281918274866849  # 200-term series


class TestHyp1f1:
    def test_z_zero(self):
        assert hyp1f1(0.3, 1.7, 0.0) == 1.0

    def test_terminating_equals_laguerre(self):
        assert_allclose(hyp1f1(-3, 1, 1.5), L3_1_5, rtol=1e-13)

    def test_series_oracle(self):
        assert_allclose(hyp1f1(0.5, 2.0, 1.0), HYP_HALF_2_1, rtol=1e-12)

    @pytest.mark.parametrize(
        "a, b, z, want",
        [
            (0.5, 2.0, -100.0, 0.11255475054034959),  # mpmath
            (1.3, 2.7, 85.0, 2.8021494699524978e34),  # mpmath
        ],
    )
    def test_large_argument_branches(self, a, b, z, want):
        assert_allclose(hyp1f1(a, b, z), want, rtol=1e-10)

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.5, 2.75])
    @pytest.mark.parametrize("b", [0.6, 1.0, 3.5])
    @pytest.mark.parametrize("z", [-80.0, -31.0, -12.0, -0.5, 4.0, 29.0, 45.0])
    def test_kummer_transform(self, a, b, z):
        lhs = hyp1f1(a, b, z)
        rhs = math.exp(z) * hyp1f1(b - a, b, -z)
        assert_allclose(lhs, rhs, rtol=1e-9)

    def test_matches_scipy_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.uniform(-4, 4)
            b = rng.uniform(0.1, 6)
            z = rng.uniform(-60, 60)
            want = scipy.special.hyp1f1(a, b, z)
            assert_allclose(hyp1f1(a, b, z), want, rtol=2e-9, atol=1e-300)

    def test_nonpositive_integer_b_rejected(self):
        with pytest.raises(ValueError):
            hyp1f1(0.5, -2, 1.0)

    def test_overflow_signaled(self):
        with pytest.raises(OverflowError):
            hyp1f1(0.5, 1.0, 2000.0)


class TestMpmathOracle:
    # 40-digit mpmath values, independent of scipy.  The two fixed points sit
    # just past z = 60, where a Taylor/asymptotic crossover would show.
    def test_hyp1f1_and_laguerre(self):
        rng = np.random.default_rng(20261018)
        points = [(-9.9, 2.7, 61.0), (-9.87, 2.73, 66.3)]
        points += [
            (rng.uniform(-10, 10), rng.uniform(0.1, 10), rng.uniform(-300, 300))
            for _ in range(200)
        ]
        with mpmath.workdps(40):
            for a, b, z in points:
                want = float(mpmath.hyp1f1(a, b, z))
                assert_allclose(hyp1f1(a, b, z), want, rtol=1e-12, atol=0)
            # Terminating series: 1F1(-n; 1; x) = L_n(x).
            x = np.linspace(-50, 50, 41)
            for n in (2, 17, 60, 199, 500):
                want = np.array([float(mpmath.laguerre(n, 0, xi)) for xi in x])
                got = np.array([hyp1f1(-n, 1, xi) for xi in x])
                err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
                assert np.max(err) <= 1e-12, (n, np.max(err))


class TestSampleScaledChi2:
    def test_moments(self):
        rng = RngStream(11, 0)
        xs = sample_scaled_chi2(10, 0.01, rng, size=10**6)
        mean, var = xs.mean(), xs.var()
        # mean 0.2, variance 0.004; MC sigma for the mean is sqrt(var/n)
        assert abs(mean - 0.2) < 3 * math.sqrt(0.004 / xs.size)
        assert abs(var - 0.004) < 3 * 0.004 * math.sqrt(2.0 / xs.size) * 2

    def test_ks_statistic(self):
        rng = RngStream(5, 3)
        xs = sample_scaled_chi2(6, 0.4, rng, size=10**5)
        stat = scipy.stats.kstest(xs, scipy.stats.chi2(12, scale=0.4).cdf).statistic
        assert stat < 1.63 / math.sqrt(xs.size)  # 1% critical value

    def test_gaussian_surrogate_regime(self):
        rng = RngStream(1, 0)
        m = 3 * 10**6
        xi = 1e-7
        xs = sample_scaled_chi2(m, xi, rng, size=200_000)
        assert np.all(xs >= 0)
        assert_allclose(xs.mean(), 2 * m * xi, rtol=5e-4)
        assert_allclose(xs.std(), 2 * math.sqrt(m) * xi, rtol=2e-2)

    @pytest.mark.parametrize("m", [10, 10**6, 3 * 10**6])
    def test_exact_chisquare_draw(self, m):
        xi = 1e-7
        got = sample_scaled_chi2(m, xi, RngStream(4, 2), size=64)
        want = xi * RngStream(4, 2).generator().chisquare(2 * m, size=64)
        assert np.array_equal(got, want)
        scalar = sample_scaled_chi2(m, xi, RngStream(4, 2).generator())
        assert scalar == xi * RngStream(4, 2).generator().chisquare(2 * m)

    def test_scalar_draw(self):
        x = sample_scaled_chi2(4, 0.2, RngStream(9).generator())
        assert isinstance(x, float) and x > 0


class TestRngStream:
    def test_replay(self):
        a = RngStream(123, 4).generator().random(16)
        b = RngStream(123, 4).generator().random(16)
        assert np.array_equal(a, b)

    def test_trial_replay_and_distinctness(self):
        s = RngStream(123, 4)
        t0 = s.trial_generator(0).random(8)
        t0_again = s.trial_generator(0).random(8)
        t1 = s.trial_generator(1).random(8)
        assert np.array_equal(t0, t0_again)
        assert not np.array_equal(t0, t1)

    def test_streams_uncorrelated_smoke(self):
        n = 10**5
        a = RngStream(7, 0).generator().standard_normal(n)
        b = RngStream(7, 1).generator().standard_normal(n)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 4.0 / math.sqrt(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, -2)

    def test_rejects_non_integral_keys(self):
        # Truncating would make RngStream(1.5) replay RngStream(1).
        for args in [(1.5,), (1, 0.7), (math.nan,), (math.inf,), (1, math.inf)]:
            with pytest.raises(ValueError, match="must be a nonnegative integer"):
                RngStream(*args)
        for trial in (2.9, math.nan, -1):
            with pytest.raises(ValueError, match="trial must be a nonnegative integer"):
                RngStream(1).trial_generator(trial)
        numpy_keys = RngStream(np.int64(1), np.uint8(2)).trial_generator(np.int32(3))
        assert numpy_keys.random() == RngStream(1, 2).trial_generator(3).random()
        assert RngStream(np.uint64(2**64 - 1)).root_seed == 2**64 - 1
