"""Tests for Fisher-information formulas and the general Gaussian QFI."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from entsense.conversion import conversion_params, expect_total_displacement
from entsense.gaussian import ChannelParams, GaussianState, apply_channel, tmsv
from entsense.metrology import (
    fi_homodyne,
    fi_opar,
    fi_pcr,
    gaussian_qfi,
    opar_optimal_gain,
    qfi_c2d,
    qfi_cs,
    qfi_tmsv,
    qfi_upper_bound,
)

FIG2A = ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)


def displaced_thermal_family(x, e_noise):
    """theta -> displaced thermal state sqrt(x) e^{i theta} with noise E."""

    def fn(theta):
        mean = np.array(
            [2.0 * math.sqrt(x) * math.cos(theta), 2.0 * math.sqrt(x) * math.sin(theta)]
        )
        return GaussianState(1, mean, (2.0 * e_noise + 1.0) * np.eye(2))

    return fn


class TestGaussianQfi:
    @pytest.mark.parametrize(
        "x, e_noise",
        [(0.5, 0.0), (2.0, 1.3), (1e-3, 20.0), (7.0, 0.2), (0.04, 5.0)],
    )
    def test_displaced_thermal(self, x, e_noise):
        got = gaussian_qfi(displaced_thermal_family(x, e_noise), 0.7)
        assert_allclose(got, 4.0 * x / (1.0 + 2.0 * e_noise), rtol=1e-6)

    def test_zero_displacement(self):
        assert gaussian_qfi(displaced_thermal_family(0.0, 1.5), 0.3) == 0.0

    def test_coherent_shot_noise(self):
        got = gaussian_qfi(displaced_thermal_family(1.7, 0.0), -0.2)
        assert_allclose(got, 4.0 * 1.7, rtol=1e-6)

    @pytest.mark.parametrize(
        "n_s, kappa, n_b",
        [(0.001, 0.01, 20.0), (0.5, 0.3, 1.0), (2.0, 0.8, 5.0), (0.01, 0.99, 0.5)],
    )
    def test_two_mode_channel_output(self, n_s, kappa, n_b):
        # covariance-derivative term dominant (mean stays zero)
        def fn(theta):
            return apply_channel(tmsv(n_s), 0, ChannelParams(kappa, theta, n_b))

        got = gaussian_qfi(fn, 0.4)
        assert_allclose(got, qfi_tmsv(n_s, ChannelParams(kappa, 0.0, n_b), 1), rtol=1e-6)

    def test_evaluation_point_irrelevant_for_phase_families(self):
        fn = displaced_thermal_family(0.8, 2.0)
        assert_allclose(gaussian_qfi(fn, 0.0), gaussian_qfi(fn, 2.1), rtol=1e-9)

    def test_singular_r_matrix(self):
        # a pure squeezed state rotated by theta has a degenerate
        # second-moment kernel
        def fn(theta):
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            v = rot @ np.diag([math.e**2, math.e**-2]) @ rot.T
            return GaussianState(1, np.zeros(2), v)

        with pytest.raises(ValueError, match="R"):
            gaussian_qfi(fn, 0.3)

    def test_singular_sigma(self):
        st = GaussianState(1, np.zeros(2), np.diag([1e-7, 1e7]))
        with pytest.raises(ValueError, match="Sigma"):
            gaussian_qfi(lambda theta: st, 0.0)

    def test_fd_step_validated(self):
        with pytest.raises(ValueError, match="fd_step"):
            gaussian_qfi(displaced_thermal_family(1.0, 0.0), 0.0, fd_step=0.0)


class TestQfiC2d:
    def test_reference_point(self):
        assert_allclose(qfi_c2d(0.001, FIG2A, 1), 1.9028618490931703e-06, rtol=1e-12)
        assert_allclose(qfi_c2d(0.001, FIG2A, 1), 1.9029e-06, rtol=1e-4)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(20240814)
        for _ in range(30):
            n_s = 10.0 ** rng.uniform(-4, 2)
            ch = ChannelParams(rng.uniform(0.01, 0.99), 0.0, 10.0 ** rng.uniform(-2, 4))
            m = int(rng.integers(1, 10**6))
            p = conversion_params(n_s, ch)
            alt = 8.0 * m * p.xi / (1.0 + 2.0 * p.e_noise)
            assert_allclose(qfi_c2d(n_s, ch, m), alt, rtol=1e-12)

    def test_factor_two_over_coherent(self):
        ch = ChannelParams(0.01, 0.0, 1e6)
        ratio = qfi_c2d(1e-7, ch, 1) / qfi_cs(1e-7, ch, 1)
        assert_allclose(ratio, 2.0, rtol=1e-5)

    def test_scales_with_m(self):
        assert_allclose(qfi_c2d(0.001, FIG2A, 250), 250 * qfi_c2d(0.001, FIG2A, 1), rtol=1e-15)

    def test_negative_n_s(self):
        with pytest.raises(ValueError):
            qfi_c2d(-0.1, FIG2A, 1)


class TestQfiCs:
    def test_noiseless(self):
        ch = ChannelParams(0.4, 0.0, 0.0)
        assert qfi_cs(2.0, ch, 3) == pytest.approx(4 * 3 * 0.4 * 2.0, rel=1e-15)

    def test_reference_point(self):
        assert_allclose(qfi_cs(0.001, FIG2A, 1), 9.75609756097561e-07, rtol=1e-12)

    @pytest.mark.parametrize("kappa, n_b", [(0.3, 2.0), (0.9, 0.5), (0.01, 20.0)])
    def test_advantage_boundary(self, kappa, n_b):
        ch = ChannelParams(kappa, 0.0, n_b)
        threshold = n_b / (1.0 - kappa)
        for frac in (0.5, 0.999999):
            n_s = threshold * frac
            assert qfi_c2d(n_s, ch, 1) >= qfi_cs(n_s, ch, 1)
        for frac in (1.000001, 2.0):
            n_s = threshold * frac
            assert qfi_c2d(n_s, ch, 1) < qfi_cs(n_s, ch, 1)


class TestQfiUpperBound:
    def test_lossless_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            qfi_upper_bound(0.1, ChannelParams(1.0, 0.0, 0.0), 1)

    @pytest.mark.parametrize("kappa, n_b", [(0.5, 1.0), (0.9, 10.0), (0.1, 0.2)])
    def test_weak_signal_ratio(self, kappa, n_b):
        ch = ChannelParams(kappa, 0.0, n_b)
        ratio = qfi_c2d(1e-10, ch, 1) / qfi_upper_bound(1e-10, ch, 1)
        assert_allclose(ratio, 1.0 - kappa / (1.0 + n_b), rtol=1e-8)

    def test_weak_coupling_optimal(self):
        ch = ChannelParams(1e-6, 0.0, 3.0)
        ratio = qfi_c2d(1e-10, ch, 1) / qfi_upper_bound(1e-10, ch, 1)
        assert_allclose(ratio, 1.0, rtol=1e-6)


class TestQfiTmsv:
    def test_vacuum_source(self):
        assert qfi_tmsv(0.0, FIG2A, 5) == 0.0

    def test_bright_background_attained(self):
        ch = ChannelParams(0.01, 0.0, 1e3)
        ratio = qfi_c2d(0.001, ch, 1) / qfi_tmsv(0.001, ch, 1)
        assert abs(ratio - 1.0) < 0.01

    def test_scales_with_m(self):
        assert_allclose(qfi_tmsv(0.3, FIG2A, 40), 40 * qfi_tmsv(0.3, FIG2A, 1), rtol=1e-15)


class TestFiHomodyne:
    @pytest.mark.parametrize("x, e_noise", [(0.5, 1.0), (2.0, 0.0), (1e-3, 20.0)])
    def test_quadrature_phase_attains_qfi(self, x, e_noise):
        got = fi_homodyne(x, e_noise, math.pi / 2)
        qfi = gaussian_qfi(displaced_thermal_family(x, e_noise), 0.1)
        assert_allclose(got, qfi, rtol=1e-6)

    def test_in_phase_blind(self):
        assert fi_homodyne(1.0, 0.5, 0.0) == 0.0

    def test_diagonal_phase_half(self):
        assert_allclose(
            fi_homodyne(1.0, 0.5, math.pi / 4),
            0.5 * fi_homodyne(1.0, 0.5, math.pi / 2),
            rtol=1e-12,
        )

    def test_negative_inputs(self):
        with pytest.raises(ValueError):
            fi_homodyne(-1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            fi_homodyne(1.0, -0.5, 0.1)


class TestFiOpar:
    def test_unit_gain_blind(self):
        assert fi_opar(0.01, FIG2A, 1, math.pi / 2, gain=1.0) == 0.0

    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            fi_opar(0.01, FIG2A, 1, math.pi / 2, gain=0.99)

    def test_optimal_gain_reference(self):
        ch = ChannelParams(0.98, 0.0, 1.0)
        assert_allclose(opar_optimal_gain(1e-4, ch), 1.007121255343407, rtol=1e-12)

    def test_optimal_gain_against_optimizer(self):
        ch = ChannelParams(0.98, 0.0, 1.0)
        g_star = opar_optimal_gain(1e-4, ch)
        res = minimize_scalar(
            lambda g: -fi_opar(1e-4, ch, 1, math.pi / 2, gain=g),
            bounds=(1.0, 1.0 + 10.0 * (g_star - 1.0)),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert_allclose(g_star, res.x, rtol=1e-6)

    @pytest.mark.parametrize("n_s", [1e-4, 1e-6, 1e-8])
    def test_weak_signal_asymptote(self, n_s):
        ch = ChannelParams(0.8, 0.0, 1.0)
        got = fi_opar(n_s, ch, 1, math.pi / 2)
        lead = 4.0 * ch.kappa * n_s / (1.0 + ch.n_b)
        # correction is O(n_s^{3/2})
        assert abs(got / lead - 1.0) < 3.0 * math.sqrt(n_s)

    @pytest.mark.parametrize("point_seed", [0, 1, 2])
    def test_optimal_gain_dominates(self, point_seed):
        rng = np.random.default_rng(500 + point_seed)
        n_s = 10.0 ** rng.uniform(-5, -1)
        ch = ChannelParams(rng.uniform(0.1, 0.99), 0.0, 10.0 ** rng.uniform(-0.5, 3))
        best = fi_opar(n_s, ch, 1, math.pi / 2)
        for gain in 1.0 + rng.exponential(2.0, size=50):
            assert best >= fi_opar(n_s, ch, 1, math.pi / 2, gain=gain) * (1 - 1e-12)

    def test_optimal_gain_undefined_regime(self):
        # source brighter than the amplified background
        with pytest.raises(ValueError, match="optimal gain"):
            opar_optimal_gain(5.0, ChannelParams(0.1, 0.0, 0.01))


class TestFiPcr:
    def test_monotone_in_gain(self):
        gains = np.linspace(1.001, 50.0, 120)
        vals = [fi_pcr(0.001, FIG2A, 1, 1.0, gain=g) for g in gains]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_in_phase_blind(self):
        assert fi_pcr(0.01, FIG2A, 1, 0.0) == 0.0

    def test_gain_condition_limit(self):
        n_s = 1e-4
        got = fi_pcr(n_s, FIG2A, 1, math.pi / 2, gain=100.0)
        want = 4.0 * FIG2A.kappa * n_s / (1.0 + FIG2A.n_b)
        assert_allclose(got, want, rtol=1e-3)

    def test_default_gain_is_two(self):
        assert fi_pcr(0.01, FIG2A, 1, 0.7) == fi_pcr(0.01, FIG2A, 1, 0.7, gain=2.0)

    def test_unit_gain_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            fi_pcr(0.01, FIG2A, 1, 0.7, gain=1.0)


class TestOrderingInvariant:
    def test_sandwich_on_sweep_grid(self):
        for n_s in 10.0 ** np.linspace(-4, 1, 6):
            for n_b in 10.0 ** np.linspace(-1, 3, 5):
                for kappa in (0.01, 0.3, 0.9):
                    if n_s > n_b / (1.0 - kappa):
                        continue
                    ch = ChannelParams(kappa, 0.0, n_b)
                    cs = qfi_cs(n_s, ch, 1)
                    c2d = qfi_c2d(n_s, ch, 1)
                    ub = qfi_upper_bound(n_s, ch, 1)
                    assert cs <= c2d * (1 + 1e-12)
                    assert c2d <= ub * (1 + 1e-12)


class TestQuadratureConsistency:
    @pytest.mark.parametrize("n_s, m", [(0.001, 100), (0.3, 7)])
    def test_c2d_qfi_is_average_of_conditional_fi(self, n_s, m):
        p = conversion_params(n_s, FIG2A)
        val, _ = expect_total_displacement(
            p, m, lambda x: 4.0 * x / (1.0 + 2.0 * p.e_noise), quad_tol=1e-11
        )
        assert_allclose(qfi_c2d(n_s, FIG2A, m), val, rtol=1e-9)
