import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from entsense.conversion import conversion_params
from entsense.gaussian import (
    ChannelParams,
    GaussianState,
    apply_channel,
    condition_on_generaldyne,
    symplectic_form,
    tmsv,
    williamson,
)

Z = np.diag([1.0, -1.0])


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def return_idler_cov(n_s, kappa, theta, n_b):
    """Covariance of the channel output paired with the retained idler."""
    cp = 2.0 * math.sqrt(kappa * n_s * (n_s + 1.0))
    r = rotation(theta)
    rr = (2 * kappa * n_s + 2 * n_b + 1) * np.eye(2)
    ii = (2 * n_s + 1) * np.eye(2)
    return np.block([[rr, cp * r @ Z], [cp * Z @ r.T, ii]])


class TestGaussianState:
    def test_rejects_asymmetric_cov(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError):
            GaussianState(1, [0, 0], cov)

    def test_rejects_unphysical_cov(self):
        with pytest.raises(ValueError):
            GaussianState(1, [0, 0], 0.5 * np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries_by_field(self, bad):
        with pytest.raises(ValueError, match="^mean must be finite$"):
            GaussianState(1, [bad, 0.0], np.eye(2))
        cov = np.eye(2)
        cov[0, 1] = cov[1, 0] = bad
        with pytest.raises(ValueError, match="^cov must be finite$"):
            GaussianState(1, [0.0, 0.0], cov)
        with pytest.raises(ValueError, match="^cov must be finite$"):
            GaussianState(1, [0.0, 0.0], np.diag([bad, 1.0]))

    def test_complex_means(self):
        st = GaussianState(1, [2.0, 4.0], np.eye(2))
        assert_allclose(st.complex_means(), [1.0 + 2.0j])

    def test_immutable(self):
        st = tmsv(0.1)
        with pytest.raises(ValueError):
            st.cov[0, 0] = 7.0


class TestTmsv:
    def test_vacuum(self):
        st = tmsv(0.0)
        assert_allclose(st.cov, np.eye(4), atol=0)
        assert_allclose(st.mean, 0, atol=0)

    def test_half_photon_cross_block(self):
        st = tmsv(0.5)
        assert_allclose(st.cov[:2, 2:], 2.0 * math.sqrt(0.75) * Z, rtol=1e-15)
        assert_allclose(st.cov[:2, :2], 2.0 * np.eye(2), rtol=1e-15)

    @pytest.mark.parametrize("n_s", [0.0, 1e-3, 0.5, 4.0])
    def test_pure_spectrum(self, n_s):
        dec = williamson(tmsv(n_s).cov)
        assert_allclose(dec.spectrum, [1.0, 1.0], atol=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tmsv(-0.1)


class TestApplyChannel:
    @pytest.mark.parametrize(
        "n_s, kappa, theta, n_b",
        [(0.001, 0.01, 0.0, 20.0), (0.4, 0.3, 0.7, 1.5), (1.0, 0.99, -2.0, 0.2)],
    )
    def test_reproduces_return_idler_covariance(self, n_s, kappa, theta, n_b):
        out = apply_channel(tmsv(n_s), 0, ChannelParams(kappa, theta, n_b))
        assert_allclose(out.cov, return_idler_cov(n_s, kappa, theta, n_b), atol=1e-12)
        assert_allclose(out.mean, 0, atol=0)

    def test_identity_channel(self):
        st = tmsv(0.7)
        out = apply_channel(st, 0, ChannelParams(1.0, 0.0, 0.0))
        assert_allclose(out.cov, st.cov, atol=1e-14)

    def test_full_erasure(self):
        out = apply_channel(tmsv(0.7), 0, ChannelParams(0.0, 1.3, 2.0))
        assert_allclose(out.cov[:2, :2], 5.0 * np.eye(2), atol=1e-14)
        assert_allclose(out.cov[:2, 2:], 0.0, atol=1e-14)

    def test_mean_rotation_and_loss(self):
        st = GaussianState(1, [2.0, 0.0], np.eye(2))
        out = apply_channel(st, 0, ChannelParams(0.25, math.pi / 2, 0.0))
        assert_allclose(out.mean, [0.0, 1.0], atol=1e-15)

    def test_rejects_kappa_one_with_noise(self):
        with pytest.raises(ValueError):
            apply_channel(tmsv(0.1), 0, ChannelParams(1.0, 0.0, 0.5))

    def test_composition(self):
        st = tmsv(0.6)
        a = apply_channel(
            apply_channel(st, 0, ChannelParams(0.7, 0.4, 0.0)),
            0,
            ChannelParams(0.5, -1.1, 0.0),
        )
        b = apply_channel(st, 0, ChannelParams(0.35, -0.7, 0.0))
        assert_allclose(a.cov, b.cov, atol=1e-10)
        assert_allclose(a.mean, b.mean, atol=1e-10)


class TestConditioning:
    def setup_method(self):
        self.n_s, self.kappa, self.n_b = 0.001, 0.01, 20.0
        self.state = apply_channel(
            tmsv(self.n_s), 0, ChannelParams(self.kappa, 0.0, self.n_b)
        )

    def e_noise(self):
        return (
            (1 - self.kappa + self.n_b)
            * self.n_s
            / (self.kappa * self.n_s + self.n_b + 1)
        )

    def test_zero_outcome_idler(self):
        idler = condition_on_generaldyne(self.state, [0], np.eye(2), [0.0, 0.0])
        assert_allclose(idler.mean, 0.0, atol=0)
        assert_allclose(idler.cov, (2 * self.e_noise() + 1) * np.eye(2), rtol=1e-12)

    def test_vacuum_idler_unchanged(self):
        st = apply_channel(tmsv(0.0), 0, ChannelParams(0.3, 0.2, 5.0))
        idler = condition_on_generaldyne(st, [0], np.eye(2), [1.7, -0.4])
        assert_allclose(idler.cov, np.eye(2), atol=1e-12)
        assert_allclose(idler.mean, 0.0, atol=1e-12)

    def test_conditional_mean_theta_zero(self):
        q, p = 0.8, -1.9
        idler = condition_on_generaldyne(self.state, [0], np.eye(2), [q, p])
        c = math.sqrt(self.kappa * self.n_s * (self.n_s + 1)) / (
            self.kappa * self.n_s + self.n_b + 1
        )
        assert_allclose(idler.mean, [c * q, -c * p], rtol=1e-12)

    def test_conditioning_preserves_physicality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_s = rng.uniform(0, 2)
            ch = ChannelParams(rng.uniform(0, 1), rng.uniform(-3, 3), rng.uniform(0, 5))
            st = apply_channel(tmsv(n_s), 0, ch)
            outcome = rng.normal(0, 3, size=2)
            idler = condition_on_generaldyne(st, [0], np.eye(2), outcome)
            omega = symplectic_form(1)
            eigs = np.linalg.eigvalsh(idler.cov + 1j * omega)
            assert np.min(eigs) > -1e-9

    def test_measuring_all_modes_rejected(self):
        with pytest.raises(ValueError):
            condition_on_generaldyne(self.state, [0, 1], np.eye(4), np.zeros(4))

    def test_rejects_bad_measurement(self):
        with pytest.raises(ValueError, match="meas_cov must be 2x2"):
            condition_on_generaldyne(self.state, [0], np.eye(4), [0.0, 0.0])
        with pytest.raises(ValueError, match="outcome must have length 2"):
            condition_on_generaldyne(self.state, [0], np.eye(2), [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="V_B \\+ meas_cov is singular"):
            condition_on_generaldyne(self.state, [0], -self.state.cov[:2, :2], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_outcome(self, bad):
        # it would carry into the conditional mean
        with pytest.raises(ValueError, match="^outcome must be finite$"):
            condition_on_generaldyne(tmsv(0.1), [1], np.eye(2), [bad, 0.0])

    def test_outcome_averaged_mean_consistency(self):
        # Monte Carlo: averaging the conditional idler mean over heterodyne
        # outcomes (Gaussian, covariance V_B + I) recovers the unconditional
        # mean (0).
        st = apply_channel(tmsv(0.5), 0, ChannelParams(0.4, 0.0, 1.0))
        rng = np.random.default_rng(11)
        gram = st.cov[:2, :2] + np.eye(2)
        outcomes = rng.multivariate_normal([0, 0], gram, size=4000)
        means = np.array(
            [
                condition_on_generaldyne(st, [0], np.eye(2), oc).mean
                for oc in outcomes
            ]
        )
        sd = means.std(axis=0) / math.sqrt(len(outcomes))
        assert np.all(np.abs(means.mean(axis=0)) < 3 * sd + 1e-12)


class TestOutcomeDensity:
    """A heterodyne readout of the return mode is Gaussian with covariance
    ``V_B + I``: per quadrature 2(kappa N_S + N_B + 1), which is the
    ``4 v_m`` the conversion law samples its readouts with."""

    def test_heterodyne_variance(self):
        n_s, kappa, n_b = 0.3, 0.7, 4.0
        ch = ChannelParams(kappa, 0.0, n_b)
        gram = apply_channel(tmsv(n_s), 0, ch).cov[:2, :2] + np.eye(2)
        var = 2 * (kappa * n_s + n_b + 1)
        assert_allclose(gram, var * np.eye(2), rtol=1e-14, atol=0)
        assert_allclose(4 * conversion_params(n_s, ch).v_m, var, rtol=1e-14)

    def test_vacuum_heterodyne(self):
        # A rotated channel leaves roundoff off the diagonal, hence atol.
        ch = ChannelParams(0.5, 0.3, 0.0)
        gram = apply_channel(tmsv(0.0), 0, ch).cov[:2, :2] + np.eye(2)
        assert_allclose(gram, 2.0 * np.eye(2), rtol=1e-14, atol=1e-15)
        assert 4 * conversion_params(0.0, ch).v_m == 2.0


def random_symplectic(k, rng):
    h = rng.normal(size=(2 * k, 2 * k))
    h = 0.5 * (h + h.T)
    return scipy.linalg.expm(symplectic_form(k) @ h)


class TestWilliamson:
    def test_single_mode_thermal(self):
        dec = williamson(5.0 * np.eye(2))
        assert_allclose(dec.spectrum, [5.0], rtol=1e-12)
        assert_allclose(dec.s_matrix, np.eye(2), atol=1e-10)

    def test_return_idler_spectrum_against_eig_oracle(self):
        cov = return_idler_cov(0.001, 0.01, 0.0, 20.0)
        dec = williamson(cov)
        oracle = np.abs(np.linalg.eigvals(1j * symplectic_form(2) @ cov))
        oracle = np.sort(oracle)[::2]  # eigenvalues come in +/- pairs
        assert_allclose(np.sort(dec.spectrum), np.sort(oracle), rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_and_symplectic_condition(self, seed):
        rng = np.random.default_rng(seed)
        k = 2
        s_rand = random_symplectic(k, rng)
        nu_true = 1.0 + rng.uniform(0, 3, size=k)
        cov = s_rand @ np.diag(np.repeat(nu_true, 2)) @ s_rand.T
        dec = williamson(cov)
        omega = symplectic_form(k)
        assert_allclose(dec.s_matrix @ omega @ dec.s_matrix.T, omega, atol=1e-9)
        assert_allclose(dec.reconstruct(), cov, atol=1e-9 * np.max(np.abs(cov)))
        assert_allclose(np.sort(dec.spectrum), np.sort(nu_true), rtol=1e-8)

    def test_spectrum_is_symplectic_invariant(self):
        rng = np.random.default_rng(42)
        cov = return_idler_cov(0.2, 0.5, 0.4, 1.0)
        base = np.sort(williamson(cov).spectrum)
        for _ in range(5):
            s = random_symplectic(2, rng)
            transformed = np.sort(williamson(s @ cov @ s.T).spectrum)
            assert_allclose(transformed, base, rtol=1e-8)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            williamson(np.diag([1.0, -1.0]))
