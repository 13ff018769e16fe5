import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erfcinv
from scipy.stats import chisquare

from entsense.communication import opar_photon_pmfs, pcr_count_pmfs
from entsense.conversion import conversion_params
from entsense.discrimination import helstrom_numeric, p_c2d
from entsense.fockstates import (
    DisplacedThermal,
    photon_pmf,
    recommended_dim,
    to_fock,
)
from entsense.gaussian import ChannelParams
from entsense.metrology import fi_opar, fi_pcr
from entsense.receivers import (
    DolinarConfig,
    _thermal_kick,
    dolinar_simulate,
    opar_pe,
    pcr_pe,
    pe_heterodyne,
    pe_homodyne,
    pe_kennedy,
)
from entsense.special import RngStream, sample_scaled_chi2

FIG7A = ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)


def helstrom_pure(amp_sq):
    """Minimum error probability for |0> vs a coherent state of energy amp_sq."""
    return 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-amp_sq)))


def helstrom_noisy(amp, e_noise):
    """Helstrom limit for two displaced thermal states, computed numerically."""
    dim = max(recommended_dim(amp * amp, e_noise), 8)
    rho0 = to_fock(DisplacedThermal(0.0, e_noise), dim)
    rho1 = to_fock(DisplacedThermal(amp, e_noise), dim)
    return helstrom_numeric(rho0, rho1)


class TestDolinarConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="slices"):
            DolinarConfig(slices=0, trials=10)
        with pytest.raises(ValueError, match="slices"):
            DolinarConfig(slices=2.5, trials=10)
        with pytest.raises(ValueError, match="trials"):
            DolinarConfig(slices=1, trials=0)
        with pytest.raises(ValueError, match="noise_nb"):
            DolinarConfig(slices=1, trials=1, noise_nb=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("slices", math.inf),
            ("slices", math.nan),
            ("slices", True),
            ("trials", math.inf),
            ("trials", np.True_),
            ("noise_nb", math.inf),
            ("noise_nb", math.nan),
            ("noise_nb", False),
        ],
    )
    def test_rejects_non_finite_and_boolean(self, field, value):
        with pytest.raises(ValueError, match=field):
            DolinarConfig(**{"slices": 4, "trials": 10, field: value})

    def test_coerces_integral_floats(self):
        cfg = DolinarConfig(slices=3.0, trials=10.0)
        assert cfg.slices == 3 and isinstance(cfg.slices, int)
        assert cfg.trials == 10 and isinstance(cfg.trials, int)
        assert cfg.noise_nb == 0.0


class TestClosedForms:
    @pytest.mark.parametrize(
        "alpha_r, expected",
        [(0.0, 0.5), (1.0, 0.15865525393145707), (0.25, 0.4012936743170763)],
    )
    def test_homodyne_values(self, alpha_r, expected):
        assert_allclose(pe_homodyne(alpha_r), expected, rtol=1e-12)

    def test_homodyne_large_amplitude_exponent(self):
        # P ~ exp(-alpha_r^2 / 2) up to a slowly varying prefactor
        ratio = math.log(pe_homodyne(4.0) / pe_homodyne(6.0)) / ((36 - 16) / 2)
        assert abs(ratio - 1.0) < 0.05

    @pytest.mark.parametrize(
        "alpha, expected", [(0.0, 0.5), (2.0, 0.07864960352514257)]
    )
    def test_heterodyne_values(self, alpha, expected):
        assert_allclose(pe_heterodyne(alpha), expected, rtol=1e-12)

    def test_heterodyne_phase_invariance(self):
        assert pe_heterodyne(2.0) == pe_heterodyne(2.0j) == pe_heterodyne(-2.0)

    def test_heterodyne_large_amplitude_exponent(self):
        ratio = math.log(pe_heterodyne(6.0) / pe_heterodyne(8.0)) / ((64 - 36) / 4)
        assert abs(ratio - 1.0) < 0.05

    @pytest.mark.parametrize(
        "alpha, expected", [(0.0, 0.5), (1.0, 0.18393972058572117)]
    )
    def test_kennedy_values(self, alpha, expected):
        assert_allclose(pe_kennedy(alpha), expected, rtol=1e-12)

    def test_kennedy_twice_helstrom(self):
        amp = 4.0  # |alpha|^2 = 16
        ratio = pe_kennedy(amp) / helstrom_pure(amp**2)
        assert_allclose(ratio, 2.0, rtol=1e-6)

    @pytest.mark.parametrize("amp", [0.3, 1.0, 2.0])
    def test_helstrom_lower_bounds_every_receiver(self, amp):
        floor = helstrom_pure(amp * amp)
        assert floor <= pe_kennedy(amp)
        assert floor <= pe_homodyne(amp)
        assert floor <= pe_heterodyne(amp)


class TestDolinarSimulate:
    @pytest.mark.parametrize("idx, amp_sq", [(0, 0.1), (1, 1.0), (2, 4.0)])
    def test_noiseless_reaches_helstrom(self, idx, amp_sq):
        cfg = DolinarConfig(slices=200, trials=100_000)
        rate, stderr = dolinar_simulate(
            math.sqrt(amp_sq), cfg, RngStream(20260815, idx)
        )
        assert abs(rate - helstrom_pure(amp_sq)) < 3 * stderr

    def test_zero_amplitude_is_a_coin_flip(self):
        cfg = DolinarConfig(slices=50, trials=40_000)
        rate, stderr = dolinar_simulate(0.0, cfg, RngStream(7, 0))
        assert abs(rate - 0.5) < 3 * stderr

    def test_single_slice_between_helstrom_and_half(self):
        cfg = DolinarConfig(slices=1, trials=40_000)
        rate, stderr = dolinar_simulate(1.0, cfg, RngStream(7, 1))
        assert rate >= helstrom_pure(1.0) - 3 * stderr
        assert rate <= 0.5

    def test_stream_determinism(self):
        cfg = DolinarConfig(slices=20, trials=5_000)
        first = dolinar_simulate(1.0, cfg, RngStream(3, 5))
        second = dolinar_simulate(1.0, cfg, RngStream(3, 5))
        assert first == second

    def test_generator_determinism(self):
        cfg = DolinarConfig(slices=20, trials=5_000)
        first = dolinar_simulate(1.0, cfg, np.random.default_rng(11))
        second = dolinar_simulate(1.0, cfg, np.random.default_rng(11))
        assert first == second

    def test_phase_of_alpha_is_irrelevant(self):
        cfg = DolinarConfig(slices=20, trials=5_000)
        assert dolinar_simulate(1.0j, cfg, RngStream(2, 2)) == dolinar_simulate(
            -1.0, cfg, RngStream(2, 2)
        )

    def test_wilson_stderr_formula(self):
        cfg = DolinarConfig(slices=10, trials=2_000)
        rate, stderr = dolinar_simulate(0.8, cfg, RngStream(9, 9))
        n = cfg.trials
        errors = rate * n
        assert errors == round(errors)
        expected = math.sqrt(rate * (1 - rate) / n + 1 / (4 * n**2)) / (1 + 1 / n)
        assert_allclose(stderr, expected, rtol=1e-12)

    def test_noisy_rate_respects_helstrom_floor(self):
        # Thermal noise on both candidates: the receiver sits above the
        # displaced-thermal Helstrom limit and loses ground to noise.
        rate, stderr = dolinar_simulate(
            1.0, DolinarConfig(slices=150, trials=60_000, noise_nb=0.2), RngStream(11, 3)
        )
        floor = helstrom_noisy(1.0, 0.2)
        assert rate >= floor - 3 * stderr
        assert rate <= 0.5
        assert rate > helstrom_pure(1.0) + 10 * stderr

    def test_noisy_near_optimal_at_small_noise(self):
        amp = math.sqrt(0.5)
        rate, stderr = dolinar_simulate(
            amp, DolinarConfig(slices=150, trials=60_000, noise_nb=0.05), RngStream(11, 4)
        )
        floor = helstrom_noisy(amp, 0.05)
        assert rate >= floor - 3 * stderr
        assert rate <= floor + 0.01

    def test_conversion_pipeline_tracks_c2d_limit(self):
        # Feed conversion-sampled displacements into the noisy receiver and
        # compare the averaged error rate with the conversion limit.
        n_s, m = 1e-3, 3_400_000
        params = conversion_params(n_s, FIG7A)
        limit = p_c2d(n_s, FIG7A, m)
        assert 1e-3 <= limit <= 1e-1
        amps = sample_scaled_chi2(
            m, params.xi, RngStream(20260815, 42).generator(), size=10
        )
        cfg = DolinarConfig(slices=100, trials=4_000, noise_nb=params.e_noise)
        rates = np.array(
            [
                dolinar_simulate(math.sqrt(x), cfg, RngStream(20260815, 100 + i))[0]
                for i, x in enumerate(amps)
            ]
        )
        spread = rates.std(ddof=1) / math.sqrt(rates.size)
        assert abs(rates.mean() - limit) < 3 * spread


def _sample_photons(state, n_samples, stream):
    """Photon counts of the Dolinar truth model: a Poisson count around the
    amplitude plus one positive-P thermal kick per sample."""
    gen = stream.generator()
    kick = _thermal_kick(gen, state.e_noise, n_samples)
    return gen.poisson(np.abs(state.alpha + kick) ** 2)


def _gof_pvalue(state, n_samples, stream):
    counts = _sample_photons(state, n_samples, stream)
    observed = np.bincount(counts).astype(float)
    expected = photon_pmf(state, np.arange(observed.size)) * n_samples
    # lump the right tail so every expected cell holds at least 5 counts
    while expected[-1] < 5.0 and expected.size > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected = expected[:-1]
        observed = observed[:-1]
    expected[-1] += n_samples - expected.sum()
    return chisquare(observed, expected).pvalue


class TestDisplacedThermalSampling:
    """The noisy Dolinar trials draw their photons as ``_sample_photons``
    does and weigh them with ``dephased_pmf``; the draws must follow
    ``photon_pmf``, or the receiver's likelihoods describe another state."""

    def test_matches_pmf(self):
        state = DisplacedThermal(math.sqrt(0.5), 0.2)
        assert _gof_pvalue(state, 1_000_000, RngStream(314159, 0)) > 0.01

    def test_zero_displacement_is_thermal(self):
        state = DisplacedThermal(0.0, 0.7)
        assert _gof_pvalue(state, 200_000, RngStream(314159, 1)) > 0.01

    def test_zero_noise_is_poisson(self):
        state = DisplacedThermal(1.3, 0.0)
        assert _gof_pvalue(state, 200_000, RngStream(314159, 2)) > 0.01

    def test_mean_photon_number(self):
        state = DisplacedThermal(1.2, 0.35)
        samples = _sample_photons(state, 400_000, RngStream(314159, 3))
        amp_sq = state.amp_sq
        mean = amp_sq + state.e_noise
        var = amp_sq * (2 * state.e_noise + 1) + state.e_noise * (state.e_noise + 1)
        assert abs(samples.mean() - mean) < 3 * math.sqrt(var / samples.size)


class TestOparPcr:
    def test_no_target_is_a_coin_flip(self):
        blind = ChannelParams(kappa=0.0, theta=0.0, n_b=20.0)
        assert opar_pe(1e-3, blind, 1000) == 0.5
        assert pcr_pe(1e-3, blind, 1000) == 0.5

    def test_frozen_values(self):
        assert_allclose(
            opar_pe(1e-3, FIG7A, 1_000_000), 0.25201041286774994, rtol=1e-12
        )
        assert_allclose(
            pcr_pe(1e-3, FIG7A, 1_000_000), 0.24519001940611887, rtol=1e-12
        )

    def test_asymptotic_snr(self):
        # kappa N_S / (2 N_B) in the weak-signal, low-reflectivity,
        # high-noise corner; the rate is recovered through erfcinv.
        ch = ChannelParams(kappa=1e-4, theta=0.0, n_b=1e4)
        asym = ch.kappa * 1e-6 / (2 * ch.n_b)
        m = int(1 / asym)

        def rate(pe):
            return erfcinv(2 * pe) ** 2 / m

        assert_allclose(rate(opar_pe(1e-6, ch, m)) / asym, 1.0, rtol=5e-3)
        assert_allclose(rate(pcr_pe(1e-6, ch, m)) / asym, 1.0, rtol=2e-4)
        # and the gap keeps closing deeper into the corner
        m8 = int(1 / (ch.kappa * 1e-8 / (2 * ch.n_b)))
        ratio8 = erfcinv(2 * opar_pe(1e-8, ch, m8)) ** 2 / m8
        ratio8 /= ch.kappa * 1e-8 / (2 * ch.n_b)
        assert ratio8 > rate(opar_pe(1e-6, ch, m)) / asym

    @pytest.mark.parametrize(
        "ch",
        [
            ChannelParams(kappa=0.001, theta=0.0, n_b=1.0),
            ChannelParams(kappa=0.01, theta=0.0, n_b=20.0),
            ChannelParams(kappa=0.2, theta=0.0, n_b=500.0),
        ],
    )
    def test_monotone_in_copies(self, ch):
        for pe in (opar_pe, pcr_pe):
            values = [pe(1e-3, ch, m) for m in (10, 100, 1000, 10_000)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_reflectivity(self):
        for pe in (opar_pe, pcr_pe):
            values = [
                pe(1e-3, ChannelParams(kappa=k, theta=0.0, n_b=20.0), 10_000)
                for k in (0.001, 0.01, 0.1, 0.5)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [300_000, 1_000_000, 3_000_000])
    def test_receiver_ordering(self, m):
        classical = pe_homodyne(
            math.sqrt(FIG7A.kappa * m * 1e-3 / (2 * FIG7A.n_b + 1))
        )
        assert pcr_pe(1e-3, FIG7A, m) <= opar_pe(1e-3, FIG7A, m) <= classical

    def test_conversion_limit_beats_both(self):
        m = 1_000_000
        assert p_c2d(1e-3, FIG7A, m) <= pcr_pe(1e-3, FIG7A, m)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_s"):
            opar_pe(-1e-3, FIG7A, 100)
        with pytest.raises(ValueError, match="m"):
            pcr_pe(1e-3, FIG7A, 0)
        with pytest.raises(ValueError, match="gain"):
            opar_pe(1e-3, FIG7A, 100, gain=0.5)
        with pytest.raises(ValueError, match="gain"):
            opar_pe(1e-3, ChannelParams(kappa=0.01, theta=0.0, n_b=0.0), 100)

    def test_default_gain_beats_naive_choices(self):
        ch = ChannelParams(kappa=0.01, theta=0.0, n_b=100.0)
        best = opar_pe(1e-3, ch, 10_000_000)
        assert best < opar_pe(1e-3, ch, 10_000_000, gain=2.0)
        assert best < opar_pe(1e-3, ch, 10_000_000, gain=1.0 + 1e-8)

    def test_unit_gain_is_blind(self):
        assert opar_pe(1e-3, FIG7A, 1000, gain=1.0) == 0.5


# Oracles: the amplifier moments and the gain-2 conjugator rate written out
# by hand, independently of the library's count models.


def opar_moments_oracle(n_s, ch, gain):
    """Per-copy OPAR count means and deviations under the two hypotheses."""
    mu0 = gain * n_s + (gain - 1.0) * (1.0 + ch.n_b)
    mu1 = (
        mu0
        + (gain - 1.0) * ch.kappa * n_s
        + 2.0 * math.sqrt(gain * (gain - 1.0) * ch.kappa * n_s * (n_s + 1.0))
    )
    return mu0, math.sqrt(mu0 * (mu0 + 1.0)), mu1, math.sqrt(mu1 * (mu1 + 1.0))


def opar_rate_oracle(n_s, ch, gain):
    mu0, sigma0, mu1, sigma1 = opar_moments_oracle(n_s, ch, gain)
    return 0.0 if mu1 == mu0 else (mu1 - mu0) ** 2 / (2.0 * (sigma0 + sigma1) ** 2)


def pcr_rate_oracle(n_s, ch):
    return (
        ch.kappa
        * n_s
        * (n_s + 1.0)
        / (
            2.0 * ch.n_b
            + 4.0 * n_s * ch.n_b
            + 6.0 * n_s
            + 4.0 * ch.kappa * n_s**2
            + 3.0 * ch.kappa * n_s
            + 2.0
        )
    )


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_s=log_uniform(1e-8, 10.0),
    n_b=log_uniform(1e-3, 1e3),
    kappa=st.floats(0.0, 1.0),
    m=log_uniform(1.0, 1e7).map(int),
    gain=st.one_of(st.none(), st.floats(1.0, 10.0)),
)
def test_error_probabilities_match_oracles(n_s, n_b, kappa, m, gain):
    ch = ChannelParams(kappa, 0.0, n_b)
    g = 1.0 + math.sqrt(n_s / (n_b * (n_b + 1.0))) if gain is None else gain
    # erfc(sqrt(x)) turns a relative error e in x into about max(1, x) e,
    # so rounding in either rate is scaled by R m before comparing.
    for got, rate in (
        (opar_pe(n_s, ch, m, gain), opar_rate_oracle(n_s, ch, g)),
        (pcr_pe(n_s, ch, m), pcr_rate_oracle(n_s, ch)),
    ):
        want = 0.5 * math.erfc(math.sqrt(rate * m))
        assert abs(got - want) <= 1e-12 * max(1.0, rate * m) * want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_s=log_uniform(1e-2, 10.0),
    n_b=log_uniform(1e-2, 1e2),
    kappa=st.floats(0.05, 1.0),
    m=st.integers(1, 300),
    gain=st.floats(1.01, 3.0),
    theta=st.floats(0.2, 2.9),
)
def test_opar_pmfs_and_fisher_match_count_moments(n_s, n_b, kappa, m, gain, theta):
    ch = ChannelParams(kappa, 0.0, n_b)
    h = 1e-3
    pmfs = opar_photon_pmfs(n_s, ch, m, (theta - h, theta, theta + h), gain)
    n = np.arange(pmfs[0].size)
    means = [p @ n for p in pmfs]
    var = pmfs[1] @ (n - means[1]) ** 2
    nbar = (
        gain * n_s
        + (gain - 1.0) * (kappa * n_s + n_b + 1.0)
        + 2.0 * math.sqrt(gain * (gain - 1.0) * kappa * n_s * (1.0 + n_s))
        * math.cos(theta)
    )
    assert_allclose(means[1], m * nbar, rtol=1e-10)
    assert_allclose(var, m * nbar * (nbar + 1.0), rtol=1e-8)
    slope = (means[2] - means[0]) / (2.0 * h)
    assert_allclose(fi_opar(n_s, ch, m, theta, gain), slope**2 / var, rtol=1e-5)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_s=log_uniform(1e-2, 10.0),
    n_b=log_uniform(1e-2, 1e2),
    kappa=st.floats(0.05, 1.0),
    m=st.integers(100, 1000),
    gain=st.floats(1.1, 3.0),
    theta=st.floats(0.2, 2.9),
)
def test_pcr_pmfs_and_fisher_match_count_moments(n_s, n_b, kappa, m, gain, theta):
    ch = ChannelParams(kappa, 0.0, n_b)
    h = 1e-3
    pmfs = pcr_count_pmfs(n_s, ch, m, (theta - h, theta, theta + h), gain)
    # the pmfs share one window of unit bins; slope and variance do not
    # depend on where it starts, so bin indices stand in for the counts
    n = np.arange(pmfs[0].size)
    means = [p @ n for p in pmfs]
    # Sheppard's correction removes the unit bins' 1/12 from the variance
    var = pmfs[1] @ (n - means[1]) ** 2 - 1.0 / 12.0
    n_c = (gain - 1.0) * (kappa * n_s + n_b + 1.0)
    c_ci_sq = (gain - 1.0) * kappa * n_s * (1.0 + n_s)
    want = n_s + n_c + 2.0 * n_c * n_s + 2.0 * c_ci_sq * math.cos(2.0 * theta)
    assert_allclose(var, m * want, rtol=1e-9)
    slope = (means[2] - means[0]) / (2.0 * h)
    assert_allclose(fi_pcr(n_s, ch, m, theta, gain), slope**2 / var, rtol=1e-5)
