"""Tests for capacities, Holevo information, and the Green machine."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entsense import communication
from entsense.communication import (
    BpskHolevo,
    GreenMachineConfig,
    GreenMachinePoint,
    PhotonTailError,
    capacity_classical,
    capacity_ea,
    g_entropy,
    green_machine_optimal_n,
    green_machine_optimize,
    green_machine_rate,
    holevo_c2d_bpsk,
    holevo_c2d_cpsk,
    holevo_cpsk_conditional,
    opar_photon_pmfs,
    pcr_count_pmfs,
    shannon_photon_counting,
)
from entsense.conversion import conversion_params
from entsense.fockstates import dephased_pmf, recommended_dim
from entsense.gaussian import ChannelParams

FIG5 = ChannelParams(kappa=0.01, theta=0.0, n_b=100.0)

# (x, E) from a fixed generator: x in [0, 40], E = 0 or in [1e-3, 3]
_RNG = np.random.default_rng(20261019)
RANDOM_XE = [(x, 0.0) for x in _RNG.uniform(0.0, 40.0, 3).tolist()]
RANDOM_XE += zip(
    _RNG.uniform(0.0, 40.0, 3).tolist(), (10.0 ** _RNG.uniform(-3.0, 0.5, 3)).tolist()
)


class TestGEntropy:
    def test_vacuum(self):
        assert g_entropy(0.0) == 0.0

    def test_single_photon(self):
        assert_allclose(g_entropy(1.0), 2.0, rtol=1e-15)

    def test_matches_geometric_series(self):
        n = 0.5
        k = np.arange(0, 400)
        pmf = n**k / (1 + n) ** (k + 1)
        series = -(pmf * np.log2(pmf)).sum()
        assert_allclose(g_entropy(n), series, rtol=1e-10)

    def test_negative_rejected(self):
        for n in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite and nonnegative"):
                g_entropy(n)


class TestCapacityClassical:
    def test_vacuum_input(self):
        assert capacity_classical(0.0, FIG5) == 0.0

    def test_lossless_noiseless(self):
        ch = ChannelParams(1.0, 0.0, 0.0)
        assert_allclose(capacity_classical(2.0, ch), g_entropy(2.0), rtol=1e-15)

    def test_weak_signal_slope(self):
        ch = ChannelParams(0.3, 0.0, 2.0)
        eps = 1e-7
        slope = capacity_classical(eps, ch) / eps
        assert_allclose(slope, 0.3 * math.log2(1.0 + 1.0 / 2.0), rtol=1e-6)


class TestCapacityEa:
    def test_vacuum_input(self):
        assert capacity_ea(0.0, FIG5) == 0.0

    def test_weak_signal_expansion(self):
        # kappa N_S/(N_B+1) [log2(1/(N_B N_S (N_B-kappa+1))) + R]; the
        # constant R carries kappa log2(e), not a bare kappa
        kappa, n_b, n_s = 0.01, 100.0, 1e-6
        r_const = (
            (n_b + 1) * math.log2(n_b - kappa + 1)
            + kappa * math.log2(math.e)
            + (-n_b + 2 * kappa - 1) * math.log2(n_b + 1)
        ) / kappa
        asym = (
            kappa * n_s / (n_b + 1)
            * (math.log2(1.0 / (n_b * n_s * (n_b - kappa + 1))) + r_const)
        )
        assert_allclose(capacity_ea(n_s, FIG5), asym, rtol=1e-3)

    def test_large_advantage_at_weak_signal(self):
        ratio = capacity_ea(1e-3, FIG5) / capacity_classical(1e-3, FIG5)
        assert ratio > 5.0

    def test_dominates_classical(self):
        for n_b in (1e-6, 1e-3, 0.1, 1.0, 10.0):
            for n_s, kappa in [(1e-3, 0.01), (0.5, 0.5), (2.0, 0.9)]:
                ch = ChannelParams(kappa, 0.0, n_b)
                assert capacity_ea(n_s, ch) >= capacity_classical(n_s, ch)

    def test_advantage_shrinks_with_background(self):
        ratios = [
            capacity_ea(1e-3, ChannelParams(0.01, 0.0, n_b))
            / capacity_classical(1e-3, ChannelParams(0.01, 0.0, n_b))
            for n_b in (10.0, 1.0, 0.1, 1e-3, 1e-6)
        ]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))


class TestHolevoCpskConditional:
    def test_no_signal(self):
        assert holevo_cpsk_conditional(0.0, 0.5) == 0.0

    def test_monotone_in_x(self):
        vals = [holevo_cpsk_conditional(x, 0.3) for x in (0.1, 1.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tail_cutoff_insensitive(self):
        a = holevo_cpsk_conditional(0.7, 0.2, tail_mass=1e-12)
        b = holevo_cpsk_conditional(0.7, 0.2, tail_mass=1e-10)
        assert abs(a - b) < 1e-7

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = 10.0 ** rng.uniform(-6, 2)
            e = 10.0 ** rng.uniform(-6, 1)
            assert holevo_cpsk_conditional(x, e) >= 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            holevo_cpsk_conditional(-1.0, 0.5)
        with pytest.raises(ValueError):
            holevo_cpsk_conditional(np.array([0.4, -1.0, 2.0]), 0.5)

    def test_open_tail_raises(self, monkeypatch):
        # the thermal tail at E = 50 needs about 1,400 levels to fall below
        # 1e-12: cap the walk below that
        monkeypatch.setattr(communication, "_MAX_PHOTON_LEVELS", 1000)
        with pytest.raises(PhotonTailError):
            holevo_cpsk_conditional(np.array([0.5, 0.0, 0.2]), 50.0)

    @pytest.mark.parametrize(
        "xs, e",
        [(16.8, 0.0), (6.3, 0.0), (3.2, 0.1), (np.array([16.8, 300.0]), 0.0)]
        + RANDOM_XE,
    )
    def test_tail_closes_below_sum_rounding(self, monkeypatch, xs, e):
        # 1 - cumsum of these pmfs stalls a few 1e-15 above 1e-15, so their
        # tails close only on the pmf's decay (in the stack, 16.8's pmf
        # underflows to zero before the cutoff); the low cap turns a tail
        # that never closes into an error at once instead of a walk of
        # 10^7 levels
        monkeypatch.setattr(communication, "_MAX_PHOTON_LEVELS", 1000)
        got = np.atleast_1d(holevo_cpsk_conditional(xs, e, tail_mass=1e-15))
        for value, x in zip(got, np.atleast_1d(xs)):
            assert abs(value - holevo_cpsk_conditional(x, e, tail_mass=1e-12)) < 1e-10
            # reference: a pmf four times longer than a 10-sigma cutoff
            std = math.sqrt(x * (2 * e + 1) + e * (e + 1))
            p = dephased_pmf(x, e, np.arange(4 * int(x + e + 10 * std + 25)))
            p = p[p > 0]
            reference = -math.fsum(p * np.log2(p)) - g_entropy(e)
            assert abs(value - reference) < 1e-12

    def test_large_stack_respects_block_bound(self):
        # 120 live rows, each walked to its own cut of about 3,000 levels
        xs = np.tile([3000.0, 0.0, 1.0, 2500.0], 40)
        got = holevo_cpsk_conditional(xs, 0.5)
        assert np.all(got[1::4] == 0.0)
        assert np.all(got[2::4] == holevo_cpsk_conditional(1.0, 0.5))
        assert np.all(got[::4] > got[3::4]) and np.all(got[3::4] > got[2::4])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 20.0)), min_size=1, max_size=8),
    e=st.one_of(st.just(0.0), st.floats(1e-9, 5.0)),
    tail_mass=st.sampled_from([1e-12, 1e-10]),
)
@example(xs=[0.0, 0.7, 0.0, 12.0], e=0.0, tail_mass=1e-12)
def test_stacked_conditional_rows_equal_scalar_calls(xs, e, tail_mass):
    stacked = holevo_cpsk_conditional(np.array(xs), e, tail_mass)
    assert stacked.shape == (len(xs),)
    for value, x in zip(stacked, xs):
        assert value == holevo_cpsk_conditional(x, e, tail_mass)


def _global_rule_bits(x, e, tail_mass):
    """holevo_cpsk_conditional on a whole dephased_pmf row: the row's
    global argmax, then the first ``j`` past it with
    ``p[j+1]^2 <= tail_mass (p[j] - p[j+1])``, keeping levels ``0 .. j+1``;
    a row that has not closed is redone at twice the length."""
    std = math.sqrt(x * (2 * e + 1) + e * (e + 1))
    levels = int(x + e + 10 * std) + 25
    while True:
        p = dephased_pmf(x, e, np.arange(levels))
        tail = p[1:] ** 2 <= tail_mass * (p[:-1] - p[1:])
        tail &= np.arange(levels - 1) >= np.argmax(p)
        if tail.any():
            break
        levels *= 2
    p = p[: np.argmax(tail) + 2]
    p = p[p > 0]
    return max(-math.fsum(p * np.log2(p)) - g_entropy(e), 0.0)


@pytest.mark.parametrize("tail_mass", [1e-12, 1e-15])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    x=st.floats(1e-7, 5e3),
    e=st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(1e-3, 20.0)),
)
# the leading levels underflow to zero or to subnormals here; from x = 752
# at E = 0 two leading zeros meet the cut rule, so a cut before the running
# maximum is a normal float gives 0 bits instead of 6.82
@example(x=738.18, e=1.77e-5)
@example(x=750.0, e=0.0)
@example(x=752.0, e=0.0)
def test_streaming_cut_equals_global_rule(x, e, tail_mass):
    assert holevo_cpsk_conditional(x, e, tail_mass) == _global_rule_bits(x, e, tail_mass)


class TestHolevoC2dCpsk:
    def test_no_coupling(self):
        ch = ChannelParams(0.0, 0.0, 100.0)
        assert holevo_c2d_cpsk(1e-3, ch, 10) == 0.0
        assert holevo_c2d_cpsk(1e-3, ch, 10, with_achieved=True) == (0.0, 0.0)

    def test_reports_achieved_tolerance(self):
        value, achieved = holevo_c2d_cpsk(1e-3, FIG5, 100, 1e-6, with_achieved=True)
        assert value == holevo_c2d_cpsk(1e-3, FIG5, 100, 1e-6)
        assert 0.0 <= achieved <= 1e-6

    def test_large_m_concentrates(self):
        m = 10**4
        p = conversion_params(1e-3, FIG5)
        chi = holevo_c2d_cpsk(1e-3, FIG5, m, quad_tol=1e-7)
        point = holevo_cpsk_conditional(2 * m * p.xi, p.e_noise) / m
        assert_allclose(chi, point, rtol=1e-4)

    @pytest.mark.parametrize("m", [1, 100])
    def test_weak_signal_scaling(self, m):
        kappa, n_b, n_s = 0.01, 100.0, 1e-6
        r_cd = (
            2 * (-n_b + kappa - 1) / (kappa * m)
            * math.atanh(kappa * m / (2 * n_b - 2 * kappa + kappa * m + 2))
            + (math.log(n_b + 1) + 1)
            - math.log(n_b + kappa * (m - 1) + 1)
        )
        asym = kappa * n_s * (math.log(1.0 / n_s) + r_cd) / ((n_b + 1) * math.log(2))
        got = holevo_c2d_cpsk(n_s, FIG5, m, quad_tol=1e-5)
        assert_allclose(got, asym, rtol=1e-4)

    @pytest.mark.parametrize("n_s", [1e-4, 1e-3, 1e-2])
    def test_approaches_ea_capacity(self, n_s):
        chi = holevo_c2d_cpsk(n_s, FIG5, 1, quad_tol=1e-6)
        ce = capacity_ea(n_s, FIG5)
        assert chi <= ce
        assert chi / ce > 0.99

    def test_single_copy_beats_many(self):
        # per-symbol information is highest without repetition
        chi_1 = holevo_c2d_cpsk(1e-3, FIG5, 1, quad_tol=1e-7)
        chi_many = holevo_c2d_cpsk(1e-3, FIG5, 10**4, quad_tol=1e-7)
        assert chi_1 > chi_many


class TestHolevoC2dBpsk:
    def test_no_signal(self):
        out = holevo_c2d_bpsk(0.5, ChannelParams(0.0, 0.0, 1.0), 10)
        assert out == BpskHolevo(0.0, 0.0)

    def test_close_to_cpsk(self):
        m = 10**4
        p = conversion_params(1e-3, FIG5)
        bpsk = holevo_c2d_bpsk(1e-3, FIG5, m)
        cpsk = holevo_cpsk_conditional(2 * m * p.xi, p.e_noise) / m
        assert abs(bpsk.value / cpsk - 1.0) < 2e-3

    def test_dimension_doubling_within_bound(self):
        base = holevo_c2d_bpsk(1e-3, FIG5, 10**4)
        doubled = holevo_c2d_bpsk(1e-3, FIG5, 10**4, dim=40)
        assert abs(base.value - doubled.value) < base.truncation_error

    def test_three_level_truncation_suffices_at_weak_signal(self):
        full = holevo_c2d_bpsk(1e-5, FIG5, 1)
        small = holevo_c2d_bpsk(1e-5, FIG5, 1, dim=3)
        assert_allclose(small.value, full.value, rtol=1e-5)

    def test_dim_below_three_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            holevo_c2d_bpsk(1e-3, FIG5, 1, dim=2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_s=st.floats(1e-4, 1.0),
    kappa=st.floats(0.01, 1.0),
    n_b=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    m=st.sampled_from([1, 10, 1000, 100000]),
)
@example(n_s=1e-3, kappa=1.0, n_b=0.1, m=100000)
def test_bpsk_holevo_within_one_bit(n_s, kappa, n_b, m):
    # two equiprobable letters carry at most one bit; the slack covers the
    # rounding-noise eigenvalues of the mixture's spectrum
    ch = ChannelParams(kappa, 0.0, n_b)
    p = conversion_params(n_s, ch)
    assume(recommended_dim(2.0 * m * p.xi, p.e_noise, 1e-6) <= 250)
    assert 0.0 <= m * holevo_c2d_bpsk(n_s, ch, m).value <= 1.0 + 1e-11


class TestGreenMachineConfig:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError, match="power of 2"):
            GreenMachineConfig(12, 1)
        with pytest.raises(ValueError, match="power of 2"):
            GreenMachineConfig(1, 1)

    def test_repetitions_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            GreenMachineConfig(8, 0)


class TestGreenMachineRate:
    def test_no_signal(self):
        rate = green_machine_rate(1e-3, ChannelParams(0.0, 0.0, 100.0), GreenMachineConfig(8, 10))
        assert rate == 0.0

    def test_perfect_ppm_limit(self):
        # lossless, noiseless, bright: every block decodes and the rate is
        # the PPM information log2(n) spread over n modes
        ch = ChannelParams(1.0, 0.0, 0.0)
        rate = green_machine_rate(50.0, ch, GreenMachineConfig(8, 1))
        assert_allclose(rate, math.log2(8) / 8, rtol=1e-2)

    def test_below_ensemble_holevo(self):
        pt = green_machine_optimize(1e-3, FIG5)
        chi = holevo_c2d_cpsk(1e-3, FIG5, pt.repetitions, quad_tol=1e-6)
        assert pt.rate <= chi


class TestGreenMachineOptimalN:
    def test_power_of_two(self):
        n = green_machine_optimal_n(1e-3, FIG5, 10**4)
        assert n >= 2 and (n & (n - 1)) == 0

    def test_lambert_matches_grid_search(self):
        m = 10**4
        n_closed = green_machine_optimal_n(1e-4, FIG5, m)
        rates = {
            2**k: green_machine_rate(1e-4, FIG5, GreenMachineConfig(2**k, m))
            for k in range(1, 17)
        }
        n_grid = max(rates, key=rates.get)
        assert n_closed == n_grid == 1024

    @pytest.mark.parametrize("n_s", [1e-4, 1e-3])
    def test_beats_neighbors(self, n_s):
        m = 10**4
        n = green_machine_optimal_n(n_s, FIG5, m)
        rate = green_machine_rate(n_s, FIG5, GreenMachineConfig(n, m))
        assert rate >= green_machine_rate(n_s, FIG5, GreenMachineConfig(n // 2, m))
        assert rate >= green_machine_rate(n_s, FIG5, GreenMachineConfig(2 * n, m))


class TestGreenMachineOptimize:
    def test_reference_point(self):
        pt = green_machine_optimize(1e-3, FIG5)
        assert_allclose(pt.rate, 4.430153025613108e-07, rtol=1e-6)
        assert pt.codeword_len == 128
        assert 10**4 < pt.repetitions < 5 * 10**4

    def test_local_optimality_in_m(self):
        pt = green_machine_optimize(1e-3, FIG5)
        for m in (pt.repetitions - 1, pt.repetitions + 1):
            n = green_machine_optimal_n(1e-3, FIG5, m)
            assert pt.rate >= green_machine_rate(1e-3, FIG5, GreenMachineConfig(n, m))

    def test_rate_over_capacity_grows_toward_weak_signal(self):
        ratios = [
            green_machine_optimize(n_s, FIG5).rate / capacity_ea(n_s, FIG5)
            for n_s in (1e-2, 1e-3, 1e-4)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(0.3 < r < 1.0 for r in ratios)

    def test_no_coupling(self):
        pt = green_machine_optimize(0.5, ChannelParams(0.0, 0.0, 1.0))
        assert pt.rate == 0.0

    @pytest.mark.parametrize(
        "n_s, rate, repetitions, codeword_len",
        [
            (0.0007660287044755255, "0x1.8336d3f2e179ap-22", 26488, 128),
            (0.00726623600253616, "0x1.cf5beb1abf8ebp-20", 33480, 16),
        ],
    )
    def test_benchmark_points_evaluate_each_m_once(
        self, n_s, rate, repetitions, codeword_len, monkeypatch
    ):
        # the operating points of the benchmark's two comm strata, bit for
        # bit as the search without remembered rates found them
        seen = []
        rate_of = communication._green_machine_rate

        def counted(params, n, m, quad_tol):
            seen.append(m)
            return rate_of(params, n, m, quad_tol)

        monkeypatch.setattr(communication, "_green_machine_rate", counted)
        pt = green_machine_optimize(n_s, FIG5)
        assert pt == GreenMachinePoint(float.fromhex(rate), repetitions, codeword_len)
        assert type(pt.rate) is float and len(seen) == len(set(seen)) > 20


class TestShannonPhotonCounting:
    def test_identical_conditionals(self):
        p = np.array([0.2, 0.5, 0.3])
        assert shannon_photon_counting(p, p) == 0.0

    def test_disjoint_support(self):
        assert_allclose(
            shannon_photon_counting(np.array([1.0, 0.0]), np.array([0.0, 1.0])), 1.0
        )

    def test_skewed_priors(self):
        val = shannon_photon_counting(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), priors=(0.9, 0.1)
        )
        assert_allclose(val, -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1)), rtol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            shannon_photon_counting(np.array([0.5, 0.4]), np.array([0.5, 0.5]))

    def test_bad_priors(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="priors"):
            shannon_photon_counting(p, p, priors=(0.7, 0.7))

    @pytest.mark.parametrize(
        "pmf0, pmf1, priors, name",
        [
            ([math.nan, 1.0], [0.5, 0.5], (0.5, 0.5), "pmf0"),
            ([0.5, 0.5, math.nan], [0.5, 0.5], (0.5, 0.5), "pmf0"),
            ([0.5, 0.5], [1.0, math.nan], (0.5, 0.5), "pmf1"),
            ([1.0, math.inf, -math.inf], [0.5, 0.5], (0.5, 0.5), "pmf0"),
            ([0.5, 0.5], [1.0, 0.0], (math.nan, math.nan), "priors"),
            ([0.5, 0.5], [1.0, 0.0], (math.nan, 1.0), "priors"),
        ],
    )
    def test_non_finite_entries_rejected(self, pmf0, pmf1, priors, name):
        with pytest.raises(ValueError, match=name):
            shannon_photon_counting(np.array(pmf0), np.array(pmf1), priors=priors)


class TestReceiverInformation:
    def test_opar_below_holevo(self):
        m = 1000
        pmfs = opar_photon_pmfs(1e-3, FIG5, m, (0.0, math.pi))
        per_symbol = shannon_photon_counting(pmfs[0], pmfs[1]) / m
        assert_allclose(per_symbol, 2.6847671928864616e-07, rtol=1e-6)
        chi = holevo_c2d_cpsk(1e-3, FIG5, m, quad_tol=1e-6)
        assert per_symbol < chi

    def test_pcr_slightly_better_than_opar(self):
        m = 1000
        opar = opar_photon_pmfs(1e-3, FIG5, m, (0.0, math.pi))
        pcr = pcr_count_pmfs(1e-3, FIG5, m, (0.0, math.pi))
        i_opar = shannon_photon_counting(opar[0], opar[1])
        i_pcr = shannon_photon_counting(pcr[0], pcr[1])
        assert i_opar < i_pcr < 1.1 * i_opar

    def test_pmfs_normalized(self):
        opar = opar_photon_pmfs(1e-3, FIG5, 1000, (0.0, math.pi))
        pcr = pcr_count_pmfs(1e-3, FIG5, 1000, (0.0, math.pi))
        for p in (*opar, *pcr):
            assert abs(p.sum() - 1.0) < 1e-8

    def test_pcr_gain_validated(self):
        with pytest.raises(ValueError, match="gain"):
            pcr_count_pmfs(1e-3, FIG5, 1000, (0.0, math.pi), gain=1.0)
