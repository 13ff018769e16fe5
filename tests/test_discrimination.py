import ctypes
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cython_lapack

from entsense import discrimination, fockstates
from entsense.conversion import conversion_params
from entsense.discrimination import (
    PatternHypothesis,
    _BAND_SOLVE_RATIO,
    _band_singular_values,
    _bind_lapack,
    _coherent_helstrom_error,
    _helstrom_error,
    _parity_band,
    _parity_block,
    c2d_exponent_bounds,
    helstrom_numeric,
    lemma1_upper_bound,
    nair_gu_bound,
    p_c2d,
    p_classical_coherent,
    pattern_exponents,
    qcb_gaussian,
)
from entsense.fockstates import (
    DisplacedThermal,
    FockMatrix,
    _displaced_thermal_band,
    displaced_thermal_matrix,
    recommended_dim,
    to_fock,
)
from entsense.gaussian import ChannelParams, GaussianState

FIG2A = ChannelParams(0.01, 0.0, 20.0)

# frozen closed-form value of (1 - sqrt(1 - e^{-1}))/2
PURE_HELSTROM_ONE = 0.10246995118967495


def displaced_thermal_gaussian(alpha, e_noise):
    alpha = complex(alpha)
    return GaussianState(
        1,
        [2 * alpha.real, 2 * alpha.imag],
        (2 * e_noise + 1) * np.eye(2),
    )


class TestHelstromNumeric:
    def test_identical_states(self):
        fm = to_fock(DisplacedThermal(0.4, 0.2), recommended_dim(0.16, 0.2))
        assert helstrom_numeric(fm, fm) == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_vs_unit_coherent(self):
        dim = recommended_dim(1.0, 0.0)
        rho = to_fock(DisplacedThermal(0.0, 0.0), dim)
        sigma = to_fock(DisplacedThermal(1.0, 0.0), dim)
        assert helstrom_numeric(rho, sigma) == pytest.approx(
            PURE_HELSTROM_ONE, abs=1e-12
        )

    def test_orthogonal_states(self):
        vac = np.zeros((4, 4), dtype=complex)
        vac[0, 0] = 1.0
        one = np.zeros((4, 4), dtype=complex)
        one[1, 1] = 1.0
        p = helstrom_numeric(FockMatrix(4, vac), FockMatrix(4, one))
        assert p == pytest.approx(0.0, abs=1e-14)

    def test_certain_prior(self):
        dim = recommended_dim(0.25, 0.3)
        fm = to_fock(DisplacedThermal(0.0, 0.3), dim)
        other = to_fock(DisplacedThermal(0.5, 0.3), dim)
        assert helstrom_numeric(fm, other, p0=1.0) == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self):
        a = to_fock(DisplacedThermal(0.0, 0.0), 4)
        b = to_fock(DisplacedThermal(0.0, 0.0), 5)
        with pytest.raises(ValueError, match="mismatch"):
            helstrom_numeric(a, b)

    def test_bad_prior(self):
        fm = to_fock(DisplacedThermal(0.0, 0.0), 4)
        with pytest.raises(ValueError):
            helstrom_numeric(fm, fm, p0=1.2)


class TestQcbGaussian:
    def test_identical_states(self):
        s = displaced_thermal_gaussian(0.3 + 0.1j, 0.4)
        r = qcb_gaussian(s, s)
        assert r.bound == pytest.approx(0.5, abs=1e-9)
        assert r.exponent() == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.9 - 0.4j, 2.0j])
    def test_pure_states_flat_overlap(self, alpha):
        r = qcb_gaussian(
            displaced_thermal_gaussian(0.0, 0.0),
            displaced_thermal_gaussian(alpha, 0.0),
        )
        assert r.bound == pytest.approx(0.5 * math.exp(-abs(alpha) ** 2), rel=1e-9)

    @pytest.mark.parametrize("n_b, amp_sq", [(20.0, 3.0), (1.0, 0.5), (100.0, 10.0)])
    def test_thermal_displaced_exponent(self, n_b, amp_sq):
        r = qcb_gaussian(
            displaced_thermal_gaussian(0.0, n_b),
            displaced_thermal_gaussian(math.sqrt(amp_sq), n_b),
        )
        want = amp_sq * (math.sqrt(n_b + 1.0) - math.sqrt(n_b)) ** 2
        assert r.exponent() == pytest.approx(want, rel=1e-9)
        # the minimum sits at the symmetric point for these isotropic pairs
        assert abs(r.s_opt - 0.5) < 1e-3

    @pytest.mark.parametrize(
        "pair",
        [
            ((0.0, 0.5), (1.0, 0.5)),
            ((0.3, 0.1), (1.2, 0.4)),
            ((0.0, 2.0), (0.8, 1.5)),
        ],
    )
    def test_upper_bounds_helstrom(self, pair):
        (a1, e1), (a2, e2) = pair
        dim = max(recommended_dim(a1**2, e1), recommended_dim(a2**2, e2))
        p_h = helstrom_numeric(
            to_fock(DisplacedThermal(a1, e1), dim),
            to_fock(DisplacedThermal(a2, e2), dim),
        )
        q = qcb_gaussian(
            displaced_thermal_gaussian(a1, e1),
            displaced_thermal_gaussian(a2, e2),
        )
        assert p_h <= q.bound + 1e-12

    def test_mode_mismatch(self):
        one = displaced_thermal_gaussian(0.0, 0.0)
        two = GaussianState(2, np.zeros(4), np.eye(4))
        with pytest.raises(ValueError, match="modes"):
            qcb_gaussian(one, two)


class TestPC2d:
    def test_no_target_is_coin_flip(self):
        assert p_c2d(0.001, ChannelParams(0.0, 0.0, 20.0), 100) == 0.5

    def test_regression_value(self):
        assert p_c2d(0.001, FIG2A, 10**6) == pytest.approx(
            0.19262873744743636, rel=1e-5
        )

    def test_approaches_quarter_power_law(self):
        xi = conversion_params(0.001, FIG2A).xi
        p = p_c2d(0.001, FIG2A, 10**7)
        approx = 0.25 * (1 + 2 * xi) ** (-(10**7))
        assert abs(p - approx) / approx < 0.05

    def test_single_mode_weak_signal(self):
        ch = ChannelParams(0.001, 0.0, 5.0)
        xi = conversion_params(0.01, ch).xi
        p = p_c2d(0.01, ch, 1)
        assert 0.5 - 10 * math.sqrt(xi) < p < 0.5

    def test_monotone_in_copies_and_transmissivity(self):
        ps = [p_c2d(0.001, FIG2A, m) for m in (10**5, 10**6, 10**7)]
        assert ps[0] > ps[1] > ps[2]
        pk = [
            p_c2d(0.001, ChannelParams(k, 0.0, 20.0), 10**6)
            for k in (0.005, 0.01, 0.02)
        ]
        assert pk[0] > pk[1] > pk[2]

    def test_truncation_robustness(self):
        base = p_c2d(0.001, FIG2A, 10**6, fock_dim=40)
        doubled = p_c2d(0.001, FIG2A, 10**6, fock_dim=80)
        assert abs(doubled - base) / base < 1e-8

    def test_rejects_cutoff_that_truncates_nodes(self):
        with pytest.raises(ValueError, match="trace deficit"):
            p_c2d(0.001, FIG2A, 10**6, fock_dim=6)

    def test_rejects_rotated_hypotheses(self):
        with pytest.raises(ValueError, match="theta"):
            p_c2d(0.001, ChannelParams(0.01, 0.3, 20.0), 100)

    def test_reports_achieved_tolerance(self):
        _, achieved = p_c2d(0.001, FIG2A, 10**6, with_achieved=True)
        assert achieved <= 1e-6

    def test_rejects_nonpositive_mode_count(self):
        with pytest.raises(ValueError, match="positive integer"):
            p_c2d(1e-3, FIG2A, -3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 30.0)), min_size=1, max_size=6),
    e=st.one_of(st.just(0.0), st.floats(1e-9, 3.0)),
    n0=st.one_of(st.just(0.0), st.floats(1e-9, 3.0)),
    dim=st.integers(2, 48),
    p0=st.floats(0.0, 1.0),
)
def test_stacked_helstrom_rows_equal_single_calls(xs, e, n0, dim, p0):
    rho = displaced_thermal_matrix(0.0, n0, dim)
    stack = displaced_thermal_matrix(np.array(xs), e, dim)
    stacked = _helstrom_error(rho, stack, p0)
    assert stacked.shape == (len(xs),)
    for row, sigma in zip(stacked, stack):
        assert row == _helstrom_error(rho, sigma, p0)


class TestPClassicalCoherent:
    @pytest.mark.parametrize(
        "n_s, kappa, n_b, m",
        [
            (0.5, 0.25, 0.0, 4000),  # coherent states, cutoff 684
            (0.4, 0.25, 0.0, 10),
            (1e-3, 0.0, 20.0, 1000),  # no target
            (0.0, 0.5, 0.0, 3),
            (1e-3, 0.01, 20.0, 10**5),  # Fig. 2a, cutoff 593
            (0.1, 0.5, 1.0, 80),
        ],
    )
    def test_matches_validated_helstrom(self, n_s, kappa, n_b, m):
        # the oracle runs at twice the cutoff: at (0.1, 0.5, 1.0, 80) its
        # own truncation at the cutoff (62) is 1.5e-12
        amp_sq = kappa * m * n_s
        dim = 2 * recommended_dim(amp_sq, n_b)
        want = helstrom_numeric(
            to_fock(DisplacedThermal(0.0, n_b), dim),
            to_fock(DisplacedThermal(math.sqrt(amp_sq), n_b), dim),
        )
        got = p_classical_coherent(n_s, ChannelParams(kappa, 0.0, n_b), m)
        assert abs(got - want) <= 1e-12

    def test_no_target_is_coin_flip(self):
        assert p_classical_coherent(0.001, ChannelParams(0.0, 0.0, 20.0), 100) == \
            pytest.approx(0.5, abs=1e-12)

    def test_pure_background_closed_form(self):
        got = p_classical_coherent(0.4, ChannelParams(0.25, 0.0, 0.0), 10)
        want = 0.5 * (1 - math.sqrt(1 - math.exp(-0.25 * 10 * 0.4)))
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("m", [3000, 10**4])
    def test_nearly_orthogonal_states_never_go_negative(self, m):
        # the trace norm of the difference rounds to just above 1 here,
        # which left the unclamped error near -1e-14
        got = p_classical_coherent(0.1, ChannelParams(0.5, 0.0, 0.0), m)
        assert 0.0 <= got <= 1e-14


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    amp_sq=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
    n_b=st.one_of(st.just(0.0), st.floats(1e-9, 3.0)),
)
@example(amp_sq=0.0102814142, n_b=0.238491066)
def test_parity_split_matches_validated_helstrom(amp_sq, n_b):
    dim = recommended_dim(amp_sq, n_b)
    assume(dim <= 150)
    got = _coherent_helstrom_error(amp_sq, n_b)
    want = helstrom_numeric(
        to_fock(DisplacedThermal(0.0, n_b), 2 * dim),
        to_fock(DisplacedThermal(math.sqrt(amp_sq), n_b), 2 * dim),
    )
    # at small cutoffs the truncation reaches 1.3e-11 (15 levels, the
    # example above), about half of the trace the cutoff drops from the
    # displaced state; a flat 1e-12 holds only above ~20 levels
    dropped = 1.0 - np.trace(displaced_thermal_matrix(amp_sq, n_b, dim))
    assert 0.0 <= got <= 0.5
    assert abs(got - want) <= 1e-12 + dropped


@pytest.mark.parametrize(
    "amp_sq, n_b",
    [
        (0.1, 20.0),  # the `detect` benchmark's Fig. 2a points, cutoffs 573-693
        (1.0, 20.0),
        (10.0, 20.0),
        (56.8, 10.0),  # the 3a threshold at n_b = 10: width 28 at cutoff 571
        (1.0, 100.0),  # cutoff 2,988
    ],
)
def test_band_solve_matches_dense_svd(amp_sq, n_b):
    # the oracle is the dense route: the SVD of the full matrix's block
    dim = recommended_dim(amp_sq, n_b)
    band = _displaced_thermal_band(0.25 * amp_sq, n_b, dim)
    assert _BAND_SOLVE_RATIO * (len(band) // 2 * 2) <= dim  # the band side
    rho = displaced_thermal_matrix(0.25 * amp_sq, n_b, dim)
    want = float(np.sum(np.linalg.svd(rho[0::2, 1::2], compute_uv=False)))
    assert abs(_coherent_helstrom_error(amp_sq, n_b) - (0.5 - want)) <= 1e-14


@pytest.mark.parametrize(
    "amp_sq, n_b, want",
    [
        (100.0, 1.0, 2.1293202756567098e-09),
        (100.0, 3.0, 7.459977331036871e-05),
        (300.0, 3.0, 2.548650179790002e-11),
    ],
)
def test_forward_route_errors_above_the_rounding_floor(amp_sq, n_b, want):
    # values pinned before the forward route built every diagonal; to 1e-12,
    # as the last digits follow the BLAS build
    dim = recommended_dim(amp_sq, n_b)
    assert fockstates._miller_band(0.25 * amp_sq, n_b, dim) is None  # forward route
    assert_allclose(_coherent_helstrom_error(amp_sq, n_b), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [10**4, 10**5, 10**6])
def test_fig2a_solves_build_their_band_along_the_diagonals(monkeypatch, m):
    # a route guard, not a timing gate: the forward route builds these
    # bands in dim (573-693) steps, the backward one in about their width
    def forward(*args):
        raise AssertionError(f"forward band route at {args}")

    monkeypatch.setattr(fockstates, "_laguerre_band", forward)
    got = _coherent_helstrom_error(FIG2A.kappa * m * 1e-3, FIG2A.n_b)
    assert got == p_classical_coherent(1e-3, FIG2A, m)
    assert 0.0 < got < 0.5


@pytest.mark.parametrize("x, e, dim", [(75.0, 0.1, 445), (3.0, 0.5, 20), (0.7, 2.0, 31)])
def test_parity_block_is_the_dense_block_on_the_band(x, e, dim):
    band = _displaced_thermal_band(x, e, dim)
    rho = displaced_thermal_matrix(x, e, dim)
    offset = np.subtract.outer(np.arange(dim), np.arange(dim))
    kept = np.where(np.abs(offset) < len(band), rho, 0.0)
    assert np.array_equal(_parity_block(band), kept[0::2, 1::2])


def _lower_band(rho, width):
    """LAPACK lower band storage of the first ``width`` diagonals of ``rho``."""
    dim = len(rho)
    band = np.zeros((width, dim))
    for k in range(width):
        band[k, : dim - k] = np.diagonal(rho, -k)
    return band


def _band_sigma(band):
    """Singular values of the band's parity block, by the band solver."""
    return _band_singular_values(*_parity_band(band), (band.shape[1] + 1) // 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    x=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
    n_b=st.one_of(st.just(0.0), st.floats(1e-6, 3.0)),
    # (dim, width): odd and even cutoffs, bands from 2 diagonals to all
    shape=st.integers(2, 60).flatmap(lambda d: st.tuples(st.just(d), st.integers(2, d))),
)
@example(x=5.0, n_b=0.0, shape=(2, 2))
@example(x=5.0, n_b=0.0, shape=(41, 41))
def test_band_svd_matches_eig_banded_and_dense_svd(x, n_b, shape):
    # the oracles are the routes the band solver replaced or stands beside:
    # eig_banded on the odd diagonals (eigenvalues +-sigma, and one 0 when
    # dim is odd) and the SVD of the dense block
    dim, width = shape
    band = _lower_band(displaced_thermal_matrix(x, n_b, dim), width)
    got = np.sort(_band_sigma(band))
    dense = np.sort(np.linalg.svd(_parity_block(band), compute_uv=False))
    odd = np.zeros((width // 2 * 2, dim))
    odd[1::2] = band[1 : len(odd) : 2]
    lam = scipy.linalg.eig_banded(odd, lower=True, eigvals_only=True)
    assert got.shape == (dim // 2,)
    assert np.all(got >= 0.0)
    assert_allclose(got, dense, rtol=0, atol=1e-15)
    assert abs(np.sum(got) - 0.5 * np.sum(np.abs(lam))) <= 1e-14


@pytest.mark.parametrize(
    "x, n_b, dim",
    [(3.0, 0.5, 20), (0.7, 2.0, 30), (5.0, 0.0, 30), (0.0025, 0.24, 15), (2.0, 1e-3, 25)],
)
def test_band_svd_matches_mpmath(x, n_b, dim):
    # svd_r at 40 digits on the same floating-point block
    band = _displaced_thermal_band(x, n_b, dim)
    block = _parity_block(band)
    with mpmath.workdps(40):
        want = mpmath.svd_r(mpmath.matrix(block.tolist()), compute_uv=False)
        want = np.sort(np.array([float(v) for v in want]))
    got = np.sort(_band_sigma(band))
    assert_allclose(got, want, rtol=0, atol=2e-16)
    assert abs(np.sum(got) - math.fsum(want)) <= 1e-15


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_band_solver_rejects_a_non_finite_band_quietly(capfd, bad):
    # LAPACK's own argument check would print to stderr and return NaN
    band = _displaced_thermal_band(2.5, 20.0, 100)
    band[1, 7] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _band_sigma(band)
    assert capfd.readouterr().err == ""


def test_band_solver_raises_on_lapack_info(monkeypatch):
    # a routine that reports failure, as dlasq1 does when dqds stalls
    def failing(*args):
        args[-1]._obj.value = 2

    bound = discrimination._lapack
    monkeypatch.setattr(
        discrimination, "_lapack", lambda name: failing if name == "dlasq1" else bound(name)
    )
    with pytest.raises(np.linalg.LinAlgError, match="dlasq1 returned info = 2"):
        _band_sigma(_displaced_thermal_band(2.5, 20.0, 100))


class TestLapackSignatureGuard:
    capsules = cython_lapack.__pyx_capi__

    @pytest.mark.parametrize("name", ["dgbbrd", "dlasq1"])
    def test_binds_scipys_routines(self, name):
        assert callable(_bind_lapack(name, self.capsules[name]))

    def test_rejects_another_routines_capsule(self):
        # 5 arguments where dgbbrd takes 18
        with pytest.raises(RuntimeError, match="dgbbrd has the signature"):
            _bind_lapack("dgbbrd", self.capsules["dlasq1"])

    def test_rejects_a_wrong_argument_type(self):
        # dlasq1's arity with a double * where its n is an int *
        new = ctypes.PYFUNCTYPE(
            ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p
        )(("PyCapsule_New", ctypes.pythonapi))
        name = b"void (double *, double *, double *, double *, int *)"
        capsule = new(1, name, None)  # never called; the name outlives it
        with pytest.raises(RuntimeError, match="dlasq1 has the signature"):
            _bind_lapack("dlasq1", capsule)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    # n_b below 2 solves on the dense side, 10-13 mostly on the band
    n_b=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(10.0, 13.0)),
    amp_sq=st.floats(0.0, 30.0),
    scale=st.floats(0.0, 1.0),
)
@example(n_b=12.0, amp_sq=1.0, scale=0.5)
@example(n_b=0.5, amp_sq=10.0, scale=0.5)
def test_coherent_error_is_bounded_and_falls_with_amplitude(n_b, amp_sq, scale):
    # a beam splitter against a thermal mode of the same n_b scales the
    # displacement down and leaves the thermal state alone, so by data
    # processing the error cannot fall when the amplitude does
    assume(recommended_dim(amp_sq, n_b) <= 400)
    far = _coherent_helstrom_error(amp_sq, n_b)
    near = _coherent_helstrom_error(scale * amp_sq, n_b)
    assert 0.0 <= far <= 0.5 and 0.0 <= near <= 0.5
    assert far <= near + 1e-14


class TestAnalyticBounds:
    def test_nair_gu_no_target(self):
        assert nair_gu_bound(0.001, ChannelParams(0.0, 0.0, 20.0), 100) == 0.25

    def test_nair_gu_lossless_noiseless_limit(self):
        # kappa = n_b + 1 makes beta infinite: the bound's limit is 0
        assert nair_gu_bound(10.0, ChannelParams(1.0, 0.0, 0.0), 1) == 0.0

    def test_nair_gu_exponent_close_to_conversion(self):
        beta = -math.log1p(-0.01 / 21.0)
        per_copy = beta * 0.001
        two_xi = 2 * conversion_params(0.001, FIG2A).xi
        assert per_copy == pytest.approx(4.7632e-7, rel=1e-4)
        assert abs(per_copy - two_xi) / two_xi < 1e-3

    def test_lemma1_no_signal(self):
        assert lemma1_upper_bound(0.001, ChannelParams(0.0, 0.0, 20.0), 100) == 0.5

    def test_lemma1_regression(self):
        assert lemma1_upper_bound(0.001, FIG2A, 10**6) == pytest.approx(
            0.31962459202120896, rel=1e-9
        )

    def test_lemma1_below_symmetric_relaxation(self):
        n_s, m = 0.001, 10**6
        params = conversion_params(n_s, FIG2A)
        h = lambda y: (math.sqrt(y + 1) + math.sqrt(y)) ** 2
        relaxed = (1 + 4 * params.xi / (h(n_s) + h(params.e_noise))) ** (-m)
        assert lemma1_upper_bound(n_s, FIG2A, m) <= relaxed

    def test_sandwich_on_grid(self):
        for n_s in np.geomspace(1e-4, 1e-2, 5):
            for n_b in np.geomspace(1.0, 100.0, 5):
                for kappa in np.geomspace(1e-3, 0.1, 3):
                    ch = ChannelParams(kappa, 0.0, n_b)
                    xi = conversion_params(n_s, ch).xi
                    m = max(1, int(math.log(25.0) / math.log1p(2 * xi)))
                    p = p_c2d(n_s, ch, m)
                    assert 1e-4 < p < 0.3
                    lo = nair_gu_bound(n_s, ch, m)
                    hi = lemma1_upper_bound(n_s, ch, m)
                    assert lo <= p * (1 + 1e-6)
                    assert p <= hi * (1 + 1e-6)


class TestC2dExponents:
    def test_reference_ratio(self):
        ex = c2d_exponent_bounds(0.001, FIG2A)
        assert ex.r_asymptotic / ex.r_cs == pytest.approx(3.90808341838422, rel=1e-9)
        assert ex.r_asymptotic == pytest.approx(4.7666645e-7, rel=1e-5)

    def test_lower_bound_form(self):
        n_s = 0.02
        ex = c2d_exponent_bounds(n_s, FIG2A)
        shrink = (math.sqrt(n_s + 1) - math.sqrt(n_s)) ** 2
        assert ex.r_c2d_lb == pytest.approx(ex.r_asymptotic * shrink, rel=1e-12)

    def test_advantage_crosses_one_on_diagonal(self):
        for y in (0.5, 2.0, 10.0):
            ex = c2d_exponent_bounds(y, ChannelParams(1e-5, 0.0, y))
            assert ex.r_c2d_lb / ex.r_cs == pytest.approx(1.0, rel=1e-4)
        better = c2d_exponent_bounds(0.5, ChannelParams(1e-5, 0.0, 2.0))
        worse = c2d_exponent_bounds(2.0, ChannelParams(1e-5, 0.0, 0.5))
        assert better.r_c2d_lb / better.r_cs > 1.0 > worse.r_c2d_lb / worse.r_cs

    def test_deep_asymptotic_ratio_is_four(self):
        ex = c2d_exponent_bounds(1e-8, ChannelParams(1e-8, 0.0, 1e8))
        assert ex.r_c2d_lb / ex.r_cs == pytest.approx(4.0, rel=1e-3)


class TestPatternExponents:
    def test_identical_hypotheses(self):
        h = PatternHypothesis(((0.3, 0.1), (0.7, -0.4)), 50.0)
        ex = pattern_exponents(h, h, [0.01, 0.02])
        assert ex.classical == 0.0 and ex.entangled == 0.0

    def test_reduces_to_target_detection(self):
        n_s, kappa, n_b = 1e-3, 0.01, 20.0
        h1 = PatternHypothesis(((0.0, 0.0),), n_b)
        h2 = PatternHypothesis(((kappa, 0.0),), n_b)
        ex = pattern_exponents(h1, h2, [n_s])
        ref = c2d_exponent_bounds(n_s, ChannelParams(kappa, 0.0, n_b))
        assert ex.classical == pytest.approx(ref.r_cs, rel=1e-12)
        assert ex.entangled == pytest.approx(kappa * n_s / n_b, rel=1e-12)

    def test_bright_background_ratio(self):
        h1 = PatternHypothesis(((0.0, 0.0),), 1e4)
        h2 = PatternHypothesis(((0.01, 0.0),), 1e4)
        ex = pattern_exponents(h1, h2, [1e-4])
        assert ex.entangled / ex.classical == pytest.approx(4.0, abs=1e-3)
        assert ex.entangled_refined / ex.classical == pytest.approx(
            3.9205999774535507, rel=1e-9
        )
        assert ex.n_b_large and ex.n_s_small

    def test_ratio_identity_any_amplitudes(self):
        # entangled/classical depends only on the background brightness
        rng = np.random.default_rng(3)
        amps = rng.uniform(0.001, 0.05, size=4)
        h1 = PatternHypothesis(tuple((k, t) for k, t in zip(
            rng.uniform(0, 1, 4), rng.uniform(-3, 3, 4))), 30.0)
        h2 = PatternHypothesis(tuple((k, t) for k, t in zip(
            rng.uniform(0, 1, 4), rng.uniform(-3, 3, 4))), 30.0)
        ex = pattern_exponents(h1, h2, amps)
        ident = ex.entangled / ex.classical * 30.0 * (
            math.sqrt(31.0) - math.sqrt(30.0)
        ) ** 2
        assert ident == pytest.approx(1.0, rel=1e-12)

    def test_phase_only_patterns_separate(self):
        h1 = PatternHypothesis(((0.5, 0.0), (0.5, 0.0)), 10.0)
        h2 = PatternHypothesis(((0.5, math.pi), (0.5, 0.0)), 10.0)
        ex = pattern_exponents(h1, h2, [0.01, 0.01])
        # delta for the flipped subchannel is |sqrt(k)+sqrt(k)|^2 = 4k
        assert ex.entangled == pytest.approx(0.01 * 4 * 0.5 / 10.0, rel=1e-12)

    def test_mismatches_rejected(self):
        h1 = PatternHypothesis(((0.3, 0.0),), 10.0)
        h2 = PatternHypothesis(((0.3, 0.0), (0.1, 0.0)), 10.0)
        with pytest.raises(ValueError, match="subchannel"):
            pattern_exponents(h1, h2, [0.01])
        h3 = PatternHypothesis(((0.3, 0.0),), 20.0)
        with pytest.raises(ValueError, match="brightness"):
            pattern_exponents(h1, h3, [0.01])

    def test_kappa_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            PatternHypothesis(((1.2, 0.0),), 10.0)

