import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre, gammaln

from entsense import fockstates
from entsense.discrimination import helstrom_numeric
from entsense.fockstates import (
    DisplacedThermal,
    FockMatrix,
    _bpsk_mixture_eigvals,
    dephased_pmf,
    displaced_thermal_matrix,
    recommended_dim,
    to_fock,
)


def displacement_matrix(alpha, dim):
    """Analytic displacement-operator matrix elements (associated Laguerre
    closed form); conjugating the thermal diagonal with it gives an oracle
    for the displaced thermal state that shares no code with the
    recurrence in ``to_fock``."""
    d = np.zeros((dim, dim), dtype=complex)
    x2 = abs(alpha) ** 2
    for m in range(dim):
        for n in range(dim):
            if m >= n:
                amp = math.exp(0.5 * (gammaln(n + 1) - gammaln(m + 1)) - x2 / 2)
                d[m, n] = amp * alpha ** (m - n) * eval_genlaguerre(n, m - n, x2)
            else:
                amp = math.exp(0.5 * (gammaln(m + 1) - gammaln(n + 1)) - x2 / 2)
                d[m, n] = amp * (-np.conj(alpha)) ** (n - m) * eval_genlaguerre(
                    m, n - m, x2
                )
    return d


def mp_entry(alpha, e, m, n):
    """``<m| D(alpha) rho_th(e) D(alpha)^dag |n>`` at 40 digits (Cahill &
    Glauber closed form); ``alpha`` may be complex."""
    with mpmath.workdps(40):
        if m < n:
            return mpmath.conj(mp_entry(alpha, e, n, m))
        a = mpmath.mpc(alpha)
        x = abs(a) ** 2
        e = mpmath.mpf(e)
        k = m - n
        if e == 0:
            return mpmath.exp(-x) * a**k * x**n / mpmath.sqrt(
                mpmath.factorial(m) * mpmath.factorial(n)
            )
        return (
            mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m))
            * e**n
            * a**k
            * mpmath.exp(-x / (e + 1))
            * mpmath.laguerre(n, k, -x / (e * (e + 1)))
            / (e + 1) ** (m + 1)
        )


def annihilation(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


class TestFockMatrix:
    def test_rejects_non_hermitian(self):
        bad = np.eye(3, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            FockMatrix(3, bad)

    def test_rejects_trace_deficit(self):
        with pytest.raises(ValueError, match="trace"):
            FockMatrix(3, 0.9 * np.diag([1.0, 0.0, 0.0]).astype(complex))

    def test_rejects_indefinite(self):
        bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            FockMatrix(3, bad)

    def test_entries_immutable(self):
        fm = to_fock(DisplacedThermal(0.0, 0.0), 4)
        with pytest.raises(ValueError):
            fm.entries[0, 0] = 0.0


class TestToFock:
    def test_vacuum_projector(self):
        fm = to_fock(DisplacedThermal(0.0, 0.0), 4)
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert_allclose(fm.entries, want, atol=1e-15)

    def test_thermal_diagonal(self):
        e = 0.35
        fm = to_fock(DisplacedThermal(0.0, e), recommended_dim(0.0, e))
        n = np.arange(fm.dim)
        want = e**n / (1 + e) ** (n + 1)
        assert_allclose(fm.entries, np.diag(want), atol=1e-15)

    def test_coherent_diagonal_is_poisson(self):
        dim = recommended_dim(1.0, 0.0)
        fm = to_fock(DisplacedThermal(1.0, 0.0), dim)
        n = np.arange(dim)
        assert_allclose(
            np.diag(fm.entries).real, scipy.stats.poisson(1.0).pmf(n), atol=1e-12
        )

    @pytest.mark.parametrize(
        "alpha, e",
        [(1.2 + 0.7j, 0.4), (-0.9j, 0.05), (2.0, 1.0), (0.3 - 1.4j, 0.8)],
    )
    def test_matches_analytic_displacement(self, alpha, e):
        dim = recommended_dim(abs(alpha) ** 2, e)
        fm = to_fock(DisplacedThermal(alpha, e), dim)
        u = displacement_matrix(alpha, dim)
        n = np.arange(dim)
        thermal = np.exp(n * math.log(e) - (n + 1) * math.log1p(e))
        want = (u * thermal) @ u.conj().T
        assert np.max(np.abs(fm.entries - want)) < 1e-9

    def test_dimension_too_small_names_requirement(self):
        with pytest.raises(ValueError, match="need dim >= "):
            to_fock(DisplacedThermal(2.0, 0.5), 6)

    def test_rejects_tiny_dim(self):
        with pytest.raises(ValueError, match="at least 2"):
            to_fock(DisplacedThermal(0.0, 0.0), 1)

    @pytest.mark.parametrize(
        "alpha, e",
        [(0.5, 0.0), (1.0 + 1.0j, 0.3), (2.0, 1.0), (-1.3 + 0.4j, 0.9)],
    )
    def test_mean_and_energy(self, alpha, e):
        dim = recommended_dim(abs(alpha) ** 2, e)
        fm = to_fock(DisplacedThermal(alpha, e), dim)
        a = annihilation(dim)
        mean = np.trace(fm.entries @ a)
        assert abs(mean - alpha) < 1e-8
        energy = np.trace(fm.entries @ np.diag(np.arange(dim))).real
        assert abs(energy - (abs(alpha) ** 2 + e)) < 1e-8

    @pytest.mark.parametrize("e", [0.1, 0.5, 1.0])
    def test_thermal_entropy(self, e):
        fm = to_fock(DisplacedThermal(0.0, e), recommended_dim(0.0, e, 1e-12))
        lam = np.diag(fm.entries).real
        lam = lam[lam > 0]
        entropy = -np.sum(lam * np.log2(lam))
        g = (e + 1) * math.log2(e + 1) - e * math.log2(e)
        assert abs(entropy - g) < 1e-8


class TestPhotonPmf:
    def test_geometric_at_zero_displacement(self):
        e = 0.7
        n = np.arange(30)
        assert_allclose(
            dephased_pmf(0.0, e, n),
            e**n / (1 + e) ** (n + 1),
            rtol=1e-12,
        )

    def test_poisson_at_zero_noise(self):
        n = np.arange(25)
        assert_allclose(
            dephased_pmf(abs(1.3j) ** 2, 0.0, n),
            scipy.stats.poisson(1.69).pmf(n),
            rtol=1e-10,
        )

    def test_sums_to_one_and_matches_matrix_diagonal(self):
        dim = recommended_dim(0.5, 0.2)
        pmf = dephased_pmf(0.5, 0.2, np.arange(dim))
        assert abs(pmf.sum() - 1.0) < 1e-10
        fm = to_fock(DisplacedThermal(math.sqrt(0.5), 0.2), dim)
        assert np.max(np.abs(pmf - np.diag(fm.entries).real)) < 1e-9

    def test_scalar_input(self):
        p = dephased_pmf(0.0, 0.0, 0)
        assert isinstance(p, float) and p == 1.0


class TestDephasedPmf:
    def test_geometric_at_x_zero(self):
        e = 0.25
        n = np.arange(20)
        assert_allclose(dephased_pmf(0.0, e, n), e**n / (1 + e) ** (n + 1), rtol=1e-12)

    def test_coherent_limit(self):
        n = np.arange(15)
        got = dephased_pmf(0.9, 1e-8, n)
        want = scipy.stats.poisson(0.9).pmf(n)
        # convergence to the coherent limit is O(E * poly(n)), so the deep
        # tail only matches absolutely
        assert_allclose(got, want, rtol=1e-6, atol=1e-13)

    def test_matches_angular_average(self):
        # the pmf depends on alpha only through |alpha|^2: the Fock
        # diagonal at every phase of sqrt(x) e^{i phi} is the same pmf
        x, e = 0.3, 0.05
        dim = recommended_dim(x, e)
        thetas = np.arange(64) * (2 * math.pi / 64)
        states = [DisplacedThermal(math.sqrt(x) * np.exp(1j * t), e) for t in thetas]
        diagonals = [np.diag(to_fock(state, dim).entries).real for state in states]
        assert np.max(np.abs(dephased_pmf(x, e, np.arange(dim)) - diagonals)) < 1e-9

    def test_large_n_underflows_gracefully(self):
        p = dephased_pmf(0.5, 0.01, 800)
        assert 0.0 <= p < 1e-300

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dephased_pmf(-0.1, 0.2, 3)
        with pytest.raises(ValueError):
            dephased_pmf(0.1, 0.2, -3)
        with pytest.raises(ValueError):
            dephased_pmf(np.array([0.3, -0.1]), 0.2, 3)
        with pytest.raises(ValueError):
            dephased_pmf(np.zeros((2, 2)), 0.2, 3)

    def test_stack_shapes(self):
        n = np.array([[0, 1], [2, 3]])
        assert isinstance(dephased_pmf(0.3, 0.1, 2), float)
        assert dephased_pmf(0.3, 0.1, n).shape == (2, 2)
        assert dephased_pmf(np.array([0.3]), 0.1, 2).shape == (1,)
        assert dephased_pmf(np.array([0.3, 0.0, 4.0]), 0.1, n).shape == (3, 2, 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 60.0)), min_size=1, max_size=8),
    e=st.one_of(st.just(0.0), st.floats(1e-9, 5.0)),
    top=st.integers(1, 120),
)
@example(xs=[0.0, 3.0, 0.0, 45.0], e=0.0, top=100)
def test_stacked_pmf_rows_equal_scalar_calls(xs, e, top):
    n = np.arange(top)
    stacked = dephased_pmf(np.array(xs), e, n)
    assert stacked.shape == (len(xs), top)
    for row, x in zip(stacked, xs):
        assert np.array_equal(row, dephased_pmf(x, e, n))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    x=st.one_of(st.just(0.0), st.floats(0.0, 500.0)),
    e=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
)
def test_pmf_is_log_concave(x, e):
    # p[n+1]/p[n] never rises: the premise of holevo_cpsk_conditional's tail
    # cut.  Checked wherever three neighbours are normal floats.
    std = math.sqrt(x * (2 * e + 1) + e * (e + 1))
    p = dephased_pmf(x, e, np.arange(int(x + e + 12 * std) + 30))
    normal = p >= np.finfo(float).tiny
    both = normal[:-2] & normal[1:-1] & normal[2:]
    falls_in = p[1:-1][both] / p[:-2][both]
    falls_out = p[2:][both] / p[1:-1][both]
    assert np.all(falls_out <= falls_in * (1.0 + 1e-12))


class TestBpskMixture:
    def test_thermal_at_x_zero(self):
        e = 0.4
        dim = recommended_dim(0.0, e)
        eigs, _ = _bpsk_mixture_eigvals(0.0, e, dim)
        n = np.arange(dim)
        assert_allclose(np.sort(eigs), np.sort(e**n / (1 + e) ** (n + 1)), atol=1e-14)

    @pytest.mark.parametrize("x, e", [(0.8, 0.3), (0.05, 0.001), (2.5, 0.9)])
    def test_matches_mixture_of_displaced_thermals(self, x, e):
        dim = recommended_dim(x, e)
        eigs, _ = _bpsk_mixture_eigvals(x, e, dim)
        plus = to_fock(DisplacedThermal(math.sqrt(x), e), dim)
        minus = to_fock(DisplacedThermal(-math.sqrt(x), e), dim)
        want = np.linalg.eigvalsh(0.5 * (plus.entries + minus.entries))
        assert np.max(np.abs(np.sort(eigs) - want)) < 1e-13

    def test_trace_within_tol_at_recommended_dim(self):
        x, e = 1.2, 0.15
        _, deficit = _bpsk_mixture_eigvals(x, e, recommended_dim(x, e))
        assert 0.0 <= deficit < fockstates._TAIL_TOL

    def test_noiseless_mixture_is_two_level(self):
        # (|a><a| + |-a><-a|)/2 has eigenvalues (1 +- e^{-2|a|^2})/2
        x = 0.7
        eigs, _ = _bpsk_mixture_eigvals(x, 0.0, 40)
        eigs = np.sort(eigs)
        two_level = 0.5 * (1.0 + np.array([-1.0, 1.0]) * math.exp(-2.0 * x))
        assert_allclose(eigs[-2:], two_level, atol=1e-15)
        assert np.max(np.abs(eigs[:-2])) < 1e-15

    def test_dimension_too_small(self):
        with pytest.raises(ValueError, match="need dim >= "):
            _bpsk_mixture_eigvals(3.0, 0.5, 4)


class TestRecommendedDim:
    def test_floor_applies_near_vacuum(self):
        assert recommended_dim(0.0, 0.0) == 12

    def test_grows_with_energy(self):
        assert recommended_dim(4.0, 1.0) > recommended_dim(0.5, 0.1)

    def test_tightening_tolerance_grows_dim(self):
        assert recommended_dim(1.0, 0.8, 1e-13) >= recommended_dim(1.0, 0.8, 1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            recommended_dim(-1.0, 0.0)

    @pytest.mark.parametrize(
        "amp_sq, e, want",
        [(0.002, 100.0, 2960), (10.0, 20.0, 693), (3.0, 0.0, None), (0.0, 7.0, None)],
    )
    def test_matches_brute_force_cutoff(self, amp_sq, e, want):
        cutoff = recommended_dim(amp_sq, e)
        assert cutoff == _brute_force_cutoff(amp_sq, e)
        assert want is None or cutoff == want

    @pytest.mark.parametrize(
        "amp_sq, e, want",
        [(0.002, 100.0, 2960), (0.1, 20.0, 573), (1.0, 20.0, 593), (10.0, 20.0, 693)],
    )
    def test_pins_benchmark_cutoffs(self, amp_sq, e, want):
        assert recommended_dim(amp_sq, e) == want

    def test_subnormal_amplitude_at_zero_noise(self):
        # a step below 2^-1024 once left the dropped q^2 term as 0 * inf
        assert recommended_dim(2.225e-309, 0.0) == recommended_dim(0.0, 0.0)
        assert np.all(np.isfinite(dephased_pmf(2.225e-309, 0.0, np.arange(50))))

    def test_failure_names_levels_walked(self, monkeypatch):
        # a pmf whose tail never falls: 16 passes from cap 12 + 64 walk
        # 76 * 2^15 levels, and the message names that many
        monkeypatch.setattr(fockstates, "_pmf_walks", lambda xs, e: [itertools.repeat(0.5)])
        with pytest.raises(ValueError, match=f"within the {76 << 15} levels walked"):
            recommended_dim(0.0, 0.0)


def _brute_force_cutoff(amp_sq, e, tail_tol=1e-9):
    """recommended_dim's rule on one dephased_pmf call that reaches the
    first doubling of the starting cap whose last 8 (n+1)-weighted levels
    sum below 1e-3 tail_tol."""
    s = amp_sq + e
    floor_dim = math.ceil(s + 8.0 * math.sqrt(s + 1.0)) + 4
    cap = floor_dim + 64
    while True:
        weighted = (np.arange(cap) + 1.0) * dephased_pmf(amp_sq, e, np.arange(cap))
        if weighted[-8:].sum() < 1e-3 * tail_tol:
            break
        cap *= 2
    tail = np.cumsum(weighted[::-1])[::-1]
    return max(floor_dim, int(np.nonzero(tail <= 0.5 * tail_tol)[0][0]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=8),
    e=st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
    n=st.integers(1, 1500),
)
@example(xs=[2.225e-309], e=0.0, n=20)
def test_pmf_walk_equals_laguerre_column(xs, e, n):
    # the walks share one start call; each row is its own one-row column
    walks = fockstates._pmf_walks(np.array(xs), e)
    for x, walk in zip(xs, walks, strict=True):
        column = fockstates._laguerre_columns(np.array([x]), e, n, 1)
        assert list(itertools.islice(walk, n)) == [col[0, 0] for col in column]


def _frozen_laguerre_columns(x, e, n_rows, n_diags):
    """The recurrence loop of ``fockstates._laguerre_columns`` before its
    per-row constants were hoisted into tables, kept as the bit-for-bit
    reference."""
    x = x[:, None]
    q = e / (e + 1.0)
    qq = q * q
    s = x / (e + 1.0) ** 2
    k = np.arange(n_diags)
    root = np.sqrt(np.arange(n_rows + 1.0))
    cur, exp2 = fockstates._diagonal_start(x, e, k)
    prev = np.zeros_like(cur)
    for n in range(n_rows):
        width = min(n_diags, n_rows - n)
        cur, prev, exp2 = cur[:, :width], prev[:, :width], exp2[:, :width]
        yield np.ldexp(cur, exp2)
        nxt = ((2 * n + 1) * q + s + q * k[:width]) * cur
        if qq:
            nxt = nxt - (qq * root[n]) * root[n : n + width] * prev
        nxt, shift = np.frexp(nxt / (root[n + 1] * root[n + 1 : n + 1 + width]))
        if qq:
            prev = np.ldexp(cur, -shift)
        cur, exp2 = nxt, exp2 + shift


def _assert_same_columns(xs, e, n_rows, n_diags):
    got = list(fockstates._laguerre_columns(np.array(xs), e, n_rows, n_diags))
    want = list(_frozen_laguerre_columns(np.array(xs), e, n_rows, n_diags))
    assert len(got) == len(want) == n_rows
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "xs, e, n_rows, n_diags",
    [
        ([2.225e-309, 5e-324, 0.0, 3.0], 0.0, 40, 40),  # E = 0, subnormal x
        ([0.0], 0.7, 50, 50),  # thermal: only diagonal 0 is nonzero
        ([0.0, 0.0], 0.0, 12, 12),  # the vacuum
        (np.linspace(0.0, 20.0, 33), 0.5, 89, 89),  # a p_c2d node block, dense
        ([0.025], 20.0, 573, 68),  # Fig. 2a band: 506 full rows, 67 tail rows
        ([14.2], 10.0, 571, 140),
        ([62.5], 1.0, 716, 381),
    ],
)
def test_hoisted_laguerre_columns_are_the_frozen_loop_bit_for_bit(xs, e, n_rows, n_diags):
    _assert_same_columns(xs, e, n_rows, n_diags)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    xs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=1, max_size=4),
    e=st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
    # (rows, diagonals): dense, bands whose tail rows shrink, and more
    # diagonals than rows
    shape=st.integers(1, 120).flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r + 2))),
)
def test_hoisted_laguerre_columns_match_the_frozen_loop(xs, e, shape):
    _assert_same_columns(xs, e, *shape)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    amp_sq=st.one_of(st.just(0.0), st.floats(1e-5, 300.0)),
    e=st.one_of(st.just(0.0), st.floats(1e-4, 50.0)),
)
def test_recommended_dim_equals_brute_force(amp_sq, e):
    assert recommended_dim(amp_sq, e) == _brute_force_cutoff(amp_sq, e)


def _forward_band(x, e, dim):
    """``_displaced_thermal_band`` on its forward route alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fockstates, "_miller_band", lambda *args: None)
        return fockstates._displaced_thermal_band(x, e, dim)


@pytest.mark.parametrize(
    "x, e, dim, tail",
    [
        (2.5, 20.0, 693, 1e-17),  # narrow band of a noisy state
        (75.0, 0.1, 445, 1e-17),  # wide band of a nearly coherent one
        (0.0, 1.0, 37, 1e-17),  # thermal: no off-diagonal entry
        (3.0, 0.5, 20, 1e-17),  # the whole matrix
        (2.5, 20.0, 693, 1e-200),  # wider than the first forward pass: it doubles
        (75.0, 0.1, 445, 1e-200),
    ],
)
def test_band_holds_dense_entries_and_drops_at_most_its_tail(
    monkeypatch, x, e, dim, tail
):
    # the forward route holds the dense entries bit for bit; the backward
    # one, which runs at n_b = 20 here, keeps the forward route's width and
    # its entries to 1e-13 of the largest
    monkeypatch.setattr(fockstates, "_BAND_TAIL", tail)
    rho = displaced_thermal_matrix(x, e, dim)
    band = fockstates._displaced_thermal_band(x, e, dim)
    width = len(band)
    backward = fockstates._miller_band(x, e, dim) is not None
    assert backward == (e == 20.0)
    assert 2 <= width <= dim and band.shape == (width, dim)
    if backward:
        assert width == len(_forward_band(x, e, dim))
    assert np.array_equal(band[0], np.diagonal(rho))
    for k in range(width):
        if backward:
            got, want = band[k, : dim - k], np.diagonal(rho, -k)
            assert_allclose(got, want, rtol=0, atol=1e-13 * rho.max())
        else:
            assert np.array_equal(band[k, : dim - k], np.diagonal(rho, -k))
        assert not band[k, dim - k :].any()
    dropped = sum(np.abs(np.diagonal(rho, -k)).sum() for k in range(width, dim))
    assert dropped <= tail
    if tail < 1e-17:
        assert width > 64 + 20 * math.sqrt(x)


@pytest.mark.parametrize(
    "x, e, dim",
    [
        (2.5, 0.0, 26),  # q = 0: a coherent state
        (0.0, 20.0, 571),  # x = 0: a thermal state
        (250.0, 0.01, 1258),  # n_b = 0.01 and 0.1: wide bands
        (0.25, 0.1, 18),
        (25.0, 0.1, 187),
        (250.0, 10.0, 2333),  # a large cutoff past x = E(E+1)
        (0.0099, 0.01, 13),  # just inside x < E(E+1): no start below dim
    ],
)
def test_band_falls_back_to_the_forward_route(monkeypatch, x, e, dim):
    calls = []
    forward = fockstates._laguerre_band
    monkeypatch.setattr(
        fockstates, "_laguerre_band", lambda *args: calls.append(args) or forward(*args)
    )
    assert fockstates._miller_band(x, e, dim) is None
    band = fockstates._displaced_thermal_band(x, e, dim)
    assert calls == [(x, e, dim)]
    rho = displaced_thermal_matrix(x, e, dim)
    for k in range(len(band)):
        assert np.array_equal(band[k, : dim - k], np.diagonal(rho, -k))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    x=st.floats(1e-6, 30.0),
    e=st.one_of(st.floats(0.2, 3.0), st.floats(3.0, 100.0)),
)
@example(x=2.5, e=20.0)
@example(x=29.0, e=5.0)
def test_backward_band_matches_the_forward_route(x, e):
    # the coherent solve's band, at x = amp_sq / 4 with its cutoff
    dim = recommended_dim(4.0 * x, e)
    assume(fockstates._miller_band(x, e, dim) is not None)
    band = fockstates._displaced_thermal_band(x, e, dim)
    want = _forward_band(x, e, dim)
    assert band.shape == want.shape
    assert np.array_equal(band[0], want[0])
    assert_allclose(band, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize(
    "x, e, dim",
    [(0.3, 1.0, 48), (0.3, 2.0, 78), (0.0025, 0.5, 23), (1.0, 1.5, 78), (5.0, 4.0, 60)],
)
def test_backward_band_matches_mpmath(x, e, dim):
    # on the diagonals the cut keeps: each column's ratios to its pmf entry
    # carry the recurrence's own error (a few ulps a step), and the entries
    # add the pmf walk's
    band = fockstates._miller_band(x, e, dim)
    assert band is not None
    band = band[: len(fockstates._displaced_thermal_band(x, e, dim))]
    want = np.array(
        [[float(mpmath.re(mp_entry(math.sqrt(x), e, n + k, n))) if n + k < dim else 0.0
          for n in range(dim)] for k in range(len(band))]
    )
    assert_allclose(band / band[0], want / want[0], rtol=1e-14, atol=0)
    assert_allclose(band, want, rtol=0, atol=1e-14 * want.max())


class TestDisplacedThermalMatrix:
    @pytest.mark.parametrize(
        "x, e, dim",
        [
            (5.0, 0.0, 30),  # coherent
            (0.0, 0.4, 20),  # thermal
            (0.8, 1e-8, 25),  # near-coherent
            (2.5, 0.9, 40),
            (30.0, 3.0, 40),
            (0.002, 100.0, 40),
            (400.0, 0.3, 40),
        ],
    )
    def test_matches_mpmath(self, x, e, dim):
        rho = displaced_thermal_matrix(x, e, dim)
        want = np.array(
            [[float(mpmath.re(mp_entry(math.sqrt(x), e, m, n))) for n in range(dim)]
             for m in range(dim)]
        )
        assert np.max(np.abs(rho - want)) < 1e-13

    @pytest.mark.parametrize("alpha, e", [(1.2 + 0.7j, 0.4), (-0.9j, 0.0), (-1.1, 0.2)])
    def test_to_fock_phase_matches_mpmath(self, alpha, e):
        dim = 30
        fm = to_fock(DisplacedThermal(alpha, e), dim)
        want = np.array(
            [[complex(mp_entry(alpha, e, m, n)) for n in range(dim)] for m in range(dim)]
        )
        assert np.max(np.abs(fm.entries - want)) < 1e-13

    def test_real_alpha_stays_real(self):
        fm = to_fock(DisplacedThermal(-1.3, 0.2), recommended_dim(1.69, 0.2))
        assert fm.entries.dtype == np.float64

    def test_batch_equals_scalar_calls(self):
        xs = np.array([0.0, 0.3, 4.0, 11.0])
        stack = displaced_thermal_matrix(xs, 0.7, 24)
        assert stack.shape == (4, 24, 24)
        for x, mat in zip(xs, stack):
            assert np.array_equal(mat, displaced_thermal_matrix(x, 0.7, 24))

    def test_entries_past_exp_underflow(self):
        # e^{-x/(E+1)} = e^{-1000} is far below the double range: every
        # entry comes from a per-diagonal scale, not from the start value.
        x, e = 1500.0, 0.5
        rho = displaced_thermal_matrix(x, e, 1560)
        for m, n in [(1000, 1000), (1500, 1499), (1540, 1500), (1559, 1300)]:
            want = float(mpmath.re(mp_entry(math.sqrt(x), e, m, n)))
            assert want > 1e-300
            assert abs(rho[m, n] - want) <= 1e-10 * want

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            displaced_thermal_matrix(-0.1, 0.2, 4)
        with pytest.raises(ValueError):
            displaced_thermal_matrix(0.1, -0.2, 4)
        with pytest.raises(ValueError):
            displaced_thermal_matrix(np.zeros((2, 2)), 0.2, 4)


class TestDephasedPmfOracle:
    def test_deep_tail_matches_mpmath(self):
        x, e = 1500.0, 0.5
        ns = np.arange(0, 4200, 41)
        got = dephased_pmf(x, e, ns)
        checked = 0
        for n, p in zip(ns, got):
            want = float(mpmath.re(mp_entry(math.sqrt(x), e, int(n), int(n))))
            if want > 1e-300:
                assert abs(p - want) <= 1e-10 * want
                checked += 1
        assert checked > 50


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    x=st.floats(0.0, 25.0),
    e=st.floats(1e-6, 4.0),
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_state_invariants(x, e, phase):
    dim = recommended_dim(x, e)
    alpha = math.sqrt(x) * complex(math.cos(phase), math.sin(phase))
    fm = to_fock(DisplacedThermal(alpha, e), dim)
    assert np.trace(fm.entries).real <= 1.0 + 1e-12
    assert np.min(scipy.linalg.eigvalsh(fm.entries)) >= -1e-10
    p_err = helstrom_numeric(to_fock(DisplacedThermal(0.0, e), dim), fm)
    assert 0.0 <= p_err <= 0.5
    plus = to_fock(DisplacedThermal(math.sqrt(x), e), dim).entries
    minus = to_fock(DisplacedThermal(-math.sqrt(x), e), dim).entries
    eigs, _ = _bpsk_mixture_eigvals(x, e, dim)
    assert np.max(np.abs(np.sort(eigs) - np.linalg.eigvalsh(0.5 * (plus + minus)))) < 1e-13
