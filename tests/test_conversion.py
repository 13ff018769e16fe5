import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from numpy.testing import assert_allclose
from scipy.special import chdtri, gammaincinv

from entsense import communication, conversion, discrimination
from entsense.communication import GreenMachineConfig
from entsense.conversion import (
    QuadratureError,
    combining_weights,
    conversion_params,
    displacement_support,
    expect_total_displacement,
    simulate_conversion,
    streaming_combiner,
)
from entsense.gaussian import ChannelParams, apply_channel, condition_on_generaldyne, tmsv
from entsense.special import RngStream

FIG2A = dict(n_s=0.001, ch=ChannelParams(0.01, 0.0, 20.0))


class TestConversionParams:
    def test_reference_point(self):
        p = conversion_params(**FIG2A)
        # xi = kappa n_s (n_s+1) / (2 (n_b + kappa n_s + 1)), E = n_s (n_b+1-kappa)/(2 v_m)
        assert_allclose(p.xi, 2.3833e-7, rtol=1e-4)
        assert_allclose(p.e_noise, 9.9952e-4, rtol=1e-4)
        assert_allclose(p.xi, 0.01 * 0.001 * 1.001 / (2 * 21.00001), rtol=1e-14)
        assert_allclose(p.v_m, 21.00001 / 2, rtol=1e-15)
        assert_allclose(p.c_p, math.sqrt(0.01 * 0.001 * 1.001), rtol=1e-15)

    def test_kappa_zero(self):
        p = conversion_params(0.3, ChannelParams(0.0, 0.0, 5.0))
        assert p.xi == 0.0
        assert_allclose(p.e_noise, 0.3, rtol=1e-14)

    def test_vacuum_source(self):
        p = conversion_params(0.0, ChannelParams(0.5, 0.0, 5.0))
        assert p.xi == 0.0 and p.e_noise == 0.0

    @pytest.mark.parametrize("n_s", [1e-4, 0.1, 2.0])
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 1.0])
    def test_noise_bounded_by_source(self, n_s, kappa):
        n_b = 0.0 if kappa == 1.0 else 4.0
        p = conversion_params(n_s, ChannelParams(kappa, 0.2, n_b))
        assert 0.0 <= p.e_noise <= n_s + 1e-15
        assert_allclose(p.xi, p.c_p**2 / (4 * p.v_m), rtol=1e-12)


class TestSimulateConversion:
    def test_single_mode(self):
        out = simulate_conversion(0.5, ChannelParams(0.4, 1.1, 2.0), 1, RngStream(3))
        assert_allclose(out.total_amp_sq, abs(out.displacements[0]) ** 2, rtol=1e-12)
        assert_allclose(abs(out.weights[0]), 1.0, rtol=1e-12)

    def test_displacement_phase(self):
        theta = 0.77
        out = simulate_conversion(
            0.5, ChannelParams(0.4, theta, 2.0), 64, RngStream(4)
        )
        rel = np.angle(out.displacements * out.readouts)  # arg(d) + arg(M)
        # arg(d_m) - arg(M_m^*) = theta for every m
        assert_allclose((rel - theta + math.pi) % (2 * math.pi) - math.pi, 0, atol=1e-12)

    def test_weight_identities(self):
        out = simulate_conversion(0.2, ChannelParams(0.6, -0.3, 1.0), 50, RngStream(5))
        assert_allclose(np.sum(np.abs(out.weights) ** 2), 1.0, rtol=1e-12)
        assert_allclose(
            out.total_amp_sq, np.sum(np.abs(out.displacements) ** 2), rtol=1e-12
        )
        combined = np.sum(out.weights * out.displacements)
        assert_allclose(combined, math.sqrt(out.total_amp_sq), rtol=1e-12)

    def test_total_amp_statistics_and_distribution(self):
        m = 100
        p = conversion_params(**FIG2A)
        gen = RngStream(2026, 7).generator()
        runs = 10**5
        totals = np.empty(runs)
        for i in range(runs):
            totals[i] = simulate_conversion(
                FIG2A["n_s"], FIG2A["ch"], m, gen
            ).total_amp_sq
        mean_want = 2 * m * p.xi
        sigma_mean = math.sqrt(4 * m * p.xi**2 / runs)
        assert abs(totals.mean() - mean_want) < 3 * sigma_mean
        stat = scipy.stats.kstest(
            totals, scipy.stats.chi2(2 * m, scale=p.xi).cdf
        ).statistic
        assert stat < 1.63 / math.sqrt(runs)

    def test_consistency_with_gaussian_conditioning(self):
        n_s, ch = 0.4, ChannelParams(0.3, 0.7, 1.5)
        out = simulate_conversion(n_s, ch, 5, RngStream(9))
        p = conversion_params(n_s, ch)
        state = apply_channel(tmsv(n_s), 0, ch)
        for mm, d in zip(out.readouts, out.displacements):
            idler = condition_on_generaldyne(
                state, [0], np.eye(2), [2 * mm.real, 2 * mm.imag]
            )
            alpha = complex(idler.mean[0], idler.mean[1]) / 2
            assert abs(alpha - d) < 1e-10
            assert_allclose(idler.cov, (2 * p.e_noise + 1) * np.eye(2), atol=1e-10)


class TestCombiner:
    def test_streaming_equals_batch(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=12) + 1j * rng.normal(size=12)
        col, _ = streaming_combiner(d)
        assert_allclose(col, combining_weights(d), atol=1e-12)

    def test_streaming_with_leading_zeros(self):
        d = np.array([0.0, 0.0, 1.0 + 1.0j, -2.0j])
        col, _ = streaming_combiner(d)
        assert_allclose(col, combining_weights(d), atol=1e-12)

    def test_all_zero_fallback_is_uniform(self):
        d = np.zeros(4, dtype=complex)
        assert_allclose(combining_weights(d), 0.5, atol=0)
        col, _ = streaming_combiner(d)
        assert_allclose(col, 0.5, atol=0)

    def test_combining_preserves_noise(self):
        # Passive combination of independent modes with identical thermal
        # covariance leaves the output-mode covariance unchanged.
        rng = np.random.default_rng(1)
        d = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = combining_weights(d)
        # Complete w to a unitary with first row w.
        a = np.zeros((4, 4), dtype=complex)
        a[:, 0] = np.conj(w)
        a[:, 1:] = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        q, _ = np.linalg.qr(a)
        q *= np.conj(q[:, 0] @ w)  # fix the QR phase so the first row is w
        u = q.conj().T
        assert_allclose(u[0], w, atol=1e-12)
        s = np.zeros((8, 8))
        for j in range(4):
            for k in range(4):
                s[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = [
                    [u[j, k].real, -u[j, k].imag],
                    [u[j, k].imag, u[j, k].real],
                ]
        e_noise = 0.37
        cov = (2 * e_noise + 1) * np.eye(8)
        out_cov = (s @ cov @ s.T)[:2, :2]
        assert_allclose(out_cov, (2 * e_noise + 1) * np.eye(2), atol=1e-10)
        mean = np.empty(8)
        mean[0::2] = 2 * d.real
        mean[1::2] = 2 * d.imag
        out_mean = (s @ mean)[:2]
        d_t = np.sum(w * d)
        assert_allclose(out_mean, [2 * d_t.real, 2 * d_t.imag], atol=1e-10)


class TestTotalDisplacementDensity:
    def test_moments(self):
        p = conversion_params(0.3, ChannelParams(0.5, 0.0, 2.0))
        m = 6
        mean, _ = expect_total_displacement(p, m, lambda x: x, quad_tol=1e-9)
        second, _ = expect_total_displacement(p, m, lambda x: x**2, quad_tol=1e-9)
        assert_allclose(mean, 2 * m * p.xi, rtol=1e-8)
        assert_allclose(second - mean**2, 4 * m * p.xi**2, rtol=1e-6)


class TestExpectTotalDisplacement:
    def test_normalization_both_paths(self):
        # Small mean, and a large m whose law is deep in its central-limit
        # regime; both on the quantile map.
        p_small = conversion_params(0.3, ChannelParams(0.5, 0.0, 2.0))
        val, ach = expect_total_displacement(p_small, 4, lambda x: np.ones_like(x))
        assert_allclose(val, 1.0, rtol=1e-9)
        assert ach <= 1e-6
        p_big = conversion_params(0.001, ChannelParams(0.01, 0.0, 20.0))
        m_big = 3 * 10**8  # 2 m xi ~ 143
        val, _ = expect_total_displacement(
            p_big, m_big, lambda x: np.ones_like(x), quad_tol=1e-9
        )
        assert_allclose(val, 1.0, rtol=1e-8)
        mean, _ = expect_total_displacement(p_big, m_big, lambda x: x, quad_tol=1e-9)
        assert_allclose(mean, 2 * m_big * p_big.xi, rtol=1e-8)

    def test_support_matches_the_nodes_visited(self):
        # Quantile map at every m, 2 m xi ~ 143 at m = 3e8 included: hi is
        # the 1e-19 upper quantile, beyond every node.
        for n_s, ch, m in [
            (0.3, ChannelParams(0.5, 0.0, 2.0), 4),
            (0.001, ChannelParams(0.01, 0.0, 20.0), 3 * 10**8),
        ]:
            p = conversion_params(n_s, ch)
            hi = displacement_support(p, m)
            assert hi == scipy.stats.chi2.isf(1e-19, 2 * m, scale=p.xi)
            seen = []
            expect_total_displacement(p, m, lambda x: seen.append(x) or np.ones_like(x))
            nodes = np.concatenate(seen)
            assert 0.0 < np.min(nodes) and np.max(nodes) < hi
        vacuum = conversion_params(0.0, ChannelParams(0.5, 0.0, 2.0))
        assert displacement_support(vacuum, 9) == 0.0

    def test_quantile_map_matches_scipy_stats(self):
        # The map evaluates scipy.stats.chi2's ppf/isf expressions directly,
        # at the nodes of one panel and then of two, all in the first call.
        p = conversion_params(0.3, ChannelParams(0.5, 0.0, 2.0))
        seen = []
        expect_total_displacement(p, 4, lambda x: seen.append(x) or np.ones_like(x))
        nodes, _ = np.polynomial.legendre.leggauss(16)
        t = np.concatenate([
            (0.5 * (edges[:-1] + edges[1:])[:, None] + 0.5 * np.diff(edges)[:, None] * nodes)
            for edges in (np.linspace(0.0, 1.0, n + 1) for n in (1, 2))
        ], axis=None)
        assert seen[0].shape == (48,)

        def smooth(v):
            return v**4 * (35.0 - 84.0 * v + 70.0 * v**2 - 20.0 * v**3)

        dist = scipy.stats.chi2(8, scale=p.xi)
        want = np.where(t <= 0.5, dist.ppf(smooth(t)), dist.isf(smooth(1.0 - t)))
        assert_allclose(seen[0], want, rtol=1e-14)

    def test_dirac_short_circuit(self):
        p = conversion_params(0.0, ChannelParams(0.5, 0.0, 2.0))
        val, ach = expect_total_displacement(p, 9, lambda x: np.cos(x))
        assert val == 1.0 and ach == 0.0

    def test_nonconvergence_reports_achieved(self):
        p = conversion_params(0.3, ChannelParams(0.5, 0.0, 2.0))
        scale = 2 * 4 * p.xi
        with pytest.raises(QuadratureError) as err:
            expect_total_displacement(
                p, 4, lambda x: np.sin(2e4 * x / scale), quad_tol=1e-12
            )
        assert err.value.achieved > 0

    def test_nonconvergence_reports_estimate_and_change(self):
        # an integrand that is rounding noise around 1: the relative change
        # between levels is large, the absolute one is at the 1e-16 floor
        p = conversion_params(0.3, ChannelParams(0.5, 0.0, 2.0))
        with pytest.raises(QuadratureError) as err:
            expect_total_displacement(
                p, 4, lambda x: (1.0 + 1e-15 * np.sin(1e3 * x)) - 1.0, quad_tol=1e-6
            )
        e = err.value
        assert 0.0 < e.change < 1e-14
        assert e.achieved == e.change / abs(e.estimate)
        assert f"last estimate {e.estimate:.6e}, absolute change {e.change:.3e}" in str(e)


def _reference_on_quantile_map(params, m, f, n_panels=1024):
    """E[f(X)] on ``n_panels`` uniform 16-node Gauss-Legendre panels of the
    smoothstep chi-square quantile map, built from scipy.stats."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 / n_panels
    mids = (np.arange(n_panels) + 0.5) / n_panels
    t = (mids[:, None] + half * nodes).ravel()

    def smooth(v):
        return v**4 * (35.0 - 84.0 * v + 70.0 * v**2 - 20.0 * v**3)

    dist = scipy.stats.chi2(2 * m, scale=params.xi)
    x = np.where(t <= 0.5, dist.ppf(smooth(t)), dist.isf(smooth(1.0 - t)))
    jacobian = 140.0 * t**3 * (1.0 - t) ** 3
    return float(np.sum(f(x) * jacobian * np.tile(weights, n_panels)) * half)


def _criterion_2_corner(n_s, n_b, kappa):
    ch = ChannelParams(kappa=kappa, theta=0.0, n_b=n_b)
    m = max(1, min(10**6, round(2.0 / conversion_params(n_s, ch).xi)))
    return lambda quad: discrimination.p_c2d(n_s, ch, m)


_FIG5 = ChannelParams(0.01, 0.0, 100.0)
_P_BIG = conversion_params(0.001, FIG2A["ch"])
ORACLE_CASES = {
    **{
        f"criterion 2 n_s={n_s} n_b={n_b} kappa={kappa}": _criterion_2_corner(n_s, n_b, kappa)
        for n_s in (1e-4, 0.5)
        for n_b in (0.1, 100.0)
        for kappa in (0.01, 0.5)
    },
    "2a M=1e6": lambda quad: discrimination.p_c2d(1e-3, FIG2A["ch"], 10**6),
    "3a n_s=1 n_b=10 m=5678": lambda quad: discrimination.p_c2d(
        1.0, ChannelParams(0.01, 0.0, 10.0), 5678
    ),
    "5a n_s=1e-3 m=1": lambda quad: communication.holevo_c2d_cpsk(1e-3, _FIG5, 1),
    "green machine n=128 M=20319": lambda quad: communication.green_machine_rate(
        1e-3, _FIG5, GreenMachineConfig(128, 20319)
    ),
    "criterion 1 M=1e5": lambda quad: discrimination.p_c2d(1e-3, FIG2A["ch"], 10**5),
    "criterion 1 M=3e6": lambda quad: discrimination.p_c2d(1e-3, FIG2A["ch"], 3 * 10**6),
    "5a n_s=1e-3 M=1e4": lambda quad: communication.holevo_c2d_cpsk(1e-3, _FIG5, 10**4),
    "m=3e8 normalization": lambda quad: quad(_P_BIG, 3 * 10**8, np.ones_like, 1e-9),
    "m=3e8 mean": lambda quad: quad(_P_BIG, 3 * 10**8, lambda x: x, 1e-9),
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_quadrature_against_1024_panel_reference(name, monkeypatch):
    # Within quad_tol of the reference, an achieved estimate no smaller than
    # the true error (rounding aside), and 16 + 32 evaluations per call.
    calls = []

    def quad(params, m, f, quad_tol=1e-6):
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return f(x)

        value, achieved = expect_total_displacement(params, m, counted, quad_tol)
        calls.append((params, m, f, quad_tol, value, achieved, sizes))
        return value, achieved

    monkeypatch.setattr(discrimination, "expect_total_displacement", quad)
    monkeypatch.setattr(communication, "expect_total_displacement", quad)
    ORACLE_CASES[name](quad)
    assert len(calls) == 1
    params, m, f, quad_tol, value, achieved, sizes = calls[0]
    ref = _reference_on_quantile_map(params, m, f)
    error = abs(value - ref) / abs(ref)
    assert error <= quad_tol
    assert max(achieved, 1e-13) >= error
    assert sum(sizes) == 48


def _per_level_engine(params, m, f, quad_tol=1e-6):
    """``expect_total_displacement`` as a per-level formula: each level's
    nodes built from scratch and handed to ``f`` in a call of their own,
    with the engine's floating-point operations in the engine's order."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    xi = params.xi

    def weighted(t):
        r = 1.0 - t
        low = t <= 0.5
        x = np.empty_like(t)
        tl, rh = t[low], r[~low]
        ul = tl**4 * (35.0 - 84.0 * tl + 70.0 * tl**2 - 20.0 * tl**3)
        uh = rh**4 * (35.0 - 84.0 * rh + 70.0 * rh**2 - 20.0 * rh**3)
        x[low] = 2.0 * gammaincinv(m, ul) * xi
        x[~low] = chdtri(2 * m, uh) * xi
        return np.asarray(f(x)) * 140.0 * t**3 * r**3

    def level(n_panels):
        edges = np.linspace(0.0, 1.0, n_panels + 1)
        lo, hi = edges[:-1], edges[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        pts = (mid[:, None] + half[:, None] * nodes[None, :]).reshape(-1)
        vals = np.asarray(weighted(pts), dtype=float).reshape(len(lo), -1)
        return float(np.sum(half * (vals @ weights)))

    n_panels = 1
    prev = level(n_panels)
    for _ in range(8):
        n_panels *= 2
        cur = level(n_panels)
        change = abs(cur - prev)
        achieved = change / max(abs(cur), 1e-300)
        prev = cur
        if achieved <= quad_tol:
            return cur, achieved
    raise QuadratureError(
        f"quadrature did not reach tolerance {quad_tol:.3e} "
        f"after {n_panels} panels", achieved, cur, change
    )


# chi-square scales xi from 1e-7 to 0.2
ENGINE_PARAMS = [
    conversion_params(n_s, ChannelParams(kappa, 0.0, n_b))
    for n_s, kappa, n_b in ((0.3, 0.5, 2.0), (1e-3, 0.01, 20.0), (1e-4, 0.01, 100.0), (2.0, 0.9, 0.1))
]


def _engine_integrand(kind, params, m):
    mean, std = 2 * m * params.xi, 2 * math.sqrt(m) * params.xi
    if kind == "smooth":
        return lambda x: np.exp(-x / mean)
    if kind == "green machine":
        return lambda x: communication._green_machine_rate_given_x(x, params.e_noise, 64, m)
    return lambda x: np.cos(2.5 * (x - mean) / std)  # 4 to 9 levels


@pytest.mark.parametrize("m", [1, 7, 10**4, 3 * 10**8])
@pytest.mark.parametrize("kind", ["smooth", "green machine", "oscillating"])
def test_engine_matches_per_level_formula(kind, m):
    # bit for bit, the first two levels in one call of 48 nodes and each
    # later level in one call of its own
    for params in ENGINE_PARAMS:
        f = _engine_integrand(kind, params, m)
        sizes = []

        def counted(x, f=f):
            sizes.append(x.size)
            return f(x)

        assert expect_total_displacement(params, m, counted) == _per_level_engine(params, m, f)
        assert sizes == [48] + [16 * 2**k for k in range(2, len(sizes) + 1)]
        assert len(sizes) >= 3 or kind != "oscillating"


def test_engine_failure_matches_per_level_formula():
    p = conversion_params(0.3, ChannelParams(0.5, 0.0, 2.0))
    scale = 2 * 4 * p.xi

    def f(x):
        return np.sin(2e4 * x / scale)

    sizes = []

    def counted(x):
        sizes.append(x.size)
        return f(x)

    with pytest.raises(QuadratureError) as want:
        _per_level_engine(p, 4, f, 1e-12)
    with pytest.raises(QuadratureError) as got:
        expect_total_displacement(p, 4, counted, quad_tol=1e-12)
    assert str(got.value) == str(want.value)
    assert sizes == [48, 64, 128, 256, 512, 1024, 2048, 4096]


def test_quantile_map_levels_are_read_only():
    levels, *arrays = conversion._quantile_map_levels(1, 2)
    assert [(half.size, nodes) for half, nodes in levels] == [(1, slice(0, 16)), (2, slice(16, 48))]
    for a in (*arrays, *(half for half, _ in levels)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
