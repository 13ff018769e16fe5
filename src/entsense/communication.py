"""Capacities and achievable communication rates after conversion.

Classical and entanglement-assisted capacities, the Holevo information of
the converted displaced-thermal ensemble under continuous and binary phase
modulation, the Hadamard-code/Green-machine protocol built on top of the
converted outputs, and Shannon information of photon-counting receivers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import lambertw, ndtr

from . import _OCCUPATION, EntsenseError, _bounded, _check_fields, _check_inputs
from .conversion import ConversionParams, conversion_params, expect_total_displacement
from .discrimination import _golden_section_min
from .fockstates import _bpsk_mixture_eigvals, _pmf_walks, recommended_dim
from .gaussian import ChannelParams
from .metrology import opar_optimal_gain
from .receivers import _opar_counts, _pcr_counts

__all__ = [
    "BpskHolevo",
    "GreenMachineConfig",
    "GreenMachinePoint",
    "PhotonTailError",
    "capacity_classical",
    "capacity_ea",
    "g_entropy",
    "green_machine_optimal_n",
    "green_machine_optimize",
    "green_machine_rate",
    "holevo_c2d_bpsk",
    "holevo_c2d_cpsk",
    "holevo_cpsk_conditional",
    "opar_photon_pmfs",
    "pcr_count_pmfs",
    "shannon_photon_counting",
]

_LN2 = math.log(2.0)

# Photon-number cutoff past which a pmf tail that has not closed is an error.
_MAX_PHOTON_LEVELS = 10**7


class PhotonTailError(EntsenseError, RuntimeError):
    """Raised when a photon-number pmf keeps mass beyond every cutoff tried."""


@dataclass(frozen=True)
class GreenMachineConfig:
    """Hadamard-code block structure: ``codeword_len`` modes per block
    (a power of 2) with ``repetitions`` identically-modulated copies."""

    codeword_len: int
    repetitions: int

    def __post_init__(self):
        _check_fields(self, "codeword_len", "repetitions")
        n = self.codeword_len
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("codeword_len must be a power of 2, at least 2")


class GreenMachinePoint(NamedTuple):
    """An operating point of the Green-machine protocol."""

    rate: float
    repetitions: int
    codeword_len: int


class BpskHolevo(NamedTuple):
    """Binary-phase Holevo information with its truncation-error estimate."""

    value: float
    truncation_error: float


def g_entropy(n: float) -> float:
    """Entropy (bits) of a thermal state with mean photon number ``n``:
    ``g(n) = (n+1) log2(n+1) - n log2 n``, for a finite ``n >= 0``."""
    n = _bounded("n", n, _OCCUPATION)
    if n == 0:
        return 0.0
    return ((n + 1.0) * math.log1p(n) - n * math.log(n)) / _LN2


def capacity_classical(n_s: float, ch: ChannelParams) -> float:
    """Energy-constrained classical capacity without assistance:
    ``g(kappa n_s + n_b) - g(n_b)`` bits per mode."""
    _check_inputs(n_s=n_s)
    return g_entropy(ch.kappa * n_s + ch.n_b) - g_entropy(ch.n_b)


def capacity_ea(n_s: float, ch: ChannelParams) -> float:
    """Entanglement-assisted classical capacity of the thermal-loss channel."""
    _check_inputs(n_s=n_s)
    if n_s == 0:
        return 0.0
    ns_prime = ch.kappa * n_s + ch.n_b
    disc = math.sqrt((n_s + ns_prime + 1.0) ** 2 - 4.0 * ch.kappa * n_s * (n_s + 1.0))
    a_plus = (disc - 1.0 + (ns_prime - n_s)) / 2.0
    a_minus = (disc - 1.0 - (ns_prime - n_s)) / 2.0
    return (
        g_entropy(n_s)
        + g_entropy(ns_prime)
        - g_entropy(max(a_plus, 0.0))
        - g_entropy(max(a_minus, 0.0))
    )


def _shannon_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return -math.fsum(p * np.log2(p))


def holevo_cpsk_conditional(x, e_noise: float, tail_mass: float = 1e-12):
    """Holevo information of continuous phase encoding given total squared
    mean ``x``: Shannon entropy of the displaced-thermal photon-number pmf
    minus ``g(E)``, in bits.

    The pmf is log-concave in ``n`` (a Poisson mixture over a noncentral
    chi-square intensity), so past its mode the mass beyond level ``n`` is
    at most ``p[n] r / (1 - r)`` with ``r = p[n] / p[n-1]``.  Each row
    walks its pmf up to the first level past its mode where that bound is
    at most ``tail_mass``, i.e. ``p[n]^2 <= tail_mass (p[n-1] - p[n])``.
    The mode is the running maximum, and no level is cut before that
    maximum is a normal float: at large ``x`` and small ``E`` the leading
    levels underflow to zeros or subnormals, and equal ones meet the rule.
    ``x`` is a scalar (returns a float) or a 1-D array (returns one value
    per entry, each bit-identical to the scalar call).

    Raises
    ------
    PhotonTailError
        If some row's tail has not closed within ``10**7`` levels.
    """
    xs, e_noise, tail_mass = _check_inputs(x=x, e_noise=e_noise, tail_mass=tail_mass)
    batch = np.atleast_1d(xs)
    out = np.zeros(batch.size)
    g_e = g_entropy(e_noise)
    tiny = float(np.finfo(float).tiny)
    todo = np.flatnonzero(batch > 0.0)
    for i, walk in zip(todo, _pmf_walks(batch[todo], e_noise)):
        pmf, mode = [next(walk)], 0
        for n, p in enumerate(itertools.islice(walk, _MAX_PHOTON_LEVELS), 1):
            pmf.append(p)
            if p > pmf[mode]:
                mode = n
            elif pmf[mode] >= tiny and p * p <= tail_mass * (pmf[n - 1] - p):
                break
        else:
            raise PhotonTailError("photon-number tail did not close")
        out[i] = max(_shannon_bits(np.array(pmf)) - g_e, 0.0)
    return out if np.ndim(xs) else float(out[0])


def holevo_c2d_cpsk(
    n_s: float,
    ch: ChannelParams,
    m: int,
    quad_tol: float = 1e-6,
    *,
    with_achieved: bool = False,
):
    """Holevo information per symbol of continuous phase encoding on the
    converted output, ``(1/M) E[H[{P(n|X)}] - g(E)]`` under the combined
    displacement law.

    The quadrature hands each level's whole node array to
    :func:`holevo_cpsk_conditional`.  With ``with_achieved`` it returns
    ``(value, achieved_tolerance)``.
    """
    _check_inputs(quad_tol=quad_tol)
    params = conversion_params(n_s, ch)
    # tail cut tighter than the scalar default: the integrand is a
    # difference of entropies and the quadrature resolves it well below the
    # 1e-12 tail noise at weak signal
    val, achieved = expect_total_displacement(
        params,
        m,
        lambda xs: holevo_cpsk_conditional(xs, params.e_noise, tail_mass=1e-15),
        quad_tol=quad_tol,
    )
    value = max(val / m, 0.0)
    return (value, achieved) if with_achieved else value


def holevo_c2d_bpsk(
    n_s: float,
    ch: ChannelParams,
    m: int,
    dim: int | None = None,
    tail_tol: float = 1e-6,
) -> BpskHolevo:
    """Holevo information per symbol of binary phase encoding, evaluated at
    the concentrated squared mean ``x = 2 M xi``.

    Diagonalizes the Fock-basis truncation of the equal-mixture state, one
    block per photon-number parity, and reports, alongside the value, an
    eigenvalue-perturbation entropy bound computed from the trace deficit
    ``t`` (trace distance ``sqrt(t) + t/2`` into the Fannes-Audenaert
    inequality on the doubled truncation space).

    Parameters
    ----------
    n_s, ch, m : source brightness, channel, combined copies.
    dim : Fock-space truncation; defaults to the recommended dimension,
        never below 3.
    tail_tol : largest admissible truncated mass.
    """
    _check_inputs(m=m, tail_tol=tail_tol)
    if dim is not None and _check_inputs(dim=dim) < 3:
        raise ValueError("dim must be at least 3")
    params = conversion_params(n_s, ch)
    x = 2.0 * m * params.xi
    if x == 0.0:
        return BpskHolevo(0.0, 0.0)
    e_noise = params.e_noise
    if dim is None:
        dim = max(recommended_dim(x, e_noise, tail_tol), 3)
    eigs, deficit = _bpsk_mixture_eigvals(x, e_noise, dim, tail_tol)
    entropy = _shannon_bits(np.clip(eigs, 0.0, None))
    value = max((entropy - g_entropy(e_noise)) / m, 0.0)

    # the trace cannot certify a deficit below machine epsilon
    deficit = max(deficit, np.finfo(float).eps)
    t_dist = min(0.5, math.sqrt(deficit) + deficit / 2.0)
    binary = -t_dist * math.log2(t_dist) - (1.0 - t_dist) * math.log2(1.0 - t_dist)
    bound = (t_dist * math.log2(2 * dim - 1) + binary) / m
    return BpskHolevo(value, bound)


def _green_machine_rate_given_x(
    x: np.ndarray, e_noise: float, n: int, m: int
) -> np.ndarray:
    """Per-symbol rate of the n-codeword Green machine given per-mode
    squared mean ``x`` (the interferometer merges the block's photons, so
    the pulse slot carries ``n x``)."""
    x = np.asarray(x, dtype=float)
    p_b = e_noise / (1.0 + e_noise)
    p_c = 1.0 - np.exp(-n * x / (1.0 + e_noise)) / (1.0 + e_noise)
    p_d = (1.0 - p_c) * p_b * (1.0 - p_b) ** (n - 2)
    p_e = p_c * (1.0 - p_b) ** (n - 1)

    out = np.zeros_like(x)
    live = p_e > 0.0
    pd, pe = p_d[live], p_e[live]
    term = pe * math.log(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        detect = np.where(pd > 0.0, (n - 1) * pd * np.log(n * pd / pe), 0.0)
        confusion = ((n - 1) * pd + pe) * np.log1p((n - 1) * pd / pe)
    out[live] = (detect - confusion + term) / (m * n * _LN2)
    return np.clip(out, 0.0, None)


def _green_machine_rate(params: ConversionParams, n: int, m: int, quad_tol: float) -> float:
    val, _ = expect_total_displacement(
        params, m, lambda xs: _green_machine_rate_given_x(xs, params.e_noise, n, m), quad_tol
    )
    return max(val, 0.0)


def green_machine_rate(
    n_s: float, ch: ChannelParams, cfg: GreenMachineConfig, quad_tol: float = 1e-6
) -> float:
    """Achievable per-symbol rate of the Hadamard-code Green machine,
    averaged over the combined displacement law."""
    _check_inputs(quad_tol=quad_tol)
    params = conversion_params(n_s, ch)
    return _green_machine_rate(params, cfg.codeword_len, cfg.repetitions, quad_tol)


def _nearest_power_of_two(value: float) -> int:
    k = round(math.log2(max(value, 2.0)))
    return max(2, 2 ** int(k))


def _green_machine_optimal_n(n_s: float, ch: ChannelParams, m: int, quad_tol: float) -> int:
    n_b, kappa = ch.n_b, ch.kappa
    u = (
        -n_s
        * (
            -kappa * (n_b + 1.0) * (m + 2.0 * n_s)
            + (n_b + 1.0) ** 2 * n_s
            + kappa**2 * n_s
        )
        / (n_b + 1.0) ** 2
    )
    v = (
        -kappa * m * n_s**2 * (2.0 * (n_b + 1.0) + kappa * (m - 2.0))
        / (2.0 * (n_b + 1.0) ** 2)
    )
    if u > 0.0 > v:
        w = float(lambertw(-u * math.e / v).real)
        if w > 0.0:
            return _nearest_power_of_two(-u / (v * w))
    params = conversion_params(n_s, ch)
    rates = {2**k: _green_machine_rate(params, 2**k, m, quad_tol) for k in range(1, 17)}
    return max(rates, key=rates.get)  # the first of equal rates


def green_machine_optimal_n(
    n_s: float, ch: ChannelParams, m: int, quad_tol: float = 1e-6
) -> int:
    """Codeword length maximizing the Green-machine rate.

    Uses the weak-signal stationary point ``n* = -u / (v W(-u e / v))``
    rounded to the nearest power of 2 when the expansion coefficients are
    well-signed (u > 0, v < 0); otherwise falls back to a grid search over
    powers of 2 up to 2**16.
    """
    _check_inputs(n_s=n_s, m=m, quad_tol=quad_tol)
    return _green_machine_optimal_n(n_s, ch, m, quad_tol)


def green_machine_optimize(
    n_s: float, ch: ChannelParams, quad_tol: float = 1e-6
) -> GreenMachinePoint:
    """Optimize the Green machine over the repetition count.

    Golden-section search on log2(M) followed by integer hill refinement;
    the codeword length tracks :func:`green_machine_optimal_n` throughout.
    Each M is evaluated once per search: the hill climb revisits points,
    and their rates are remembered.
    """
    _check_inputs(quad_tol=quad_tol)
    params = conversion_params(n_s, ch)
    if params.xi == 0.0:
        return GreenMachinePoint(0.0, 1, 2)

    @functools.cache
    def point_at(m: int) -> GreenMachinePoint:
        n = _green_machine_optimal_n(n_s, ch, m, quad_tol)
        return GreenMachinePoint(_green_machine_rate(params, n, m, quad_tol), m, n)

    log_m, _ = _golden_section_min(
        lambda t: -point_at(max(1, round(2.0**t))).rate, 0.0, 24.0, 0.01
    )
    best = point_at(max(1, round(2.0**log_m)))
    step = max(1, best.repetitions // 256)
    while True:
        moved = False
        for cand in (best.repetitions - step, best.repetitions + step):
            if cand >= 1 and point_at(cand).rate > best.rate:
                best, moved = point_at(cand), True
        if not moved:
            if step == 1:
                return best
            step = max(1, step // 2)


def opar_photon_pmfs(
    n_s: float,
    ch: ChannelParams,
    m: int,
    thetas: Sequence[float],
    gain: float | None = None,
) -> list[np.ndarray]:
    """Photon-count pmfs of the amplifier receiver for each encoding phase.

    Each readout is negative-binomial (M thermal modes of mean ``nbar``);
    all returned arrays share the support ``0 .. n_max`` chosen so every
    tail is below 1e-12.
    """
    _, _, thetas = _check_inputs(n_s=n_s, m=m, thetas=thetas)
    # scipy.stats costs ~45 MB resident; nothing else in the package needs it.
    from scipy.stats import nbinom

    g = opar_optimal_gain(n_s, ch) if gain is None else _check_inputs(gain=gain)
    counts = [_opar_counts(n_s, ch, g, th) for th in thetas]
    n_max = 0
    for nbar, _, var in counts:
        n_max = max(n_max, int(m * nbar + 12.0 * math.sqrt(m * var)) + 25)
    dists = [nbinom(m, 1.0 / (1.0 + nbar)) for nbar, _, _ in counts]
    while any(d.sf(n_max - 1) > 1e-12 for d in dists):
        n_max *= 2
    support = np.arange(n_max)
    return [d.pmf(support) for d in dists]


def pcr_count_pmfs(
    n_s: float,
    ch: ChannelParams,
    m: int,
    thetas: Sequence[float],
    gain: float = 2.0,
) -> list[np.ndarray]:
    """Integer-binned pmfs of the phase-conjugate receiver's photon-number
    difference for each encoding phase.

    The Gaussian readout (mean ``2 M C_CI cos(theta)``) is integrated over
    unit bins centered on integers; arrays share one support window covering
    all hypotheses to 12 sigma.
    """
    _, _, thetas, gain = _check_inputs(n_s=n_s, m=m, thetas=thetas, gain=gain)
    counts = [_pcr_counts(n_s, ch, gain, th) for th in thetas]
    mus = [m * mean for mean, _, _ in counts]
    sigmas = [math.sqrt(m * var) for _, _, var in counts]
    lo = math.floor(min(mu - 12.0 * s for mu, s in zip(mus, sigmas)))
    hi = math.ceil(max(mu + 12.0 * s for mu, s in zip(mus, sigmas)))
    edges = np.arange(lo, hi + 2) - 0.5
    out = []
    for mu, s in zip(mus, sigmas):
        cdf = ndtr((edges - mu) / s)
        pmf = np.diff(cdf)
        # end bins absorb the (negligible) outside-window mass
        pmf[0] += cdf[0]
        pmf[-1] += 1.0 - cdf[-1]
        out.append(pmf)
    return out


def shannon_photon_counting(
    pmf0: np.ndarray,
    pmf1: np.ndarray,
    priors: Sequence[float] = (0.5, 0.5),
) -> float:
    """Mutual information (bits) between a binary symbol and a photon-count
    readout with conditionals ``pmf0``, ``pmf1``: ``H(N) - H(N|theta)``.

    The two pmfs must be aligned on a common support (shorter arrays are
    zero-padded at the end) and each normalized within 1e-8.
    """
    p0 = np.asarray(pmf0, dtype=float)
    p1 = np.asarray(pmf1, dtype=float)
    pri = np.asarray(priors, dtype=float)
    # each test is written to fail at NaN
    if not (pri.shape == (2,) and np.all(pri >= 0) and abs(pri.sum() - 1.0) <= 1e-12):
        raise ValueError("priors must be two nonnegative numbers summing to 1")
    for name, p in (("pmf0", p0), ("pmf1", p1)):
        if not np.all(np.isfinite(p) & (p >= -1e-15)):
            raise ValueError(f"{name} must be finite and nonnegative")
        if abs(p.sum() - 1.0) > 1e-8:
            raise ValueError(f"{name} is not normalized (sum = {p.sum():.10f})")
    size = max(p0.size, p1.size)
    p0 = np.pad(np.clip(p0, 0.0, None), (0, size - p0.size))
    p1 = np.pad(np.clip(p1, 0.0, None), (0, size - p1.size))
    mix = pri[0] * p0 + pri[1] * p1
    info = _shannon_bits(mix) - pri[0] * _shannon_bits(p0) - pri[1] * _shannon_bits(p1)
    return max(info, 0.0)
