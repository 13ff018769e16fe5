"""Capacities and achievable communication rates after conversion.

Classical and entanglement-assisted capacities, the Holevo information of
the converted displaced-thermal ensemble under continuous and binary phase
modulation, the Hadamard-code/Green-machine protocol built on top of the
converted outputs, and Shannon information of photon-counting receivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import lambertw, ndtr

from . import EntsenseError
from .conversion import ConversionParams, conversion_params, expect_total_displacement
from .discrimination import _NODE_BLOCK_BYTES, _golden_section_min
from .fockstates import bpsk_mixture_matrix, dephased_pmf, recommended_dim
from .gaussian import ChannelParams
from .metrology import opar_optimal_gain

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
        n = int(self.codeword_len)
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("codeword_len must be a power of 2, at least 2")
        if int(self.repetitions) < 1:
            raise ValueError("repetitions must be a positive integer")


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
    ``g(n) = (n+1) log2(n+1) - n log2 n``."""
    if n < 0:
        raise ValueError("mean photon number must be nonnegative")
    if n == 0:
        return 0.0
    return ((n + 1.0) * math.log1p(n) - n * math.log(n)) / _LN2


def capacity_classical(n_s: float, ch: ChannelParams) -> float:
    """Energy-constrained classical capacity without assistance:
    ``g(kappa n_s + n_b) - g(n_b)`` bits per mode."""
    if n_s < 0:
        raise ValueError("n_s must be nonnegative")
    return g_entropy(ch.kappa * n_s + ch.n_b) - g_entropy(ch.n_b)


def capacity_ea(n_s: float, ch: ChannelParams) -> float:
    """Entanglement-assisted classical capacity of the thermal-loss channel."""
    if n_s < 0:
        raise ValueError("n_s must be nonnegative")
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

    The pmf is summed until its cumulative mass exceeds ``1 - tail_mass``.
    ``x`` is a scalar (returns a float) or a 1-D array (returns one value
    per entry, each bit-identical to the scalar call).  A stack shares one
    :func:`dephased_pmf` recurrence per block of rows, with the cutoff sized
    from its largest entry; rows whose tail has not closed are redone at
    twice the cutoff.  A block holds at most 2 MB of pmf, or one row when a
    single row is larger.

    Raises
    ------
    PhotonTailError
        If some row keeps more than ``tail_mass`` beyond ``10**7`` levels.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError("x must be a scalar or a 1-D array")
    if not (np.all(xs >= 0) and e_noise >= 0):
        raise ValueError("x and e_noise must be nonnegative")
    batch = np.atleast_1d(xs)
    out = np.zeros(batch.size)
    g_e = g_entropy(e_noise)
    top = batch.max(initial=0.0)
    std = math.sqrt(top * (2.0 * e_noise + 1.0) + e_noise * (e_noise + 1.0))
    n_hi = int(top + e_noise + 10.0 * std) + 25
    todo = np.flatnonzero(batch > 0.0)
    while todo.size:
        rows = max(1, _NODE_BLOCK_BYTES // (8 * n_hi))
        still_open = []
        for lo in range(0, todo.size, rows):
            idx = todo[lo : lo + rows]
            pmf = dephased_pmf(batch[idx], e_noise, np.arange(n_hi))
            cum = np.cumsum(pmf, axis=1)
            closed = 1.0 - cum[:, -1] <= tail_mass
            for i in np.flatnonzero(closed):
                cut = int(np.searchsorted(cum[i], 1.0 - tail_mass)) + 1
                entropy = _shannon_bits(pmf[i, :cut])
                out[idx[i]] = max(entropy - g_e, 0.0)
            still_open.append(idx[~closed])
        todo = np.concatenate(still_open)
        if todo.size and n_hi > _MAX_PHOTON_LEVELS:
            raise PhotonTailError("photon-number tail did not close")
        n_hi *= 2
    return out if xs.ndim else float(out[0])


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
    params = conversion_params(n_s, ch)
    if params.xi == 0.0:
        return (0.0, 0.0) if with_achieved else 0.0

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

    Diagonalizes the Fock-basis truncation of the equal-mixture state and
    reports, alongside the value, an eigenvalue-perturbation entropy bound
    computed from the trace deficit ``t`` (trace distance ``sqrt(t) + t/2``
    into the Fannes-Audenaert inequality on the doubled truncation space).

    Parameters
    ----------
    n_s, ch, m : source brightness, channel, combined copies.
    dim : Fock-space truncation; defaults to the recommended dimension,
        never below 3.
    tail_tol : largest admissible truncated mass.
    """
    params = conversion_params(n_s, ch)
    x = 2.0 * m * params.xi
    if x == 0.0:
        return BpskHolevo(0.0, 0.0)
    e_noise = params.e_noise
    if dim is None:
        dim = max(recommended_dim(x, e_noise, tail_tol), 3)
    if dim < 3:
        raise ValueError("dim must be at least 3")
    mat = bpsk_mixture_matrix(x, e_noise, dim, tail_tol=tail_tol)
    eigs = np.clip(np.linalg.eigvalsh(mat.entries).real, 0.0, None)
    entropy = _shannon_bits(eigs)
    value = max((entropy - g_entropy(e_noise)) / m, 0.0)

    # the trace cannot certify a deficit below machine epsilon
    deficit = max(mat.trace_deficit, np.finfo(float).eps)
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


def green_machine_rate(
    n_s: float, ch: ChannelParams, cfg: GreenMachineConfig, quad_tol: float = 1e-6
) -> float:
    """Achievable per-symbol rate of the Hadamard-code Green machine,
    averaged over the combined displacement law."""
    params = conversion_params(n_s, ch)
    n, m = int(cfg.codeword_len), int(cfg.repetitions)
    val, _ = expect_total_displacement(
        params,
        m,
        lambda xs: _green_machine_rate_given_x(xs, params.e_noise, n, m),
        quad_tol=quad_tol,
    )
    return max(val, 0.0)


def _nearest_power_of_two(value: float) -> int:
    k = round(math.log2(max(value, 2.0)))
    return max(2, 2 ** int(k))


def green_machine_optimal_n(
    n_s: float, ch: ChannelParams, m: int, quad_tol: float = 1e-6
) -> int:
    """Codeword length maximizing the Green-machine rate.

    Uses the weak-signal stationary point ``n* = -u / (v W(-u e / v))``
    rounded to the nearest power of 2 when the expansion coefficients are
    well-signed (u > 0, v < 0); otherwise falls back to a grid search over
    powers of 2 up to 2**16.
    """
    if n_s < 0:
        raise ValueError("n_s must be nonnegative")
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
    best_n, best_rate = 2, -1.0
    for k in range(1, 17):
        n = 2**k
        rate = green_machine_rate(n_s, ch, GreenMachineConfig(n, m), quad_tol)
        if rate > best_rate:
            best_n, best_rate = n, rate
    return best_n


def green_machine_optimize(
    n_s: float, ch: ChannelParams, quad_tol: float = 1e-6
) -> GreenMachinePoint:
    """Optimize the Green machine over the repetition count.

    Golden-section search on log2(M) followed by integer hill refinement;
    the codeword length tracks :func:`green_machine_optimal_n` throughout.
    """
    params = conversion_params(n_s, ch)
    if params.xi == 0.0:
        return GreenMachinePoint(0.0, 1, 2)

    def rate_at(m: int) -> float:
        n = green_machine_optimal_n(n_s, ch, m, quad_tol)
        return green_machine_rate(n_s, ch, GreenMachineConfig(n, m), quad_tol)

    log_m, _ = _golden_section_min(
        lambda t: -rate_at(max(1, round(2.0**t))), 0.0, 24.0, 0.01
    )
    best_m = max(1, round(2.0**log_m))
    best_rate = rate_at(best_m)
    step = max(1, best_m // 256)
    while True:
        moved = False
        for cand in (best_m - step, best_m + step):
            if cand >= 1:
                r = rate_at(cand)
                if r > best_rate:
                    best_m, best_rate, moved = cand, r, True
        if not moved:
            if step == 1:
                break
            step = max(1, step // 2)
    n_star = green_machine_optimal_n(n_s, ch, best_m, quad_tol)
    return GreenMachinePoint(best_rate, best_m, n_star)


def _opar_mean(n_s: float, ch: ChannelParams, gain: float, theta: float) -> float:
    return (
        gain * n_s
        + (gain - 1.0) * (ch.kappa * n_s + ch.n_b + 1.0)
        + 2.0 * math.sqrt(gain * (gain - 1.0) * ch.kappa * n_s * (1.0 + n_s))
        * math.cos(theta)
    )


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
    # scipy.stats costs ~45 MB resident; nothing else in the package needs it.
    from scipy.stats import nbinom

    g = opar_optimal_gain(n_s, ch) if gain is None else float(gain)
    if g < 1.0:
        raise ValueError("gain must be at least 1")
    means = [_opar_mean(n_s, ch, g, th) for th in thetas]
    n_max = 0
    for nbar in means:
        mu, var = m * nbar, m * nbar * (1.0 + nbar)
        n_max = max(n_max, int(mu + 12.0 * math.sqrt(var)) + 25)
    dists = [nbinom(m, 1.0 / (1.0 + nbar)) for nbar in means]
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
    g = float(gain)
    if g <= 1.0:
        raise ValueError("gain must exceed 1")
    n_c = (g - 1.0) * (ch.kappa * n_s + ch.n_b + 1.0)
    n_i = n_s
    c_ci = math.sqrt((g - 1.0) * ch.kappa * n_s * (1.0 + n_s))
    mus, sigmas = [], []
    for th in thetas:
        mus.append(m * 2.0 * c_ci * math.cos(th))
        var = m * (n_i + n_c + 2.0 * n_c * n_i + 2.0 * c_ci**2 * math.cos(2.0 * th))
        sigmas.append(math.sqrt(var))
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
    if pri.shape != (2,) or np.any(pri < 0) or abs(pri.sum() - 1.0) > 1e-12:
        raise ValueError("priors must be two nonnegative numbers summing to 1")
    if np.any(p0 < -1e-15) or np.any(p1 < -1e-15):
        raise ValueError("pmfs must be nonnegative")
    for name, p in (("pmf0", p0), ("pmf1", p1)):
        if abs(p.sum() - 1.0) > 1e-8:
            raise ValueError(f"{name} is not normalized (sum = {p.sum():.10f})")
    size = max(p0.size, p1.size)
    p0 = np.pad(np.clip(p0, 0.0, None), (0, size - p0.size))
    p1 = np.pad(np.clip(p1, 0.0, None), (0, size - p1.size))
    mix = pri[0] * p0 + pri[1] * p1
    info = _shannon_bits(mix) - pri[0] * _shannon_bits(p0) - pri[1] * _shannon_bits(p1)
    return max(info, 0.0)
