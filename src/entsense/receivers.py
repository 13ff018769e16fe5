"""Receivers for binary coherent-state discrimination and target detection.

Closed-form error probabilities for homodyne, heterodyne and Kennedy
detection of vacuum versus a coherent state, a Monte-Carlo Dolinar receiver
(noiseless, and with thermal noise handled by P-function sampling), and
the per-copy count models of the parametric-amplifier (OPAR) and
phase-conjugate (PCR) receivers, which give their Gaussian-approximation
target-detection error probabilities here and their Fisher information and
count pmfs elsewhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _check_fields, _check_inputs
from .fockstates import dephased_pmf
from .gaussian import ChannelParams
from .special import RngStream

__all__ = [
    "DolinarConfig",
    "dolinar_simulate",
    "opar_pe",
    "pcr_pe",
    "pe_heterodyne",
    "pe_homodyne",
    "pe_kennedy",
]

logger = logging.getLogger(__name__)

# Per-slice photon counts beyond this are clipped (and logged); they can
# only arise from pathological amplitude/noise choices.
_PHOTON_CAP = 10_000

# Trials are simulated in batches of this size, each batch on its own
# child random stream, so results do not depend on batch execution order.
_BATCH = 4096


@dataclass(frozen=True)
class DolinarConfig:
    """Settings for a Dolinar-receiver Monte-Carlo run.

    Parameters
    ----------
    slices : int
        Number of adaptive segments ``S`` the input state is split into.
    trials : int
        Number of Monte-Carlo trials.
    noise_nb : float, optional
        Thermal occupation of the two candidate states (0 for pure
        coherent states).
    """

    slices: int
    trials: int
    noise_nb: float = 0.0

    def __post_init__(self):
        _check_fields(self, "slices", "trials", "noise_nb")


def pe_homodyne(alpha_r: float) -> float:
    """Error probability of threshold homodyne detection of |0> vs |alpha>.

    Only the component of the amplitude along the measured quadrature
    matters:  P = (1/2) Erfc(alpha_R / sqrt(2)), which decays like
    exp(-alpha_R^2 / 2) at large separation.
    """
    return 0.5 * math.erfc(_check_inputs(alpha_r=alpha_r) / math.sqrt(2.0))


def pe_heterodyne(alpha: complex) -> float:
    """Error probability of heterodyne detection of |0> vs |alpha>.

    The optimal decision region is a half plane through the midpoint of the
    two outcome clouds, giving P = (1/2) Erfc(|alpha| / 2); coinciding
    candidates (alpha = 0) are misidentified exactly half the time.  Some
    treatments quote the same result without the leading 1/2, which would
    exceed that indistinguishable-state rate at small amplitude; the
    normalized form is used here.
    """
    return 0.5 * math.erfc(abs(_check_inputs(alpha=alpha)) / 2.0)


def pe_kennedy(alpha: complex) -> float:
    """Error probability of the Kennedy (nulling) receiver for |0> vs |alpha>.

    One candidate already being vacuum, nulling reduces to direct photon
    counting and errs only on the no-click outcome of the displaced
    candidate: P = (1/2) e^{-|alpha|^2}, roughly twice the Helstrom limit
    once |alpha|^2 >> 1.
    """
    return 0.5 * math.exp(-abs(_check_inputs(alpha=alpha)) ** 2)


def _wilson_stderr(errors: int, trials: int) -> float:
    """One-sigma Wilson-interval half width for ``errors`` out of ``trials``."""
    p_hat = errors / trials
    shrink = 1.0 + 1.0 / trials
    half = math.sqrt(p_hat * (1.0 - p_hat) / trials + 1.0 / (4.0 * trials**2))
    return half / shrink


def _thermal_kick(gen: np.random.Generator, e_noise: float, n: int) -> np.ndarray:
    """``n`` draws from the positive P-function of a thermal state of mean
    occupation ``e_noise``: complex amplitudes with ``|r|^2`` exponential of
    mean ``e_noise`` and uniform phase.  A Poisson count of mean
    ``|alpha + r|^2`` then follows ``dephased_pmf(|alpha|^2, e_noise, .)``."""
    radius = np.sqrt(gen.exponential(e_noise, size=n))
    return radius * np.exp(2j * np.pi * gen.random(n))


def _dolinar_batch(
    amp: float, cfg: DolinarConfig, gen: np.random.Generator, n: int
) -> int:
    """Error count of ``n`` Dolinar trials on one random stream."""
    s = cfg.slices
    gamma = amp / (2.0 * math.sqrt(s))
    # Feedback displacement sizes; at amp = 0 no displacement carries
    # information and the ratio degenerates to 0/0, resolved to 0.
    k = np.arange(1, s + 1)
    denom = np.sqrt(-np.expm1(-(amp**2) * (k - 0.5) / s))
    u = np.divide(gamma, denom, out=np.zeros(s), where=denom > 0)

    h = gen.integers(0, 2, size=n)
    field = np.where(h == 1, amp, 0.0).astype(complex)
    if cfg.noise_nb > 0:
        # The thermal part of the true state is one random coherent
        # displacement per trial, shared by every slice.
        field += _thermal_kick(gen, cfg.noise_nb, n)
    slice_field = field / math.sqrt(s)

    e_slice = cfg.noise_nb / s
    p0 = np.full(n, 0.5)
    p1 = np.full(n, 0.5)
    for uk in u:
        g = _favored(p0, p1, gen)
        shift = np.where(g == 0, -gamma + uk, -gamma - uk)
        try:
            counts = gen.poisson(np.abs(slice_field + shift) ** 2)
        except ValueError as exc:  # numpy's "lam value too large"
            raise ValueError(
                f"alpha too large: the per-slice photon rate |alpha|^2 / slices = "
                f"{amp**2 / s:.3g} is past numpy's Poisson sampler"
            ) from exc
        if counts.max(initial=0) > _PHOTON_CAP:
            logger.warning(
                "clipping %d photon count(s) above %d",
                int((counts > _PHOTON_CAP).sum()),
                _PHOTON_CAP,
            )
            counts = np.minimum(counts, _PHOTON_CAP)
        grid = np.arange(counts.max() + 1)
        like = dephased_pmf(np.array([(gamma - uk) ** 2, (gamma + uk) ** 2]), e_slice, grid)
        matched, other = like[:, counts]
        p0 *= np.where(g == 0, matched, other)
        p1 *= np.where(g == 0, other, matched)
        total = p0 + p1
        dead = ~np.isfinite(total) | (total <= 0.0)
        if dead.any():
            logger.warning(
                "posterior underflow in %d trial(s); reset to equal weights",
                int(dead.sum()),
            )
            p0[dead] = 0.5
            p1[dead] = 0.5
            total[dead] = 1.0
        p0 /= total
        p1 /= total

    return int(np.count_nonzero(_favored(p0, p1, gen) != h))


def _favored(p0: np.ndarray, p1: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Index of the heavier hypothesis per trial, ties broken by a fair coin."""
    g = np.where(p0 > p1, 0, 1)
    tie = p0 == p1
    if tie.any():
        g[tie] = gen.integers(0, 2, size=int(tie.sum()))
    return g


def dolinar_simulate(
    alpha: complex, cfg: DolinarConfig, rng
) -> tuple[float, float]:
    """Monte-Carlo error rate of the adaptive Dolinar receiver.

    Discriminates |0> from |alpha> (equal priors).  The input is split
    into ``cfg.slices`` equal segments; before segment ``k`` the receiver
    displaces by ``-gamma + u_k`` or ``-gamma - u_k`` according to the
    currently favored hypothesis, with ``gamma = |alpha| / (2 sqrt(S))``
    and ``u_k = gamma / sqrt(1 - exp(-|alpha|^2 (k - 1/2) / S))``, counts
    photons, and reweights the two hypotheses by the photon likelihoods
    (renormalized every slice); ties are broken by a fair coin.  The final
    decision is the hypothesis with the larger weight.

    With ``cfg.noise_nb > 0`` the candidates are displaced thermal states.
    Each trial then draws one coherent sample from the positive P-function
    of the true candidate (modulus-squared exponential with mean
    ``noise_nb``, uniform phase) shared by all slices — the thermal part of
    the state is not independent between segments — while the Bayesian
    weights use displaced-thermal photon statistics with the per-slice
    occupation ``noise_nb / S``.

    Trials run in fixed-size batches, each batch on an independent child
    stream of ``rng``, and error counts are summed, so the result is
    independent of batch execution order.

    Parameters
    ----------
    alpha : complex
        Amplitude of the displaced candidate; only ``|alpha|`` matters
        (the local oscillator absorbs the phase).
    cfg : DolinarConfig
        Slice count, trial count and candidate noise.
    rng : numpy.random.Generator or RngStream
        Source of randomness.

    Returns
    -------
    (error_rate, stderr)
        Observed error frequency and its one-sigma Wilson-interval width.

    Notes
    -----
    Per-slice photon counts above 10^4 are clipped and a warning logged;
    trials whose posterior weights both underflow to zero are reset to
    equal weights with a warning.
    """
    amp = abs(_check_inputs(alpha=alpha))
    n_batches = -(-cfg.trials // _BATCH)
    if isinstance(rng, RngStream):
        gens = (rng.trial_generator(b) for b in range(n_batches))
    else:
        seqs = rng.bit_generator.seed_seq.spawn(n_batches)
        gens = (np.random.default_rng(q) for q in seqs)
    errors = 0
    left = cfg.trials
    for gen in gens:
        n = min(_BATCH, left)
        errors += _dolinar_batch(amp, cfg, gen, n)
        left -= n
    return errors / cfg.trials, _wilson_stderr(errors, cfg.trials)


def _opar_counts(
    n_s: float, ch: ChannelParams, gain: float, theta: float
) -> tuple[float, float, float]:
    """Per-copy OPAR photon count at displaced phase ``theta``:
    ``(mean, amplitude, variance)`` with mean = G N_S + (G-1)(kappa N_S +
    N_B + 1) + amplitude cos(theta), amplitude = 2 sqrt(G(G-1) kappa N_S
    (N_S+1)) and the thermal variance mean (mean + 1), for a checked gain."""
    amp = 2.0 * math.sqrt(gain * (gain - 1.0) * ch.kappa * n_s * (1.0 + n_s))
    mean = (
        gain * n_s
        + (gain - 1.0) * (ch.kappa * n_s + ch.n_b + 1.0)
        + amp * math.cos(theta)
    )
    return mean, amp, mean * (mean + 1.0)


def _pcr_counts(
    n_s: float, ch: ChannelParams, gain: float, theta: float
) -> tuple[float, float, float]:
    """Per-copy PCR photon-number difference at displaced phase ``theta``:
    ``(mean, amplitude, variance)`` with amplitude 2 C_CI, mean amplitude
    cos(theta) and variance N_I + N_C + 2 N_C N_I + 2 C_CI^2 cos(2 theta),
    where N_C = (G-1)(kappa N_S + N_B + 1), N_I = N_S and
    C_CI = sqrt((G-1) kappa N_S (N_S+1))."""
    if gain <= 1.0:
        raise ValueError("gain must exceed 1")
    n_c = (gain - 1.0) * (ch.kappa * n_s + ch.n_b + 1.0)
    c_ci_sq = (gain - 1.0) * ch.kappa * n_s * (1.0 + n_s)
    amp = 2.0 * math.sqrt(c_ci_sq)
    var = n_s + n_c + 2.0 * n_c * n_s + 2.0 * c_ci_sq * math.cos(2.0 * theta)
    return amp * math.cos(theta), amp, var


def opar_pe(
    n_s: float, ch: ChannelParams, m: int, gain: float | None = None
) -> float:
    """Target-detection error probability of the parametric-amplifier receiver.

    Threshold detection on the total photon count over ``m`` copies, in the
    Gaussian (large ``m``) approximation:

        P = (1/2) Erfc(sqrt(R m)),   R = (mu1 - mu0)^2 / (2 (sigma0 + sigma1)^2)

    with per-copy moments mu0 = G N_S + (G-1)(1 + N_B) and
    mu1 = mu0 + (G-1) kappa N_S + 2 sqrt(G(G-1) kappa N_S (N_S+1)),
    sigma_h^2 = mu_h (mu_h + 1).  ``gain=None`` selects the weak-signal
    optimum G = 1 + sqrt(N_S / (N_B (N_B+1))), for which R approaches
    kappa N_S / (2 N_B) when N_S << 1, kappa << 1 and N_B >> 1.

    Parameters
    ----------
    n_s : float
        Source brightness, ``>= 0``.
    ch : ChannelParams
        Channel under the target-present hypothesis.
    m : int
        Number of copies (the Gaussian approximation assumes ``m >> 1``).
    gain : float, optional
        Amplifier gain ``G >= 1``; defaults to the weak-signal optimum.
    """
    _check_inputs(n_s=n_s, m=m)
    if gain is None:
        if ch.n_b <= 0:
            raise ValueError("the default gain requires n_b > 0; pass gain explicitly")
        gain = 1.0 + math.sqrt(n_s / (ch.n_b * (ch.n_b + 1.0)))
    gain = _check_inputs(gain=gain)
    mu0, _, var0 = _opar_counts(n_s, replace(ch, kappa=0.0), gain, 0.0)
    mu1, _, var1 = _opar_counts(n_s, ch, gain, 0.0)
    if mu1 == mu0:
        return 0.5
    rate = (mu1 - mu0) ** 2 / (2.0 * (math.sqrt(var0) + math.sqrt(var1)) ** 2)
    return 0.5 * math.erfc(math.sqrt(rate * m))


def pcr_pe(n_s: float, ch: ChannelParams, m: int) -> float:
    """Target-detection error probability of the phase-conjugate receiver.

    Threshold detection on the photon-number difference between the two
    interferometer arms over ``m`` copies, in the Gaussian approximation
    and at conjugator gain 2:

        P = (1/2) Erfc(sqrt(R m)),   R = (mu1 - mu0)^2 / (4 (var0 + var1))
          = kappa N_S (N_S+1)
            / (2 N_B + 4 N_S N_B + 6 N_S + 4 kappa N_S^2 + 3 kappa N_S + 2)

    with the per-copy difference moments of the target-absent (kappa = 0)
    and target-present hypotheses.

    R approaches kappa N_S / (2 N_B) when N_S << 1, kappa << 1 and
    N_B >> 1, matching the parametric-amplifier receiver; away from that
    corner the phase conjugator does slightly better.

    Parameters
    ----------
    n_s : float
        Source brightness, ``>= 0``.
    ch : ChannelParams
        Channel under the target-present hypothesis.
    m : int
        Number of copies (the Gaussian approximation assumes ``m >> 1``).
    """
    _check_inputs(n_s=n_s, m=m)
    mu0, _, var0 = _pcr_counts(n_s, replace(ch, kappa=0.0), 2.0, 0.0)
    mu1, _, var1 = _pcr_counts(n_s, ch, 2.0, 0.0)
    rate = (mu1 - mu0) ** 2 / (4.0 * (var0 + var1))
    return 0.5 * math.erfc(math.sqrt(rate * m))
