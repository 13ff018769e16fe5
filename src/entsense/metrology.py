"""Fisher information for phase estimation through noisy channels.

Implements the general Gaussian quantum-Fisher-information formula (in the
annihilation-ordered convention, converted internally from this package's
quadrature convention) together with the closed forms for the conversion
receiver, coherent-state probes, the ultimate noisy-phase bound, two-mode
squeezed-vacuum probes, and the practical amplifier-based receivers.

``theta`` enters every closed form only through the displaced phase, so all
reported values are per the stated mode count ``m``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import _check_inputs
from .gaussian import ChannelParams, GaussianState
from .receivers import _opar_counts, _pcr_counts

__all__ = [
    "fi_homodyne",
    "fi_opar",
    "fi_pcr",
    "gaussian_qfi",
    "opar_optimal_gain",
    "qfi_c2d",
    "qfi_cs",
    "qfi_tmsv",
    "qfi_upper_bound",
]

_COND_LIMIT = 1e12


def _to_annihilation(state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
    """Convert quadrature mean/covariance to the annihilation-ordered
    first-moment vector d and symmetrized second-moment matrix Sigma."""
    k = state.num_modes
    t = 0.5 * np.array([[1.0, 1.0j], [1.0, -1.0j]])
    a = np.kron(np.eye(k), t)
    return a @ state.mean, a @ state.cov @ a.T


def gaussian_qfi(
    state_fn: Callable[[float], GaussianState],
    theta: float,
    fd_step: float = 1e-5,
) -> float:
    """Quantum Fisher information of a parametrized Gaussian family.

    Evaluates ``F = vec(dSigma)^T R^{-1} vec(dSigma) / 2 + dd^T Sigma^{-1} dd``
    with ``R = kron(Sigma, Sigma) + kron(Omega, Omega)/4`` in the
    annihilation-ordered convention, where ``Omega`` is the per-mode
    ``[[0, 1], [-1, 0]]`` block form.  Derivatives are central finite
    differences at ``fd_step`` and ``fd_step/2``, Richardson-extrapolated.
    The second-moment term is skipped when the covariance does not vary.

    Parameters
    ----------
    state_fn : callable
        Maps the parameter value to a :class:`~entsense.gaussian.GaussianState`
        (quadrature convention; the ordering conversion happens here).
    theta : float
        Evaluation point.
    fd_step : float
        Finite-difference step.

    Raises
    ------
    ValueError
        If ``Sigma`` or ``R`` is numerically singular (the message names
        the offending matrix).
    """
    theta, fd_step = _check_inputs(theta=theta, fd_step=fd_step)

    def derivative(h: float) -> tuple[np.ndarray, np.ndarray]:
        d_plus, s_plus = _to_annihilation(state_fn(theta + h))
        d_minus, s_minus = _to_annihilation(state_fn(theta - h))
        return (d_plus - d_minus) / (2 * h), (s_plus - s_minus) / (2 * h)

    d_coarse, s_coarse = derivative(fd_step)
    d_fine, s_fine = derivative(fd_step / 2)
    d_dot = d_fine + (d_fine - d_coarse) / 3.0
    s_dot = s_fine + (s_fine - s_coarse) / 3.0

    base = state_fn(theta)
    _, sigma = _to_annihilation(base)
    if np.linalg.cond(sigma) > _COND_LIMIT:
        raise ValueError("covariance matrix Sigma is singular")
    mean_term = d_dot @ np.linalg.solve(sigma, d_dot)

    cov_term = 0.0
    scale = max(1.0, float(np.linalg.norm(sigma)))
    if np.linalg.norm(s_dot) > 1e-12 * scale:
        k = base.num_modes
        omega = np.kron(np.eye(k), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        r_mat = np.kron(sigma, sigma) + np.kron(omega, omega) / 4.0
        if np.linalg.cond(r_mat) > _COND_LIMIT:
            raise ValueError("second-moment matrix R is singular")
        vec = s_dot.reshape(-1)
        cov_term = 0.5 * (vec @ np.linalg.solve(r_mat, vec))
    return float((cov_term + mean_term).real)


def qfi_c2d(n_s: float, ch: ChannelParams, m: int) -> float:
    """Phase QFI enabled by the conversion receiver.

    ``4 m kappa n_s (n_s+1) / (1 + n_b + n_s (2 n_b + 2 - kappa))``,
    algebraically equal to ``8 m xi / (1 + 2 E)``.
    """
    _check_inputs(n_s=n_s, m=m)
    return (
        4.0 * m * ch.kappa * n_s * (n_s + 1.0)
        / (1.0 + ch.n_b + n_s * (2.0 * ch.n_b + 2.0 - ch.kappa))
    )


def qfi_cs(n_s: float, ch: ChannelParams, m: int) -> float:
    """Phase Fisher information of coherent-state probes of the same
    per-mode energy: ``4 m kappa n_s / (1 + 2 n_b)``."""
    _check_inputs(n_s=n_s, m=m)
    return 4.0 * m * ch.kappa * n_s / (1.0 + 2.0 * ch.n_b)


def qfi_upper_bound(n_s: float, ch: ChannelParams, m: int) -> float:
    """Ultimate upper bound on phase information through the noisy channel.

    Uses the environment brightness ``n_b' = n_b / (1 - kappa)``; the
    lossless point ``kappa = 1`` is outside the bound's domain.
    """
    _check_inputs(n_s=n_s, m=m)
    if ch.kappa >= 1.0:
        raise ValueError("the upper bound requires kappa < 1")
    kappa = ch.kappa
    nbp = ch.n_b / (1.0 - kappa)
    num = 4.0 * m * kappa * n_s * (kappa * n_s + (1.0 - kappa) * nbp + 1.0)
    den = (1.0 - kappa) * (
        kappa * n_s * (2.0 * nbp + 1.0)
        - kappa * nbp * (nbp + 1.0)
        + (nbp + 1.0) ** 2
    )
    return num / den


def qfi_tmsv(n_s: float, ch: ChannelParams, m: int) -> float:
    """Phase QFI of the noisy channel output of two-mode squeezed vacuum:
    ``4 m kappa n_s (n_s+1) / (1 + n_b (1 + 2 n_s) + n_s (1 - kappa))``."""
    _check_inputs(n_s=n_s, m=m)
    return (
        4.0 * m * ch.kappa * n_s * (n_s + 1.0)
        / (1.0 + ch.n_b * (1.0 + 2.0 * n_s) + n_s * (1.0 - ch.kappa))
    )


def fi_homodyne(x: float, e_noise: float, theta_plus_comp: float) -> float:
    """Classical Fisher information of homodyne readout on a displaced
    thermal state: ``(4 x / (1 + 2 E)) sin^2(theta + theta_c)``.

    ``theta_plus_comp`` is the displaced phase plus the local-oscillator
    compensation angle; no adaptive policy is applied here.
    """
    x, e_noise = _check_inputs(x=x, e_noise=e_noise)
    return 4.0 * x / (1.0 + 2.0 * e_noise) * math.sin(theta_plus_comp) ** 2


def opar_optimal_gain(n_s: float, ch: ChannelParams) -> float:
    """Gain maximizing the parametric-amplifier receiver's information.

    ``max(G*, 1)`` with ``G*`` the stationary point of :func:`fi_opar` at
    quadrature phase, written with ``n_b' = n_b + kappa n_s + 1``.  The
    stationary point exists when the amplified background dominates the
    source (``n_b' > n_s + 1``), which holds throughout the quantum
    illumination regime.
    """
    _check_inputs(n_s=n_s)
    nbp = ch.n_b + ch.kappa * n_s + 1.0
    den = (nbp - n_s - 1.0) * (nbp + n_s)
    if den <= 0:
        raise ValueError(
            "optimal gain undefined: requires n_b + kappa n_s > n_s "
            "(amplified background must dominate the source)"
        )
    num = math.sqrt(n_s * (n_s + 1.0) * (nbp - 1.0) * nbp) + n_s * (n_s + 1.0)
    return max(1.0 + num / den, 1.0)


def fi_opar(
    n_s: float, ch: ChannelParams, m: int, theta: float, gain: float | None = None
) -> float:
    """Fisher information of the optical-parametric-amplifier receiver.

    ``4 m (G-1) G kappa n_s (1+n_s) sin^2(theta) / (nbar (1 + nbar))``
    where ``nbar`` is the amplified mean photon number, which includes the
    phase-sensitive cross term.  ``gain=None`` selects
    :func:`opar_optimal_gain`.
    """
    _, _, theta = _check_inputs(n_s=n_s, m=m, theta=theta)
    g = opar_optimal_gain(n_s, ch) if gain is None else _check_inputs(gain=gain)
    _, amp, var = _opar_counts(n_s, ch, g, theta)
    return m * (amp * math.sin(theta)) ** 2 / var if var else 0.0


def fi_pcr(
    n_s: float, ch: ChannelParams, m: int, theta: float, gain: float = 2.0
) -> float:
    """Fisher information of the phase-conjugate receiver.

    ``4 m (G-1) kappa n_s (n_s+1) sin^2(theta) / (N_I + N_C + 2 N_C N_I +
    2 C_CI^2 cos(2 theta))`` with conjugator output ``N_C``, idler ``N_I``
    and their correlation ``C_CI``.  The default exposes the ``G = 2``
    specialization.
    """
    _, _, theta, gain = _check_inputs(n_s=n_s, m=m, theta=theta, gain=gain)
    _, amp, var = _pcr_counts(n_s, ch, gain, theta)
    return m * (amp * math.sin(theta)) ** 2 / var if var else 0.0
