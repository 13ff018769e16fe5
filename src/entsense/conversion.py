"""Correlation-to-displacement (C->D) conversion.

Heterodyning each return mode of an entangled pair collapses the retained
idler into a displaced thermal state whose mean is set by the readout; a
passive combiner with weights chosen from the measurement record concentrates
the M per-mode displacements into a single output mode.  This module computes
the conversion parameters, simulates the measurement record, and provides the
chi-square law of the combined squared displacement together with a shared
quadrature engine for integrals against that law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import chdtri, gammaincinv

from . import EntsenseError, _check_inputs
from .gaussian import ChannelParams
from .special import RngStream

__all__ = [
    "ConversionParams",
    "ConversionOutcome",
    "QuadratureError",
    "conversion_params",
    "simulate_conversion",
    "displacement_support",
    "combining_weights",
    "streaming_combiner",
    "expect_total_displacement",
]


class QuadratureError(EntsenseError, RuntimeError):
    """Raised when doubling the quadrature panels from 1 to 256 never meets
    the requested tolerance.

    ``achieved`` is the last relative change between levels; ``estimate``
    and ``change`` are the finest level's value and its absolute change, so
    a value at its own rounding floor reads as such in the message.
    """

    def __init__(self, message: str, achieved: float, estimate: float, change: float):
        super().__init__(
            f"{message} (achieved tolerance {achieved:.3e}; "
            f"last estimate {estimate:.6e}, absolute change {change:.3e})"
        )
        self.achieved = achieved
        self.estimate = estimate
        self.change = change


@dataclass(frozen=True)
class ConversionParams:
    """Per-mode conversion parameters.

    v_m : per-quadrature heterodyne variance (N_B + kappa N_S + 1)/2
    c_p : cross-correlation amplitude sqrt(kappa N_S (N_S + 1))
    xi : chi-square scale c_p^2 / (4 v_m)
    e_noise : residual thermal photon number E of the converted output
    """

    v_m: float
    c_p: float
    xi: float
    e_noise: float

    def __post_init__(self) -> None:
        _check_inputs(xi=self.xi, e_noise=self.e_noise)
        if not (self.v_m > 0 and self.c_p >= 0):
            raise ValueError("v_m must be positive and c_p nonnegative")
        if abs(self.xi - self.c_p**2 / (4 * self.v_m)) > 1e-12 * max(1.0, self.xi):
            raise ValueError("xi must equal c_p^2 / (4 v_m)")


@dataclass(frozen=True)
class ConversionOutcome:
    """One simulated conversion: readouts, displacements, combining weights."""

    readouts: np.ndarray
    displacements: np.ndarray
    total_amp_sq: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        readouts = np.asarray(self.readouts, dtype=complex)
        displacements = np.asarray(self.displacements, dtype=complex)
        weights = np.asarray(self.weights, dtype=complex)
        if not readouts.shape == displacements.shape == weights.shape:
            raise ValueError("readouts, displacements, weights must share a shape")
        for arr in (readouts, displacements, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "readouts", readouts)
        object.__setattr__(self, "displacements", displacements)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total_amp_sq", float(self.total_amp_sq))


def conversion_params(n_s: float, ch: ChannelParams) -> ConversionParams:
    """Conversion parameters for source brightness ``n_s`` through channel ``ch``."""
    _check_inputs(n_s=n_s)
    v_m = (ch.n_b + ch.kappa * n_s + 1.0) / 2.0
    c_p = math.sqrt(ch.kappa * n_s * (n_s + 1.0))
    xi = c_p**2 / (4.0 * v_m)
    e_noise = n_s * (ch.n_b + 1.0 - ch.kappa) / (2.0 * v_m)
    return ConversionParams(v_m=v_m, c_p=c_p, xi=xi, e_noise=e_noise)


def combining_weights(displacements: np.ndarray) -> np.ndarray:
    """Batch combining column ``w_m = d_m^* / |d_T|`` (uniform if all zero)."""
    d = np.asarray(displacements, dtype=complex)
    total = float(np.sum(np.abs(d) ** 2))
    if total == 0.0:
        # All-zero record (probability zero when xi > 0): any unit column
        # works; the uniform one is documented.
        return np.full(d.shape, 1.0 / math.sqrt(d.size), dtype=complex)
    return np.conj(d) / math.sqrt(total)


def streaming_combiner(displacements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential two-mode cascade equivalent of :func:`combining_weights`.

    Modes are merged in ascending index order; step ``k`` mixes the running
    combined mode with mode ``k`` at mixing angle ``phi_k``.  Returns the net
    column (equal to the batch column up to roundoff) and the angles.
    """
    d = np.asarray(displacements, dtype=complex)
    m = d.size
    column = np.zeros(m, dtype=complex)
    angles = np.zeros(m)
    if m == 0:
        return column, angles
    norm_prev = 0.0
    column[0] = 1.0
    for k in range(m):
        norm_k = math.hypot(norm_prev, abs(d[k]))
        if norm_k == 0.0:
            angles[k] = 0.0
            continue
        cos_phi = norm_prev / norm_k
        angles[k] = math.acos(min(1.0, cos_phi))
        column[:k] *= cos_phi
        column[k] = np.conj(d[k]) / norm_k
        norm_prev = norm_k
    if norm_prev == 0.0:
        return np.full(m, 1.0 / math.sqrt(m), dtype=complex), angles
    return column, angles


def simulate_conversion(
    n_s: float, ch: ChannelParams, m: int, rng
) -> ConversionOutcome:
    """Simulate one conversion run over ``m`` signal-idler pairs.

    Readouts are i.i.d. circularly symmetric complex Gaussians with
    ``E|M|^2 = kappa n_s + n_b + 1``; displacements follow
    ``d = (c_p / (2 v_m)) e^{i theta} M^*``.
    """
    m = _check_inputs(m=m)
    params = conversion_params(n_s, ch)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    sigma = math.sqrt(params.v_m)
    raw = gen.normal(0.0, sigma, size=(m, 2))
    readouts = raw[:, 0] + 1j * raw[:, 1]
    phase = complex(math.cos(ch.theta), math.sin(ch.theta))
    displacements = (params.c_p / (2.0 * params.v_m)) * phase * np.conj(readouts)
    total = float(np.sum(np.abs(displacements) ** 2))
    weights = combining_weights(displacements)
    return ConversionOutcome(
        readouts=readouts,
        displacements=displacements,
        total_amp_sq=total,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Shared quadrature engine for expectations against the chi-square law.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_QUANTILE_MAP_TAIL = 1e-19


def displacement_support(params: ConversionParams, m: int) -> float:
    """Upper end ``hi`` of the range of ``x = |d_T|^2`` that
    :func:`expect_total_displacement` visits for ``m`` modes.

    ``hi`` is the 1e-19 upper quantile of the chi-square law, beyond every
    node the quantile map places; the range starts at 0.  ``xi == 0`` gives
    0.
    """
    _check_inputs(m=m)
    if params.xi == 0.0:
        return 0.0
    return float(chdtri(2 * m, _QUANTILE_MAP_TAIL) * params.xi)


def _panel_integral(f_weighted: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> float:
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).reshape(-1)
    vals = np.asarray(f_weighted(pts), dtype=float).reshape(len(lo), -1)
    return float(np.sum(half * (vals @ _GL_WEIGHTS)))


def expect_total_displacement(
    params: ConversionParams,
    m: int,
    f: Callable[[np.ndarray], np.ndarray],
    quad_tol: float = 1e-6,
) -> tuple[float, float]:
    """Expectation of ``f`` under the combined-displacement law.

    Computes ``E[f(X)]`` for ``X = |d_T|^2``, which is ``params.xi`` times
    a chi-square variable with ``2 m`` degrees of freedom (mean
    ``2 m xi``, variance ``4 m xi^2``), by uniform Gauss-Legendre
    panels on the chi-square quantile map at every ``m``: one panel of 16
    nodes is compared with two, and the panel count doubles until two
    successive levels agree, returning the finer one.  A smooth integrand
    converges at the first comparison, 48 evaluations of ``f`` in two calls.
    The nodes stay inside ``[0, displacement_support(params, m)]``.

    Parameters
    ----------
    f : callable
        Maps an ndarray of x values to an ndarray of integrand values.
    quad_tol : float
        Relative tolerance on the difference of successive levels.

    Returns
    -------
    (value, achieved) : tuple of float
        The integral and the achieved relative tolerance estimate.

    Raises
    ------
    QuadratureError
        If 256 panels (eight doublings) still miss ``quad_tol``.
    """
    m = _check_inputs(m=m)
    if not quad_tol > 0:
        raise ValueError("quad_tol must be positive")
    if params.xi == 0.0:
        return float(np.asarray(f(np.array([0.0])))[0]), 0.0

    xi = params.xi

    def weighted(t: np.ndarray) -> np.ndarray:
        # Quantile map u = s(t) with a 7th-order smoothstep: s' vanishes
        # cubically at both endpoints, which tames the ppf's unbounded
        # derivative there (the quantile diverges logarithmically as
        # u -> 1).  The complement 1 - s(t) is formed from 1 - t directly
        # and fed to the inverse survival function, so the upper tail
        # never rounds u to 1.0.  These are scipy.stats.chi2's own ppf
        # and isf, minus the ~45 MB resident cost of importing it.
        r = 1.0 - t
        low = t <= 0.5
        x = np.empty_like(t)
        tl, rh = t[low], r[~low]
        ul = tl**4 * (35.0 - 84.0 * tl + 70.0 * tl**2 - 20.0 * tl**3)
        uh = rh**4 * (35.0 - 84.0 * rh + 70.0 * rh**2 - 20.0 * rh**3)
        x[low] = 2.0 * gammaincinv(m, ul) * xi
        x[~low] = chdtri(2 * m, uh) * xi
        return np.asarray(f(x)) * 140.0 * t**3 * r**3

    def level_value(n_panels: int) -> float:
        return _panel_integral(weighted, np.linspace(0.0, 1.0, n_panels + 1))

    n_panels = 1
    prev = level_value(n_panels)
    for _ in range(8):
        n_panels *= 2
        cur = level_value(n_panels)
        change = abs(cur - prev)
        achieved = change / max(abs(cur), 1e-300)
        prev = cur
        if achieved <= quad_tol:
            return cur, achieved
    raise QuadratureError(
        f"quadrature did not reach tolerance {quad_tol:.3e} "
        f"after {n_panels} panels", achieved, cur, change
    )
