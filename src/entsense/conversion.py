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

import functools
import itertools
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


@functools.cache
def _quantile_map_levels(*panel_counts: int) -> tuple:
    """The m-independent part of the levels of ``panel_counts`` uniform
    panels on [0, 1], read-only: ``((half-widths, node slice) per level,
    t <= 0.5, t > 0.5, s(t) at the first, 1 - s(t) at the second, t^3,
    (1 - t)^3)`` at the levels' nodes ``t`` in turn.  The quantile map's
    7th-order smoothstep s has s' vanishing cubically at both ends, which
    tames the quantile's logarithmic divergence as s -> 1, and 1 - s(t) is
    formed from 1 - t, so the upper tail never rounds s to 1.0."""
    levels, ts = [], []
    for n_panels, start in zip(panel_counts, itertools.accumulate(panel_counts, initial=0)):
        edges = np.linspace(0.0, 1.0, n_panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        levels.append((half, slice(16 * start, 16 * (start + n_panels))))
        ts.append((mid[:, None] + half[:, None] * _GL_NODES[None, :]).reshape(-1))
    t = np.concatenate(ts)
    r = 1.0 - t
    low = t <= 0.5
    tl, rh = t[low], r[~low]
    ul = tl**4 * (35.0 - 84.0 * tl + 70.0 * tl**2 - 20.0 * tl**3)
    uh = rh**4 * (35.0 - 84.0 * rh + 70.0 * rh**2 - 20.0 * rh**3)
    arrays = (low, ~low, ul, uh, t**3, r**3)
    for a in (*arrays, *(half for half, _ in levels)):
        a.setflags(write=False)
    return (tuple(levels), *arrays)


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
    converges at the first comparison, 48 evaluations of ``f`` in one call.
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
    m, quad_tol = _check_inputs(m=m, quad_tol=quad_tol)
    if params.xi == 0.0:
        return float(np.asarray(f(np.array([0.0])))[0]), 0.0

    xi = params.xi

    def level_values(*panel_counts: int) -> list[float]:
        levels, low, high, ul, uh, t3, r3 = _quantile_map_levels(*panel_counts)
        # scipy.stats.chi2's own ppf and isf, minus the ~45 MB resident
        # cost of importing it
        x = np.empty(low.size)
        x[low] = 2.0 * gammaincinv(m, ul) * xi
        x[high] = chdtri(2 * m, uh) * xi
        vals = np.asarray(f(x)) * 140.0 * t3 * r3
        return [
            float(np.sum(half * (vals[nodes].reshape(half.size, -1) @ _GL_WEIGHTS)))
            for half, nodes in levels
        ]

    prev, cur = level_values(1, 2)
    for n_panels in (2, 4, 8, 16, 32, 64, 128, 256):
        if n_panels > 2:
            prev, (cur,) = cur, level_values(n_panels)
        change = abs(cur - prev)
        achieved = change / max(abs(cur), 1e-300)
        if achieved <= quad_tol:
            return cur, achieved
    raise QuadratureError(
        f"quadrature did not reach tolerance {quad_tol:.3e} "
        f"after {n_panels} panels", achieved, cur, change
    )
