"""Truncated Fock-space realizations of displaced thermal states.

A displaced thermal state is the thermal (geometric) photon-number mixture
with mean photon number ``E`` displaced to a complex amplitude ``alpha``.
:func:`displaced_thermal_matrix` evaluates its closed form in associated
Laguerre polynomials (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)) by a
real three-term recurrence; the Fock matrix, the photon-counting statistics
and the binary phase-keyed mixture ``(rho_{+sqrt(x)} + rho_{-sqrt(x)})/2``
are all read off that one construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import gammaln, xlogy

__all__ = [
    "DisplacedThermal",
    "FockMatrix",
    "bpsk_mixture_matrix",
    "dephased_pmf",
    "displaced_thermal_matrix",
    "photon_pmf",
    "recommended_dim",
    "to_fock",
]


@dataclass(frozen=True)
class DisplacedThermal:
    """A thermal state of mean occupation ``e_noise`` displaced to ``alpha``.

    Parameters
    ----------
    alpha : complex
        Mean of the annihilation operator, ``<a>``.
    e_noise : float
        Thermal photon number, ``>= 0``.
    """

    alpha: complex
    e_noise: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "e_noise", float(self.e_noise))
        if not self.e_noise >= 0:
            raise ValueError("e_noise must be nonnegative")

    @property
    def amp_sq(self) -> float:
        """Squared magnitude of the displacement, ``|alpha|^2``."""
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class FockMatrix:
    """A truncated density matrix on the first ``dim`` Fock levels.

    Validates Hermiticity (1e-12), positive semidefiniteness (eigenvalues
    above -1e-10) and that the retained trace is within ``tail_tol`` of one.
    Real entries stay real, so eigensolves on them run in real arithmetic.
    """

    dim: int
    entries: np.ndarray
    tail_tol: float = field(default=1e-9)

    def __post_init__(self):
        object.__setattr__(self, "dim", int(self.dim))
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        dtype = complex if np.iscomplexobj(self.entries) else float
        entries = np.array(self.entries, dtype=dtype)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(
                f"entries must be {self.dim}x{self.dim}, got {entries.shape}"
            )
        if np.max(np.abs(entries - entries.conj().T)) > 1e-12:
            raise ValueError("entries must be Hermitian to 1e-12")
        tr = float(np.trace(entries).real)
        if not (1.0 - self.tail_tol - 1e-12 <= tr <= 1.0 + 1e-12):
            raise ValueError(
                f"trace {tr} outside [1 - tail_tol, 1] for tail_tol={self.tail_tol}"
            )
        if np.min(scipy.linalg.eigvalsh(entries)) < -1e-10:
            raise ValueError("entries must be positive semidefinite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def trace_deficit(self) -> float:
        """Probability weight lost to the truncation, ``1 - tr(rho)``."""
        return 1.0 - float(np.trace(self.entries).real)


def _laguerre_columns(x: np.ndarray, e: float, n_rows: int, n_diags: int):
    """Yield ``g[n, k] = rho_{n+k, n}``, shape ``(B, min(n_diags, n_rows - n))``,
    for ``n = 0 .. n_rows - 1`` and the ``B`` squared displacements ``x``.

    With ``q = E/(E+1)`` and ``s = x/(E+1)^2`` each diagonal ``k`` starts at
    ``g[0, k] = x^{k/2} e^{-x/(E+1)} / (sqrt(k!) (E+1)^{k+1})`` and follows the
    associated Laguerre recurrence
    ``g[n+1, k] sqrt((n+1)(n+k+1)) = ((2n+1+k) q + s) g[n, k]
    - q^2 sqrt(n(n+k)) g[n-1, k]``.  It runs on mantissas renormalized by
    exact powers of two at every step; ``exp2`` holds each diagonal's
    exponent, so no entry flushes to zero before double precision would.
    """
    x = x[:, None]
    q = e / (e + 1.0)
    s = x / (e + 1.0) ** 2
    k = np.arange(n_diags)
    root = np.sqrt(np.arange(n_rows + n_diags + 1.0))
    with np.errstate(divide="ignore"):  # log 0 = -inf: g[0, k>0] at x = 0
        log2_g0 = (
            xlogy(0.5 * k, x) - x / (e + 1.0) - 0.5 * gammaln(k + 1.0)
            - (k + 1) * math.log1p(e)
        ) / math.log(2.0)
    exp2 = np.floor(np.nan_to_num(log2_g0, neginf=0.0)).astype(int)
    cur = np.exp2(log2_g0 - exp2)
    prev = np.zeros_like(cur)
    for n in range(n_rows):
        width = min(n_diags, n_rows - n)
        cur, prev, exp2 = cur[:, :width], prev[:, :width], exp2[:, :width]
        yield np.ldexp(cur, exp2)
        nxt = (
            ((2 * n + 1) * q + s + q * k[:width]) * cur
            - (q * q * root[n]) * root[n : n + width] * prev
        ) / (root[n + 1] * root[n + 1 : n + 1 + width])
        nxt, shift = np.frexp(nxt)
        prev, cur, exp2 = np.ldexp(cur, -shift), nxt, exp2 + shift


def displaced_thermal_matrix(x, e_noise: float, dim: int) -> np.ndarray:
    """Real Fock matrix of the thermal state ``e_noise`` displaced to ``sqrt(x)``.

    Exact matrix elements on the first ``dim`` levels; the truncated trace
    is not renormalized.  ``e_noise = 0`` gives the coherent state and
    ``x = 0`` the thermal state.  A complex ``alpha`` with ``|alpha|^2 = x``
    adds the phase ``e^{i (m - n) arg(alpha)}`` (see :func:`to_fock`).

    Returns shape ``(dim, dim)`` for a scalar ``x >= 0`` and
    ``(len(x), dim, dim)`` for a 1-D array of them.
    """
    xs = np.asarray(x, dtype=float)
    e = float(e_noise)
    dim = int(dim)
    if xs.ndim > 1:
        raise ValueError("x must be a scalar or a 1-D array")
    if not np.all(xs >= 0):
        raise ValueError("x must be nonnegative")
    if not e >= 0:
        raise ValueError("e_noise must be nonnegative")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    batch = np.atleast_1d(xs)
    rho = np.zeros((batch.size, dim, dim))
    for n, col in enumerate(_laguerre_columns(batch, e, dim, dim)):
        rho[:, n:, n] = col
        rho[:, n, n + 1 :] = col[:, 1:]
    return rho if xs.ndim else rho[0]


def _truncated(rho: np.ndarray, x: float, e: float, tail_tol: float) -> FockMatrix:
    deficit = 1.0 - float(np.trace(rho).real)
    if deficit > tail_tol:
        raise ValueError(
            f"dim={len(rho)} leaves a trace deficit of {deficit:.3e} > {tail_tol:.1e}; "
            f"need dim >= {recommended_dim(x, e, tail_tol)}"
        )
    return FockMatrix(len(rho), rho, tail_tol)


def recommended_dim(amp_sq: float, e_noise: float, tail_tol: float = 1e-9) -> int:
    """Photon-number cutoff covering a displaced thermal state's support.

    Starts from ``ceil(|alpha|^2 + E + 8 sqrt(|alpha|^2 + E + 1)) + 4``,
    which bounds the bulk of both the Poisson (displacement) and geometric
    (thermal) components, then grows the cutoff until the ``(n+1)``-weighted
    photon-number tail drops below ``tail_tol``.  The weighting makes the
    cutoff safe not just for the trace but for first-moment quantities
    (mean amplitude, energy), whose truncation error carries an extra
    factor of ``n``; the floor alone underestimates for ``E`` near 1, where
    the geometric tail sheds only ``ln((E+1)/E)`` per level.
    """
    amp_sq = float(amp_sq)
    e_noise = float(e_noise)
    if amp_sq < 0 or e_noise < 0:
        raise ValueError("amp_sq and e_noise must be nonnegative")
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    s = amp_sq + e_noise
    floor_dim = math.ceil(s + 8.0 * math.sqrt(s + 1.0)) + 4
    cap = floor_dim + 64
    for _ in range(16):
        ns = np.arange(cap)
        weighted = (ns + 1.0) * dephased_pmf(amp_sq, e_noise, ns)
        if weighted[-8:].sum() < 1e-3 * tail_tol:
            tail = np.cumsum(weighted[::-1])[::-1]
            hits = np.nonzero(tail <= 0.5 * tail_tol)[0]
            return max(floor_dim, int(hits[0]))
        cap *= 2
    raise ValueError(
        f"no cutoff below {cap} meets tail_tol={tail_tol:.1e} for "
        f"amp_sq={amp_sq}, e_noise={e_noise}"
    )


def to_fock(state: DisplacedThermal, dim: int, tail_tol: float = 1e-9) -> FockMatrix:
    """Density matrix of a displaced thermal state on ``dim`` Fock levels.

    The real matrix of :func:`displaced_thermal_matrix` at ``|alpha|^2``,
    times the phase ``e^{i (m - n) arg(alpha)}``.  The result is real when
    ``alpha`` is real.

    Parameters
    ----------
    state : DisplacedThermal
    dim : int
        Cutoff dimension, at least 2. :func:`recommended_dim` picks one
        large enough for the default ``tail_tol``.
    tail_tol : float
        Largest acceptable trace deficit.

    Raises
    ------
    ValueError
        If the truncation loses more than ``tail_tol`` of the trace; the
        message names the recommended dimension.
    """
    dim = int(dim)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    alpha = state.alpha
    rho = displaced_thermal_matrix(state.amp_sq, state.e_noise, dim)
    if alpha.imag != 0.0:
        order = np.subtract.outer(np.arange(dim), np.arange(dim))
        rho = rho * np.exp(1j * math.atan2(alpha.imag, alpha.real) * order)
    elif alpha.real < 0.0:  # phase (-1)^{m-n}
        rho[1::2, ::2] *= -1.0
        rho[::2, 1::2] *= -1.0
    return _truncated(rho, state.amp_sq, state.e_noise, tail_tol)


def dephased_pmf(x, e_noise: float, n) -> float | np.ndarray:
    """Photon pmf of a phase-averaged displaced thermal state.

    For squared displacement magnitude ``x`` and thermal occupation ``E``:

        P(n | x) = E^n (E+1)^{-n-1} exp(-x/(E+1)) L_n(-x/(E(E+1)))

    with ``L_n`` the Laguerre polynomial; ``E = 0`` reduces to Poisson(x).
    This is the diagonal of :func:`displaced_thermal_matrix`, evaluated up
    to ``max(n)`` alone; it stays finite, and nonzero wherever double
    precision can hold it, for any ``n``.

    Parameters
    ----------
    x : float or 1-D array of float
        Squared displacement(s), ``>= 0``.  A stack runs one recurrence for
        all of its rows, each bit-identical to the scalar call.
    e_noise : float
        Thermal occupation, ``>= 0``.
    n : int or array of int
        Photon number(s).

    Returns
    -------
    float or ndarray
        For a scalar ``x``, a float when ``n`` is a scalar and shape
        ``shape(n)`` otherwise; for a stack, shape ``(len(x),) + shape(n)``.
    """
    xs = np.asarray(x, dtype=float)
    e = float(e_noise)
    if xs.ndim > 1:
        raise ValueError("x must be a scalar or a 1-D array")
    if not np.all(xs >= 0):
        raise ValueError("x must be nonnegative")
    if not e >= 0:
        raise ValueError("e_noise must be nonnegative")
    n_arr = np.atleast_1d(np.asarray(n))
    if not np.issubdtype(n_arr.dtype, np.integer) or np.any(n_arr < 0):
        raise ValueError("n must contain nonnegative integers")

    batch = np.atleast_1d(xs)
    top = int(n_arr.max(initial=-1)) + 1
    diag = np.empty((batch.size, top))
    for level, col in enumerate(_laguerre_columns(batch, e, top, 1)):
        diag[:, level] = col[:, 0]
    result = diag[:, n_arr].reshape(batch.shape + np.shape(n))
    if xs.ndim:
        return result
    return float(result[0]) if np.ndim(n) == 0 else result[0]


def photon_pmf(state: DisplacedThermal, n) -> float | np.ndarray:
    """Photon-number pmf of a displaced thermal state.

    Depends on the displacement only through ``|alpha|^2``; see
    :func:`dephased_pmf` for the closed form and conventions.
    """
    return dephased_pmf(state.amp_sq, state.e_noise, n)


def bpsk_mixture_matrix(
    x: float, e_noise: float, dim: int, tail_tol: float = 1e-9
) -> FockMatrix:
    """Density matrix of the equal mixture of ``+sqrt(x)`` and ``-sqrt(x)``
    displaced thermal states.

    The ``-sqrt(x)`` state differs from the ``+sqrt(x)`` one by the sign
    ``(-1)^{m-n}``, so the mixture is :func:`displaced_thermal_matrix` with
    the odd ``m - n`` entries set to zero.

    Parameters
    ----------
    x : float
        Squared displacement magnitude, ``>= 0``.
    e_noise : float
        Thermal occupation, strictly positive.
    dim : int
        Cutoff dimension, at least 2.
    tail_tol : float
        Largest acceptable trace deficit.

    Raises
    ------
    ValueError
        If the truncation at ``dim`` loses more than ``tail_tol`` of the
        trace; the message names the recommended dimension.
    """
    dim = int(dim)
    if not e_noise > 0:
        raise ValueError("e_noise must be positive")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    rho = displaced_thermal_matrix(x, e_noise, dim)
    rho[1::2, ::2] = 0.0
    rho[::2, 1::2] = 0.0
    return _truncated(rho, x, e_noise, tail_tol)
