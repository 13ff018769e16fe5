"""Truncated Fock-space realizations of displaced thermal states.

A displaced thermal state is the thermal (geometric) photon-number mixture
with mean photon number ``E`` displaced to a complex amplitude ``alpha``.
:func:`displaced_thermal_matrix` evaluates its closed form in associated
Laguerre polynomials (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)) by a
real three-term recurrence; the Fock matrix, the photon-counting statistics
and the binary phase-keyed mixture ``(rho_{+sqrt(x)} + rho_{-sqrt(x)})/2``
are all read off that one construction.  The narrow band of a noisy state,
which the coherent-state benchmark solves on, is built along its diagonals
instead, by the recurrence in the Laguerre parameter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, xlogy

from . import _check_fields, _check_inputs

__all__ = [
    "DisplacedThermal",
    "FockMatrix",
    "dephased_pmf",
    "displaced_thermal_matrix",
    "recommended_dim",
    "to_fock",
]

# Largest trace deficit a truncated Fock matrix may leave by default.
_TAIL_TOL = 1e-9
# Largest one-triangle entry sum _displaced_thermal_band drops past its
# last diagonal.
_BAND_TAIL = 1e-17


@dataclass(frozen=True)
class DisplacedThermal:
    """A thermal state of mean occupation ``e_noise`` displaced to ``alpha``.

    Parameters
    ----------
    alpha : complex
        Mean of the annihilation operator, ``<a>``, with ``|alpha|^2``
        finite.
    e_noise : float
        Thermal photon number, finite and ``>= 0``.
    """

    alpha: complex
    e_noise: float

    def __post_init__(self):
        _check_fields(self, "alpha", "e_noise")

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
    tail_tol: float = field(default=_TAIL_TOL)

    def __post_init__(self):
        _check_fields(self, "dim", "tail_tol")
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
        if np.min(np.linalg.eigvalsh(entries)) < -1e-10:
            raise ValueError("entries must be positive semidefinite")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def _diagonal_start(x: np.ndarray, e: float, k: np.ndarray):
    """``g[0, k] = x^{k/2} e^{-x/(E+1)} / (sqrt(k!) (E+1)^{k+1})`` for the
    squared displacements ``x`` (shape ``(B, 1)``) and diagonals ``k``, as a
    mantissa in ``[1, 2)`` (or 0) and an integer power-of-two exponent."""
    with np.errstate(divide="ignore"):  # log 0 = -inf: g[0, k>0] at x = 0
        log2_g0 = (
            xlogy(0.5 * k, x) - x / (e + 1.0) - 0.5 * gammaln(k + 1.0)
            - (k + 1) * math.log1p(e)
        ) / math.log(2.0)
    exp2 = np.floor(np.nan_to_num(log2_g0, neginf=0.0)).astype(int)
    return np.exp2(log2_g0 - exp2), exp2


def _laguerre_columns(x: np.ndarray, e: float, n_rows: int, n_diags: int):
    """Yield ``g[n, k] = rho_{n+k, n}``, shape ``(B, min(n_diags, n_rows - n))``,
    for ``n = 0 .. n_rows - 1`` and the ``B`` squared displacements ``x``.

    Builds the matrices only; the tests hold the pmf of :func:`_pmf_walks`
    equal to its column 0.

    With ``q = E/(E+1)`` and ``s = x/(E+1)^2`` each diagonal ``k`` starts at
    :func:`_diagonal_start` and follows the associated Laguerre recurrence
    ``g[n+1, k] sqrt((n+1)(n+k+1)) = ((2n+1+k) q + s) g[n, k]
    - q^2 sqrt(n(n+k)) g[n-1, k]``.  It runs on mantissas renormalized by
    exact powers of two at every step; ``exp2`` holds each diagonal's
    exponent, so no entry flushes to zero before double precision would.
    Where ``q^2`` is 0 the ``g[n-1, k]`` term is dropped, not multiplied:
    a step that falls by more than ``2^1024`` (``E = 0`` and a subnormal
    ``x``) leaves it infinite in the new scale.
    """
    x = x[:, None]
    q = e / (e + 1.0)
    qq = q * q
    s = x / (e + 1.0) ** 2
    k = np.arange(n_diags)
    # hoisted, in the step's operation order: (2n+1) q + s per row, and q k
    lin = ((2 * np.arange(n_rows) + 1) * q)[:, None, None] + s
    qk = q * k
    root = np.sqrt(np.arange(n_rows + n_diags + 1.0))
    cur, exp2 = _diagonal_start(x, e, k)
    prev = np.zeros_like(cur)
    for n in range(n_rows):
        width = min(n_diags, n_rows - n)  # one fewer a row past n_rows - n_diags
        cur, prev, exp2, qk = cur[:, :width], prev[:, :width], exp2[:, :width], qk[:width]
        yield np.ldexp(cur, exp2)
        nxt = (lin[n] + qk) * cur
        if qq:
            nxt -= (qq * root[n]) * root[n : n + width] * prev
        nxt, shift = np.frexp(nxt / (root[n + 1] * root[n + 1 : n + 1 + width]))
        if qq:
            prev = np.ldexp(cur, -shift)
        cur, exp2 = nxt, exp2 + shift


def _pmf_walks(xs: np.ndarray, e: float):
    """Iterator of generators, one per squared displacement in the 1-D ``xs``,
    each yielding ``P(0), P(1), ...`` of its displaced thermal state forever.

    Column 0 of :func:`_laguerre_columns` bit for bit, in Python floats:
    the same start (one :func:`_diagonal_start` call for all of ``xs``),
    operation order and power-of-two renormalization, at about a twentieth
    of the cost per level of the one-row numpy walk.
    """
    q = e / (e + 1.0)
    qq = q * q
    starts, exps = _diagonal_start(xs[:, None], e, np.arange(1))

    def walk(s, cur, exp2):
        prev = root = 0.0
        for n in itertools.count():
            yield math.ldexp(cur, exp2)
            root_next = math.sqrt(n + 1)
            nxt = ((2 * n + 1) * q + s) * cur
            if qq:
                nxt = nxt - qq * root * root * prev
            nxt, shift = math.frexp(nxt / (root_next * root_next))
            if qq:  # math.ldexp raises where np.ldexp overflows to inf
                prev = math.ldexp(cur, -shift)
            cur, exp2, root = nxt, exp2 + shift, root_next

    return map(walk, (xs / (e + 1.0) ** 2).tolist(), starts[:, 0].tolist(), exps[:, 0].tolist())


def displaced_thermal_matrix(x, e_noise: float, dim: int) -> np.ndarray:
    """Real Fock matrix of the thermal state ``e_noise`` displaced to ``sqrt(x)``.

    Exact matrix elements on the first ``dim`` levels; the truncated trace
    is not renormalized.  ``e_noise = 0`` gives the coherent state and
    ``x = 0`` the thermal state.  A complex ``alpha`` with ``|alpha|^2 = x``
    adds the phase ``e^{i (m - n) arg(alpha)}`` (see :func:`to_fock`).

    Returns shape ``(dim, dim)`` for a scalar ``x`` and ``(len(x), dim,
    dim)`` for a 1-D array of them; ``x`` and ``e_noise`` must be finite
    and ``>= 0``.
    """
    xs, e, dim = _check_inputs(x=x, e_noise=e_noise, dim=dim)
    batch = np.atleast_1d(xs)
    rho = np.zeros((batch.size, dim, dim))
    for n, col in enumerate(_laguerre_columns(batch, e, dim, dim)):
        rho[:, n:, n] = col
        rho[:, n, n + 1 :] = col[:, 1:]
    return rho if np.ndim(xs) else rho[0]


def _check_truncation(
    diagonal: np.ndarray, amp_sq: float, e_noise: float, tail_tol: float = _TAIL_TOL
) -> None:
    """Raise ``ValueError`` if the Fock matrix with this ``diagonal``, or any
    matrix of a stack (diagonals of shape ``(..., dim)``), loses more than
    ``tail_tol`` of its trace; the message names the cutoff
    ``recommended_dim(amp_sq, e_noise)``.
    """
    deficit = 1.0 - float(np.min(np.sum(diagonal, axis=-1).real))
    if deficit > tail_tol:
        raise ValueError(
            f"dim={diagonal.shape[-1]} leaves a trace deficit of {deficit:.3e} > "
            f"{tail_tol:.1e}; need dim >= {recommended_dim(amp_sq, e_noise, tail_tol)}"
        )


def recommended_dim(amp_sq: float, e_noise: float, tail_tol: float = _TAIL_TOL) -> int:
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
    amp_sq, e_noise, tail_tol = _check_inputs(amp_sq=amp_sq, e_noise=e_noise, tail_tol=tail_tol)
    s = amp_sq + e_noise
    floor_dim = math.ceil(s + 8.0 * math.sqrt(s + 1.0)) + 4
    cap = floor_dim + 64
    # one pmf walk (the diagonal of displaced_thermal_matrix, as in
    # dephased_pmf), checked at each cap
    (levels,) = _pmf_walks(np.array([amp_sq]), e_noise)
    pmf = []
    for _ in range(16):
        pmf.extend(itertools.islice(levels, cap - len(pmf)))
        weighted = (np.arange(cap) + 1.0) * np.array(pmf)
        if weighted[-8:].sum() < 1e-3 * tail_tol:
            tail = np.cumsum(weighted[::-1])[::-1]
            hits = np.nonzero(tail <= 0.5 * tail_tol)[0]
            return max(floor_dim, int(hits[0]))
        cap *= 2
    raise ValueError(
        f"no cutoff within the {len(pmf)} levels walked meets "
        f"tail_tol={tail_tol:.1e} for amp_sq={amp_sq}, e_noise={e_noise}"
    )


def _laguerre_band(x: float, e_noise: float, dim: int) -> np.ndarray:
    """All ``dim`` diagonals ``band[k, n] = rho[n+k, n]`` of
    :func:`displaced_thermal_matrix`, in ``dim^2`` doubles, from one
    :func:`_laguerre_columns` pass: the dense entries bit for bit.  The
    forward route of :func:`_displaced_thermal_band`, which runs at
    ``x >= E(E+1)`` (coherent states among them), at ``x = 0``, and for
    noisy states whose backward start does not fit below ``dim``.
    """
    rows = np.zeros((dim, dim))
    for n, col in enumerate(_laguerre_columns(np.array([x]), e_noise, dim, dim)):
        rows[n, : col.shape[1]] = col[0]
    return rows.T


def _miller_band(x: float, e: float, dim: int) -> np.ndarray | None:
    """Diagonals ``k = 0 .. K`` of the band of :func:`_displaced_thermal_band`,
    uncut, by Miller's backward recurrence along ``k`` (Gautschi, SIAM Rev.
    9, 24 (1967)); ``None`` unless ``0 < x < E(E+1)`` and the error bound
    below holds at some ``K < dim``.

    With ``q = E/(E+1)`` and ``b_k = (k+1) E/sqrt(x) - sqrt(x)/(E+1)``, each
    column ``g[n, k] = rho[n+k, n]`` obeys ``q sqrt(n+k+1) g[n, k] =
    sqrt(n+k+2) g[n, k+2] + b_k g[n, k+1]`` (DLMF 18.9, from ``x L^(a+2) =
    (a+1+x) L^(a+1) - (n+a+1) L^(a)``).  For ``x < E(E+1)`` every ``b_k``
    and every ``g`` is positive, so each backward step adds two positive
    terms and ``g`` is the minimal solution.  At every column ``n < dim``:

    - ``g[n, k+1] / g[n, k] <= r_k = q sqrt(dim+k) / b_k``, which falls with
      ``k``, so the cut keeps at most ``w`` diagonals, ``w`` the first ``k``
      with ``r_k <= 1/2`` and ``prod_{j<k} r_j <= _BAND_TAIL / 2``;
    - started from ``(g[K+1], g[K]) = (0, 1)`` and scaled to the pmf of
      :func:`_pmf_walks` at ``k = 0``, each entry ``k < w`` is off by at most
      ``w prod_{j=w-2}^{K-1} d_j / (1 - d_{K-1})`` relative, with
      ``d_j = q (dim+j+1) / (b_j b_{j+1})`` bounding each step's damping.

    ``K`` is the least start that holds this under ``2^-53``; rounding adds a
    few ulps a step.  Each step covers every column, on mantissas
    renormalized by exact powers of two.
    """
    if not 0.0 < x < e * (e + 1.0):
        return None
    q = e / (e + 1.0)
    j = np.arange(dim + 1.0)
    b = (j + 1.0) * (e / math.sqrt(x)) - math.sqrt(x) / (e + 1.0)
    log_b = np.log(b)
    log_r = math.log(q) + 0.5 * np.log(dim + j) - log_b
    fits = (log_r <= -math.log(2.0)) & (
        np.cumsum(log_r) - log_r <= math.log(0.5 * _BAND_TAIL)
    )
    if not fits.any():
        return None
    width = max(int(np.argmax(fits)), 2)
    log_d = np.minimum(math.log(q) + np.log(dim + 1.0 + j[:-1]) - log_b[:-1] - log_b[1:], 0.0)
    damped = np.concatenate(([0.0], np.cumsum(log_d)))  # sum_{j<K} log d_j
    starts = np.nonzero(damped <= damped[width - 2] + math.log(2.0**-53 / width))[0]
    if not starts.size or starts[0] >= dim:
        return None
    top = int(starts[0])
    root = np.sqrt(np.arange(dim + top + 2.0))
    q_root = q * root
    mant = np.empty((top + 1, dim))
    exp2 = np.zeros((top + 1, dim), dtype=int)
    mant[top] = 1.0
    prev = np.zeros(dim)  # g[:, k+2] in the scale of g[:, k+1]
    for k in range(top - 1, -1, -1):
        cur = root[k + 2 : k + 2 + dim] * prev + b[k] * mant[k + 1]
        mant[k], shift = np.frexp(cur / q_root[k + 1 : k + 1 + dim])
        prev = np.ldexp(mant[k + 1], -shift)
        exp2[k] = exp2[k + 1] + shift
    (walk,) = _pmf_walks(np.array([x]), e)
    pmf = np.fromiter(itertools.islice(walk, dim), float, dim)
    band = np.ldexp(mant / mant[0] * pmf, exp2 - exp2[0])
    band[np.add.outer(np.arange(top + 1), np.arange(dim)) >= dim] = 0.0
    return band


def _displaced_thermal_band(x: float, e_noise: float, dim: int) -> np.ndarray:
    """LAPACK lower band storage ``band[k, n] = rho[n+k, n]`` (zero past
    ``n + k = dim - 1``) of ``displaced_thermal_matrix(x, e_noise, dim)``,
    cut to the fewest leading diagonals ``k < w`` (at least two) whose
    dropped one-triangle sum ``sum_{k>=w} sum_n |rho[n+k, n]|`` is at most
    ``_BAND_TAIL``.  The matrix held is symmetric, so the nuclear norm of
    what the cut drops from it is at most twice that sum.

    :func:`_miller_band` builds it in about ``w`` steps where its error
    bound holds (noisy states with ``0 < x < E(E+1)``, Fig. 2a's among
    them), :func:`_laguerre_band` at full width in ``dim`` steps elsewhere;
    the one cut here picks ``w`` for both.  Both give the pmf walk's row 0.
    Their other entries agree to about 1e-15 of the largest at Fig. 2a's
    cutoffs and to 3e-13 at ``x = 250``: both carry the pmf walk's rounding,
    which grows with the level, and the backward route scales whole columns
    by it.  The cut keeps the same width.
    """
    band = _miller_band(x, e_noise, dim)
    if band is None:
        band = _laguerre_band(x, e_noise, dim)
    tail = np.cumsum(np.abs(band).sum(axis=1)[::-1])[::-1]
    cut = min(max(int(np.count_nonzero(tail > _BAND_TAIL)), 2), len(band))
    return np.ascontiguousarray(band[:cut])


def to_fock(
    state: DisplacedThermal, dim: int, tail_tol: float = _TAIL_TOL
) -> FockMatrix:
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
    dim, tail_tol = _check_inputs(dim=dim, tail_tol=tail_tol)
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
    _check_truncation(np.diagonal(rho), state.amp_sq, state.e_noise, tail_tol)
    return FockMatrix(dim, rho, tail_tol)


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
        Squared displacement(s), finite and ``>= 0``.  Each row of a stack
        is its own walk, bit-identical to the scalar call.
    e_noise : float
        Thermal occupation, finite and ``>= 0``.
    n : int or array of int
        Photon number(s).

    Returns
    -------
    float or ndarray
        For a scalar ``x``, a float when ``n`` is a scalar and shape
        ``shape(n)`` otherwise; for a stack, shape ``(len(x),) + shape(n)``.
    """
    xs, e = _check_inputs(x=x, e_noise=e_noise)
    n_arr = np.atleast_1d(np.asarray(n))
    if not np.issubdtype(n_arr.dtype, np.integer) or np.any(n_arr < 0):
        raise ValueError("n must contain nonnegative integers")

    batch = np.atleast_1d(xs)
    top = int(n_arr.max(initial=-1)) + 1
    diag = np.empty((batch.size, top))
    for row, walk in zip(diag, _pmf_walks(batch, e)):
        row[:] = list(itertools.islice(walk, top))
    result = diag[:, n_arr].reshape(batch.shape + np.shape(n))
    if np.ndim(xs):
        return result
    return float(result[0]) if np.ndim(n) == 0 else result[0]


def _bpsk_mixture_eigvals(
    x: float, e_noise: float, dim: int, tail_tol: float = _TAIL_TOL
) -> tuple[np.ndarray, float]:
    """Eigenvalues of the equal mixture of the ``+sqrt(x)`` and ``-sqrt(x)``
    displaced thermal states on ``dim`` Fock levels, and its trace deficit
    ``1 - tr(rho)``.

    The ``-sqrt(x)`` state differs from the ``+sqrt(x)`` one by the sign
    ``(-1)^{m-n}``, so the mixture is :func:`displaced_thermal_matrix`
    without its odd diagonals: one block on the even levels and one on the
    odd levels, each read straight off the full matrix.

    Raises
    ------
    ValueError
        If the truncation at ``dim`` loses more than ``tail_tol`` of the
        trace (the message names the recommended dimension), or if an
        eigenvalue falls below -1e-10, as :class:`FockMatrix` requires.
    """
    rho = displaced_thermal_matrix(x, e_noise, dim)
    _check_truncation(np.diagonal(rho), x, e_noise, tail_tol)
    eigs = np.concatenate(
        [np.linalg.eigvalsh(rho[0::2, 0::2]), np.linalg.eigvalsh(rho[1::2, 1::2])]
    )
    if np.min(eigs) < -1e-10:
        raise ValueError("entries must be positive semidefinite")
    return eigs, 1.0 - float(np.trace(rho))
