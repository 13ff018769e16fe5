"""Discrimination limits for the correlation-to-displacement receiver chain.

Covers the exact binary Helstrom limit on truncated Fock matrices, the
Gaussian quantum Chernoff bound, the converted-displacement error
probability and its analytic sandwich (Nair-Gu lower bound, a
hypergeometric-free upper bound), error-exponent comparisons against the
coherent-state benchmark, and the exponent pairs for multi-subchannel
pattern classification.

Priors are 1/2 throughout the target-detection paths.
"""

from __future__ import annotations

import ctypes
import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import cython_lapack

from . import _check_fields, _check_inputs
from .conversion import (
    ConversionParams,
    conversion_params,
    displacement_support,
    expect_total_displacement,
)
from .fockstates import (
    DisplacedThermal,
    FockMatrix,
    _check_truncation,
    _displaced_thermal_band,
    displaced_thermal_matrix,
    recommended_dim,
    to_fock,
)
from .gaussian import ChannelParams, GaussianState, williamson

__all__ = [
    "C2dExponents",
    "PatternExponents",
    "PatternHypothesis",
    "QcbResult",
    "c2d_exponent_bounds",
    "helstrom_numeric",
    "lemma1_upper_bound",
    "nair_gu_bound",
    "p_c2d",
    "p_classical_coherent",
    "pattern_exponents",
    "qcb_gaussian",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# _coherent_helstrom_error solves on the band when the cutoff is at least
# this many band widths (through the last odd diagonal); below that the
# dense half-size SVD is faster.  On 2 cores, in alternating pairs at one
# BLAS thread and at two, the two cost the same near 13 widths; the band
# won at every point measured from 14 (1.0-1.9x there, 2-3x near 20).
_BAND_SOLVE_RATIO = 14
# Upper bound on the bytes of one stack of per-node displaced thermal
# matrices; the stack lives in every forked CLI worker.
_NODE_BLOCK_BYTES = 2**21


def _golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimum of a unimodal ``f`` on ``[lo, hi]``.

    Returns ``(x, f(x))`` with ``x`` located to within ``tol``.  Unlike a
    three-point-bracket starter this also handles functions that are flat
    or monotone on the interval (the minimizer then lands at an arbitrary
    interior point or at the appropriate edge of the shrunken interval).
    """
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def helstrom_numeric(rho: FockMatrix, sigma: FockMatrix, p0: float = 0.5) -> float:
    """Minimum binary discrimination error between two Fock matrices.

    ``(1 - ||p0 rho - (1-p0) sigma||_1) / 2`` via a Hermitian
    eigen-decomposition of the weighted difference, in ``[0, 1/2]`` and
    accurate to only about 1e-14 absolute (eigenvalue rounding).

    Parameters
    ----------
    rho, sigma : FockMatrix
        Hypothesis states; dimensions must match.
    p0 : float
        Prior probability of ``rho``.
    """
    p0 = _check_inputs(p0=p0)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return float(_helstrom_error(rho.entries, sigma.entries, p0))


def _helstrom_error(rho: np.ndarray, sigma: np.ndarray, p0: float) -> np.ndarray:
    """``(1 - ||p0 rho - (1-p0) sigma||_1) / 2`` on raw, unvalidated arrays.

    ``rho`` and ``sigma`` broadcast over leading stack axes; one eigensolve
    runs over the whole stack and the result has the stack's shape.
    Rounding can push the trace norm past 1, hence the clamp at 0.
    """
    eigs = np.linalg.eigvalsh(p0 * rho - (1.0 - p0) * sigma)
    return np.maximum(0.5 * (1.0 - np.sum(np.abs(eigs), axis=-1)), 0.0)


def _thermal_helstrom_errors(
    n0: float, e_noise: float, dim: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Equal-prior Helstrom errors of the thermal state ``n0`` against the
    displaced thermal states ``(sqrt(x), e_noise)`` on ``dim`` Fock levels,
    as a function of a 1-D stack of ``x >= 0``.

    The reference goes once through the validated :func:`to_fock`.  The
    displaced matrices, built in blocks of at most ``_NODE_BLOCK_BYTES``,
    are Hermitian and PSD by construction, so only the cutoff can fail; one
    trace check per block shows it (a deficit above 1e-9 raises
    ``ValueError``).
    """
    rho0 = to_fock(DisplacedThermal(0.0, n0), dim).entries
    block = max(1, _NODE_BLOCK_BYTES // (8 * dim * dim))

    def errors(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape)
        for lo in range(0, x.size, block):
            nodes = x[lo : lo + block]
            mats = displaced_thermal_matrix(nodes, e_noise, dim)
            diagonals = np.diagonal(mats, axis1=1, axis2=2)
            _check_truncation(diagonals, nodes.max(), e_noise)
            out[lo : lo + block] = _helstrom_error(rho0, mats, 0.5)
        return out

    return errors


def _g_p(nu: float, p: float) -> float:
    """G_p(nu) = 2^p / ((nu+1)^p - (nu-1)^p), with G_p(1) = 1."""
    if nu < 1.0 + 1e-12:
        return 1.0
    return 2.0**p / ((nu + 1.0) ** p - (nu - 1.0) ** p)


def _lambda_p(nu: float, p: float) -> float:
    """Lambda_p(nu) = ((nu+1)^p + (nu-1)^p) / ((nu+1)^p - (nu-1)^p)."""
    if nu < 1.0 + 1e-12:
        return 1.0
    up, dn = (nu + 1.0) ** p, (nu - 1.0) ** p
    return (up + dn) / (up - dn)


class QcbResult(NamedTuple):
    """Optimized quantum Chernoff bound: ``bound = min_s Q_s / 2``."""

    s_opt: float
    bound: float

    def exponent(self) -> float:
        """Error exponent ``-ln(min_s Q_s)`` of the optimized bound."""
        return -math.log(2.0 * self.bound)


def qcb_gaussian(state1: GaussianState, state2: GaussianState) -> QcbResult:
    """Quantum Chernoff bound between two Gaussian states.

    Minimizes ``Q_s`` over ``s`` in ``[0, 1]`` by golden-section search to
    1e-6; ``s`` is clamped to the open interval during evaluation since the
    endpoint factors diverge individually while ``Q_s`` itself tends to 1.
    """
    if state1.num_modes != state2.num_modes:
        raise ValueError("states must have the same number of modes")
    k = state1.num_modes
    w1 = williamson(state1.cov)
    w2 = williamson(state2.cov)
    d = state2.mean - state1.mean

    def dressed(w, p):
        lam = np.repeat([_lambda_p(nu, p) for nu in w.spectrum], 2)
        return (w.s_matrix * lam) @ w.s_matrix.T

    def log_q(s: float) -> float:
        s = min(max(s, 1e-9), 1.0 - 1e-9)
        v = dressed(w1, s) + dressed(w2, 1.0 - s)
        log_qbar = k * math.log(2.0)
        for nu in w1.spectrum:
            log_qbar += math.log(_g_p(nu, s))
        for nu in w2.spectrum:
            log_qbar += math.log(_g_p(nu, 1.0 - s))
        sign, logdet = np.linalg.slogdet(v)
        if sign <= 0:
            raise ValueError("dressed covariance sum is not positive definite")
        cho = scipy.linalg.cho_factor(v)
        quad = float(d @ scipy.linalg.cho_solve(cho, d))
        return log_qbar - 0.5 * logdet - 0.5 * quad

    s_opt, log_q_min = _golden_section_min(log_q, 0.0, 1.0, 1e-6)
    return QcbResult(s_opt, 0.5 * math.exp(min(log_q_min, 0.0)))


def _c2d_states(n_s: float, ch: ChannelParams) -> tuple[ConversionParams, float]:
    if ch.theta != 0.0:
        raise ValueError("conversion hypotheses are defined at theta = 0")
    params = conversion_params(n_s, ch)
    return params, params.e_noise


def p_c2d(
    n_s: float,
    ch: ChannelParams,
    m: int,
    quad_tol: float = 1e-6,
    *,
    fock_dim: int | None = None,
    with_achieved: bool = False,
):
    """Error probability of the conversion receiver for target detection.

    Averages the exact Helstrom limit between the zero-displacement thermal
    state (occupation ``n_s``) and the displaced thermal state
    ``(sqrt(x), E)`` over the combined-displacement law for ``m`` modes.
    The Fock cutoff is chosen once, from the largest displacement the
    quadrature grid can visit, so the integrand is smooth in ``x``.

    Parameters
    ----------
    n_s : float
        Source brightness.
    ch : ChannelParams
        Channel under the target-present hypothesis; ``theta`` must be 0.
    m : int
        Number of combined modes.
    quad_tol : float
        Relative quadrature tolerance.
    fock_dim : int, optional
        Override the automatic Fock cutoff (used for robustness checks); a
        cutoff that leaves some node a trace deficit above 1e-9 raises
        ``ValueError``.
    with_achieved : bool
        When true, return ``(probability, achieved_tolerance)``.
    """
    _check_inputs(quad_tol=quad_tol)
    params, e_noise = _c2d_states(n_s, ch)
    x_hi = displacement_support(params, m)
    dim = fock_dim if fock_dim is not None else max(
        recommended_dim(x_hi, max(n_s, e_noise)), 2
    )
    kernel = _thermal_helstrom_errors(n_s, e_noise, dim)
    value, achieved = expect_total_displacement(params, m, kernel, quad_tol)
    return (value, achieved) if with_achieved else value


def p_classical_coherent(n_s: float, ch: ChannelParams, m: int) -> float:
    """Helstrom limit of the coherent-state benchmark for target detection.

    Discriminates a thermal state of occupation ``n_b`` from the same
    thermal state displaced by ``sqrt(kappa m n_s)`` (the full transmitted
    energy concentrated in one mode): the single-mode test that ``p_c2d``
    averages, at the one node ``x = kappa m n_s``, solved by the parity
    split of :func:`_coherent_helstrom_error`: the singular values of one
    half-size block, taken from its band by LAPACK's banded
    bidiagonalization and dqds where the band is narrow (as at Fig. 2a's
    ``n_b = 20``), by one dense SVD otherwise.  The result lies in
    ``[0, 1/2]``.  Truncation at the cutoff ``recommended_dim(kappa m n_s,
    n_b)`` overstates it by at most about 1.5e-11 absolute, at the smallest
    cutoffs (15 levels near ``(kappa m n_s, n_b) = (0.01, 0.24)``), and by
    under 4e-13 at cutoffs above 150 (measured against a tripled cutoff);
    the band's dropped diagonals move it by at most 1e-17, and rounding
    adds about 1e-14 at Fig. 2a's cutoffs (see
    :func:`_coherent_helstrom_error`).
    """
    _check_inputs(n_s=n_s, m=m)
    return _coherent_helstrom_error(ch.kappa * m * n_s, ch.n_b)


def _coherent_helstrom_error(amp_sq: float, n_b: float) -> float:
    """Equal-prior Helstrom error of the thermal state ``n_b`` against the
    same state displaced to ``sqrt(amp_sq)``, for any real ``amp_sq >= 0``.

    Displacing both hypotheses by ``-sqrt(amp_sq)/2`` puts them at
    ``+-sqrt(amp_sq)/2``, which parity maps onto each other.  Half their
    difference is then parity-odd: in (even, odd) level order it is
    ``[[0, B], [B^T, 0]]`` with eigenvalues ``+-sigma_i(B)``, where ``B`` is
    the even-row, odd-column block of the state at ``amp_sq / 4``.  So the
    error is ``1/2 - sum sigma(B)``.

    Accuracy: the cutoff is the unshifted problem's ``recommended_dim(amp_sq,
    n_b)``, and the matrix is PSD by construction, so one trace check (a
    deficit above 1e-9 raises ``ValueError``) covers the truncation; it
    overstates the error by up to about 1.5e-11 at 15 levels and by under
    4e-13 above 150.  Only the leading diagonals of
    :func:`_displaced_thermal_band` are built; the ones it drops hold at
    most 1e-17 per triangle, which bounds their nuclear norm by 2e-17 and
    so moves the error by at most 1e-17.  Rounding adds about 1e-14: at
    most 3e-15 against the dense matrix's SVD at the Fig. 2a and 3a points,
    and up to 7e-14 near cutoff 3,000 (``n_b = 100``), where the rounding of
    the photon-number pmf, which scales each column of a band built along
    its diagonals, sets the accuracy.

    Solvers: the band's odd diagonals hold ``B`` as a band matrix, stored
    once by :func:`_parity_band`.  Where the band through its last odd
    diagonal is no wider than ``1/_BAND_SOLVE_RATIO`` of the cutoff, LAPACK
    reduces that storage to bidiagonal form and takes its singular values
    by dqds (:func:`_band_singular_values`), in work linear in the band
    width; a wider band is expanded into a dense ``B``
    (:func:`_parity_block`) for one half-size singular-value solve.  The
    two agree on ``sum sigma(B)`` to about 1e-16.
    """
    dim = recommended_dim(amp_sq, n_b)
    band = _displaced_thermal_band(0.25 * amp_sq, n_b, dim)
    _check_truncation(band[0], amp_sq, n_b)
    if _BAND_SOLVE_RATIO * (len(band) // 2 * 2) <= dim:
        sigma = _band_singular_values(*_parity_band(band), (dim + 1) // 2)
    else:
        sigma = np.linalg.svd(_parity_block(band), compute_uv=False)
    return max(0.5 - float(np.sum(sigma)), 0.0)


def _parity_band(band: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The even-row, odd-column block ``B[i, j] = rho[2i, 2j+1]`` of the
    symmetric matrix with lower band ``band``, in LAPACK general-band
    storage: ``(ab, kl, ku)`` with ``ab[j, ku + i - j] = B[i, j]``, one row
    of ``ab`` per column of ``B`` (so ``ab`` is the column-major
    ``(kl + ku + 1, n)`` array LAPACK reads).

    ``B`` is ``(dim+1)//2 x dim//2``.  An entry of ``B`` on its diagonal
    ``i - j = d`` is ``rho`` on the odd diagonal ``2d - 1`` below (``d >= 1``)
    or ``-2d + 1`` above (``d <= 0``), so with ``kmax`` the last odd
    diagonal of ``band``, ``kl = (kmax + 1)/2`` and ``ku = (kmax - 1)/2``.
    """
    dim = band.shape[1]
    odd = band[1 : len(band) // 2 * 2 : 2]  # diagonals 1, 3, .., kmax
    kl = len(odd)
    ku = kl - 1
    n = dim // 2
    ab = np.zeros((n, kl + ku + 1))
    ab[:, ku + 1 :] = odd[:, 1::2].T  # B[j + d, j] = rho[2j + 2d, 2j + 1]
    for d in range(kl):  # B[j - d, j] = rho[2j + 1, 2j - 2d]
        ab[d:, ku - d] = odd[d, 0 : 2 * (n - d) : 2]
    return ab, kl, ku


def _parity_block(band: np.ndarray) -> np.ndarray:
    """Dense even-row, odd-column block of the symmetric matrix with lower
    band ``band``: the storage of :func:`_parity_band`, expanded."""
    ab, _, ku = _parity_band(band)
    j, r = np.nonzero(ab)  # the storage outside B holds zeros only
    block = np.zeros(((band.shape[1] + 1) // 2, len(ab)))
    block[j + r - ku, j] = ab[j, r]
    return block


# Argument types of the LAPACK routines scipy exports only as Cython
# capsules: c for char *, i for int *, d for double *.  The last argument
# of each is its ``info``.
_LAPACK_ARGS = {"dgbbrd": "ciiiiididddidididi", "dlasq1": "idddi"}
_C_TYPES = {
    "c": ("char *", ctypes.c_char_p),
    "i": ("int *", ctypes.POINTER(ctypes.c_int)),
    "d": ("double *", ctypes.POINTER(ctypes.c_double)),
}
_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _bind_lapack(name: str, capsule):
    """ctypes function behind the ``cython_lapack`` capsule of ``name``,
    after checking the capsule's C signature against ``_LAPACK_ARGS``.

    Raises ``RuntimeError`` on a mismatch, so no call goes through a wrong
    prototype.
    """
    codes = _LAPACK_ARGS[name]
    want = "void (" + ", ".join(_C_TYPES[c][0] for c in codes) + ")"
    signature = _CAPSULE_NAME(capsule)
    # Cython names the double typedef __pyx_t_<module>_d
    got = re.sub(r"\w+_d \*", "double *", (signature or b"").decode())
    if got != want:
        raise RuntimeError(f"LAPACK {name} has the signature {got!r}, not {want!r}")
    prototype = ctypes.CFUNCTYPE(None, *(_C_TYPES[c][1] for c in codes))
    return prototype(_CAPSULE_POINTER(capsule, signature))


@functools.cache
def _lapack(name: str):
    """``name`` from ``scipy.linalg.cython_lapack``, bound once per process."""
    return _bind_lapack(name, cython_lapack.__pyx_capi__[name])


def _call_lapack(name: str, *args) -> None:
    """Call the LAPACK routine ``name`` with ``args`` (bytes, ints and
    float64 arrays, by ``_LAPACK_ARGS``; ``info`` is appended) and raise
    ``numpy.linalg.LinAlgError`` on a non-zero ``info``."""

    def pointer(code, arg):
        if code == "i":
            return ctypes.byref(ctypes.c_int(arg))
        if code == "d":
            return arg.ctypes.data_as(_C_TYPES["d"][1])
        return arg

    info = ctypes.c_int()
    _lapack(name)(*map(pointer, _LAPACK_ARGS[name], args), ctypes.byref(info))
    if info.value:
        raise np.linalg.LinAlgError(f"LAPACK {name} returned info = {info.value}")


def _band_singular_values(ab: np.ndarray, kl: int, ku: int, m: int) -> np.ndarray:
    """Singular values of the ``m x n`` matrix (``m >= n = len(ab)``) held in
    the general-band storage ``ab`` of :func:`_parity_band`, by Kaufman's
    banded bidiagonalization (LAPACK ``dgbbrd``) and Fernando-Parlett dqds
    (``dlasq1``).  Overwrites ``ab``.

    A band holding an infinity or a NaN raises ``ValueError`` before LAPACK
    sees it, as ``check_finite`` does in ``scipy.linalg``.
    """
    if not np.isfinite(ab).all():
        raise ValueError("array must not contain infs or NaNs")
    n = len(ab)
    d, e, work = np.empty(n), np.empty(max(n - 1, 1)), np.empty(max(2 * m, 4 * n))
    unused = np.empty(1)  # Q, P^T and C: not formed
    _call_lapack(
        "dgbbrd", b"N", m, n, 0, kl, ku, ab, kl + ku + 1, d, e,
        unused, 1, unused, 1, unused, 1, work,
    )
    _call_lapack("dlasq1", n, d, e, work)
    return d


def nair_gu_bound(n_s: float, ch: ChannelParams, m: int) -> float:
    """Lower bound on any target-detection error probability.

    ``exp(-beta m n_s) / 4`` with ``beta = -ln(1 - kappa/(n_b+1))``; its
    limit 0 on the lossless, noiseless channel (``kappa = n_b + 1``).
    """
    _check_inputs(n_s=n_s, m=m)
    if n_s == 0.0 or ch.kappa == 0.0:
        return 0.25
    ratio = ch.kappa / (ch.n_b + 1.0)
    if ratio == 1.0:
        return 0.0
    beta = -math.log1p(-ratio)
    return 0.25 * math.exp(-beta * m * n_s)


def lemma1_upper_bound(n_s: float, ch: ChannelParams, m: int) -> float:
    """Upper bound on the conversion receiver's error probability.

    ``min_s (1 + 4 xi / (Lambda_s(1+2 n_s) + Lambda_{1-s}(1+2 E)))^{-m} / 2``
    minimized by golden-section search over ``s``.
    """
    params, e_noise = _c2d_states(n_s, ch)
    _check_inputs(m=m)
    if params.xi == 0.0:
        return 0.5
    nu1 = 1.0 + 2.0 * n_s
    nu2 = 1.0 + 2.0 * e_noise

    def neg_log(s: float) -> float:
        s = min(max(s, 1e-9), 1.0 - 1e-9)
        gap = _lambda_p(nu1, s) + _lambda_p(nu2, 1.0 - s)
        return -m * math.log1p(4.0 * params.xi / gap)

    _, val = _golden_section_min(neg_log, 0.0, 1.0, 1e-6)
    return 0.5 * math.exp(val)


class C2dExponents(NamedTuple):
    """Per-mode error exponents: a provable lower bound, the coherent-state
    benchmark, and the asymptotic conversion exponent ``2 xi``."""

    r_c2d_lb: float
    r_cs: float
    r_asymptotic: float


def c2d_exponent_bounds(n_s: float, ch: ChannelParams) -> C2dExponents:
    """Error-exponent comparison between conversion and coherent benchmarks.

    The lower bound multiplies ``2 xi`` by ``(sqrt(n_s+1) - sqrt(n_s))^2``;
    the benchmark exponent is ``kappa n_s (sqrt(n_b+1) - sqrt(n_b))^2``.
    """
    params, _ = _c2d_states(n_s, ch)
    two_xi = 2.0 * params.xi
    lb = two_xi * (math.sqrt(n_s + 1.0) - math.sqrt(n_s)) ** 2
    r_cs = ch.kappa * n_s * (math.sqrt(ch.n_b + 1.0) - math.sqrt(ch.n_b)) ** 2
    return C2dExponents(lb, r_cs, two_xi)


@dataclass(frozen=True)
class PatternHypothesis:
    """One hypothesis over a bank of subchannels: per-subchannel
    transmissivity/phase pairs with a shared background brightness."""

    subchannels: tuple
    n_b: float

    def __post_init__(self):
        subs = tuple(_check_inputs(kappa=k, theta=t) for k, t in self.subchannels)
        if not subs:
            raise ValueError("at least one subchannel is required")
        _check_fields(self, "n_b")
        if self.n_b == 0.0:
            raise ValueError("n_b must be positive")
        object.__setattr__(self, "subchannels", subs)

    def deltas(self, other: "PatternHypothesis") -> np.ndarray:
        """Per-subchannel separations |e^{i theta1} sqrt(kappa1) -
        e^{i theta2} sqrt(kappa2)|^2 against another hypothesis."""
        if len(self.subchannels) != len(other.subchannels):
            raise ValueError("mismatched subchannel counts")
        a = np.array(
            [math.sqrt(k) * complex(math.cos(t), math.sin(t))
             for k, t in self.subchannels]
        )
        b = np.array(
            [math.sqrt(k) * complex(math.cos(t), math.sin(t))
             for k, t in other.subchannels]
        )
        return np.abs(a - b) ** 2


class PatternExponents(NamedTuple):
    """Per-copy exponents for discriminating two subchannel patterns.

    ``entangled`` is the bright-background limit ``sum N_S delta / N_B``;
    ``entangled_refined`` keeps the finite-brightness corrections and is
    the form the 4x advantage ratio is computed from.  ``n_b_large`` and
    ``n_s_small`` flag whether the asymptotic regime (``N_B >= 10``,
    ``N_S <= 0.1``) backing the simple forms actually holds.
    """

    classical: float
    entangled: float
    entangled_refined: float
    n_b_large: bool
    n_s_small: bool


def pattern_exponents(
    h1: PatternHypothesis, h2: PatternHypothesis, amps
) -> PatternExponents:
    """Error exponents for classical vs entangled pattern classification.

    Parameters
    ----------
    h1, h2 : PatternHypothesis
        The two subchannel patterns; must share the background brightness.
    amps : array-like
        Per-subchannel mean photon numbers ``|alpha_m|^2``; the entangled
        strategy uses the same per-mode brightness ``N_{S,m}``.
    """
    if h1.n_b != h2.n_b:
        raise ValueError("hypotheses must share the background brightness")
    deltas = h1.deltas(h2)
    amps = _check_inputs(amps=amps)
    if np.shape(amps) != deltas.shape:
        raise ValueError("amps must provide one value per subchannel")
    n_b = h1.n_b
    classical = float(
        np.sum(deltas * amps) * (math.sqrt(n_b + 1.0) - math.sqrt(n_b)) ** 2
    )
    entangled = float(np.sum(amps * deltas) / n_b)
    refined = float(
        np.sum(
            amps
            * (amps + 1.0)
            * deltas
            * n_b
            / ((n_b + 1.0) ** 2 * (np.sqrt(amps + 1.0) + np.sqrt(amps)) ** 2)
        )
    )
    return PatternExponents(
        classical,
        entangled,
        refined,
        n_b >= 10.0,
        bool(np.all(amps <= 0.1)),
    )
