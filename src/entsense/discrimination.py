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

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from .conversion import (
    ConversionParams,
    conversion_params,
    displacement_support,
    expect_total_displacement,
)
from .fockstates import (
    DisplacedThermal,
    FockMatrix,
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
    "multi_hypothesis_prefactor",
    "nair_gu_bound",
    "p_c2d",
    "p_classical_coherent",
    "pattern_exponents",
    "qcb_gaussian",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Upper bound on the bytes of one stack of per-node arrays (p_c2d's node
# matrices, holevo_cpsk_conditional's pmf rows); the stack lives in every
# forked CLI worker.
_NODE_BLOCK_BYTES = 2**21
# Largest trace deficit of a p_c2d node matrix, the FockMatrix default.
_NODE_TAIL_TOL = 1e-9


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
    eigen-decomposition of the weighted difference.

    Parameters
    ----------
    rho, sigma : FockMatrix
        Hypothesis states; dimensions must match.
    p0 : float
        Prior probability of ``rho``.
    """
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    return _helstrom_error(rho.entries, sigma.entries, p0)


def _helstrom_error(rho: np.ndarray, sigma: np.ndarray, p0: float) -> float:
    """``(1 - ||p0 rho - (1-p0) sigma||_1) / 2`` on raw, unvalidated arrays."""
    eigs = scipy.linalg.eigvalsh(p0 * rho - (1.0 - p0) * sigma)
    return 0.5 * (1.0 - float(np.sum(np.abs(eigs))))


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
    if n_s < 0:
        raise ValueError("n_s must be nonnegative")
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
    params, e_noise = _c2d_states(n_s, ch)
    _, x_hi, _ = displacement_support(params, m)
    dim = fock_dim if fock_dim is not None else max(
        recommended_dim(x_hi, max(n_s, e_noise)), 2
    )
    rho0 = to_fock(DisplacedThermal(0.0, n_s), dim).entries
    block = max(1, _NODE_BLOCK_BYTES // (8 * dim * dim))

    def kernel(x: np.ndarray) -> np.ndarray:
        x = np.maximum(x, 0.0)
        out = np.empty(x.shape)
        for lo in range(0, x.size, block):
            mats = displaced_thermal_matrix(x[lo : lo + block], e_noise, dim)
            # Hermitian and PSD by construction, so only the cutoff can fail,
            # and the trace shows that without an eigensolve per node
            deficit = 1.0 - np.trace(mats, axis1=1, axis2=2).min()
            if deficit > _NODE_TAIL_TOL:
                raise ValueError(
                    f"dim={dim} leaves a node trace deficit of {deficit:.3e} "
                    f"> {_NODE_TAIL_TOL:.1e}"
                )
            for i, mat in enumerate(mats, start=lo):
                out[i] = _helstrom_error(rho0, mat, 0.5)
        return out

    value, achieved = expect_total_displacement(params, m, kernel, quad_tol)
    return (value, achieved) if with_achieved else value


def p_classical_coherent(n_s: float, ch: ChannelParams, m: int) -> float:
    """Helstrom limit of the coherent-state benchmark for target detection.

    Discriminates a thermal state of occupation ``n_b`` from the same
    thermal state displaced by ``sqrt(kappa m n_s)`` (the full transmitted
    energy concentrated in one mode).
    """
    if n_s < 0:
        raise ValueError("n_s must be nonnegative")
    amp_sq = ch.kappa * m * n_s
    dim = recommended_dim(amp_sq, ch.n_b)
    rho = to_fock(DisplacedThermal(0.0, ch.n_b), dim)
    sigma = to_fock(DisplacedThermal(math.sqrt(amp_sq), ch.n_b), dim)
    return helstrom_numeric(rho, sigma)


def nair_gu_bound(n_s: float, ch: ChannelParams, m: int) -> float:
    """Lower bound on any target-detection error probability.

    ``exp(-beta m n_s) / 4`` with ``beta = -ln(1 - kappa/(n_b+1))``.
    """
    if n_s < 0:
        raise ValueError("n_s must be nonnegative")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if n_s == 0.0 or ch.kappa == 0.0:
        return 0.25
    beta = -math.log1p(-ch.kappa / (ch.n_b + 1.0))
    return 0.25 * math.exp(-beta * m * n_s)


def lemma1_upper_bound(n_s: float, ch: ChannelParams, m: int) -> float:
    """Upper bound on the conversion receiver's error probability.

    ``min_s (1 + 4 xi / (Lambda_s(1+2 n_s) + Lambda_{1-s}(1+2 E)))^{-m} / 2``
    minimized by golden-section search over ``s``.
    """
    params, e_noise = _c2d_states(n_s, ch)
    if m < 1:
        raise ValueError("m must be a positive integer")
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
        subs = tuple((float(k), float(t)) for k, t in self.subchannels)
        if not subs:
            raise ValueError("at least one subchannel is required")
        for kappa, _ in subs:
            if not 0.0 <= kappa <= 1.0:
                raise ValueError("each kappa must lie in [0, 1]")
        if not float(self.n_b) > 0:
            raise ValueError("n_b must be positive")
        object.__setattr__(self, "subchannels", subs)
        object.__setattr__(self, "n_b", float(self.n_b))

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
    amps = np.asarray(amps, dtype=float)
    if amps.shape != deltas.shape:
        raise ValueError("amps must provide one value per subchannel")
    if np.any(amps < 0):
        raise ValueError("amps must be nonnegative")
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


def multi_hypothesis_prefactor(
    r: int, n_copies: int, c_r: float, dim_power: float, priors=None
) -> float:
    """Polynomial prefactor of the multi-hypothesis error bound.

    ``10 (r-1)^2 c_r^2 (n+1)^{2 d} max_h p_h``, where ``c_r`` and ``d``
    are constants of the underlying pairwise-test construction (cited from
    external work, so supplied explicitly).

    Parameters
    ----------
    r : int
        Number of hypotheses, at least 2.
    n_copies : int
        Number of copies ``n``.
    c_r : float
        Pairwise-combination constant.
    dim_power : float
        Polynomial degree ``d``.
    priors : array-like, optional
        Hypothesis priors; defaults to uniform.
    """
    r = int(r)
    if r < 2:
        raise ValueError("r must be at least 2")
    if n_copies < 1:
        raise ValueError("n_copies must be a positive integer")
    if priors is None:
        max_prior = 1.0 / r
    else:
        priors = np.asarray(priors, dtype=float)
        if priors.shape != (r,) or np.any(priors < 0) or abs(priors.sum() - 1) > 1e-12:
            raise ValueError("priors must be a length-r distribution")
        max_prior = float(priors.max())
    return 10.0 * (r - 1) ** 2 * c_r**2 * (n_copies + 1.0) ** (2.0 * dim_power) * max_prior
