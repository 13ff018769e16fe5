"""Distributions, random streams and two special functions.

Implements the scaled chi-square density and sampler for total-displacement
magnitudes, a counter-based splittable random-stream abstraction for
reproducible Monte-Carlo runs, Laguerre polynomials and the confluent
hypergeometric function 1F1.  Other special functions come from
:mod:`scipy.special`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "laguerre",
    "hyp1f1",
    "scaled_chi2_pdf",
    "sample_scaled_chi2",
]

_LOG_DBL_MAX = 709.0


@dataclass(frozen=True)
class RngStream:
    """Counter-based splittable random stream.

    Streams are keyed by ``(root_seed, stream_index)``; per-trial generators
    are derived from ``(root_seed, stream_index, trial)``.  Equal keys replay
    identical sequences, distinct keys give statistically independent
    streams, and no mutable state is shared between workers.

    Parameters
    ----------
    root_seed : int
        64-bit unsigned master seed.
    stream_index : int, optional
        Nonnegative index of this logical stream.
    """

    root_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.root_seed) < 2**64:
            raise ValueError("root_seed must be a 64-bit unsigned integer")
        if int(self.stream_index) < 0:
            raise ValueError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Return the generator for this stream."""
        seq = np.random.SeedSequence((int(self.root_seed), int(self.stream_index)))
        return np.random.Generator(np.random.Philox(seq))

    def trial_generator(self, trial: int) -> np.random.Generator:
        """Return an independent generator for one Monte-Carlo trial.

        Parameters
        ----------
        trial : int
            Nonnegative trial index.  The generator state depends only on
            ``(root_seed, stream_index, trial)``.
        """
        if int(trial) < 0:
            raise ValueError("trial must be nonnegative")
        seq = np.random.SeedSequence(
            (int(self.root_seed), int(self.stream_index), int(trial))
        )
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, stream_index: int) -> "RngStream":
        """Return a sibling stream with the same root seed."""
        return RngStream(self.root_seed, stream_index)


def laguerre(n, x):
    """Evaluate the Laguerre polynomial L_n(x) by the three-term recurrence.

    Parameters
    ----------
    n : int
        Degree, ``n >= 0``.
    x : float or ndarray
        Argument(s); must be finite.

    Returns
    -------
    float or ndarray
        ``L_n(x)``, exact for ``n in {0, 1}``.
    """
    n = int(n)
    if n < 0:
        raise ValueError("degree n must be nonnegative")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) for non-pole real x (alternates between poles)."""
    if x > 0:
        return 1.0
    return 1.0 if math.floor(x) % 2 == 0 else -1.0


_SERIES_CROSSOVER = 60.0


def _hyp1f1_series(a: float, b: float, z: float) -> float:
    # Taylor series, used for 0 <= z <= _SERIES_CROSSOVER.  For positive z at
    # most the first ceil(-a) terms can be negative, so there is no
    # cancellation catastrophe and the roundoff stays near machine precision.
    term = 1.0
    total = 1.0
    for k in range(1000):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
    return total


def _hyp1f1_terminating(a: float, b: float, z: float) -> float:
    # a is a nonpositive integer: the series is a degree-(-a) polynomial.
    n = int(round(-a))
    term = 1.0
    total = 1.0
    for k in range(n):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
    return total


def _asymptotic_sum(c1: float, c2: float, z: float) -> tuple[float, bool]:
    """Optimally truncated sum of ``sum_k (c1)_k (c2)_k / (k! z^k)``.

    Term magnitudes may grow at first when ``c1*c2 > |z|``; the sum is cut at
    the term-magnitude minimum.  Returns ``(value, converged)`` where
    ``converged`` is False if the terms never started decreasing.
    """
    total = 1.0
    term = 1.0
    prev = 1.0
    descending = False
    for k in range(1000):
        term *= (c1 + k) * (c2 + k) / ((k + 1) * z)
        if abs(term) < prev:
            descending = True
        elif descending:
            return total, True
        prev = abs(term)
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return total, True
    return total, descending


def _log_hyp1f1_large_pos(a: float, b: float, z: float) -> tuple[float, float]:
    """(sign, log-magnitude) of 1F1(a; b; z) for large positive z.

    Uses the exponentially dominant large-argument series plus the recessive
    algebraic term; accurate to ~1e-12 relative for z > 30.
    """
    # Dominant term: Gamma(b)/Gamma(a) * e^z z^{a-b} * sum_k (b-a)_k (1-a)_k / (k! z^k)
    s1, converged = _asymptotic_sum(b - a, 1 - a, z)
    if not converged:
        # Terms never entered their descending regime: z is too small for
        # the asymptotic series but safely inside the Taylor range.
        value = _hyp1f1_series(a, b, z)
        return math.copysign(1.0, value), math.log(abs(value))
    log1 = z + (a - b) * math.log(z) + math.lgamma(b) - math.lgamma(a) + math.log(abs(s1))
    sign1 = _gamma_sign(b) * _gamma_sign(a) * math.copysign(1.0, s1)

    # Recessive term: Gamma(b)/Gamma(b-a) * z^{-a} cos(pi a) * sum_k (a)_k (a-b+1)_k / k! (-z)^{-k}
    ba = b - a
    if abs(math.cos(math.pi * a)) > 0 and not (ba <= 0 and ba == round(ba)):
        s2, _ = _asymptotic_sum(a, a - b + 1, -z)
        coef = math.cos(math.pi * a) * s2
        if coef != 0.0:
            log2 = -a * math.log(z) + math.lgamma(b) - math.lgamma(ba) + math.log(abs(coef))
            sign2 = _gamma_sign(b) * _gamma_sign(ba) * math.copysign(1.0, coef)
            if log2 > log1 - 40.0:
                m = max(log1, log2)
                combo = sign1 * math.exp(log1 - m) + sign2 * math.exp(log2 - m)
                return math.copysign(1.0, combo), m + math.log(abs(combo))
    return sign1, log1


def hyp1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function 1F1(a; b; z) for real arguments.

    Evaluation strategy: terminating series when ``a`` is a nonpositive
    integer; every negative argument is mapped by the Kummer transform
    ``e^z 1F1(b-a; b; -z)`` onto a positive one (the direct alternating
    series loses digits); positive arguments use the Taylor series up to the
    crossover ``z = 60`` and the large-argument series beyond it.

    Raises
    ------
    ValueError
        If ``b`` is a nonpositive integer ``-n``, where 1F1 has a pole.  The
        regularized function 1F1(a; b; z) / Gamma(b) stays finite there:
        ``(a)_{n+1} z^{n+1} / (n+1)!`` times ``hyp1f1(a + n + 1, n + 2, z)``
        (DLMF 13.2.5).
    OverflowError
        If the result exceeds the double-precision range; the caller must
        rescale (e.g. work with logarithms).
    """
    a = float(a)
    b = float(b)
    z = float(z)
    if b <= 0 and b == round(b):
        raise ValueError(
            "b must not be a nonpositive integer: 1F1 has a pole there"
        )
    if a <= 0 and a == round(a):
        return _hyp1f1_terminating(a, b, z)
    if z < 0.0:
        # Kummer transform onto a positive argument: the direct alternating
        # series loses digits to cancellation already for moderate |z|.
        ab = b - a
        if ab <= 0 and ab == round(ab):
            return math.exp(z) * _hyp1f1_terminating(ab, b, -z)
        if -z <= _SERIES_CROSSOVER:
            return math.exp(z) * _hyp1f1_series(ab, b, -z)
        sign, logmag = _log_hyp1f1_large_pos(ab, b, -z)
        logmag += z
        if logmag > _LOG_DBL_MAX:
            raise OverflowError(
                f"1F1({a}, {b}, {z}) overflows double precision; rescale in log space"
            )
        return sign * math.exp(logmag)
    if z <= _SERIES_CROSSOVER:
        return _hyp1f1_series(a, b, z)
    sign, logmag = _log_hyp1f1_large_pos(a, b, z)
    if logmag > _LOG_DBL_MAX:
        raise OverflowError(
            f"1F1({a}, {b}, {z}) overflows double precision "
            f"(log magnitude {logmag:.6g}); rescale in log space"
        )
    return sign * math.exp(logmag)


def scaled_chi2_pdf(x, m: int, xi: float):
    """Density of ``xi`` times a chi-square variable with ``2m`` degrees of freedom.

    This is the law of the total squared displacement built from ``m``
    complex readouts: p(x) = x^{m-1} e^{-x/(2 xi)} / ((2 xi)^m Gamma(m)),
    normalized, with mean ``2 m xi`` and variance ``4 m xi^2``.

    Parameters
    ----------
    x : float or ndarray
        Evaluation point(s), ``x >= 0``.
    m : int
        Number of combined readouts (half the degrees of freedom).
    xi : float
        Positive scale.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not xi > 0:
        raise ValueError("xi must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    scale = 2.0 * xi
    with np.errstate(divide="ignore", invalid="ignore"):
        if m > 10**6:
            # Centered form: the direct log-sum cancels terms of size
            # m*log(m) ~ 1e10, leaving noise far above the density's own
            # scale.  Writing x = 2 m xi (1 + delta) and using Stirling for
            # lgamma(m) keeps every term O(1) or better.
            delta = x / (m * scale) - 1.0
            log1p = np.log1p(delta)
            logpdf = (
                -math.log(scale)
                - 0.5 * math.log(2.0 * math.pi * m)
                - 1.0 / (12.0 * m)
                + m * (log1p - delta)
                - log1p
            )
        else:
            logpdf = (
                (m - 1) * np.log(x)
                - x / scale
                - m * math.log(scale)
                - math.lgamma(m)
            )
        out = np.exp(logpdf)
    if m == 1:
        out = np.where(x == 0.0, 1.0 / scale, out)
    else:
        out = np.where(x == 0.0, 0.0, out)
    return out if out.ndim else float(out)


def sample_scaled_chi2(m: int, xi: float, rng, size=None):
    """Draw samples of the scaled chi-square law of :func:`scaled_chi2_pdf`.

    Returns ``xi`` times numpy's chi-square draw with ``2 m`` degrees of
    freedom, which is exact and costs O(1) per sample at every ``m``.

    Parameters
    ----------
    m, xi : as in :func:`scaled_chi2_pdf`.
    rng : RngStream or numpy.random.Generator
    size : int or tuple, optional
        ``None`` returns a scalar.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not xi > 0:
        raise ValueError("xi must be positive")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return xi * gen.chisquare(2 * m, size=size)
