"""Distributions, random streams and the confluent hypergeometric function.

Implements the sampler of the total squared displacement built from ``m``
complex readouts, ``xi`` times a chi-square variable with ``2 m`` degrees
of freedom (mean ``2 m xi``, variance ``4 m xi^2``), and a counter-based
splittable random-stream abstraction for reproducible Monte-Carlo runs.
1F1 is a thin wrapper over :mod:`scipy.special` that rejects poles and
non-finite arguments with ``ValueError`` and overflow with
``OverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import hyp1f1 as _scipy_hyp1f1

from . import _check_fields, _check_inputs

__all__ = [
    "RngStream",
    "hyp1f1",
    "sample_scaled_chi2",
]


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
        _check_fields(self, "root_seed", "stream_index")
        if self.root_seed >= 2**64:
            raise ValueError("root_seed must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        """Return the generator for this stream."""
        seq = np.random.SeedSequence((self.root_seed, self.stream_index))
        return np.random.Generator(np.random.Philox(seq))

    def trial_generator(self, trial: int) -> np.random.Generator:
        """Return an independent generator for one Monte-Carlo trial.

        Parameters
        ----------
        trial : int
            Nonnegative trial index.  The generator state depends only on
            ``(root_seed, stream_index, trial)``.
        """
        seq = np.random.SeedSequence(
            (self.root_seed, self.stream_index, _check_inputs(trial=trial))
        )
        return np.random.Generator(np.random.Philox(seq))


def hyp1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function 1F1(a; b; z) for finite real
    scalars, from :func:`scipy.special.hyp1f1`.

    Raises
    ------
    ValueError
        If an argument is not finite, or if ``b`` is a nonpositive integer
        ``-n``, where 1F1 has a pole.  The regularized function
        1F1(a; b; z) / Gamma(b) stays finite there:
        ``(a)_{n+1} z^{n+1} / (n+1)!`` times ``hyp1f1(a + n + 1, n + 2, z)``
        (DLMF 13.2.5).
    OverflowError
        If the result exceeds the double-precision range; the caller must
        rescale (e.g. work with logarithms).
    """
    a = float(a)
    b = float(b)
    z = float(z)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise ValueError("a, b and z must be finite")
    if b <= 0 and b == round(b):
        raise ValueError(
            "b must not be a nonpositive integer: 1F1 has a pole there"
        )
    value = float(_scipy_hyp1f1(a, b, z))
    if math.isinf(value):
        raise OverflowError(
            f"1F1({a}, {b}, {z}) overflows double precision; rescale in log space"
        )
    return value


def sample_scaled_chi2(m: int, xi: float, rng, size=None):
    """Draw ``xi`` times a chi-square variable with ``2 m`` degrees of freedom.

    This is the law of the total squared displacement built from ``m``
    complex readouts, with mean ``2 m xi`` and variance ``4 m xi^2``.  The
    draw is numpy's chi-square draw scaled by ``xi``, which is exact and
    costs O(1) per sample at every ``m``.

    Parameters
    ----------
    m : int
        Number of combined readouts (half the degrees of freedom).
    xi : float
        Scale, finite and ``>= 0``.
    rng : RngStream or numpy.random.Generator
    size : int or tuple, optional
        ``None`` returns a scalar.
    """
    m, xi = _check_inputs(m=m, xi=xi)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return xi * gen.chisquare(2 * m, size=size)
