"""Entanglement-assisted sensing and communication toolkit.

The package is organized around the correlation-to-displacement conversion
module: ``gaussian`` provides the state algebra, ``conversion`` the module
itself, and the remaining subpackages evaluate its performance for target
detection (``discrimination``), phase estimation (``metrology``), classical
communication (``communication``), and practical receivers (``receivers``).
"""

import math

__version__ = "0.1.0"

__all__ = [
    "EntsenseError",
    "special",
    "gaussian",
    "conversion",
    "fockstates",
    "discrimination",
    "metrology",
    "communication",
    "receivers",
    "cli",
]


class EntsenseError(Exception):
    """Base class of the failures the package raises itself (a quadrature
    that misses its tolerance, a photon-number tail that never closes);
    bad arguments raise ``ValueError`` instead."""


def _check_inputs(n_s: float = 0.0, m: float = 1) -> None:
    """Raise ``ValueError`` unless the source brightness ``n_s`` is finite
    and nonnegative and the mode count ``m`` is a finite integer (of any
    numeric type) of at least 1; the one input rule of every public
    function that takes either."""
    if not 0.0 <= n_s < math.inf:
        raise ValueError("n_s must be finite and nonnegative")
    if not (1 <= m < math.inf and m == math.floor(m)):
        raise ValueError("m must be a positive integer")
