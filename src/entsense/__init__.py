"""Entanglement-assisted sensing and communication toolkit.

The package is organized around the correlation-to-displacement conversion
module: ``gaussian`` provides the state algebra, ``conversion`` the module
itself, and the remaining subpackages evaluate its performance for target
detection (``discrimination``), phase estimation (``metrology``), classical
communication (``communication``), and practical receivers (``receivers``).
"""

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
