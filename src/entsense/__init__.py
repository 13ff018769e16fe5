"""Entanglement-assisted sensing and communication toolkit.

The package is organized around the correlation-to-displacement conversion
module: ``gaussian`` provides the state algebra, ``conversion`` the module
itself, and the remaining subpackages evaluate its performance for target
detection (``discrimination``), phase estimation (``metrology``), classical
communication (``communication``), and practical receivers (``receivers``).
"""

import math

import numpy as np

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


def _nonnegative(name: str, value, max_ndim: int):
    """``value`` as a float, or as a float array where a 1-D stack is
    allowed (``max_ndim`` 1); ``ValueError`` if it is boolean or some
    entry is negative, infinite or NaN."""
    if type(value) is float and 0.0 <= value < math.inf:
        return value  # the common case, without numpy's overhead
    xs = np.asarray(value)
    if xs.ndim > max_ndim:
        shape = "a scalar or a 1-D array" if max_ndim else "a scalar"
        raise ValueError(f"{name} must be {shape}")
    if xs.dtype != bool:
        if xs.ndim == 0:
            number = float(xs)
            if 0.0 <= number < math.inf:
                return number
        else:
            xs = xs.astype(float, copy=False)
            # both reductions start at 0, so an empty stack passes; NaN fails
            if 0.0 <= xs.min(initial=0.0) and xs.max(initial=0.0) < math.inf:
                return xs
    raise ValueError(f"{name} must be finite and nonnegative")


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int; ``ValueError`` unless it is a finite integer of
    at least ``least`` (0 or 1) of any numeric type other than boolean
    (``2.5`` is not truncated)."""
    if type(value) is int and value >= least:
        return value  # the common case
    if not isinstance(value, (bool, np.bool_)) and (
        least <= value < math.inf and value == int(value)
    ):
        return int(value)
    raise ValueError(f"{name} must be a {('nonnegative', 'positive')[least]} integer")


def _at_least(name: str, value, least: float) -> float:
    """``value`` as a float; ``ValueError`` unless it is finite, not boolean
    and at least ``least``."""
    if not isinstance(value, (bool, np.bool_)) and least <= value < math.inf:
        return float(value)
    raise ValueError(f"{name} must be finite and at least {least:g}")


# input name -> (rule, its bound): occupations and squared displacements
# (``x`` and ``amps`` may be 1-D stacks), counts, stream keys and the gain
_RULES = {
    **dict.fromkeys("n_s n_b e_noise noise_nb amp_sq xi".split(), (_nonnegative, 0)),
    **dict.fromkeys("x amps".split(), (_nonnegative, 1)),
    **dict.fromkeys("m dim slices trials repetitions codeword_len".split(), (_integer, 1)),
    **dict.fromkeys("root_seed stream_index trial".split(), (_integer, 0)),
    "gain": (_at_least, 1.0),
}


def _check_inputs(**values):
    """The input rule of every public function and constructor: check each
    keyword by its name's rule in ``_RULES`` and return the checked values
    in order (the value itself for one keyword): floats (float arrays for
    a stack) for occupations, ints for counts."""
    checked = []
    for name, value in values.items():
        rule, bound = _RULES[name]
        checked.append(rule(name, value, bound))
    return checked[0] if len(checked) == 1 else tuple(checked)
