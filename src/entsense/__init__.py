"""Entanglement-assisted sensing and communication toolkit.

The package is organized around the correlation-to-displacement conversion
module: ``gaussian`` provides the state algebra, ``conversion`` the module
itself, and the remaining subpackages evaluate its performance for target
detection (``discrimination``), phase estimation (``metrology``), classical
communication (``communication``), and practical receivers (``receivers``).
"""

import math
import numbers

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


# the finite floats nearest inf and 0: with bounds of +-_MAX ``low <= value
# <= high`` rejects inf and NaN as well, and a lower bound of _TINY means > 0
_MAX, _TINY = math.nextafter(math.inf, 0.0), math.nextafter(0.0, 1.0)


def _bounded(name: str, value, bounds: tuple):
    """``value`` as a float, or as a float array where ``bounds`` allows a
    1-D stack; ``ValueError`` if it is boolean or some entry lies outside
    ``[low, high]``.  ``bounds`` is ``(low, high, 1 for a stack or 0, the
    range as the message states it)``, with finite ``low`` and ``high``, so
    inf and NaN fail too."""
    low, high, max_ndim, text = bounds
    if type(value) is float and low <= value <= high:
        return value  # the common case, without numpy's overhead
    xs = np.asarray(value)
    if xs.ndim > max_ndim:
        shape = "a scalar or a 1-D array" if max_ndim else "a scalar"
        raise ValueError(f"{name} must be {shape}")
    if xs.dtype != bool:
        if xs.ndim == 0:
            number = float(xs)
            if low <= number <= high:
                return number
        else:
            xs = xs.astype(float, copy=False)
            # both reductions start at low, so an empty stack passes; NaN fails
            if low <= xs.min(initial=low) and xs.max(initial=low) <= high:
                return xs
    raise ValueError(f"{name} must be {text}")


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


def _amplitude(name: str, value, _) -> complex:
    """``value`` as a complex; ``ValueError`` unless it is a real or complex
    number, not a boolean, with a finite ``|value|^2``."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        number = complex(value)
        if abs(number) * abs(number) < math.inf:  # NaN fails too
            return number
    raise ValueError(f"{name} must have a finite |{name}|^2")


_OCCUPATION = (0.0, _MAX, 0, "finite and nonnegative")
# input name -> (rule, its bounds): occupations and squared displacements
# (``x`` and ``amps`` may be 1-D stacks), complex amplitudes, fractions,
# phases and real amplitudes (``thetas`` is a stack), tolerances, tail
# masses, the gain, counts and stream keys
_RULES = {
    **dict.fromkeys("n_s n_b e_noise noise_nb amp_sq xi".split(), (_bounded, _OCCUPATION)),
    **dict.fromkeys("x amps".split(), (_bounded, (0.0, _MAX, 1, "finite and nonnegative"))),
    **dict.fromkeys("kappa p0".split(), (_bounded, (0.0, 1.0, 0, "in [0, 1]"))),
    "alpha": (_amplitude, None),
    **dict.fromkeys(
        "theta theta_plus_comp alpha_r".split(), (_bounded, (-_MAX, _MAX, 0, "finite"))
    ),
    "thetas": (_bounded, (-_MAX, _MAX, 1, "finite")),
    **dict.fromkeys(("quad_tol", "fd_step"), (_bounded, (_TINY, _MAX, 0, "finite and positive"))),
    **dict.fromkeys(("tail_tol", "tail_mass"), (_bounded, (_TINY, 1.0, 0, "in (0, 1]"))),
    "gain": (_bounded, (1.0, _MAX, 0, "finite and at least 1")),
    **dict.fromkeys(
        "m dim slices trials repetitions codeword_len num_modes subchannels".split(), (_integer, 1)
    ),
    **dict.fromkeys("root_seed stream_index trial".split(), (_integer, 0)),
}


def _check_inputs(**values):
    """The input rule of every public function and constructor: check each
    keyword by its name's rule in ``_RULES`` and return the checked values
    in order (the value itself for one keyword): floats (float arrays for
    a stack) for real inputs, ints for counts."""
    checked = []
    for name, value in values.items():
        rule, bound = _RULES[name]
        checked.append(rule(name, value, bound))
    return checked[0] if len(checked) == 1 else tuple(checked)


def _check_fields(obj, *names) -> None:
    """Check the named fields of the frozen dataclass ``obj`` by their rules
    and store the checked values in place."""
    for name in names:
        object.__setattr__(obj, name, _check_inputs(**{name: getattr(obj, name)}))
