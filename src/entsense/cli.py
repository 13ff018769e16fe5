"""Batch command line for sweeping the conversion module's figures of merit.

The ``entsense`` entry point evaluates detection, estimation, and
communication quantities on grids of source brightness, background photon
number, transmissivity, and mode count.  Each run writes one CSV (RFC
4180, ``.`` decimal separator, 17 significant digits) plus a JSON sidecar
named ``<output>.json`` that records the parameters, seed, package
versions, and achieved quadrature tolerance.

Grid points are evaluated as an embarrassingly parallel work queue; the
worker count comes from ``--threads``, the ``ENTSENSE_THREADS``
environment variable, or the logical core count, in that order.  Output
rows are assembled in grid order and Monte Carlo subcommands seed a
counter-based stream per grid point, so reruns with the same seed are
byte-identical regardless of parallelism.

One table gives each CSV cell, or run of adjacent cells, as a function of
one grid point.  A second gives each subcommand and ``figures`` preset its
CSV columns, the cells that fill them, its grid axes, its fixed channel
values and options; a third gives each option its default, check and help.
The argument parser is built from the last two, and its flags take plain
text: a flag, a config-file key and a ``SweepConfig`` argument holding the
same value pass the same check.

Subcommands
-----------
illumination
    Target-detection error probability of the conversion receiver with
    its matching lower/upper bounds and the coherent-state benchmark.
phase
    Quantum Fisher information of the converted probe, the classical
    benchmark and ceiling, and amplifier/phase-conjugate receiver FI.
comm
    Capacities, Holevo information of converted phase encodings, the
    Green machine operating point, and photon-counting receiver rates.
pattern
    Error exponents for multi-cell loss-pattern classification.
receiver-sim
    Monte Carlo slicing receiver (or closed-form receiver curves) on a
    list of coherent amplitudes.
figures
    Named presets (``2a``, ``2b``, ``3a``, ``4a``, ``4b``, ``5a``,
    ``7a``, ``7c``) bundling the parameter sets used in the package
    documentation.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import itertools
import json
import math
import os
import platform
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy

from . import EntsenseError, __version__, _check_inputs, _integer
from .communication import (
    capacity_classical,
    capacity_ea,
    green_machine_optimize,
    holevo_c2d_bpsk,
    holevo_c2d_cpsk,
    opar_photon_pmfs,
    pcr_count_pmfs,
    shannon_photon_counting,
)
from .conversion import conversion_params
from .discrimination import (
    PatternHypothesis,
    _coherent_helstrom_error,
    c2d_exponent_bounds,
    lemma1_upper_bound,
    nair_gu_bound,
    p_c2d,
    p_classical_coherent,
    pattern_exponents,
)
from .gaussian import ChannelParams
from .metrology import fi_opar, fi_pcr, qfi_c2d, qfi_cs, qfi_tmsv, qfi_upper_bound
from .receivers import (
    DolinarConfig,
    dolinar_simulate,
    opar_pe,
    pcr_pe,
    pe_heterodyne,
    pe_homodyne,
    pe_kennedy,
)
from .special import RngStream, sample_scaled_chi2

__all__ = ["SweepConfig", "main", "parse_grid", "run"]

THREADS_ENV_VAR = "ENTSENSE_THREADS"

_RECEIVERS = ("dolinar", "kennedy", "homodyne", "heterodyne")


def _geomspace(start: float, stop: float, count: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(start, stop, count))


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a grid flag: comma-separated values or ``log:START:STOP:COUNT``.

    The ``log:`` form expands to COUNT points spaced geometrically from
    START to STOP inclusive, both of which must be positive.
    """
    text = text.strip()
    if text.startswith("log:"):
        parts = text[4:].split(":")
        if len(parts) != 3:
            raise ValueError("log grid must look like log:START:STOP:COUNT")
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError("log grid needs at least one point")
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log grid endpoints must be positive")
        return _geomspace(start, stop, count)
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError("grid specification is empty")
    return values


def _as_grid(name: str, raw: Any, rule: str) -> tuple:
    """A grid, given as its text or as a list of numbers, with each value
    checked by the library's input rule for ``rule``."""
    try:
        if isinstance(raw, Mapping):  # iterating one would read its keys
            raise TypeError("a mapping is not a grid")
        values = parse_grid(raw) if isinstance(raw, str) else tuple(_real(name, v) for v in raw)
    except TypeError as exc:
        raise ValueError(f"{name} grid must be a grid string or a list of numbers") from exc
    if not values:
        raise ValueError(f"{name} grid must not be empty")
    return tuple(_check_inputs(**{rule: v}) for v in values)


@dataclass(frozen=True)
class SweepConfig:
    """Validated description of one sweep.

    Grids may be given as tuples of numbers or as strings in the flag
    syntax accepted by :func:`parse_grid`.  ``options`` carries the
    subcommand-specific knobs (``which`` for figures, ``theta`` for
    phase, the receiver description for receiver-sim, ...).
    """

    subcommand: str
    ns: tuple[float, ...] = (1e-3,)
    nb: tuple[float, ...] = (20.0,)
    kappa: tuple[float, ...] = (0.01,)
    m: tuple[int, ...] = (1000,)
    seed: int = 20608
    quad_tol: float = 1e-6
    output_path: str = "sweep.csv"
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.subcommand not in _SUBCOMMANDS:
            raise ValueError(
                f"unknown subcommand {self.subcommand!r}; "
                f"expected one of {tuple(_SUBCOMMANDS)}"
            )
        for name, rule in (("ns", "n_s"), ("nb", "n_b"), ("kappa", "kappa"), ("m", "m")):
            object.__setattr__(self, name, _as_grid(name, getattr(self, name), rule))
        object.__setattr__(self, "seed", _seed(self.seed))
        quad_tol = _checked("quad_tol", self.quad_tol)
        if quad_tol > 1e-2:
            raise ValueError("quad_tol must lie in (0, 1e-2]")
        object.__setattr__(self, "quad_tol", quad_tol)
        if not isinstance(self.output_path, str) or not self.output_path:
            raise ValueError("output_path must be a non-empty string")
        names = _SUBCOMMANDS[self.subcommand][1]
        unknown = set(self.options) - set(names)
        if unknown:
            raise ValueError(f"unknown option(s) for {self.subcommand}: {sorted(unknown)}")
        options = {}
        for name in names:
            spec = _OPTIONS[name]
            options[name] = spec.check(name, self.options.get(name, spec.default))
        object.__setattr__(self, "options", options)


# ---------------------------------------------------------------------------
# value checks: each takes the value's name and its raw value (a flag's text,
# a config-file entry or a SweepConfig argument) and returns the value or
# raises ValueError; a number's text passes as the number, a boolean never


def _real(name: str, value: Any) -> float:
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a boolean")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a number") from exc


def _checked(name: str, value: Any):
    """A value whose name has a library input rule, checked by that rule."""
    return _check_inputs(**{name: _real(name, value)})


def _seed(value: Any) -> int:
    """A 64-bit integer, or its text as ``int()`` parses it."""
    try:
        seed = int(value) if isinstance(value, str) else value
    except ValueError:
        seed = None
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return int(seed)


def _choice(*values: str) -> Callable[[str, Any], str]:
    def check(name: str, raw: Any) -> str:
        if raw not in values:
            raise ValueError(f"{name} must be one of {values}")
        return raw

    return check


def _amplitudes(name: str, raw: Any) -> tuple[tuple[float, float], ...]:
    """Comma-separated complex literals, or a list of ``[re, im]`` pairs."""
    try:
        if isinstance(raw, str):
            parsed = tuple(complex(tok) for tok in raw.split(",") if tok.strip())
        elif isinstance(raw, Mapping):  # iterating one would read its keys
            raise TypeError("a mapping is not a list of pairs")
        else:
            pairs = [tuple(pair) for pair in raw]
            if any(len(pair) != 2 for pair in pairs):
                raise TypeError("a pair has other than two entries")
            parsed = tuple(complex(_real(name, re), _real(name, im)) for re, im in pairs)
    except TypeError as exc:
        raise ValueError(f"{name} must be a string or a list of [re, im] pairs") from exc
    if not parsed:
        raise ValueError(f"{name} list must not be empty")
    if not all(cmath.isfinite(a) for a in parsed):
        raise ValueError(f"{name} values must be finite")
    return tuple((a.real, a.imag) for a in parsed)


# ---------------------------------------------------------------------------
# the cell table: each CSV cell, or run of adjacent cells, as a function of one
# grid point; module level, so workers look their cells up by name


class _Point(dict):
    """One grid point: its option, fixed channel and axis values by name
    (``ns``, ``nb``, ``kappa``, ``m``, ``theta``, ...) and each cell of
    ``_CELLS`` once read.  Integrated cells add their achieved quadrature
    tolerance to ``achieved``."""

    def __init__(self, config: SweepConfig, index: int, values: dict):
        super().__init__(values)
        self.config, self.index, self.achieved = config, index, []

    def __missing__(self, name):
        self[name] = value = _CELLS[name](self)
        return value

    @property
    def args(self):
        """``(n_s, channel, m)``: the leading arguments of most library calls."""
        return self["ns"], self["channel"], self["m"]

    def integrated(self, result):
        value, achieved = result
        self.achieved.append(achieved)
        return value


def _chi_cpsk(p: _Point, m: int) -> float:
    result = holevo_c2d_cpsk(p["ns"], p["channel"], m, p.config.quad_tol, with_achieved=True)
    return p.integrated(result)


def _mode_count_for_classical_level(ns, ch, level):
    """Smallest m at which the coherent-state Helstrom error is <= level,
    and that error (``None`` where no solve was needed).

    The error depends on m only through a = kappa m n_s, and the quantum
    Chernoff bound Q = exp(-c a), c = (sqrt(n_b+1) - sqrt(n_b))^2, brackets
    it: Q^2/4 <= P(a) <= Q/2.  Brent's method finds ln P(a) = ln level
    inside that bracket; integer steps on ``p_classical_coherent`` then
    make m exactly the smallest.
    """
    import scipy.optimize  # at module level it slows `import entsense.cli`

    if level >= 0.5:  # P(a) <= 1/2 at every a
        return 1, None
    a1 = ch.kappa * ns
    if not (level > 0.0 and a1 > 0.0):
        raise ValueError(
            "classical error level unreachable; raise the level or the channel contrast"
        )
    c = (math.sqrt(ch.n_b + 1.0) - math.sqrt(ch.n_b)) ** 2
    lo = math.log(0.25 / level) / (2.0 * c)
    if lo <= a1:  # the bracket reaches down to m = 1
        error = p_classical_coherent(ns, ch, 1)
        if error <= level:
            return 1, error
        lo = a1
    hi = math.log(0.5 / level) / c
    root = scipy.optimize.brentq(
        lambda a: math.log(_coherent_helstrom_error(a, ch.n_b) / level),
        lo,
        hi,
        xtol=0.25 * a1,
    )
    m = math.ceil(root / a1)
    error = p_classical_coherent(ns, ch, m)
    while error > level:
        m += 1
        error = p_classical_coherent(ns, ch, m)
    while m > 1:
        below = p_classical_coherent(ns, ch, m - 1)
        if below > level:
            break
        m, error = m - 1, below
    return m, error


def _searched_mode_count(p: _Point) -> int:
    """The ``m`` cell's search; its check at m seeds ``p_cs_helstrom``."""
    m, error = _mode_count_for_classical_level(p["ns"], p["channel"], 0.05)
    if error is not None:
        p["p_cs_helstrom"] = error
    return m


def _pattern(p: _Point):
    """r_classical, r_entangled, r_entangled_refined and the refined ratio for
    ``subchannels`` cells whose target is present or absent in all of them."""
    cells, nb = p["subchannels"], p["nb"]
    absent = PatternHypothesis(((0.0, 0.0),) * cells, nb)
    present = PatternHypothesis(((p["kappa"], 0.0),) * cells, nb)
    exps = pattern_exponents(absent, present, (p["ns"],) * cells)
    ratio = exps.entangled_refined / exps.classical if exps.classical > 0 else math.inf
    return exps.classical, exps.entangled, exps.entangled_refined, ratio


def _receiver_sim(p: _Point):
    """slices, noise_nb, trials, error rate and its standard error at one
    amplitude; the closed-form receivers write no slices, trials or error."""
    receiver, noise_nb = p["receiver"], p["noise_nb"]
    alpha = complex(*p["alpha"])
    if receiver == "dolinar":
        cfg = DolinarConfig(slices=p["slices"], trials=p["trials"], noise_nb=noise_nb)
        rate, stderr = dolinar_simulate(alpha, cfg, RngStream(p.config.seed, p.index))
        return p["slices"], noise_nb, p["trials"], rate, stderr
    if receiver == "kennedy":
        rate = pe_kennedy(alpha)
    elif receiver == "homodyne":
        rate = pe_homodyne(abs(alpha))
    else:
        rate = pe_heterodyne(alpha)
    return 0, noise_nb, 0, rate, 0.0


def _dolinar_c2d(p: _Point):
    """Mean and standard error of the Dolinar receiver's error rate over 8
    sampled displacement amplitudes of the converted state."""
    seed, index, m = p.config.seed, p.index, p["m"]
    params = conversion_params(p["ns"], p["channel"])
    amps = sample_scaled_chi2(m, params.xi, RngStream(seed, 2 * index).generator(), size=8)
    cfg = DolinarConfig(slices=100, trials=2_000, noise_nb=params.e_noise)
    streams = (RngStream(seed, 1_000 + 16 * index + rep) for rep in range(amps.size))
    rates = np.array(
        [dolinar_simulate(math.sqrt(x), cfg, s)[0] for x, s in zip(amps, streams)]
    )
    return float(rates.mean()), float(rates.std(ddof=1) / math.sqrt(rates.size))


# cell name -> function of the point; a tuple value fills adjacent columns
_CELLS: dict[str, Callable[[_Point], Any]] = {
    "channel": lambda p: ChannelParams(p["kappa"], p.get("theta", 0.0), p["nb"]),
    # m where no axis or fixed value gives it (preset 3a): the smallest mode
    # count at which the coherent-state benchmark's error reaches 0.05
    "m": _searched_mode_count,
    "p_c2d": lambda p: p.integrated(p_c2d(*p.args, p.config.quad_tol, with_achieved=True)),
    "nair_gu_lower": lambda p: nair_gu_bound(*p.args),
    "lemma1_upper": lambda p: lemma1_upper_bound(*p.args),
    "p_cs_helstrom": lambda p: p_classical_coherent(*p.args),
    "c2d_cs_ratio": lambda p: p["p_c2d"] / p["p_cs_helstrom"],
    "exponents": lambda p: c2d_exponent_bounds(p["ns"], p["channel"]),
    "exponent_advantage": lambda p: p["exponents"].r_c2d_lb - p["exponents"].r_cs,
    "qfi_c2d": lambda p: qfi_c2d(*p.args),
    "qfi_cs": lambda p: qfi_cs(*p.args),
    "qfi_upper": lambda p: qfi_upper_bound(*p.args),
    "qfi_tmsv": lambda p: qfi_tmsv(*p.args),
    "qfi_c2d_ratio": lambda p: p["qfi_c2d"] / p["qfi_cs"],
    "qfi_upper_ratio": lambda p: p["qfi_upper"] / p["qfi_cs"],
    "fi_opar": lambda p: fi_opar(*p.args, p["theta"]),
    "fi_pcr": lambda p: fi_pcr(*p.args, p["theta"]),
    "c_classical": lambda p: capacity_classical(p["ns"], p["channel"]),
    "c_ea": lambda p: capacity_ea(p["ns"], p["channel"]),
    "chi_cpsk": lambda p: _chi_cpsk(p, p["m"]),
    "chi_m1": lambda p: _chi_cpsk(p, 1),
    "chi_m10000": lambda p: _chi_cpsk(p, 10_000),
    "chi_bpsk": lambda p: holevo_c2d_bpsk(*p.args).value,
    # rate, repetitions and codeword length of the Green machine
    "green": lambda p: green_machine_optimize(p["ns"], p["channel"], p.config.quad_tol),
    # photon-counting information per mode of the amplifier and conjugator
    # receivers for BPSK
    "counting": lambda p: tuple(
        shannon_photon_counting(*pmfs(*p.args, (0.0, math.pi))) / p["m"]
        for pmfs in (opar_photon_pmfs, pcr_count_pmfs)
    ),
    "dolinar_c2d": _dolinar_c2d,
    "p_pcr": lambda p: pcr_pe(*p.args),
    "p_opar": lambda p: opar_pe(*p.args),
    "p_homodyne": lambda p: pe_homodyne(
        math.sqrt(p["kappa"] * p["m"] * p["ns"] / (2.0 * p["nb"] + 1.0))
    ),
    "pattern": _pattern,
    "receiver_sim": _receiver_sim,
}


# ---------------------------------------------------------------------------
# the sweep table: one entry per subcommand and per figures preset


@dataclass(frozen=True)
class _Sweep:
    """One CSV schema: its columns, the cells that fill them, ``axes(config)``
    (axis name -> values, whose product is the grid in row order), the
    channel values it fixes, and the option names it reads."""

    columns: tuple[str, ...]
    cells: tuple[str, ...]
    axes: Callable[[SweepConfig], dict]
    fixed: dict = field(default_factory=dict)
    options: tuple[str, ...] = ()
    help: str = ""


def _channel_axes(config):
    return {"ns": config.ns, "nb": config.nb, "kappa": config.kappa, "m": config.m}


_CHANNEL_COLUMNS = ("n_s", "n_b", "kappa", "m")
_CHANNEL_CELLS = ("ns", "nb", "kappa", "m")
# comm and 7c both end on the Green machine and the photon-counting rates
_RATE_COLUMNS = ("green_rate", "green_repetitions", "green_codeword", "i_opar", "i_pcr")
_RATE_CELLS = ("green", "counting")
_ILLUMINATION_CELLS = ("p_c2d", "nair_gu_lower", "lemma1_upper", "p_cs_helstrom")
_PHASE_CELLS = ("qfi_c2d", "qfi_cs", "qfi_upper", "qfi_tmsv", "fi_opar", "fi_pcr")

_SWEEPS = {
    "illumination": _Sweep(
        _CHANNEL_COLUMNS + _ILLUMINATION_CELLS,
        _CHANNEL_CELLS + _ILLUMINATION_CELLS,
        _channel_axes,
        help="target-detection sweep",
    ),
    "phase": _Sweep(
        _CHANNEL_COLUMNS + ("theta",) + _PHASE_CELLS,
        _CHANNEL_CELLS + ("theta",) + _PHASE_CELLS,
        _channel_axes,
        options=("theta",),
        help="Fisher-information sweep",
    ),
    "comm": _Sweep(
        _CHANNEL_COLUMNS + ("c_classical", "c_ea", "chi_cpsk", "chi_bpsk") + _RATE_COLUMNS,
        _CHANNEL_CELLS + ("c_classical", "c_ea", "chi_cpsk", "chi_bpsk") + _RATE_CELLS,
        _channel_axes,
        help="communication-rate sweep",
    ),
    "pattern": _Sweep(
        ("n_s", "n_b", "kappa", "subchannels")
        + ("r_classical", "r_entangled", "r_entangled_refined", "ratio_refined_classical"),
        ("ns", "nb", "kappa", "subchannels", "pattern"),
        lambda c: {"ns": c.ns, "nb": c.nb, "kappa": c.kappa},
        options=("subchannels",),
        help="pattern-classification exponents",
    ),
    "receiver-sim": _Sweep(
        ("receiver", "alpha_re", "alpha_im", "slices", "noise_nb", "trials")
        + ("error_rate", "stderr"),
        ("receiver", "alpha", "receiver_sim"),
        lambda c: {"alpha": c.options["alpha"]},
        options=("receiver", "alpha", "slices", "trials", "noise_nb"),
        help="coherent-state receiver curves",
    ),
}

_M_GRID = tuple(int(round(v)) for v in np.geomspace(1e5, 1e7, 7))
# the Fig. 2 source and channel (2a, 7a), and the channel of 5a and 7c
_FIG2 = {"ns": 1e-3, "kappa": 0.01, "nb": 20.0}
_NB100 = {"kappa": 0.01, "nb": 100.0}

_PRESETS = {
    "2a": _Sweep(
        ("M", "P_c2d", "P_NG", "P_H_CS"),
        ("m", "p_c2d", "nair_gu_lower", "p_cs_helstrom"),
        lambda c: {"M": _M_GRID},
        _FIG2,
    ),
    "2b": _Sweep(
        ("n_s", "n_b", "r_c2d_lower", "r_cs", "r_asymptotic", "advantage"),
        ("ns", "nb", "exponents", "exponent_advantage"),
        lambda c: dict.fromkeys(("n_s", "n_b"), _geomspace(1e-3, 10.0, 20)),
        {"kappa": 0.01},
    ),
    "3a": _Sweep(
        ("n_s", "n_b", "m", "p_c2d", "p_cs_helstrom", "ratio"),
        ("ns", "nb", "m", "p_c2d", "p_cs_helstrom", "c2d_cs_ratio"),
        lambda c: {"n_s": _geomspace(1e-2, 1.0, 5), "n_b": _geomspace(0.1, 10.0, 5)},
        {"kappa": 0.01},
    ),
    "4a": _Sweep(
        ("n_s", "qfi_c2d", "qfi_cs", "qfi_upper", "ratio_c2d", "ratio_upper"),
        ("ns", "qfi_c2d", "qfi_cs", "qfi_upper", "qfi_c2d_ratio", "qfi_upper_ratio"),
        lambda c: {"n_s": _geomspace(1e-6, 1.0, 25)},
        {"kappa": 0.01, "nb": 20.0, "m": 1},
    ),
    "4b": _Sweep(
        ("n_s", "n_b", "ratio_c2d_cs"),
        ("ns", "nb", "qfi_c2d_ratio"),
        lambda c: dict.fromkeys(("n_s", "n_b"), _geomspace(1e-2, 10.0, 20)),
        {"kappa": 0.01, "m": 1},
    ),
    "5a": _Sweep(
        ("n_s", "c_classical", "c_ea", "chi_m1", "chi_m10000"),
        ("ns", "c_classical", "c_ea", "chi_m1", "chi_m10000"),
        lambda c: {"n_s": _geomspace(1e-4, 1e-2, 9)},
        _NB100,
    ),
    "7a": _Sweep(
        ("M", "p_c2d", "dolinar_rate", "dolinar_stderr", "p_pcr", "p_opar", "p_homodyne"),
        ("m", "p_c2d", "dolinar_c2d", "p_pcr", "p_opar", "p_homodyne"),
        lambda c: {"M": _M_GRID},
        _FIG2,
    ),
    "7c": _Sweep(
        ("n_s", "c_classical", "c_ea", "chi_m10000") + _RATE_COLUMNS,
        ("ns", "c_classical", "c_ea", "chi_m10000") + _RATE_CELLS,
        lambda c: {"n_s": _geomspace(1e-4, 1e-2, 7)},
        {**_NB100, "m": 1_000},  # the photon-counting rates' mode count
    ),
}

# subcommand -> (help, option names)
_SUBCOMMANDS = {name: (s.help, s.options) for name, s in _SWEEPS.items()}
_SUBCOMMANDS["figures"] = ("named sweep presets", ("which",))


@dataclass(frozen=True)
class _Option:
    """A subcommand option: its default, its check (``check(name, raw)``)
    and the help of its flag."""

    default: Any
    check: Callable[[str, Any], Any]
    help: str


_OPTIONS = {
    "theta": _Option(math.pi / 2.0, _checked, "encoded phase (default pi/2)"),
    "subchannels": _Option(3, _checked, "cells per pattern (default 3)"),
    "receiver": _Option("dolinar", _choice(*_RECEIVERS), "receiver: " + ", ".join(_RECEIVERS)),
    "alpha": _Option(((1.0, 0.0),), _amplitudes, "comma-separated complex amplitudes"),
    "slices": _Option(50, _checked, "time slices per measurement"),
    "trials": _Option(10_000, _checked, "Monte Carlo trials per amplitude"),
    "noise_nb": _Option(0.0, _checked, "thermal occupation of the noise"),
    "which": _Option(None, _choice(*_PRESETS), "preset id: " + ", ".join(_PRESETS)),
}

# settings every subcommand takes: flag / config-file key -> (SweepConfig field, help)
_SETTINGS = {
    "ns": ("ns", "source brightness grid"),
    "nb": ("nb", "background photon-number grid"),
    "kappa": ("kappa", "transmissivity grid"),
    "m": ("m", "mode-count grid"),
    "seed": ("seed", "64-bit seed for Monte Carlo points"),
    "quad_tol": ("quad_tol", "quadrature tolerance"),
    "out": ("output_path", "output CSV path"),
}


def _sweep(config: SweepConfig) -> _Sweep:
    if config.subcommand == "figures":
        return _PRESETS[config.options["which"]]
    return _SWEEPS[config.subcommand]


def _plan(config: SweepConfig):
    """Columns and ordered tasks ``(config, index, axis values)``: one task
    per point of the product of the table entry's axes."""
    sweep = _sweep(config)
    axes = sweep.axes(config)
    grid = enumerate(itertools.product(*axes.values()))
    return sweep.columns, [(config, i, dict(zip(axes, point))) for i, point in grid]


class _PointError(Exception):
    """A grid point's runtime failure: its task index and message."""

    def __init__(self, index: int, message: str):
        super().__init__(index, message)
        self.index = index
        self.message = message


# preset axis names -> the point's value names
_AXIS_VALUES = {"n_s": "ns", "n_b": "nb", "M": "m"}


def _run_task(task):
    """A task's CSV row and the largest achieved tolerance of its integrated
    cells (None if it has none)."""
    config, index, axis_values = task
    sweep = _sweep(config)
    values = {_AXIS_VALUES.get(k, k): v for k, v in axis_values.items()}
    point = _Point(config, index, {**config.options, **sweep.fixed, **values})
    try:
        cells = [point[name] for name in sweep.cells]
    except (ValueError, ArithmeticError, MemoryError, EntsenseError) as exc:
        raise _PointError(index, str(exc)) from exc
    row = [v for cell in cells for v in (cell if isinstance(cell, tuple) else (cell,))]
    return row, max(point.achieved, default=None)


# ---------------------------------------------------------------------------
# execution and output


def _resolve_threads(explicit: Any) -> int:
    for name, value in (("threads", explicit), (THREADS_ENV_VAR, os.environ.get(THREADS_ENV_VAR))):
        if value is not None:
            return _integer(name, _real(name, value), 1)
    return os.cpu_count() or 1


def _execute(tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [_run_task(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_run_task, tasks))


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise ValueError("boolean cells are not part of any sweep schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _parameters(config: SweepConfig) -> dict[str, list]:
    """The grids a run reads: its table entry's axes, by name."""
    return {name: list(axis) for name, axis in _sweep(config).axes(config).items()}


def _write_sidecar(config: SweepConfig, columns, n_rows: int, achieved) -> None:
    meta = {
        "subcommand": config.subcommand,
        "parameters": _parameters(config),
        "options": config.options,
        "seed": config.seed,
        "quad_tol": config.quad_tol,
        "columns": list(columns),
        "rows": n_rows,
        "achieved_quadrature_tolerance": max(achieved) if achieved else None,
        "versions": {
            "entsense": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    with open(config.output_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit_error(message: str, code: int, point: dict | None = None) -> int:
    payload = {"error": str(message), "exit_status": code}
    if point is not None:
        payload["point"] = point
    print(json.dumps(payload), file=sys.stderr)
    return code


def run(config: SweepConfig, threads: int | None = None) -> int:
    """Execute one sweep and write its CSV + sidecar.

    Returns the process exit status: 0 on success, 1 when a grid point or
    the output path fails at runtime, including a quadrature that misses its
    tolerance, a photon-number tail that never closes and numeric overflow.
    A failing grid point's error line names it under ``"point"``: its index
    in grid order and its axis values, keyed as in the sidecar's
    ``parameters``.  It is the first failing point in grid order at any
    worker count.
    Configuration errors are raised by the :class:`SweepConfig`
    constructor, not here.
    """
    if not isinstance(config, SweepConfig):
        raise TypeError("config must be a SweepConfig")
    try:
        workers = _resolve_threads(threads)
        columns, tasks = _plan(config)
        results = _execute(tasks, workers)
        rows = [row for row, _ in results]
        achieved = [a for _, a in results if a is not None]
        _write_csv(config.output_path, columns, rows)
        _write_sidecar(config, columns, len(rows), achieved)
    except _PointError as exc:
        return _emit_error(exc.message, 1, {"index": exc.index, **tasks[exc.index][2]})
    except (ValueError, OSError, EntsenseError) as exc:
        return _emit_error(str(exc), 1)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are single JSON lines on stderr."""

    def error(self, message):
        raise SystemExit(_emit_error(message, 2))


def _build_parser() -> _Parser:
    parser = _Parser(prog="entsense", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, option_names) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with sweep settings")
        for key, (_, flag_help) in _SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), help=flag_help)
        threads_help = f"worker count (default: ${THREADS_ENV_VAR} or core count)"
        p.add_argument("--threads", help=threads_help)
        for key in option_names:
            p.add_argument("--" + key.replace("_", "-"), help=_OPTIONS[key].help)
    return parser


def _config_from_args(args) -> tuple[SweepConfig, int]:
    subcommand = args.subcommand
    option_names = _SUBCOMMANDS[subcommand][1]
    values: dict[str, Any] = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ValueError("config file must hold a JSON object")
        for key in values:
            if key not in _SETTINGS and key not in option_names:
                raise ValueError(f"unknown config key {key!r} for {subcommand}")
    for key in (*_SETTINGS, *option_names):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    settings = {_SETTINGS[k][0]: v for k, v in values.items() if k in _SETTINGS}
    options = {k: v for k, v in values.items() if k in option_names}
    return SweepConfig(subcommand, options=options, **settings), _resolve_threads(args.threads)


def main(argv=None) -> int:
    """Entry point; returns the exit status instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config, threads = _config_from_args(args)
    except (ValueError, OSError) as exc:
        return _emit_error(str(exc), 2)
    return run(config, threads=threads)


if __name__ == "__main__":
    sys.exit(main())
