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

One table gives each subcommand and ``figures`` preset its CSV columns,
grid axes, row function and options; a second gives each option its
default, check, flag type and help.  The argument parser is built from both.

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
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import scipy

from . import EntsenseError, __version__
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


def _as_grid(name: str, raw: Any, low: float, high: float = math.inf) -> tuple[float, ...]:
    try:
        if isinstance(raw, str):
            values = parse_grid(raw)
        else:
            values = tuple(float(v) for v in raw)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{name} grid must be a grid string or a list of numbers") from exc
    if not values:
        raise ValueError(f"{name} grid must not be empty")
    for v in values:
        if not (math.isfinite(v) and low <= v <= high):
            raise ValueError(f"{name} grid values must be finite and in [{low:g}, {high:g}]")
    return values


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
        object.__setattr__(self, "ns", _as_grid("ns", self.ns, 0.0))
        object.__setattr__(self, "nb", _as_grid("nb", self.nb, 0.0))
        object.__setattr__(self, "kappa", _as_grid("kappa", self.kappa, 0.0, 1.0))
        m_values = _as_grid("m", self.m, 1.0)
        object.__setattr__(self, "m", tuple(_count("m", v) for v in m_values))
        seed = self.seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ValueError("seed must be an integer")
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "seed", int(seed))
        quad_tol = _finite("quad_tol", self.quad_tol)
        if not 0.0 < quad_tol <= 1e-2:
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
            options[name] = spec.validate(name, self.options.get(name, spec.default))
        object.__setattr__(self, "options", options)


# ---------------------------------------------------------------------------
# option checks: each takes the option's name and its raw value (a flag, a
# config-file entry or a SweepConfig argument) and returns the value or
# raises ValueError


def _finite(name: str, value: Any) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a number") from exc
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _nonnegative(name: str, value: Any) -> float:
    value = _finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be finite and nonnegative")
    return value


def _count(name: str, value: Any) -> int:
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = 0
    if count != value or count < 1:
        raise ValueError(f"{name} must be an integer >= 1")
    return count


def _amplitudes(name: str, raw: Any) -> tuple[tuple[float, float], ...]:
    """Comma-separated complex literals, or a list of ``[re, im]`` pairs."""
    try:
        if isinstance(raw, str):
            tokens = [tok for tok in raw.split(",") if tok.strip()]
            parsed = tuple(complex(tok) for tok in tokens)
        else:
            parsed = tuple(
                complex(float(pair[0]), float(pair[1])) for pair in raw
            )
    except (TypeError, LookupError, OverflowError) as exc:
        raise ValueError(f"{name} must be a string or a list of [re, im] pairs") from exc
    if not parsed:
        raise ValueError(f"{name} list must not be empty")
    if not all(cmath.isfinite(a) for a in parsed):
        raise ValueError(f"{name} values must be finite")
    return tuple((a.real, a.imag) for a in parsed)


# ---------------------------------------------------------------------------
# row functions: (config, index, *grid point) -> (row, achieved quadrature
# tolerance or None); module level so they pickle into worker processes


def _illumination_row(config, index, ns, nb, kappa, m):
    ch = ChannelParams(kappa=kappa, theta=0.0, n_b=nb)
    value, achieved = p_c2d(ns, ch, m, config.quad_tol, with_achieved=True)
    row = [
        ns,
        nb,
        kappa,
        m,
        value,
        nair_gu_bound(ns, ch, m),
        lemma1_upper_bound(ns, ch, m),
        p_classical_coherent(ns, ch, m),
    ]
    return row, achieved


def _phase_row(config, index, ns, nb, kappa, m):
    theta = config.options["theta"]
    ch = ChannelParams(kappa=kappa, theta=theta, n_b=nb)
    row = [
        ns,
        nb,
        kappa,
        m,
        theta,
        qfi_c2d(ns, ch, m),
        qfi_cs(ns, ch, m),
        qfi_upper_bound(ns, ch, m),
        qfi_tmsv(ns, ch, m),
        fi_opar(ns, ch, m, theta),
        fi_pcr(ns, ch, m, theta),
    ]
    return row, None


def _bpsk_counting_rates(ns, ch, m):
    """``(i_opar, i_pcr)``: photon-counting information per mode of the
    amplifier and conjugator receivers for BPSK over ``m`` modes."""
    return tuple(
        shannon_photon_counting(*pmfs(ns, ch, m, (0.0, math.pi))) / m
        for pmfs in (opar_photon_pmfs, pcr_count_pmfs)
    )


def _comm_row(config, index, ns, nb, kappa, m):
    quad_tol = config.quad_tol
    ch = ChannelParams(kappa=kappa, theta=0.0, n_b=nb)
    bpsk = holevo_c2d_bpsk(ns, ch, m)
    green = green_machine_optimize(ns, ch, quad_tol)
    chi, achieved = holevo_c2d_cpsk(ns, ch, m, quad_tol, with_achieved=True)
    row = [
        ns,
        nb,
        kappa,
        m,
        capacity_classical(ns, ch),
        capacity_ea(ns, ch),
        chi,
        bpsk.value,
        green.rate,
        green.repetitions,
        green.codeword_len,
        *_bpsk_counting_rates(ns, ch, m),
    ]
    return row, achieved


def _pattern_row(config, index, ns, nb, kappa):
    subchannels = config.options["subchannels"]
    absent = PatternHypothesis(((0.0, 0.0),) * subchannels, nb)
    present = PatternHypothesis(((kappa, 0.0),) * subchannels, nb)
    exps = pattern_exponents(absent, present, (ns,) * subchannels)
    ratio = exps.entangled_refined / exps.classical if exps.classical > 0 else math.inf
    row = [
        ns,
        nb,
        kappa,
        subchannels,
        exps.classical,
        exps.entangled,
        exps.entangled_refined,
        ratio,
    ]
    return row, None


def _receiver_row(config, index, amplitude):
    opts = config.options
    receiver, noise_nb = opts["receiver"], opts["noise_nb"]
    alpha_re, alpha_im = amplitude
    alpha = complex(alpha_re, alpha_im)
    if receiver == "dolinar":
        slices, trials = opts["slices"], opts["trials"]
        cfg = DolinarConfig(slices=slices, trials=trials, noise_nb=noise_nb)
        rate, stderr = dolinar_simulate(alpha, cfg, RngStream(config.seed, index))
        row = [receiver, alpha_re, alpha_im, slices, noise_nb, trials, rate, stderr]
        return row, None
    if receiver == "kennedy":
        rate = pe_kennedy(alpha)
    elif receiver == "homodyne":
        rate = pe_homodyne(abs(alpha))
    else:
        rate = pe_heterodyne(alpha)
    return [receiver, alpha_re, alpha_im, 0, noise_nb, 0, rate, 0.0], None


def _fig2a_row(config, index, m):
    # the illumination row at the Fig. 2 channel, less n_s, n_b, kappa and Lemma 1
    row, achieved = _illumination_row(config, index, 1e-3, 20.0, 0.01, m)
    return [m, *row[4:6], row[7]], achieved


def _fig2b_row(config, index, ns, nb):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=nb)
    exps = c2d_exponent_bounds(ns, ch)
    row = [
        ns,
        nb,
        exps.r_c2d_lb,
        exps.r_cs,
        exps.r_asymptotic,
        exps.r_c2d_lb - exps.r_cs,
    ]
    return row, None


def _mode_count_for_classical_level(ns, ch, level):
    """Smallest m at which the coherent-state Helstrom error is <= level.

    The error depends on m only through a = kappa m n_s, and the quantum
    Chernoff bound Q = exp(-c a), c = (sqrt(n_b+1) - sqrt(n_b))^2, brackets
    it: Q^2/4 <= P(a) <= Q/2.  Brent's method finds ln P(a) = ln level
    inside that bracket; integer steps on ``p_classical_coherent`` then
    make m exactly the smallest.
    """
    import scipy.optimize  # at module level it slows `import entsense.cli`

    if level >= 0.5:  # P(a) <= 1/2 at every a
        return 1
    a1 = ch.kappa * ns
    if not (level > 0.0 and a1 > 0.0):
        raise ValueError(
            "classical error level unreachable; raise the level or the channel contrast"
        )
    c = (math.sqrt(ch.n_b + 1.0) - math.sqrt(ch.n_b)) ** 2
    lo = math.log(0.25 / level) / (2.0 * c)
    if lo <= a1:  # the bracket reaches down to m = 1
        if p_classical_coherent(ns, ch, 1) <= level:
            return 1
        lo = a1
    hi = math.log(0.5 / level) / c
    root = scipy.optimize.brentq(
        lambda a: math.log(_coherent_helstrom_error(a, ch.n_b) / level),
        lo,
        hi,
        xtol=0.25 * a1,
    )
    m = math.ceil(root / a1)
    while p_classical_coherent(ns, ch, m) > level:
        m += 1
    while m > 1 and p_classical_coherent(ns, ch, m - 1) <= level:
        m -= 1
    return m


def _fig3a_row(config, index, ns, nb):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=nb)
    m = _mode_count_for_classical_level(ns, ch, 0.05)
    value, achieved = p_c2d(ns, ch, m, config.quad_tol, with_achieved=True)
    benchmark = p_classical_coherent(ns, ch, m)
    row = [ns, nb, m, value, benchmark, value / benchmark]
    return row, achieved


def _fig4a_row(config, index, ns):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)
    f_c2d = qfi_c2d(ns, ch, 1)
    f_cs = qfi_cs(ns, ch, 1)
    f_ub = qfi_upper_bound(ns, ch, 1)
    row = [ns, f_c2d, f_cs, f_ub, f_c2d / f_cs, f_ub / f_cs]
    return row, None


def _fig4b_row(config, index, ns, nb):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=nb)
    row = [ns, nb, qfi_c2d(ns, ch, 1) / qfi_cs(ns, ch, 1)]
    return row, None


def _fig5a_row(config, index, ns):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=100.0)
    (chi_1, achieved_1), (chi_10k, achieved_10k) = (
        holevo_c2d_cpsk(ns, ch, m, config.quad_tol, with_achieved=True)
        for m in (1, 10_000)
    )
    row = [ns, capacity_classical(ns, ch), capacity_ea(ns, ch), chi_1, chi_10k]
    return row, max(achieved_1, achieved_10k)


def _fig7a_row(config, index, m):
    seed = config.seed
    ns, ch = 1e-3, ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)
    value, achieved = p_c2d(ns, ch, m, config.quad_tol, with_achieved=True)
    params = conversion_params(ns, ch)
    amps = sample_scaled_chi2(
        m, params.xi, RngStream(seed, 2 * index).generator(), size=8
    )
    cfg = DolinarConfig(slices=100, trials=2_000, noise_nb=params.e_noise)
    rates = np.array(
        [
            dolinar_simulate(
                math.sqrt(x), cfg, RngStream(seed, 1_000 + 16 * index + rep)
            )[0]
            for rep, x in enumerate(amps)
        ]
    )
    homodyne = pe_homodyne(math.sqrt(ch.kappa * m * ns / (2.0 * ch.n_b + 1.0)))
    row = [
        m,
        value,
        float(rates.mean()),
        float(rates.std(ddof=1) / math.sqrt(rates.size)),
        pcr_pe(ns, ch, m),
        opar_pe(ns, ch, m),
        homodyne,
    ]
    return row, achieved


def _fig7c_row(config, index, ns):
    quad_tol = config.quad_tol
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=100.0)
    green = green_machine_optimize(ns, ch, quad_tol)
    chi, achieved = holevo_c2d_cpsk(ns, ch, 10_000, quad_tol, with_achieved=True)
    row = [
        ns,
        capacity_classical(ns, ch),
        capacity_ea(ns, ch),
        chi,
        green.rate,
        green.repetitions,
        green.codeword_len,
        *_bpsk_counting_rates(ns, ch, 1_000),
    ]
    return row, achieved


# ---------------------------------------------------------------------------
# the sweep table: one entry per subcommand and per figures preset


@dataclass(frozen=True)
class _Sweep:
    """One CSV schema: its columns, ``axes(config)`` (axis name -> values,
    whose product is the grid in row order), the row function, and the
    option names it reads."""

    columns: tuple[str, ...]
    axes: Callable[[SweepConfig], dict]
    row: Callable
    options: tuple[str, ...] = ()
    help: str = ""


def _channel_axes(config):
    return {"ns": config.ns, "nb": config.nb, "kappa": config.kappa, "m": config.m}


_CHANNEL_COLUMNS = ("n_s", "n_b", "kappa", "m")
# comm and 7c both end on the Green machine and the photon-counting rates
_RECEIVER_RATE_COLUMNS = (
    "green_rate",
    "green_repetitions",
    "green_codeword",
    "i_opar",
    "i_pcr",
)

_SWEEPS = {
    "illumination": _Sweep(
        _CHANNEL_COLUMNS + ("p_c2d", "nair_gu_lower", "lemma1_upper", "p_cs_helstrom"),
        _channel_axes,
        _illumination_row,
        help="target-detection sweep",
    ),
    "phase": _Sweep(
        _CHANNEL_COLUMNS
        + (
            "theta",
            "qfi_c2d",
            "qfi_cs",
            "qfi_upper",
            "qfi_tmsv",
            "fi_opar",
            "fi_pcr",
        ),
        _channel_axes,
        _phase_row,
        options=("theta",),
        help="Fisher-information sweep",
    ),
    "comm": _Sweep(
        _CHANNEL_COLUMNS
        + ("c_classical", "c_ea", "chi_cpsk", "chi_bpsk")
        + _RECEIVER_RATE_COLUMNS,
        _channel_axes,
        _comm_row,
        help="communication-rate sweep",
    ),
    "pattern": _Sweep(
        (
            "n_s",
            "n_b",
            "kappa",
            "subchannels",
            "r_classical",
            "r_entangled",
            "r_entangled_refined",
            "ratio_refined_classical",
        ),
        lambda c: {"ns": c.ns, "nb": c.nb, "kappa": c.kappa},
        _pattern_row,
        options=("subchannels",),
        help="pattern-classification exponents",
    ),
    "receiver-sim": _Sweep(
        (
            "receiver",
            "alpha_re",
            "alpha_im",
            "slices",
            "noise_nb",
            "trials",
            "error_rate",
            "stderr",
        ),
        lambda c: {"alpha": c.options["alpha"]},
        _receiver_row,
        options=("receiver", "alpha", "slices", "trials", "noise_nb"),
        help="coherent-state receiver curves",
    ),
}

_M_GRID = tuple(int(round(v)) for v in np.geomspace(1e5, 1e7, 7))

_PRESETS = {
    "2a": _Sweep(
        ("M", "P_c2d", "P_NG", "P_H_CS"),
        lambda c: {"M": _M_GRID},
        _fig2a_row,
    ),
    "2b": _Sweep(
        ("n_s", "n_b", "r_c2d_lower", "r_cs", "r_asymptotic", "advantage"),
        lambda c: dict.fromkeys(("n_s", "n_b"), _geomspace(1e-3, 10.0, 20)),
        _fig2b_row,
    ),
    "3a": _Sweep(
        ("n_s", "n_b", "m", "p_c2d", "p_cs_helstrom", "ratio"),
        lambda c: {"n_s": _geomspace(1e-2, 1.0, 5), "n_b": _geomspace(0.1, 10.0, 5)},
        _fig3a_row,
    ),
    "4a": _Sweep(
        ("n_s", "qfi_c2d", "qfi_cs", "qfi_upper", "ratio_c2d", "ratio_upper"),
        lambda c: {"n_s": _geomspace(1e-6, 1.0, 25)},
        _fig4a_row,
    ),
    "4b": _Sweep(
        ("n_s", "n_b", "ratio_c2d_cs"),
        lambda c: dict.fromkeys(("n_s", "n_b"), _geomspace(1e-2, 10.0, 20)),
        _fig4b_row,
    ),
    "5a": _Sweep(
        ("n_s", "c_classical", "c_ea", "chi_m1", "chi_m10000"),
        lambda c: {"n_s": _geomspace(1e-4, 1e-2, 9)},
        _fig5a_row,
    ),
    "7a": _Sweep(
        ("M", "p_c2d", "dolinar_rate", "dolinar_stderr", "p_pcr", "p_opar", "p_homodyne"),
        lambda c: {"M": _M_GRID},
        _fig7a_row,
    ),
    "7c": _Sweep(
        ("n_s", "c_classical", "c_ea", "chi_m10000") + _RECEIVER_RATE_COLUMNS,
        lambda c: {"n_s": _geomspace(1e-4, 1e-2, 7)},
        _fig7c_row,
    ),
}

# subcommand -> (help, option names)
_SUBCOMMANDS = {name: (s.help, s.options) for name, s in _SWEEPS.items()}
_SUBCOMMANDS["figures"] = ("named sweep presets", ("which",))


@dataclass(frozen=True)
class _Option:
    """A subcommand option: its default, its check (``parse(name, raw)``,
    or membership of ``choices``), and the type and help of its flag."""

    default: Any
    help: str
    type: Callable[[str], Any] = str
    parse: Callable[[str, Any], Any] | None = None
    choices: tuple[str, ...] | None = None

    def validate(self, name: str, raw: Any) -> Any:
        if self.choices is None:
            return self.parse(name, raw)
        if raw not in self.choices:
            raise ValueError(f"{name} must be one of {self.choices}")
        return raw


_OPTIONS = {
    "theta": _Option(math.pi / 2.0, "encoded phase (default pi/2)", float, _finite),
    "subchannels": _Option(3, "cells per pattern (default 3)", int, _count),
    "receiver": _Option("dolinar", "receiver kind", choices=_RECEIVERS),
    "alpha": _Option(
        ((1.0, 0.0),), "comma-separated complex amplitudes", parse=_amplitudes
    ),
    "slices": _Option(50, "time slices per measurement", int, _count),
    "trials": _Option(10_000, "Monte Carlo trials per amplitude", int, _count),
    "noise_nb": _Option(0.0, "thermal occupation of the noise", float, _nonnegative),
    "which": _Option(None, "preset id", choices=tuple(_PRESETS)),
}

# settings every subcommand takes: flag / config-file key ->
# (SweepConfig field, flag type, help)
_SETTINGS = {
    "ns": ("ns", str, "source brightness grid"),
    "nb": ("nb", str, "background photon-number grid"),
    "kappa": ("kappa", str, "transmissivity grid"),
    "m": ("m", str, "mode-count grid"),
    "seed": ("seed", int, "64-bit seed for Monte Carlo points"),
    "quad_tol": ("quad_tol", float, "quadrature tolerance"),
    "out": ("output_path", str, "output CSV path"),
}


def _sweep(config: SweepConfig) -> _Sweep:
    if config.subcommand == "figures":
        return _PRESETS[config.options["which"]]
    return _SWEEPS[config.subcommand]


def _plan(config: SweepConfig):
    """Columns and ordered tasks ``(row, config, index, point)``: one task
    per point of the product of the table entry's axes."""
    sweep = _sweep(config)
    grid = enumerate(itertools.product(*sweep.axes(config).values()))
    return sweep.columns, [(sweep.row, config, i, point) for i, point in grid]


class _PointError(Exception):
    """A grid point's runtime failure: its task index and message."""

    def __init__(self, index: int, message: str):
        super().__init__(index, message)
        self.index = index
        self.message = message


def _run_task(task):
    row, config, index, point = task
    try:
        return row(config, index, *point)
    except (ValueError, ArithmeticError, MemoryError, EntsenseError) as exc:
        raise _PointError(index, str(exc)) from exc


# ---------------------------------------------------------------------------
# execution and output


def _resolve_threads(explicit: int | None) -> int:
    if explicit is not None:
        if int(explicit) != explicit or int(explicit) < 1:
            raise ValueError("threads must be an integer >= 1")
        return int(explicit)
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer") from exc
        if value < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1")
        return value
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
        names = _sweep(config).axes(config)
        point = {"index": exc.index, **dict(zip(names, tasks[exc.index][3]))}
        return _emit_error(exc.message, 1, point)
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
        for key, (_, flag_type, flag_help) in _SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), type=flag_type, help=flag_help)
        p.add_argument(
            "--threads",
            type=int,
            help=f"worker count (default: ${THREADS_ENV_VAR} or core count)",
        )
        for key in option_names:
            opt = _OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=opt.type, choices=opt.choices, help=opt.help)
    return parser


def _config_from_args(args) -> tuple[SweepConfig, int | None]:
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
    return SweepConfig(subcommand, options=options, **settings), args.threads


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
