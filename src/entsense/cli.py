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
import csv
import itertools
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy

from . import __version__
from .communication import (
    PhotonTailError,
    capacity_classical,
    capacity_ea,
    green_machine_optimize,
    holevo_c2d_bpsk,
    holevo_c2d_cpsk,
    opar_photon_pmfs,
    pcr_count_pmfs,
    shannon_photon_counting,
)
from .conversion import QuadratureError, conversion_params
from .discrimination import (
    PatternHypothesis,
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

_SUBCOMMANDS = ("illumination", "phase", "comm", "pattern", "receiver-sim", "figures")
_FIGURE_PRESETS = ("2a", "2b", "3a", "4a", "4b", "5a", "7a", "7c")
_RECEIVERS = ("dolinar", "kennedy", "homodyne", "heterodyne")


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
        return tuple(float(v) for v in np.geomspace(start, stop, count))
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise ValueError("grid specification is empty")
    return values


def _as_grid(name: str, raw: Any) -> tuple[float, ...]:
    if isinstance(raw, str):
        values = parse_grid(raw)
    else:
        values = tuple(float(v) for v in raw)
    if not values:
        raise ValueError(f"{name} grid must not be empty")
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} grid contains a non-finite value")
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
                f"unknown subcommand {self.subcommand!r}; expected one of {_SUBCOMMANDS}"
            )
        object.__setattr__(self, "ns", _as_grid("ns", self.ns))
        object.__setattr__(self, "nb", _as_grid("nb", self.nb))
        object.__setattr__(self, "kappa", _as_grid("kappa", self.kappa))
        m_values = _as_grid("m", self.m)
        for v in self.ns:
            if v < 0.0:
                raise ValueError("ns grid values must be nonnegative")
        for v in self.nb:
            if v < 0.0:
                raise ValueError("nb grid values must be nonnegative")
        for v in self.kappa:
            if not 0.0 <= v <= 1.0:
                raise ValueError("kappa grid values must lie in [0, 1]")
        m_ints = []
        for v in m_values:
            if v != int(v) or v < 1:
                raise ValueError("m grid values must be integers >= 1")
            m_ints.append(int(v))
        object.__setattr__(self, "m", tuple(m_ints))
        seed = self.seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ValueError("seed must be an integer")
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "seed", int(seed))
        quad_tol = float(self.quad_tol)
        if not 0.0 < quad_tol <= 1e-2:
            raise ValueError("quad_tol must lie in (0, 1e-2]")
        object.__setattr__(self, "quad_tol", quad_tol)
        if not isinstance(self.output_path, str) or not self.output_path:
            raise ValueError("output_path must be a non-empty string")
        object.__setattr__(
            self, "options", _validate_options(self.subcommand, dict(self.options))
        )


def _validate_options(subcommand: str, options: dict[str, Any]) -> dict[str, Any]:
    allowed = {
        "illumination": set(),
        "phase": {"theta"},
        "comm": set(),
        "pattern": {"subchannels"},
        "receiver-sim": {"receiver", "alpha", "slices", "trials", "noise_nb"},
        "figures": {"which"},
    }[subcommand]
    unknown = set(options) - allowed
    if unknown:
        raise ValueError(f"unknown option(s) for {subcommand}: {sorted(unknown)}")
    if subcommand == "phase":
        theta = float(options.get("theta", math.pi / 2.0))
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        options["theta"] = theta
    elif subcommand == "pattern":
        cells = options.get("subchannels", 3)
        if int(cells) != cells or int(cells) < 1:
            raise ValueError("subchannels must be an integer >= 1")
        options["subchannels"] = int(cells)
    elif subcommand == "receiver-sim":
        receiver = options.get("receiver", "dolinar")
        if receiver not in _RECEIVERS:
            raise ValueError(f"receiver must be one of {_RECEIVERS}")
        options["receiver"] = receiver
        raw_alpha = options.get("alpha", ((1.0, 0.0),))
        if isinstance(raw_alpha, str):
            tokens = [tok for tok in raw_alpha.split(",") if tok.strip()]
            parsed = tuple(complex(tok) for tok in tokens)
        else:
            parsed = tuple(
                complex(float(pair[0]), float(pair[1])) for pair in raw_alpha
            )
        if not parsed:
            raise ValueError("alpha list must not be empty")
        options["alpha"] = tuple((a.real, a.imag) for a in parsed)
        slices = options.get("slices", 50)
        trials = options.get("trials", 10_000)
        for name, value in (("slices", slices), ("trials", trials)):
            if int(value) != value or int(value) < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        options["slices"] = int(slices)
        options["trials"] = int(trials)
        noise_nb = float(options.get("noise_nb", 0.0))
        if noise_nb < 0.0 or not math.isfinite(noise_nb):
            raise ValueError("noise_nb must be finite and nonnegative")
        options["noise_nb"] = noise_nb
    elif subcommand == "figures":
        which = options.get("which")
        if which not in _FIGURE_PRESETS:
            raise ValueError(f"figures preset must be one of {_FIGURE_PRESETS}")
    return options


# ---------------------------------------------------------------------------
# grid-point workers (module level so they pickle into worker processes)


def _illumination_task(index, ns, nb, kappa, m, quad_tol):
    ch = ChannelParams(kappa=kappa, theta=0.0, n_b=nb)
    value, achieved = p_c2d(ns, ch, m, quad_tol, with_achieved=True)
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


def _phase_task(index, ns, nb, kappa, m, theta):
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


def _comm_task(index, ns, nb, kappa, m, quad_tol):
    ch = ChannelParams(kappa=kappa, theta=0.0, n_b=nb)
    bpsk = holevo_c2d_bpsk(ns, ch, m)
    green = green_machine_optimize(ns, ch, quad_tol)
    pmf_pairs = (
        opar_photon_pmfs(ns, ch, m, (0.0, math.pi)),
        pcr_count_pmfs(ns, ch, m, (0.0, math.pi)),
    )
    i_opar, i_pcr = (shannon_photon_counting(p0, p1) / m for p0, p1 in pmf_pairs)
    row = [
        ns,
        nb,
        kappa,
        m,
        capacity_classical(ns, ch),
        capacity_ea(ns, ch),
        holevo_c2d_cpsk(ns, ch, m, quad_tol),
        bpsk.value,
        green.rate,
        green.repetitions,
        green.codeword_len,
        i_opar,
        i_pcr,
    ]
    return row, None


def _pattern_task(index, ns, nb, kappa, subchannels):
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


def _receiver_task(index, receiver, alpha_re, alpha_im, slices, trials, noise_nb, seed):
    alpha = complex(alpha_re, alpha_im)
    if receiver == "dolinar":
        cfg = DolinarConfig(slices=slices, trials=trials, noise_nb=noise_nb)
        rate, stderr = dolinar_simulate(alpha, cfg, RngStream(seed, index))
        row = [receiver, alpha_re, alpha_im, slices, noise_nb, trials, rate, stderr]
        return row, None
    if receiver == "kennedy":
        rate = pe_kennedy(alpha)
    elif receiver == "homodyne":
        rate = pe_homodyne(abs(alpha))
    else:
        rate = pe_heterodyne(alpha)
    return [receiver, alpha_re, alpha_im, 0, noise_nb, 0, rate, 0.0], None


def _fig2a_task(index, m, quad_tol):
    ns, ch = 1e-3, ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)
    value, achieved = p_c2d(ns, ch, m, quad_tol, with_achieved=True)
    row = [m, value, nair_gu_bound(ns, ch, m), p_classical_coherent(ns, ch, m)]
    return row, achieved


def _fig2b_task(index, ns, nb):
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
    """Smallest m at which the coherent-state Helstrom error is <= level."""
    if p_classical_coherent(ns, ch, 1) <= level:
        return 1
    lo, hi = 1, 2
    while p_classical_coherent(ns, ch, hi) > level:
        lo, hi = hi, hi * 2
        if hi > 2**34:
            raise ValueError(
                "classical error level unreachable within 2^34 modes; "
                "raise the level or the channel contrast"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if p_classical_coherent(ns, ch, mid) > level:
            lo = mid
        else:
            hi = mid
    return hi


def _fig3a_task(index, ns, nb, quad_tol):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=nb)
    m = _mode_count_for_classical_level(ns, ch, 0.05)
    value, achieved = p_c2d(ns, ch, m, quad_tol, with_achieved=True)
    benchmark = p_classical_coherent(ns, ch, m)
    row = [ns, nb, m, value, benchmark, value / benchmark]
    return row, achieved


def _fig4a_task(index, ns):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)
    f_c2d = qfi_c2d(ns, ch, 1)
    f_cs = qfi_cs(ns, ch, 1)
    f_ub = qfi_upper_bound(ns, ch, 1)
    row = [ns, f_c2d, f_cs, f_ub, f_c2d / f_cs, f_ub / f_cs]
    return row, None


def _fig4b_task(index, ns, nb):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=nb)
    row = [ns, nb, qfi_c2d(ns, ch, 1) / qfi_cs(ns, ch, 1)]
    return row, None


def _fig5a_task(index, ns, quad_tol):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=100.0)
    row = [
        ns,
        capacity_classical(ns, ch),
        capacity_ea(ns, ch),
        holevo_c2d_cpsk(ns, ch, 1, quad_tol),
        holevo_c2d_cpsk(ns, ch, 10_000, quad_tol),
    ]
    return row, None


def _fig7a_task(index, m, seed, quad_tol):
    ns, ch = 1e-3, ChannelParams(kappa=0.01, theta=0.0, n_b=20.0)
    value, achieved = p_c2d(ns, ch, m, quad_tol, with_achieved=True)
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


def _fig7c_task(index, ns, quad_tol):
    ch = ChannelParams(kappa=0.01, theta=0.0, n_b=100.0)
    green = green_machine_optimize(ns, ch, quad_tol)
    m_count = 1_000
    pmf_opar = opar_photon_pmfs(ns, ch, m_count, (0.0, math.pi))
    pmf_pcr = pcr_count_pmfs(ns, ch, m_count, (0.0, math.pi))
    row = [
        ns,
        capacity_classical(ns, ch),
        capacity_ea(ns, ch),
        holevo_c2d_cpsk(ns, ch, 10_000, quad_tol),
        green.rate,
        green.repetitions,
        green.codeword_len,
        shannon_photon_counting(*pmf_opar) / m_count,
        shannon_photon_counting(*pmf_pcr) / m_count,
    ]
    return row, None


_TASK_FUNCTIONS = {
    "illumination": _illumination_task,
    "phase": _phase_task,
    "comm": _comm_task,
    "pattern": _pattern_task,
    "receiver": _receiver_task,
    "fig2a": _fig2a_task,
    "fig2b": _fig2b_task,
    "fig3a": _fig3a_task,
    "fig4a": _fig4a_task,
    "fig4b": _fig4b_task,
    "fig5a": _fig5a_task,
    "fig7a": _fig7a_task,
    "fig7c": _fig7c_task,
}


def _run_task(task):
    kind, index, payload = task
    return _TASK_FUNCTIONS[kind](index, **payload)


# ---------------------------------------------------------------------------
# planning: subcommand -> (columns, ordered task list)


def _channel_grid(config: SweepConfig):
    return itertools.product(config.ns, config.nb, config.kappa, config.m)


def _plan(config: SweepConfig):
    if config.subcommand == "illumination":
        columns = [
            "n_s",
            "n_b",
            "kappa",
            "m",
            "p_c2d",
            "nair_gu_lower",
            "lemma1_upper",
            "p_cs_helstrom",
        ]
        tasks = [
            (
                "illumination",
                i,
                {"ns": ns, "nb": nb, "kappa": kappa, "m": m, "quad_tol": config.quad_tol},
            )
            for i, (ns, nb, kappa, m) in enumerate(_channel_grid(config))
        ]
        return columns, tasks
    if config.subcommand == "phase":
        theta = config.options["theta"]
        columns = [
            "n_s",
            "n_b",
            "kappa",
            "m",
            "theta",
            "qfi_c2d",
            "qfi_cs",
            "qfi_upper",
            "qfi_tmsv",
            "fi_opar",
            "fi_pcr",
        ]
        tasks = [
            ("phase", i, {"ns": ns, "nb": nb, "kappa": kappa, "m": m, "theta": theta})
            for i, (ns, nb, kappa, m) in enumerate(_channel_grid(config))
        ]
        return columns, tasks
    if config.subcommand == "comm":
        columns = [
            "n_s",
            "n_b",
            "kappa",
            "m",
            "c_classical",
            "c_ea",
            "chi_cpsk",
            "chi_bpsk",
            "green_rate",
            "green_repetitions",
            "green_codeword",
            "i_opar",
            "i_pcr",
        ]
        tasks = [
            (
                "comm",
                i,
                {"ns": ns, "nb": nb, "kappa": kappa, "m": m, "quad_tol": config.quad_tol},
            )
            for i, (ns, nb, kappa, m) in enumerate(_channel_grid(config))
        ]
        return columns, tasks
    if config.subcommand == "pattern":
        cells = config.options["subchannels"]
        columns = [
            "n_s",
            "n_b",
            "kappa",
            "subchannels",
            "r_classical",
            "r_entangled",
            "r_entangled_refined",
            "ratio_refined_classical",
        ]
        tasks = [
            ("pattern", i, {"ns": ns, "nb": nb, "kappa": kappa, "subchannels": cells})
            for i, (ns, nb, kappa) in enumerate(
                itertools.product(config.ns, config.nb, config.kappa)
            )
        ]
        return columns, tasks
    if config.subcommand == "receiver-sim":
        opts = config.options
        columns = [
            "receiver",
            "alpha_re",
            "alpha_im",
            "slices",
            "noise_nb",
            "trials",
            "error_rate",
            "stderr",
        ]
        tasks = [
            (
                "receiver",
                i,
                {
                    "receiver": opts["receiver"],
                    "alpha_re": re,
                    "alpha_im": im,
                    "slices": opts["slices"],
                    "trials": opts["trials"],
                    "noise_nb": opts["noise_nb"],
                    "seed": config.seed,
                },
            )
            for i, (re, im) in enumerate(opts["alpha"])
        ]
        return columns, tasks
    return _figures_plan(config)


def _figures_plan(config: SweepConfig):
    which = config.options["which"]
    quad_tol = config.quad_tol
    if which == "2a":
        m_grid = [int(round(v)) for v in np.geomspace(1e5, 1e7, 7)]
        columns = ["M", "P_c2d", "P_NG", "P_H_CS"]
        tasks = [
            ("fig2a", i, {"m": m, "quad_tol": quad_tol}) for i, m in enumerate(m_grid)
        ]
    elif which == "2b":
        grid = np.geomspace(1e-3, 10.0, 20)
        columns = ["n_s", "n_b", "r_c2d_lower", "r_cs", "r_asymptotic", "advantage"]
        tasks = [
            ("fig2b", i, {"ns": float(ns), "nb": float(nb)})
            for i, (ns, nb) in enumerate(itertools.product(grid, grid))
        ]
    elif which == "3a":
        ns_grid = np.geomspace(1e-2, 1.0, 5)
        nb_grid = np.geomspace(0.1, 10.0, 5)
        columns = ["n_s", "n_b", "m", "p_c2d", "p_cs_helstrom", "ratio"]
        tasks = [
            ("fig3a", i, {"ns": float(ns), "nb": float(nb), "quad_tol": quad_tol})
            for i, (ns, nb) in enumerate(itertools.product(ns_grid, nb_grid))
        ]
    elif which == "4a":
        grid = np.geomspace(1e-6, 1.0, 25)
        columns = ["n_s", "qfi_c2d", "qfi_cs", "qfi_upper", "ratio_c2d", "ratio_upper"]
        tasks = [("fig4a", i, {"ns": float(ns)}) for i, ns in enumerate(grid)]
    elif which == "4b":
        grid = np.geomspace(1e-2, 10.0, 20)
        columns = ["n_s", "n_b", "ratio_c2d_cs"]
        tasks = [
            ("fig4b", i, {"ns": float(ns), "nb": float(nb)})
            for i, (ns, nb) in enumerate(itertools.product(grid, grid))
        ]
    elif which == "5a":
        grid = np.geomspace(1e-4, 1e-2, 9)
        columns = ["n_s", "c_classical", "c_ea", "chi_m1", "chi_m10000"]
        tasks = [
            ("fig5a", i, {"ns": float(ns), "quad_tol": quad_tol})
            for i, ns in enumerate(grid)
        ]
    elif which == "7a":
        m_grid = [int(round(v)) for v in np.geomspace(1e5, 1e7, 7)]
        columns = [
            "M",
            "p_c2d",
            "dolinar_rate",
            "dolinar_stderr",
            "p_pcr",
            "p_opar",
            "p_homodyne",
        ]
        tasks = [
            ("fig7a", i, {"m": m, "seed": config.seed, "quad_tol": quad_tol})
            for i, m in enumerate(m_grid)
        ]
    else:
        grid = np.geomspace(1e-4, 1e-2, 7)
        columns = [
            "n_s",
            "c_classical",
            "c_ea",
            "chi_m10000",
            "green_rate",
            "green_repetitions",
            "green_codeword",
            "i_opar",
            "i_pcr",
        ]
        tasks = [
            ("fig7c", i, {"ns": float(ns), "quad_tol": quad_tol})
            for i, ns in enumerate(grid)
        ]
    return columns, tasks


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


def _write_sidecar(config: SweepConfig, columns, n_rows: int, achieved) -> None:
    meta = {
        "subcommand": config.subcommand,
        "parameters": {
            "ns": list(config.ns),
            "nb": list(config.nb),
            "kappa": list(config.kappa),
            "m": list(config.m),
        },
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


def _emit_error(message: str, code: int) -> int:
    print(json.dumps({"error": str(message), "exit_status": code}), file=sys.stderr)
    return code


def run(config: SweepConfig, threads: int | None = None) -> int:
    """Execute one sweep and write its CSV + sidecar.

    Returns the process exit status: 0 on success, 1 when a grid point or
    the output path fails at runtime, including a quadrature that misses its
    tolerance and a photon-number tail that never closes.  Configuration
    errors are raised by the :class:`SweepConfig` constructor, not here.
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
    except (ValueError, OSError, QuadratureError, PhotonTailError) as exc:
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

    def add_common(p):
        p.add_argument("--config", help="JSON file with sweep settings")
        p.add_argument("--ns", help="source brightness grid")
        p.add_argument("--nb", help="background photon-number grid")
        p.add_argument("--kappa", help="transmissivity grid")
        p.add_argument("--m", help="mode-count grid")
        p.add_argument("--seed", type=int, help="64-bit seed for Monte Carlo points")
        p.add_argument("--quad-tol", type=float, help="quadrature tolerance")
        p.add_argument("--out", help="output CSV path")
        p.add_argument(
            "--threads",
            type=int,
            help=f"worker count (default: ${THREADS_ENV_VAR} or core count)",
        )

    add_common(sub.add_parser("illumination", help="target-detection sweep"))
    phase = sub.add_parser("phase", help="Fisher-information sweep")
    add_common(phase)
    phase.add_argument("--theta", type=float, help="encoded phase (default pi/2)")
    add_common(sub.add_parser("comm", help="communication-rate sweep"))
    pattern = sub.add_parser("pattern", help="pattern-classification exponents")
    add_common(pattern)
    pattern.add_argument("--subchannels", type=int, help="cells per pattern (default 3)")
    recv = sub.add_parser("receiver-sim", help="coherent-state receiver curves")
    add_common(recv)
    recv.add_argument("--receiver", choices=_RECEIVERS, help="receiver kind")
    recv.add_argument("--alpha", help="comma-separated complex amplitudes")
    recv.add_argument("--slices", type=int, help="time slices per measurement")
    recv.add_argument("--trials", type=int, help="Monte Carlo trials per amplitude")
    recv.add_argument("--noise-nb", type=float, help="thermal occupation of the noise")
    figures = sub.add_parser("figures", help="named sweep presets")
    add_common(figures)
    figures.add_argument("--which", help=f"preset id, one of {_FIGURE_PRESETS}")
    return parser


_FILE_KEYS = {"ns", "nb", "kappa", "m", "seed", "quad_tol", "out"}
_OPTION_FLAGS = {
    "phase": ("theta",),
    "pattern": ("subchannels",),
    "receiver-sim": ("receiver", "alpha", "slices", "trials", "noise_nb"),
    "figures": ("which",),
}


def _config_from_args(args) -> tuple[SweepConfig, int | None]:
    subcommand = args.subcommand
    option_keys = _OPTION_FLAGS.get(subcommand, ())
    settings: dict[str, Any] = {}
    options: dict[str, Any] = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in data.items():
            if key in _FILE_KEYS:
                settings[key] = value
            elif key in option_keys:
                options[key] = value
            else:
                raise ValueError(f"unknown config key {key!r} for {subcommand}")
    for key in ("ns", "nb", "kappa", "m", "seed", "out"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if args.quad_tol is not None:
        settings["quad_tol"] = args.quad_tol
    for key in option_keys:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    kwargs: dict[str, Any] = {"subcommand": subcommand, "options": options}
    for key in ("ns", "nb", "kappa", "m"):
        if key in settings:
            kwargs[key] = settings[key]
    if "seed" in settings:
        kwargs["seed"] = settings["seed"]
    if "quad_tol" in settings:
        kwargs["quad_tol"] = settings["quad_tol"]
    if "out" in settings:
        kwargs["output_path"] = settings["out"]
    return SweepConfig(**kwargs), args.threads


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
