"""Input rule of every public entry point.

Each public function, public-class method and constructor that takes an
occupation or squared displacement (``n_s``, ``x``, ``amp_sq``,
``e_noise``, ``xi``, ``noise_nb``, ``n_b``, ``amps``) or a count (``m``,
``dim``, ``slices``, ``trials``, ``repetitions``, ``codeword_len`` and the
random-stream keys ``root_seed``, ``stream_index``, ``trial``) must raise
``ValueError`` naming it for every value in ``BAD``: an occupation that is
negative, infinite, NaN or boolean, or a stack with such an entry; a count
that is fractional, infinite, NaN, boolean or below 1 (below 0 for a
stream key).  The functions and methods are found by walking each
module's ``__all__``, so a new one without a call template below fails
here, and so does a stale ``__all__`` name (the benchmark tracer wraps
every name of its layers' ``__all__`` by ``getattr``).  The constructors
are listed in ``CONSTRUCTORS``.
"""

import importlib
import inspect
import math

import numpy as np
import pytest

import entsense
from entsense import communication, conversion, discrimination, gaussian
from entsense import fockstates, metrology, receivers, special
from entsense.communication import GreenMachineConfig
from entsense.discrimination import PatternHypothesis
from entsense.gaussian import ChannelParams

NS, M = 1e-3, 10
CH = ChannelParams(kappa=0.1, theta=0.0, n_b=1.0)
PARAMS = conversion.conversion_params(NS, CH)
THETAS = (0.0, math.pi)

HYP = PatternHypothesis(((0.3, 0.0),), 10.0)

OCCUPATION = (-1e-3, math.nan, math.inf, True)
STACK = OCCUPATION + (np.array([0.5, math.nan]),)
COUNT = (0, -3, 2.5, math.nan, math.inf, True)
KEY = (-1, 2.5, math.nan, math.inf, np.True_)
# input name -> (values it must reject, the message they raise)
BAD = {
    name: (values, f"{name} {message}")
    for values, message, names in (
        (OCCUPATION, "must be finite and nonnegative", "n_s amp_sq e_noise xi noise_nb n_b"),
        (STACK, "must be finite and nonnegative", "x amps"),
        (COUNT, "must be a positive integer", "m dim slices trials repetitions codeword_len"),
        (KEY, "must be a nonnegative integer", "root_seed stream_index trial"),
    )
    for name in names.split()
}


def _rng():
    return np.random.default_rng(0)


# entry point -> call at the valid point; its keyword parameters are the
# inputs under test
CALLS = {
    "special.sample_scaled_chi2": (
        lambda m=M, xi=0.1: special.sample_scaled_chi2(m, xi, _rng())
    ),
    "special.RngStream.trial_generator": (
        lambda trial=3: special.RngStream(1).trial_generator(trial)
    ),
    "fockstates.dephased_pmf": (
        lambda x=0.5, e_noise=0.1: fockstates.dephased_pmf(x, e_noise, 3)
    ),
    "fockstates.displaced_thermal_matrix": (
        lambda x=0.5, e_noise=0.1, dim=4: fockstates.displaced_thermal_matrix(x, e_noise, dim)
    ),
    "fockstates.recommended_dim": (
        lambda amp_sq=0.5, e_noise=0.1: fockstates.recommended_dim(amp_sq, e_noise)
    ),
    "fockstates.to_fock": (
        lambda dim=20: fockstates.to_fock(fockstates.DisplacedThermal(0.1, 0.0), dim)
    ),
    "gaussian.tmsv": lambda n_s=NS: gaussian.tmsv(n_s),
    "conversion.conversion_params": lambda n_s=NS: conversion.conversion_params(n_s, CH),
    "conversion.simulate_conversion": (
        lambda n_s=NS, m=M: conversion.simulate_conversion(n_s, CH, m, _rng())
    ),
    "conversion.displacement_support": lambda m=M: conversion.displacement_support(PARAMS, m),
    "conversion.expect_total_displacement": (
        lambda m=M: conversion.expect_total_displacement(PARAMS, m, np.exp)
    ),
    "discrimination.c2d_exponent_bounds": (
        lambda n_s=NS: discrimination.c2d_exponent_bounds(n_s, CH)
    ),
    "discrimination.lemma1_upper_bound": (
        lambda n_s=NS, m=M: discrimination.lemma1_upper_bound(n_s, CH, m)
    ),
    "discrimination.nair_gu_bound": lambda n_s=NS, m=M: discrimination.nair_gu_bound(n_s, CH, m),
    "discrimination.p_c2d": lambda n_s=NS, m=M: discrimination.p_c2d(n_s, CH, m),
    "discrimination.p_classical_coherent": (
        lambda n_s=NS, m=M: discrimination.p_classical_coherent(n_s, CH, m)
    ),
    "discrimination.pattern_exponents": (
        lambda amps=(0.01,): discrimination.pattern_exponents(HYP, HYP, amps)
    ),
    "metrology.fi_homodyne": (
        lambda x=0.5, e_noise=0.1: metrology.fi_homodyne(x, e_noise, 1.0)
    ),
    "metrology.fi_opar": lambda n_s=NS, m=M: metrology.fi_opar(n_s, CH, m, 1.0),
    "metrology.fi_pcr": lambda n_s=NS, m=M: metrology.fi_pcr(n_s, CH, m, 1.0),
    "metrology.opar_optimal_gain": lambda n_s=NS: metrology.opar_optimal_gain(n_s, CH),
    "metrology.qfi_c2d": lambda n_s=NS, m=M: metrology.qfi_c2d(n_s, CH, m),
    "metrology.qfi_cs": lambda n_s=NS, m=M: metrology.qfi_cs(n_s, CH, m),
    "metrology.qfi_tmsv": lambda n_s=NS, m=M: metrology.qfi_tmsv(n_s, CH, m),
    "metrology.qfi_upper_bound": lambda n_s=NS, m=M: metrology.qfi_upper_bound(n_s, CH, m),
    "communication.capacity_classical": (
        lambda n_s=NS: communication.capacity_classical(n_s, CH)
    ),
    "communication.capacity_ea": lambda n_s=NS: communication.capacity_ea(n_s, CH),
    "communication.green_machine_optimal_n": (
        lambda n_s=NS, m=M: communication.green_machine_optimal_n(n_s, CH, m)
    ),
    "communication.green_machine_optimize": (
        lambda n_s=NS: communication.green_machine_optimize(n_s, CH)
    ),
    "communication.green_machine_rate": (
        lambda n_s=NS: communication.green_machine_rate(n_s, CH, GreenMachineConfig(4, M))
    ),
    "communication.holevo_c2d_bpsk": (
        lambda n_s=NS, m=M, dim=None: communication.holevo_c2d_bpsk(n_s, CH, m, dim)
    ),
    "communication.holevo_cpsk_conditional": (
        lambda x=0.5, e_noise=0.1: communication.holevo_cpsk_conditional(x, e_noise)
    ),
    "communication.holevo_c2d_cpsk": (
        lambda n_s=NS, m=M: communication.holevo_c2d_cpsk(n_s, CH, m)
    ),
    "communication.opar_photon_pmfs": (
        lambda n_s=NS, m=M: communication.opar_photon_pmfs(n_s, CH, m, THETAS)
    ),
    "communication.pcr_count_pmfs": (
        lambda n_s=NS, m=M: communication.pcr_count_pmfs(n_s, CH, m, THETAS)
    ),
    "receivers.opar_pe": lambda n_s=NS, m=M: receivers.opar_pe(n_s, CH, m),
    "receivers.pcr_pe": lambda n_s=NS, m=M: receivers.pcr_pe(n_s, CH, m),
}

# public constructor -> construction at the valid point, as in CALLS
CONSTRUCTORS = {
    "communication.GreenMachineConfig": (
        lambda codeword_len=4, repetitions=M: GreenMachineConfig(codeword_len, repetitions)
    ),
    "conversion.ConversionParams": (
        lambda xi=PARAMS.xi, e_noise=PARAMS.e_noise: conversion.ConversionParams(
            PARAMS.v_m, PARAMS.c_p, xi, e_noise
        )
    ),
    "discrimination.PatternHypothesis": lambda n_b=10.0: PatternHypothesis(((0.3, 0.0),), n_b),
    "fockstates.DisplacedThermal": (
        lambda e_noise=0.1: fockstates.DisplacedThermal(0.5, e_noise)
    ),
    "fockstates.FockMatrix": lambda dim=1: fockstates.FockMatrix(dim, np.eye(1)),
    "gaussian.ChannelParams": lambda n_b=1.0: ChannelParams(0.1, 0.0, n_b),
    "receivers.DolinarConfig": (
        lambda slices=10, trials=100, noise_nb=0.1: receivers.DolinarConfig(
            slices, trials, noise_nb
        )
    ),
    "special.RngStream": (
        lambda root_seed=1, stream_index=0: special.RngStream(root_seed, stream_index)
    ),
}


MODULES = [name for name in entsense.__all__ if name != "EntsenseError"]


@pytest.mark.parametrize("mod_name", MODULES)
def test_every_all_name_resolves(mod_name):
    module = importlib.import_module(f"entsense.{mod_name}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _checked_inputs(func) -> set[str]:
    return set(inspect.signature(func).parameters) & set(BAD)


def _entry_points() -> dict[str, set[str]]:
    """Public functions and public-class methods that take an input named
    in ``BAD``, keyed ``module.name`` or ``module.Class.method``, with the
    inputs they take."""
    found = {}
    for mod_name in MODULES:
        module = importlib.import_module(f"entsense.{mod_name}")
        for name in module.__all__:
            obj = getattr(module, name, None)
            members = [(f"{mod_name}.{name}", obj)]
            if inspect.isclass(obj):
                members = [
                    (f"{mod_name}.{name}.{attr}", getattr(member, "__func__", member))
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                ]
            for key, func in members:
                if inspect.isfunction(func) and _checked_inputs(func):
                    found[key] = _checked_inputs(func)
    return found


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("name", sorted(set(CALLS) | set(ENTRY_POINTS)))
def test_entry_point_rejects_bad_n_s_and_m(name):
    assert name in ENTRY_POINTS, f"{name} has a call template but no public entry point"
    assert name in CALLS, f"public entry point {name} has no call template"
    call = CALLS[name]
    assert _checked_inputs(call) == ENTRY_POINTS[name]
    _assert_rejects_bad_inputs(call)


def _assert_rejects_bad_inputs(call):
    call()
    for arg in sorted(_checked_inputs(call)):
        values, message = BAD[arg]
        for value in values:
            with pytest.raises(ValueError, match=message):
                call(**{arg: value})


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_rejects_bad_fields(name):
    module_name, cls_name = name.split(".")
    cls = getattr(importlib.import_module(f"entsense.{module_name}"), cls_name)
    make = CONSTRUCTORS[name]
    assert _checked_inputs(make) == _checked_inputs(cls)
    _assert_rejects_bad_inputs(make)


@pytest.mark.parametrize("n_b", [-1e-3, math.nan, math.inf])
def test_channel_rejects_bad_n_b(n_b):
    with pytest.raises(ValueError, match="n_b must be finite and nonnegative"):
        ChannelParams(0.01, 0.0, n_b)


@pytest.mark.parametrize("alpha", [math.nan, complex(0.0, math.inf), 1e200])
def test_displaced_thermal_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must have a finite"):
        fockstates.DisplacedThermal(alpha, 0.0)
