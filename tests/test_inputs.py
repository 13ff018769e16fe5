"""Input rule of every public entry point.

Each public function (or public-class method) that takes the source
brightness ``n_s`` or the mode count ``m`` must reject a negative or
non-finite ``n_s`` and a mode count below 1 or non-finite with
``ValueError``.  The entry points are found by walking each module's
``__all__``, so a new one without a call template below fails here, and
so does a stale ``__all__`` name (the benchmark tracer wraps every name
of its layers' ``__all__`` by ``getattr``).
"""

import importlib
import inspect
import math

import numpy as np
import pytest

import entsense
from entsense import communication, conversion, discrimination, gaussian
from entsense import metrology, receivers, special
from entsense.communication import GreenMachineConfig
from entsense.gaussian import ChannelParams

NS, M = 1e-3, 10
CH = ChannelParams(kappa=0.1, theta=0.0, n_b=1.0)
PARAMS = conversion.conversion_params(NS, CH)
THETAS = (0.0, math.pi)

BAD = {
    "n_s": ((-1e-3, math.nan, math.inf), "n_s must be finite and nonnegative"),
    "m": ((0, -3, 2.5, math.nan), "m must be a positive integer"),
}


def _rng():
    return np.random.default_rng(0)


# entry point -> call at the valid point; its keyword parameters are the
# inputs under test
CALLS = {
    "special.sample_scaled_chi2": lambda m=M: special.sample_scaled_chi2(m, 0.1, _rng()),
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
        lambda n_s=NS, m=M: communication.holevo_c2d_bpsk(n_s, CH, m)
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


MODULES = [name for name in entsense.__all__ if name != "EntsenseError"]


@pytest.mark.parametrize("mod_name", MODULES)
def test_every_all_name_resolves(mod_name):
    module = importlib.import_module(f"entsense.{mod_name}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _checked_inputs(func) -> set[str]:
    return set(inspect.signature(func).parameters) & set(BAD)


def _entry_points() -> dict[str, set[str]]:
    """Public functions and public-class methods that take ``n_s`` or
    ``m``, keyed ``module.name`` or ``module.Class.method``, with the
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
    call()
    for arg in sorted(ENTRY_POINTS[name]):
        values, message = BAD[arg]
        for value in values:
            with pytest.raises(ValueError, match=message):
                call(**{arg: value})


@pytest.mark.parametrize("n_b", [-1e-3, math.nan, math.inf])
def test_channel_rejects_bad_n_b(n_b):
    with pytest.raises(ValueError, match="n_b must be finite and nonnegative"):
        ChannelParams(0.01, 0.0, n_b)
