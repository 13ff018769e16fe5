"""Input rule of every public entry point.

Each public function, public-class method and constructor that takes an
input named in ``entsense._RULES`` must raise ``ValueError`` naming it for
every value in ``BAD``: an occupation or squared displacement (``n_s``,
``x``, ``amp_sq``, ``e_noise``, ``xi``, ``noise_nb``, ``n_b``, ``amps``)
that is negative, infinite, NaN or boolean, or a stack with such an entry;
a fraction (``kappa``, ``p0``) outside [0, 1]; a phase (``theta``,
``thetas``) that is infinite, NaN or boolean; a tolerance (``quad_tol``,
``fd_step``) that is not positive and finite, or a tail mass
(``tail_tol``, ``tail_mass``) outside (0, 1]; a gain below 1; a count
(``m``, ``dim``, ``slices``, ``trials``, ``repetitions``,
``codeword_len``, ``num_modes``, ``subchannels``) that is fractional,
infinite, NaN, boolean or below 1, or a random-stream key (``root_seed``,
``stream_index``, ``trial``) below 0.  The functions and methods are
found by walking each module's ``__all__``, so a new one without a call
template below fails here, and so does a stale ``__all__`` name (the
benchmark tracer wraps every name of its layers' ``__all__`` by
``getattr``).  The constructors are listed in ``CONSTRUCTORS``.

The rules themselves are checked name by name against ``RANGES``, and the
README's input table against ``entsense._RULES``.
"""

import importlib
import inspect
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
RHO = fockstates.to_fock(fockstates.DisplacedThermal(0.1, 0.0), 20)

OCCUPATION = (-1e-3, math.nan, math.inf, True)
STACK = OCCUPATION + (np.array([0.5, math.nan]),)
FRACTION = (-1e-3, 1.5, math.nan, math.inf, np.True_)
PHASE = (math.nan, math.inf, -math.inf, True)
TOLERANCE = (0.0, -1e-6, math.nan, math.inf, True)
TAIL = (0.0, 2.0, math.nan, math.inf, True)
COUNT = (0, -3, 2.5, math.nan, math.inf, True)
KEY = (-1, 2.5, math.nan, math.inf, np.True_)
GAIN = (0.5, math.nan, math.inf, True)
# input name -> (values it must reject, the message they raise, as a pattern)
BAD = {
    name: (values, re.escape(f"{name} {message}"))
    for values, message, names in (
        (OCCUPATION, "must be finite and nonnegative", "n_s amp_sq e_noise xi noise_nb n_b"),
        (STACK, "must be finite and nonnegative", "x amps"),
        (FRACTION, "must be in [0, 1]", "kappa p0"),
        (PHASE, "must be finite", "theta"),
        (PHASE + (np.array([0.5, math.nan]),), "must be finite", "thetas"),
        (TOLERANCE, "must be finite and positive", "quad_tol fd_step"),
        (TAIL, "must be in (0, 1]", "tail_tol tail_mass"),
        (
            COUNT,
            "must be a positive integer",
            "m dim slices trials repetitions codeword_len num_modes subchannels",
        ),
        (KEY, "must be a nonnegative integer", "root_seed stream_index trial"),
        (GAIN, "must be finite and at least 1", "gain"),
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
        lambda amp_sq=0.5, e_noise=0.1, tail_tol=1e-9: fockstates.recommended_dim(
            amp_sq, e_noise, tail_tol
        )
    ),
    "fockstates.to_fock": (
        lambda dim=20, tail_tol=1e-9: fockstates.to_fock(
            fockstates.DisplacedThermal(0.1, 0.0), dim, tail_tol
        )
    ),
    "gaussian.symplectic_form": lambda num_modes=2: gaussian.symplectic_form(num_modes),
    "gaussian.tmsv": lambda n_s=NS: gaussian.tmsv(n_s),
    "conversion.conversion_params": lambda n_s=NS: conversion.conversion_params(n_s, CH),
    "conversion.simulate_conversion": (
        lambda n_s=NS, m=M: conversion.simulate_conversion(n_s, CH, m, _rng())
    ),
    "conversion.displacement_support": lambda m=M: conversion.displacement_support(PARAMS, m),
    "conversion.expect_total_displacement": (
        lambda m=M, quad_tol=1e-6: conversion.expect_total_displacement(
            PARAMS, m, np.exp, quad_tol
        )
    ),
    "discrimination.c2d_exponent_bounds": (
        lambda n_s=NS: discrimination.c2d_exponent_bounds(n_s, CH)
    ),
    "discrimination.lemma1_upper_bound": (
        lambda n_s=NS, m=M: discrimination.lemma1_upper_bound(n_s, CH, m)
    ),
    "discrimination.nair_gu_bound": lambda n_s=NS, m=M: discrimination.nair_gu_bound(n_s, CH, m),
    "discrimination.helstrom_numeric": (
        lambda p0=0.5: discrimination.helstrom_numeric(RHO, RHO, p0)
    ),
    "discrimination.p_c2d": (
        lambda n_s=NS, m=M, quad_tol=1e-6: discrimination.p_c2d(n_s, CH, m, quad_tol)
    ),
    "discrimination.p_classical_coherent": (
        lambda n_s=NS, m=M: discrimination.p_classical_coherent(n_s, CH, m)
    ),
    "discrimination.pattern_exponents": (
        lambda amps=(0.01,): discrimination.pattern_exponents(HYP, HYP, amps)
    ),
    "metrology.fi_homodyne": (
        lambda x=0.5, e_noise=0.1: metrology.fi_homodyne(x, e_noise, 1.0)
    ),
    "metrology.fi_opar": (
        lambda n_s=NS, m=M, theta=1.0, gain=None: metrology.fi_opar(n_s, CH, m, theta, gain)
    ),
    "metrology.fi_pcr": (
        lambda n_s=NS, m=M, theta=1.0, gain=2.0: metrology.fi_pcr(n_s, CH, m, theta, gain)
    ),
    "metrology.gaussian_qfi": (
        lambda theta=0.0, fd_step=1e-5: metrology.gaussian_qfi(
            lambda t: gaussian.GaussianState(1, [math.cos(t), 0.0], np.eye(2)), theta, fd_step
        )
    ),
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
        lambda n_s=NS, m=M, quad_tol=1e-6: communication.green_machine_optimal_n(
            n_s, CH, m, quad_tol
        )
    ),
    "communication.green_machine_optimize": (
        lambda n_s=NS, quad_tol=1e-6: communication.green_machine_optimize(n_s, CH, quad_tol)
    ),
    "communication.green_machine_rate": (
        lambda n_s=NS, quad_tol=1e-6: communication.green_machine_rate(
            n_s, CH, GreenMachineConfig(4, M), quad_tol
        )
    ),
    "communication.holevo_c2d_bpsk": (
        lambda n_s=NS, m=M, dim=None, tail_tol=1e-6: communication.holevo_c2d_bpsk(
            n_s, CH, m, dim, tail_tol
        )
    ),
    "communication.holevo_cpsk_conditional": (
        lambda x=0.5, e_noise=0.1, tail_mass=1e-12: communication.holevo_cpsk_conditional(
            x, e_noise, tail_mass
        )
    ),
    "communication.holevo_c2d_cpsk": (
        lambda n_s=NS, m=M, quad_tol=1e-6: communication.holevo_c2d_cpsk(n_s, CH, m, quad_tol)
    ),
    "communication.opar_photon_pmfs": (
        lambda n_s=NS, m=M, thetas=THETAS, gain=None: communication.opar_photon_pmfs(
            n_s, CH, m, thetas, gain
        )
    ),
    "communication.pcr_count_pmfs": (
        lambda n_s=NS, m=M, thetas=THETAS, gain=2.0: communication.pcr_count_pmfs(
            n_s, CH, m, thetas, gain
        )
    ),
    "receivers.opar_pe": lambda n_s=NS, m=M, gain=None: receivers.opar_pe(n_s, CH, m, gain),
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
    # its ``subchannels`` are (kappa, theta) pairs, not a count of them
    "discrimination.PatternHypothesis": (
        lambda kappa=0.3, theta=0.0, n_b=10.0: PatternHypothesis(
            ((0.5, 0.0), (kappa, theta)), n_b
        )
    ),
    "fockstates.DisplacedThermal": (
        lambda e_noise=0.1: fockstates.DisplacedThermal(0.5, e_noise)
    ),
    "fockstates.FockMatrix": (
        lambda dim=1, tail_tol=1e-9: fockstates.FockMatrix(dim, np.eye(1), tail_tol)
    ),
    "gaussian.ChannelParams": (
        lambda kappa=0.1, theta=0.0, n_b=1.0: ChannelParams(kappa, theta, n_b)
    ),
    "gaussian.GaussianState": (
        lambda num_modes=1: gaussian.GaussianState(num_modes, np.zeros(2), np.eye(2))
    ),
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
    fields = _checked_inputs(cls)
    if cls is PatternHypothesis:  # a bank of (kappa, theta) pairs
        fields = fields - {"subchannels"} | {"kappa", "theta"}
    assert _checked_inputs(make) == fields
    _assert_rejects_bad_inputs(make)


@pytest.mark.parametrize("n_b", [-1e-3, math.nan, math.inf])
def test_channel_rejects_bad_n_b(n_b):
    with pytest.raises(ValueError, match="n_b must be finite and nonnegative"):
        ChannelParams(0.01, 0.0, n_b)


@pytest.mark.parametrize("alpha", [math.nan, complex(0.0, math.inf), 1e200])
def test_displaced_thermal_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must have a finite"):
        fockstates.DisplacedThermal(alpha, 0.0)


MAX = sys.float_info.max
TINY = math.ulp(0.0)  # the least positive float
# input name -> (least, greatest) value its rule accepts; None: no greatest
RANGES = {
    **dict.fromkeys("n_s n_b e_noise noise_nb amp_sq xi x amps".split(), (0.0, MAX)),
    **dict.fromkeys(("kappa", "p0"), (0.0, 1.0)),
    **dict.fromkeys(("theta", "thetas"), (-MAX, MAX)),
    **dict.fromkeys(("quad_tol", "fd_step"), (TINY, MAX)),
    **dict.fromkeys(("tail_tol", "tail_mass"), (TINY, 1.0)),
    "gain": (1.0, MAX),
    **dict.fromkeys(
        "m dim slices trials repetitions codeword_len num_modes subchannels".split(), (1, None)
    ),
    **dict.fromkeys(("root_seed", "stream_index", "trial"), (0, None)),
}
STACKS = {"x", "amps", "thetas"}


def _check(name, value):
    return entsense._check_inputs(**{name: value})


def _outcome(name, value):
    """What the rule makes of ``value``: the checked value and its type, or
    the message it raises."""
    try:
        checked = _check(name, value)
    except ValueError as exc:
        return "rejects", str(exc)
    return checked, type(checked)


def test_ranges_and_bad_values_cover_the_rule_table():
    assert sorted(RANGES) == sorted(BAD) == sorted(entsense._RULES)


@pytest.mark.parametrize("name", sorted(RANGES))
def test_rule_accepts_its_bounds_and_numpy_scalars(name):
    low, high = RANGES[name]
    if high is None:  # a count or a key: an int of any integer or float type
        for value in (low, low + 1, 2**53):
            for given in (value, np.int64(value), float(value), np.float64(value)):
                assert _outcome(name, given) == (value, int)
    else:
        for value in (low, high, 0.5 * low + 0.5 * high):
            for given in (value, np.float64(value), np.array(value)):
                assert _outcome(name, given) == (value, float)
        for given in (1, np.int64(1), np.float32(1.0)):  # 1 lies in every range
            assert _outcome(name, given) == (1.0, float)


@pytest.mark.parametrize("name", sorted(RANGES))
def test_rule_rejects_non_finite_boolean_and_out_of_range(name):
    low, high = RANGES[name]
    if high is None:
        outside = (low - 1, low + 0.5)
    else:
        outside = (math.nextafter(low, -math.inf), math.nextafter(high, math.inf))
    for value in (math.nan, math.inf, -math.inf, True, np.True_, False, *outside):
        assert _outcome(name, value)[0] == "rejects", value
    assert name in _outcome(name, math.nan)[1]


@pytest.mark.parametrize("name", sorted(RANGES))
def test_only_stack_inputs_take_a_1d_array(name):
    low, high = RANGES[name]
    stack = np.array([low, low if high is None else high])
    if name in STACKS:
        checked = _check(name, stack)
        assert checked.dtype == float and checked.tolist() == stack.tolist()
        assert _check(name, []).tolist() == []
        for bad in ([low, math.nan], [low, math.inf], [[low]], [True, False]):
            assert _outcome(name, np.array(bad))[0] == "rejects", bad
    else:
        assert _outcome(name, stack)[0] == "rejects"


@pytest.mark.parametrize("name", sorted(RANGES))
@given(value=st.floats(allow_nan=True, allow_infinity=True))
def test_float_and_numpy_float_agree_with_the_range(name, value):
    """The rules' fast path for a Python float and their general path for an
    ``np.float64`` give one outcome, and it is the one ``RANGES`` states."""
    low, high = RANGES[name]
    outcome = _outcome(name, value)
    assert _outcome(name, np.float64(value)) == outcome
    if high is None:
        accepted = math.isfinite(value) and value >= low and value == int(value)
        expected = (int(value), int) if accepted else None
    else:
        accepted = low <= value <= high
        expected = (value, float) if accepted else None
    if accepted:
        assert outcome == expected
    else:
        assert outcome[0] == "rejects" and outcome[1].startswith(f"{name} must be")


def test_readme_input_table_lists_the_rule_table():
    """The README's input table and ``entsense._RULES`` name the same inputs,
    each once."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| inputs | rule |\n")[1].split("\n\n")[0]
    rows = table.splitlines()[1:]  # past the header's rule line
    names = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(names) == sorted(entsense._RULES)
