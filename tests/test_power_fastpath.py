"""Bit-for-bit parity of the scalar power path with the code it replaced.

The scalar physics clamps with :func:`repro.hardware.power_model.clamp`
instead of ``float(np.clip(...))``, evaluates the frequency-independent
power terms once per P-state walk, and shares one definition between
``package_power``, ``CpuPackage.power_at`` and the walk.  Each property
below compares against a reference kept here, with exact equality.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import power_model as pm
from repro.hardware.cpu import CpuPackage, CpuSpec
from repro.hardware.power_model import PowerModelParams
from repro.hardware.variation import VariationDraw
from repro.hardware.workload import PhaseDemand

SPEC = CpuSpec()


def bits(value: float) -> bytes:
    """The IEEE-754 encoding, so NaN and the sign of zero compare exactly."""
    return struct.pack("<d", value)


# -- the clamp ----------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               -2.2250738585072009e-308, 1.0, -1.0, math.inf, -math.inf]
clamp_values = st.one_of(st.sampled_from(EDGE_FLOATS + [math.nan, -math.nan]), st.floats())
clamp_bounds = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(value=clamp_values, a=clamp_bounds, b=clamp_bounds)
def test_clamp_equals_numpy_clip(value, a, b):
    low, high = min(a, b), max(a, b)
    got = pm.clamp(value, low, high)
    assert type(got) is float
    assert bits(got) == bits(float(np.clip(value, low, high)))


def test_clamp_returns_float_for_int_bounds():
    assert bits(pm.clamp(-3.0, 0, 10)) == bits(float(np.clip(-3.0, 0, 10)))
    assert type(pm.clamp(12, 0, 10)) is float


# -- the package power formula before the fast path -----------------------------

def old_voltage_at_frequency(freq, fmin, fmax, params):
    frac = (freq - fmin) / (fmax - fmin)
    frac = float(np.clip(frac, 0.0, 1.0))
    return params.v_min + (params.v_max - params.v_min) * frac


def old_core_dynamic_power(freq, fmin, fmax, cores, activity, params, eff=1.0):
    volt = old_voltage_at_frequency(freq, fmin, fmax, params)
    per_core = params.core_capacitance * activity * volt * volt * freq
    return float(per_core * cores * eff)


def old_uncore_power(uncore, umin, umax, intensity, params):
    frac = float(np.clip((uncore - umin) / (umax - umin), 0.0, 1.0))
    utilization = 0.3 + 0.7 * float(np.clip(intensity, 0.0, 1.0))
    dynamic = (params.uncore_max_power - params.uncore_idle_power) * frac * utilization
    return params.uncore_idle_power + dynamic


def old_dram_power(intensity, params):
    intensity = float(np.clip(intensity, 0.0, 1.0))
    return params.dram_idle_power + (params.dram_max_power - params.dram_idle_power) * intensity


def old_static_power(temperature, params):
    delta = temperature - params.ref_temperature
    return params.static_power * max(0.2, 1.0 + params.leakage_temp_coeff * delta)


def old_package_power(demand, freq, uncore, cores, fmin, fmax, umin, umax, params,
                      eff=1.0, temperature=None):
    busy_weight = (
        demand.core_fraction * 1.0
        + demand.memory_fraction * 0.55
        + demand.comm_fraction * 0.35
        + demand.other_fraction * 0.4
    )
    activity = demand.activity_factor * busy_weight
    p_core = old_core_dynamic_power(freq, fmin, fmax, cores, activity, params, eff)
    p_uncore = old_uncore_power(uncore, umin, umax, demand.dram_intensity, params)
    temp = params.ref_temperature if temperature is None else temperature
    p_static = old_static_power(temp, params)
    p_dram = old_dram_power(demand.dram_intensity, params)
    return p_core + p_uncore + p_static + p_dram


def old_power_at(pkg, demand, freq, cores):
    """``CpuPackage.power_at`` before the fast path, from public state only."""
    spec = pkg.spec
    temperature = pkg.thermal.temperature_c
    base = old_package_power(
        demand, freq, pkg.uncore_ghz, cores, spec.freq_min_ghz, pkg.max_frequency_ghz,
        spec.uncore_min_ghz, spec.uncore_max_ghz, spec.params,
        eff=pkg.variation.power_efficiency, temperature=temperature,
    )
    return base + old_static_power(temperature, spec.params) * (pkg.variation.leakage_scale - 1.0)


# -- strategies -----------------------------------------------------------------

@st.composite
def demands(draw):
    core = draw(st.floats(0.0, 1.0))
    memory = draw(st.floats(0.0, 1.0 - core))
    comm = draw(st.floats(0.0, max(0.0, 1.0 - core - memory)))
    return PhaseDemand(
        "phase",
        draw(st.floats(0.0, 10.0)),
        core_fraction=core,
        memory_fraction=memory,
        comm_fraction=comm,
        activity_factor=draw(st.floats(0.0, 1.5)),
        dram_intensity=draw(st.floats(0.0, 1.0)),
    )


variations = st.builds(
    VariationDraw,
    power_efficiency=st.floats(0.7, 1.4),
    max_turbo_scale=st.floats(0.85, 1.1),
    leakage_scale=st.floats(0.5, 1.8),
)
params_st = st.builds(
    PowerModelParams,
    v_min=st.floats(0.5, 0.8),
    v_max=st.floats(0.9, 1.3),
    core_capacitance=st.floats(0.5, 6.0),
    static_power=st.floats(0.0, 40.0),
    leakage_temp_coeff=st.floats(0.0, 0.02),
    uncore_max_power=st.floats(10.0, 40.0),
    uncore_idle_power=st.floats(0.0, 10.0),
    dram_max_power=st.floats(10.0, 50.0),
    dram_idle_power=st.floats(0.0, 10.0),
)


def make_package(variation, freq, uncore, cap, temperature):
    pkg = CpuPackage(SPEC, variation=variation)
    pkg.set_frequency(freq)
    pkg.set_uncore_frequency(uncore)
    pkg.set_power_cap(cap)
    pkg.thermal.reset(temperature)
    return pkg


package_settings = dict(
    variation=variations,
    freq=st.floats(0.5, 4.0),
    uncore=st.floats(1.0, 2.6),
    cap=st.one_of(st.none(), st.floats(60.0, 220.0)),
    temperature=st.floats(20.0, 100.0),
)


# -- properties -----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    demand=demands(),
    freq=st.floats(0.5, 4.5),
    uncore=st.floats(0.8, 3.0),
    cores=st.integers(0, 64),
    fmin=st.floats(0.8, 1.5),
    span=st.floats(0.1, 3.0),
    params=st.one_of(st.just(PowerModelParams()), params_st),
    eff=st.floats(0.7, 1.4),
    temperature=st.one_of(st.none(), st.floats(-20.0, 120.0)),
)
def test_package_power_matches_old_formula(demand, freq, uncore, cores, fmin, span,
                                           params, eff, temperature):
    args = (demand, freq, uncore, cores, fmin, fmin + span, 1.2, 2.4, params)
    expected = old_package_power(*args, eff=eff, temperature=temperature)
    got = pm.package_power(*args, efficiency_multiplier=eff, temperature_c=temperature)
    assert bits(got) == bits(expected)


@settings(max_examples=200, deadline=None)
@given(demand=demands(), active_cores=st.one_of(st.none(), st.integers(0, 60)),
       probe=st.floats(0.5, 4.0), **package_settings)
def test_power_at_matches_old_formula(demand, active_cores, probe, variation, freq,
                                      uncore, cap, temperature):
    pkg = make_package(variation, freq, uncore, cap, temperature)
    cores = SPEC.cores if active_cores is None else min(active_cores, SPEC.cores)
    assert bits(pkg.power_at(demand, active_cores=active_cores)) == bits(
        old_power_at(pkg, demand, pkg.frequency_ghz, cores))
    assert bits(pkg.power_at(demand, freq_ghz=probe, active_cores=active_cores)) == bits(
        old_power_at(pkg, demand, probe, cores))


def reference_effective_frequency(pkg, demand, active_cores):
    """The walk before the fast path: one full ``power_at`` per P-state."""
    target = pkg.frequency_ghz
    cap = pkg.power_cap_w
    candidates = [p.frequency_ghz for p in pkg.pstates if p.frequency_ghz <= target + 1e-9]
    if not candidates:
        candidates = [pkg.spec.freq_min_ghz]
    for freq in candidates:
        if pkg.power_at(demand, freq_ghz=freq, active_cores=active_cores) <= cap + 1e-9:
            return freq, freq < target - 1e-9
    return candidates[-1], True


@settings(max_examples=300, deadline=None)
@given(demand=demands(), active_cores=st.one_of(st.none(), st.integers(0, 60)),
       **package_settings)
def test_effective_frequency_matches_per_pstate_walk(demand, active_cores, variation,
                                                     freq, uncore, cap, temperature):
    pkg = make_package(variation, freq, uncore, cap, temperature)
    got = pkg.effective_frequency(demand, active_cores=active_cores)
    expected = reference_effective_frequency(pkg, demand, active_cores)
    assert (bits(got[0]), got[1]) == (bits(expected[0]), expected[1])
