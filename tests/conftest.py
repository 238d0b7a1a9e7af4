"""Shared helpers: truncated Fock-space oracle pipelines mirroring the
Gaussian receiver chains, used for cross-validation tests, and a
hypothesis strategy over the whole scenario domain."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from covertsense import fock as f
from covertsense.protocol import SensingScenario, split_thermal, tmsv


def oracle_receiver_input_entangled(sc: SensingScenario, cutoffs) -> f.FockState:
    """Fock-space mirror of build_receiver_inputs for the entangled variant:
    modes (ret, idler)."""
    st = f.from_gaussian(tmsv(sc.N_S, ("ret", "idler")), cutoffs)
    st = f.fock_phase(st, 0, sc.theta)
    st = f.fock_thermal_loss(st, 0, sc.kappa, sc.N_B)
    return f.fock_thermal_loss(st, 1, sc.kappa_I, 0.0)


def oracle_receiver_input_classical(sc: SensingScenario, cutoffs) -> f.FockState:
    """Fock-space mirror of build_receiver_inputs for the classical variant:
    modes (ret, ref)."""
    st = f.from_gaussian(split_thermal(sc.N_S, sc.N_R, ("ret", "ref")), cutoffs)
    st = f.fock_phase(st, 0, sc.theta)
    st = f.fock_thermal_loss(st, 0, sc.kappa, sc.N_B)
    return f.fock_thermal_loss(st, 1, sc.kappa_I, 0.0)


def oracle_pcr_stats(sc: SensingScenario, cutoffs) -> tuple[float, float, float]:
    """(mean_diff, var_diff, trace_deficit) of the phase-conjugate receiver
    evaluated entirely in truncated Fock space.  Modes: (ret, idler, conj)."""
    st = oracle_receiver_input_entangled(sc, cutoffs[:2])
    st = f.product_fock(st, f.vacuum_fock((cutoffs[2],)))
    st = f.fock_two_mode_squeeze(st, 2, 0, sc.G_pc)
    st = f.fock_beamsplitter(st, 2, 1, 0.5)
    mean, var = f.fock_difference_stats(st, 2, 1)
    return mean, var, st.trace_deficit


def oracle_hr_stats(sc: SensingScenario, cutoffs) -> tuple[float, float, float]:
    """(mean_diff, var_diff, trace_deficit) of the balanced classical
    receiver in truncated Fock space.  Modes: (ret, ref)."""
    st = oracle_receiver_input_classical(sc, cutoffs)
    st = f.fock_beamsplitter(st, 0, 1, 0.5)
    mean, var = f.fock_difference_stats(st, 0, 1)
    return mean, var, st.trace_deficit


def mixed_tol_err(value: float, reference: float) -> float:
    """Error scaled so one tolerance covers both tiny and large magnitudes."""
    return abs(value - reference) / (1.0 + abs(reference))


def rng_for(name: str) -> np.random.Generator:
    import zlib

    return np.random.default_rng(zlib.crc32(name.encode()))


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _rarely_zero(lo: float, hi: float):
    """10^e for e drawn from [lo - 1, hi], and 0 when e < lo: a zero is
    drawn often enough to be covered, but does not dominate the draws."""
    return st.floats(lo - 1.0, hi).map(lambda e: 0.0 if e < lo else 10.0**e)


# keyword arguments of a SensingScenario over its whole domain; some draws
# are refused (W*T < 1/2)
SCENARIO_PARAMS = st.fixed_dictionaries(
    {
        "N_S": _rarely_zero(-8.0, 1.0),
        "N_B": _rarely_zero(-6.0, 4.0),
        "kappa_T": _log_uniform(-3.0, 0.0),
        "kappa_E": _log_uniform(-3.0, 0.0),
        "kappa_I": _log_uniform(-3.0, 0.0),
        "W": _log_uniform(6.0, 10.0),
        "T": _log_uniform(-9.0, 0.0),
        "theta": st.floats(0.0, 2.0 * math.pi),
        "G_pc": st.floats(1.0, 10.0),
        "f_W": st.floats(0.0, 1.0, exclude_min=True),
        "N_R": _log_uniform(-3.0, 5.0),
    }
)
