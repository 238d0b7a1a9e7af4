"""Receiver models.

Phase-conjugate receiver (PCR, entangled variant): the noisy return is
phase-conjugated by a low-gain two-mode squeezer seeded with vacuum, the
conjugate interferes with the stored idler on a 50:50 beamsplitter, and
the two outputs are photodetected in a balanced pair.  The difference
count carries the surviving signal-idler cross correlation and responds
as A cos(theta).

Balanced/homodyne receiver (HR, classical variant): the return mixes with
the retained reference arm directly on a 50:50 beamsplitter, same
balanced difference readout, same cosine response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian as g
from .protocol import ProtocolVariant, SensingScenario, build_receiver_input


class CalibrationError(ValueError):
    """The receiver's cosine amplitude is zero; estimators are undefined."""


@dataclass(frozen=True)
class ReceiverStats:
    """Per-mode statistics of the balanced difference count at the
    scenario's phase, with the calibration amplitude A = mean_diff(0)."""

    mean_diff: float
    var_diff: float
    calib_scale: float
    theta: float
    variant: ProtocolVariant
    scenario: SensingScenario
    arm_means: tuple[float, float]


def _difference_from_state(state: g.GaussianState, mode_a: str, mode_b: str):
    mean, var = g.difference_stats(state, mode_a, mode_b)
    arms = (g.photon_mean(state, mode_a), g.photon_mean(state, mode_b))
    return mean, var, arms


def _pcr_state(scenario: SensingScenario) -> g.GaussianState:
    state = build_receiver_input(scenario, ProtocolVariant.ENTANGLED)
    state = g.append_vacuum(state, "conj")
    # conjugate the return: conj <- sqrt(G) vac + sqrt(G-1) ret^dagger
    state = g.apply_two_mode_squeeze(state, "conj", "ret", scenario.G_pc)
    return g.apply_beamsplitter(state, "conj", "idler", 0.5)


def _hr_state(scenario: SensingScenario) -> g.GaussianState:
    state = build_receiver_input(scenario, ProtocolVariant.CLASSICAL_THERMAL)
    return g.apply_beamsplitter(state, "ret", "ref", 0.5)


def pcr_stats(scenario: SensingScenario) -> ReceiverStats:
    """Difference-count statistics of the phase-conjugate receiver."""
    mean, var, arms = _difference_from_state(_pcr_state(scenario), "conj", "idler")
    calib, _, _ = _difference_from_state(
        _pcr_state(scenario.with_(theta=0.0)), "conj", "idler"
    )
    if calib == 0.0:
        raise CalibrationError("PCR cosine amplitude is zero (no cross correlation)")
    return ReceiverStats(
        mean, var, calib, scenario.theta, ProtocolVariant.ENTANGLED, scenario, arms
    )


def hr_stats(scenario: SensingScenario) -> ReceiverStats:
    """Difference-count statistics of the balanced classical receiver."""
    mean, var, arms = _difference_from_state(_hr_state(scenario), "ret", "ref")
    calib, _, _ = _difference_from_state(
        _hr_state(scenario.with_(theta=0.0)), "ret", "ref"
    )
    if calib == 0.0:
        raise CalibrationError("HR cosine amplitude is zero (no cross correlation)")
    return ReceiverStats(
        mean,
        var,
        calib,
        scenario.theta,
        ProtocolVariant.CLASSICAL_THERMAL,
        scenario,
        arms,
    )


def receiver_stats(scenario: SensingScenario, variant: ProtocolVariant) -> ReceiverStats:
    if variant is ProtocolVariant.ENTANGLED:
        return pcr_stats(scenario)
    if variant is ProtocolVariant.CLASSICAL_THERMAL:
        return hr_stats(scenario)
    raise ValueError(f"no receiver model for variant {variant}")


def cosine_estimator(
    stats: ReceiverStats, m_pairs: int, total_diff_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scale aggregate difference counts (one per shot) into unbiased
    cosine estimates; the phase estimates are the clamped arccos (always in
    [0, pi], never a domain error).  Returns (cos_hat, theta_hat)."""
    if m_pairs < 1:
        raise ValueError("need at least one mode pair")
    if stats.calib_scale == 0.0:
        raise CalibrationError("cannot scale by a zero calibration amplitude")
    cos_hat = total_diff_counts / (m_pairs * stats.calib_scale)
    # math.acos, not np.arccos: the vectorised arccos can differ in the last bit.
    theta_hat = np.array([math.acos(min(1.0, max(-1.0, c))) for c in cos_hat.tolist()])
    return cos_hat, theta_hat


def theory_mse(stats: ReceiverStats, m_pairs: int, theta: float | None = None) -> tuple[float, float]:
    """(var_cos, var_theta) of the estimators built from M i.i.d. mode
    pairs.  var_theta comes from the delta method and is singular at
    theta in {0, pi}; it degrades already for |sin theta| < 0.1."""
    if m_pairs < 1:
        raise ValueError("need at least one mode pair")
    if stats.calib_scale == 0.0:
        raise CalibrationError("zero calibration amplitude")
    theta = stats.theta if theta is None else theta
    s = math.sin(theta)
    if s == 0.0:
        raise ValueError("delta method is singular at theta = 0 or pi")
    var_cos = stats.var_diff / (m_pairs * stats.calib_scale**2)
    return var_cos, var_cos / s**2
