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
from typing import Sequence

import numpy as np

from . import gaussian as g
from .protocol import ProtocolVariant, SensingScenario, build_receiver_inputs


class CalibrationError(ValueError):
    """The receiver's cosine amplitude is zero; estimators are undefined."""


@dataclass(frozen=True)
class ReceiverStats:
    """Per-mode statistics of the balanced difference count at the
    scenario's phase, with the nonzero calibration amplitude A = mean_diff(0)."""

    mean_diff: float
    var_diff: float
    calib_scale: float
    variant: ProtocolVariant
    scenario: SensingScenario
    arm_means: tuple[float, float]

    def __post_init__(self) -> None:
        if self.calib_scale == 0.0:
            name = _RECEIVERS[self.variant][0]
            raise CalibrationError(f"{name} cosine amplitude is zero (no cross correlation)")

    @property
    def var_cos(self) -> float:
        """Variance of the cosine estimator from the scenario's M mode pairs."""
        return self.var_diff / (self.scenario.M * self.calib_scale**2)

    @property
    def var_theta(self) -> float:
        """Delta-method variance of the phase estimator, var_cos / sin^2(theta):
        inf at sin(theta) = 0, and already unreliable for |sin theta| < 0.1."""
        s = math.sin(self.scenario.theta)
        return math.inf if s == 0.0 else self.var_cos / s**2


def _pcr_states(scenarios: list[SensingScenario], thetas: list[float]) -> g.GaussianState:
    state = build_receiver_inputs(scenarios, ProtocolVariant.ENTANGLED, thetas)
    state = g.tensor(state, g.vacuum(("conj",)))
    # conjugate the return: conj <- sqrt(G) vac + sqrt(G-1) ret^dagger
    state = g.apply_two_mode_squeeze(state, "conj", "ret", [sc.G_pc for sc in scenarios])
    return g.apply_beamsplitter(state, "conj", "idler", 0.5)


def _hr_states(scenarios: list[SensingScenario], thetas: list[float]) -> g.GaussianState:
    state = build_receiver_inputs(scenarios, ProtocolVariant.CLASSICAL_THERMAL, thetas)
    return g.apply_beamsplitter(state, "ret", "ref", 0.5)


# variant -> (receiver name, receiver state builder, detected mode pair)
_RECEIVERS = {
    ProtocolVariant.ENTANGLED: ("PCR", _pcr_states, ("conj", "idler")),
    ProtocolVariant.CLASSICAL_THERMAL: ("HR", _hr_states, ("ret", "ref")),
}


def stacked_receiver_stats(
    scenarios: Sequence[SensingScenario], variant: ProtocolVariant
) -> list[ReceiverStats | Exception]:
    """Difference-count statistics of the variant's receiver for each
    scenario, calibrated by a second pass at theta = 0.  Both passes build
    every scenario's receiver state in one stack.  Entry k is scenario k's
    ReceiverStats, or the exception that stopped it: its first failed
    gate, the theta pass before the theta = 0 pass, then a zero
    calibration.

    A stack raises on a failure in any slice, so when a pass fails (a
    ValueError such as StateError or LinAlgError, or a RuntimeWarning
    where warnings are errors), each scenario is run again alone, and only
    the scenarios that fail alone get an exception."""
    scenarios = list(scenarios)
    _, states_of, (mode_a, mode_b) = _RECEIVERS[variant]
    try:
        at_theta = states_of(scenarios, [sc.theta for sc in scenarios])
        at_zero = states_of(scenarios, [0.0] * len(scenarios))
    except (ValueError, RuntimeWarning) as exc:
        if len(scenarios) == 1:
            return [exc]
        return [out for sc in scenarios for out in stacked_receiver_stats([sc], variant)]
    mean, var = g.difference_stats(at_theta, mode_a, mode_b)
    arm_a, arm_b = g.photon_mean(at_theta, mode_a), g.photon_mean(at_theta, mode_b)
    calib, _ = g.difference_stats(at_zero, mode_a, mode_b)
    out: list[ReceiverStats | Exception] = []
    for k, sc in enumerate(scenarios):
        try:
            out.append(ReceiverStats(mean[k], var[k], calib[k], variant, sc, (arm_a[k], arm_b[k])))
        except CalibrationError as exc:
            out.append(exc)
    return out


def receiver_stats(scenario: SensingScenario, variant: ProtocolVariant) -> ReceiverStats:
    """The one-scenario case of `stacked_receiver_stats`: raises what stopped
    the scenario's statistics."""
    (stats,) = stacked_receiver_stats([scenario], variant)
    if isinstance(stats, Exception):
        raise stats
    return stats


def pcr_stats(scenario: SensingScenario) -> ReceiverStats:
    """Difference-count statistics of the phase-conjugate receiver."""
    return receiver_stats(scenario, ProtocolVariant.ENTANGLED)


def hr_stats(scenario: SensingScenario) -> ReceiverStats:
    """Difference-count statistics of the balanced classical receiver."""
    return receiver_stats(scenario, ProtocolVariant.CLASSICAL_THERMAL)


def cosine_estimator(
    stats: ReceiverStats, total_diff_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scale aggregate difference counts over the scenario's M mode pairs
    (one per shot) into unbiased cosine estimates and their clamped arccos
    (in [0, pi], never a domain error).  Returns (cos_hat, theta_hat)."""
    cos_hat = total_diff_counts / (stats.scenario.M * stats.calib_scale)
    # math.acos, not np.arccos: the vectorised arccos can differ in the last bit.
    clamped = np.clip(cos_hat, -1.0, 1.0).tolist()
    theta_hat = np.fromiter(map(math.acos, clamped), np.float64, count=len(clamped))
    return cos_hat, theta_hat
