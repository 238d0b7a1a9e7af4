"""Protocol states: entangled and classical probes, channel propagation,
and the adversary-side marginals.

Mode naming: the probe mode is "S" at the source and "ret" after the
channel; the retained mode is "idler" (entangled) or "ref" (classical).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import gaussian as g


class ProtocolVariant(enum.Enum):
    ENTANGLED = "entangled"
    CLASSICAL_THERMAL = "classical_thermal"


@dataclass(frozen=True)
class SensingScenario:
    """All parameters of one covert-sensing experiment point.

    N_R is the brightness of the classical protocol's retained reference
    arm.  The signal arm is capped at N_S photons/mode (what the adversary
    can see); the reference stays local, so a bright reference costs no
    covertness and puts the classical benchmark in its best (homodyne-like)
    regime.  Set N_R = N_S to recover a symmetric 50:50 split.
    """

    N_S: float = 8e-4
    N_B: float = 160.0
    kappa_T: float = 0.0165 / 0.36
    kappa_E: float = 0.36
    kappa_I: float = 1.0
    W: float = 1e9
    T: float = 125e-6
    theta: float = math.pi / 2
    G_pc: float = 1.1
    f_W: float = 1.0
    N_R: float = 1e4

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not math.isfinite(val):
                raise ValueError(f"{f.name} must be finite, got {val}")
        if self.N_S < 0 or self.N_B < 0 or self.N_R < 0:
            raise ValueError("photon numbers must be >= 0")
        for name in ("kappa_T", "kappa_E", "kappa_I", "f_W"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {val}")
        if self.W <= 0 or self.T <= 0:
            raise ValueError("bandwidth and interrogation time must be > 0")
        if self.G_pc < 1.0:
            raise ValueError("phase-conjugator gain must be >= 1")
        if self.M < 1:
            raise ValueError("W*T must round to at least one mode pair")

    @property
    def M(self) -> int:
        """Number of signal-idler mode pairs consumed, M = round(W*T)."""
        return int(round(self.W * self.T))

    @property
    def kappa(self) -> float:
        """Overall source-to-receiver transmissivity."""
        return self.kappa_T * self.kappa_E

    def with_(self, **kwargs) -> "SensingScenario":
        return replace(self, **kwargs)


def tmsv(n_s: float, labels: tuple[str, str] = ("S", "I")) -> g.GaussianState:
    """Two-mode squeezed vacuum with per-arm mean photon number n_s."""
    if n_s < 0:
        raise ValueError("per-mode photon number must be >= 0")
    vac = g.vacuum(labels)
    return g.apply_two_mode_squeeze(vac, labels[0], labels[1], 1.0 + n_s)


def split_thermal(
    n_signal: float, n_reference: float, labels: tuple[str, str] = ("S", "R")
) -> g.GaussianState:
    """Thermal source tapped into a signal arm of mean n_signal and a
    reference arm of mean n_reference.

    The joint state is classical: cov - I >= 0 for any brightnesses.
    """
    if n_signal < 0 or n_reference < 0:
        raise ValueError("per-mode photon numbers must be >= 0")
    eye = np.eye(2)
    cross = 2.0 * math.sqrt(n_signal * n_reference) * eye
    cov = np.block(
        [
            [(2.0 * n_signal + 1.0) * eye, cross],
            [cross, (2.0 * n_reference + 1.0) * eye],
        ]
    )
    return g.GaussianState(labels, cov)


def build_receiver_input(
    scenario: SensingScenario, variant: ProtocolVariant
) -> g.GaussianState:
    """State arriving at the receiver: phase-shifted probe through the
    lossy-noisy channel, plus the locally stored idler/reference.

    Modes: ("ret", "idler") for the entangled variant, ("ret", "ref") for
    the classical one.
    """
    sc = scenario
    if variant is ProtocolVariant.ENTANGLED:
        state = tmsv(sc.N_S, ("ret", "idler"))
        retained = "idler"
    elif variant is ProtocolVariant.CLASSICAL_THERMAL:
        state = split_thermal(sc.N_S, sc.N_R, ("ret", "ref"))
        retained = "ref"
    else:
        raise ValueError(f"unknown variant {variant}")
    state = g.apply_phase(state, "ret", sc.theta)
    state = g.apply_thermal_loss(state, "ret", sc.kappa, sc.N_B)
    return g.apply_thermal_loss(state, retained, sc.kappa_I, 0.0)


def willie_brightnesses(scenario: SensingScenario) -> tuple[float, float]:
    """(n0, n1): the adversary's per-mode thermal means without and with
    the probe.  Identical for both variants, whose signal-arm marginal is
    thermal with mean N_S."""
    n0 = scenario.N_B
    n1 = n0 + scenario.f_W * (1.0 - scenario.kappa_E) * scenario.kappa_T * scenario.N_S
    return n0, n1
