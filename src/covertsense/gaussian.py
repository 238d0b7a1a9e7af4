"""Symplectic phase-space engine for multimode Gaussian states.

Conventions (fixed once, tested everywhere):

* Quadratures obey ``[x, p] = 2i``, so the vacuum covariance matrix is the
  identity and a thermal state of mean photon number ``n`` has covariance
  ``(2n + 1) I``.
* Vectors are ordered ``(x1, p1, ..., xn, pn)``.
* Photon number of mode ``i``: ``n_i = (tr V_i - 2)/4`` where ``V_i`` is the
  mode's 2x2 covariance block.
* States have zero mean, so a state is its covariance matrix alone: both
  probes and the thermal background start at zero mean, and every gate
  here is linear in the quadratures, so it keeps the mean at zero.

All operations are pure: they return new states and never mutate inputs.
Every `GaussianState` is validated on construction (symmetry and the
uncertainty relation), gate outputs included, so no operation can hand
back an unphysical intermediate state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SYMMETRY_TOL = 1e-10
UNCERTAINTY_TOL = 1e-9


class StateError(ValueError):
    """Raised when a covariance matrix is not a valid state."""


class ModeError(ValueError):
    """Raised when an operation references a mode that does not exist."""


def omega(n_modes: int) -> np.ndarray:
    """Standard symplectic form for n modes in (x1, p1, ...) ordering."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block
    return out


@functools.cache
def _i_omega(n_modes: int) -> np.ndarray:
    """Read-only i*omega(n), the constant of every state validation."""
    out = 1j * omega(n_modes)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GaussianState:
    """A zero-mean Gaussian state: labeled modes and a covariance matrix."""

    mode_labels: tuple[str, ...]
    cov: np.ndarray

    def __post_init__(self):
        labels = tuple(self.mode_labels)
        object.__setattr__(self, "mode_labels", labels)
        if len(set(labels)) != len(labels):
            raise ModeError(f"duplicate mode labels: {labels}")
        n = len(labels)
        cov = np.asarray(self.cov, dtype=float).reshape(2 * n, 2 * n)
        object.__setattr__(self, "cov", cov)
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL * scale:
            raise StateError("covariance matrix is not symmetric")
        herm = cov + _i_omega(n)
        min_eig = float(np.min(np.linalg.eigvalsh(herm)))
        if min_eig < -UNCERTAINTY_TOL * scale:
            raise StateError(
                f"covariance violates the uncertainty relation (min eig {min_eig:.3e})"
            )

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def mode_index(self, label: str) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise ModeError(f"unknown mode {label!r}; have {self.mode_labels}") from None

    def mode_block(self, label: str) -> np.ndarray:
        """Covariance restricted to one mode."""
        i = 2 * self.mode_index(label)
        return self.cov[i : i + 2, i : i + 2].copy()

    def cross_block(self, label_a: str, label_b: str) -> np.ndarray:
        ia, ib = 2 * self.mode_index(label_a), 2 * self.mode_index(label_b)
        return self.cov[ia : ia + 2, ib : ib + 2].copy()


def vacuum(mode_labels: Sequence[str]) -> GaussianState:
    """Vacuum state on the given modes."""
    labels = tuple(mode_labels)
    n = len(labels)
    return GaussianState(labels, np.eye(2 * n))


def thermal(mean_photons: float, label: str = "m0") -> GaussianState:
    """Single-mode thermal state of the given mean photon number."""
    if mean_photons < 0:
        raise ValueError("mean photon number must be >= 0")
    return GaussianState((label,), (2 * mean_photons + 1) * np.eye(2))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two disjoint registers."""
    if set(a.mode_labels) & set(b.mode_labels):
        raise ModeError("mode labels overlap")
    n = a.n_modes + b.n_modes
    cov = np.zeros((2 * n, 2 * n))
    cov[: 2 * a.n_modes, : 2 * a.n_modes] = a.cov
    cov[2 * a.n_modes :, 2 * a.n_modes :] = b.cov
    return GaussianState(a.mode_labels + b.mode_labels, cov)


def _gate(state: GaussianState, labels: Sequence[str], small: np.ndarray) -> GaussianState:
    """Apply a symplectic acting on `labels`, expanded to the full mode set."""
    S = np.eye(2 * state.n_modes)
    starts = [2 * state.mode_index(lab) for lab in labels]
    for a, i in enumerate(starts):
        for b, j in enumerate(starts):
            S[i : i + 2, j : j + 2] = small[2 * a : 2 * a + 2, 2 * b : 2 * b + 2]
    return GaussianState(state.mode_labels, S @ state.cov @ S.T)


def phase_symplectic(theta: float) -> np.ndarray:
    """Phase-space rotation for a -> exp(i theta) a."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def beamsplitter_symplectic(transmissivity: float) -> np.ndarray:
    """Two-mode beamsplitter: a -> sqrt(eta) a + sqrt(1-eta) b."""
    t, r = np.sqrt(transmissivity), np.sqrt(1.0 - transmissivity)
    # the entries, signed zeros included, of [[t I, r I], [-r I, t I]]
    return np.array(
        [[t, 0.0, r, 0.0], [0.0, t, 0.0, r], [-r, -0.0, t, 0.0], [-0.0, -r, 0.0, t]]
    )


def two_mode_squeeze_symplectic(gain: float) -> np.ndarray:
    """Two-mode squeezer: a -> sqrt(G) a + sqrt(G-1) b^dagger."""
    g, h = np.sqrt(gain), np.sqrt(gain - 1.0)
    # the entries, signed zeros included, of [[g I, h Z], [h Z, g I]], Z = diag(1, -1)
    return np.array(
        [[g, 0.0, h, 0.0], [0.0, g, 0.0, -h], [h, 0.0, g, 0.0], [0.0, -h, 0.0, g]]
    )


def apply_phase(state: GaussianState, mode: str, theta: float) -> GaussianState:
    """Rotate one mode by theta; photon statistics are unchanged."""
    return _gate(state, [mode], phase_symplectic(theta))


def apply_beamsplitter(
    state: GaussianState, mode_a: str, mode_b: str, transmissivity: float
) -> GaussianState:
    """Mix two modes on a beamsplitter of the given transmissivity."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {transmissivity}")
    if mode_a == mode_b:
        raise ModeError("beamsplitter needs two distinct modes")
    return _gate(state, [mode_a, mode_b], beamsplitter_symplectic(transmissivity))


def apply_two_mode_squeeze(
    state: GaussianState, mode_a: str, mode_b: str, gain: float
) -> GaussianState:
    """Two-mode squeezing of gain G >= 1 on (mode_a, mode_b)."""
    if gain < 1.0:
        raise ValueError(f"gain must be >= 1, got {gain}")
    if mode_a == mode_b:
        raise ModeError("two-mode squeezer needs two distinct modes")
    return _gate(state, [mode_a, mode_b], two_mode_squeeze_symplectic(gain))


def apply_thermal_loss(
    state: GaussianState, mode: str, transmissivity: float, added_noise: float = 0.0
) -> GaussianState:
    """Thermal-loss channel, receiver-referred: output photon mean equals
    ``kappa * n_in + added_noise``.

    The equivalent dilation mixes the mode with an environment thermal state
    of mean ``added_noise / (1 - kappa)`` on a beamsplitter of transmissivity
    kappa.  kappa = 0 is rejected as degenerate; use `thermal` to construct
    the replacement state directly.
    """
    kappa = transmissivity
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"transmissivity must be in (0, 1], got {kappa}")
    if added_noise < 0.0:
        raise ValueError("added noise photons must be >= 0")
    i = 2 * state.mode_index(mode)
    n = state.n_modes
    scale = np.ones(2 * n)
    scale[i : i + 2] = np.sqrt(kappa)
    cov = state.cov * np.outer(scale, scale)
    cov[i : i + 2, i : i + 2] += ((1.0 - kappa) + 2.0 * added_noise) * np.eye(2)
    return GaussianState(state.mode_labels, cov)


def photon_mean(state: GaussianState, mode: str) -> float:
    V = state.mode_block(mode)
    return (np.trace(V) - 2.0) / 4.0


def photon_variance(state: GaussianState, mode: str) -> float:
    V = state.mode_block(mode)
    var = (np.trace(V @ V) - 2.0) / 8.0
    return max(var, 0.0)


def photon_covariance(state: GaussianState, mode_a: str, mode_b: str) -> float:
    """Photon-number covariance between two modes; the variance when both
    labels name the same mode."""
    if mode_a == mode_b:
        return photon_variance(state, mode_a)
    C = state.cross_block(mode_a, mode_b)
    return float(np.sum(C * C)) / 8.0


def difference_stats(state: GaussianState, mode_a: str, mode_b: str) -> tuple[float, float]:
    """Mean and variance of the balanced difference count n_a - n_b."""
    if mode_a == mode_b:
        raise ModeError("difference statistics need two distinct modes")
    mean = photon_mean(state, mode_a) - photon_mean(state, mode_b)
    var = (
        photon_variance(state, mode_a)
        + photon_variance(state, mode_b)
        - 2.0 * photon_covariance(state, mode_a, mode_b)
    )
    return mean, max(var, 0.0)
