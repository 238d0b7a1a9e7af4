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

A `GaussianState` is one state, or a stack of P states on the same modes
held as a (P, 2n, 2n) covariance stack, so that one call builds the states
of a whole grid.  Every operation takes either, and each of its numeric
parameters is a number or a sequence of P numbers, one per slice.  It
returns a stack when the state or a parameter is stacked, and a single
state otherwise: a single state is the P = 1 case of the same code.  All
operations are pure: they return new states and never mutate inputs.

Every state is validated after every operation, slice by slice, stacked or
not: symmetry, then the uncertainty relation, each within a tolerance
scaled by the slice's own max(1, max|cov|).  An out-of-range parameter or
a failed check in any slice raises, so no operation can hand back an
unphysical intermediate state.  A caller that wants each slice to fail
alone retries a failing stack one slice at a time, as
`receivers.stacked_receiver_stats` does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

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


def _check(cov: np.ndarray) -> None:
    """Validate a (P, 2n, 2n) stack slice by slice; raises the first failure."""
    n = cov.shape[-1] // 2
    peak = np.abs(cov).max(axis=(1, 2))
    scale = np.where(peak > 1.0, peak, 1.0)  # max(1.0, peak): 1.0 at a NaN peak too
    asym = np.abs(cov - cov.transpose(0, 2, 1)).max(axis=(1, 2))
    if (asym > SYMMETRY_TOL * scale).any():
        raise StateError("covariance matrix is not symmetric")
    min_eig = np.linalg.eigvalsh(cov + _i_omega(n)).min(axis=1)
    bad = np.flatnonzero(min_eig < -UNCERTAINTY_TOL * scale)
    if len(bad):
        raise StateError(
            f"covariance violates the uncertainty relation (min eig {float(min_eig[bad[0]]):.3e})"
        )


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian states on labeled modes: cov is one (2n, 2n)
    covariance matrix, or a (P, 2n, 2n) stack whose slice k is state k."""

    mode_labels: tuple[str, ...]
    cov: np.ndarray

    def __post_init__(self):
        labels = tuple(self.mode_labels)
        if len(set(labels)) != len(labels):
            raise ModeError(f"duplicate mode labels: {labels}")
        object.__setattr__(self, "mode_labels", labels)
        d = 2 * len(labels)
        cov = np.asarray(self.cov, dtype=float)
        cov = cov.reshape((len(cov), d, d) if cov.ndim == 3 else (d, d))
        object.__setattr__(self, "cov", cov)
        _check(_slices(self))

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def mode_index(self, label: str) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise ModeError(f"unknown mode {label!r}; have {self.mode_labels}") from None

    def mode_block(self, label: str) -> np.ndarray:
        """Covariance restricted to one mode, per slice for a stack."""
        i = 2 * self.mode_index(label)
        return self.cov[..., i : i + 2, i : i + 2].copy()


def _slices(state: GaussianState) -> np.ndarray:
    """The state's covariance as a (P, 2n, 2n) stack, P = 1 for one state."""
    return state.cov.reshape(-1, *state.cov.shape[-2:])


def _broadcast(state: GaussianState, shape: tuple[int, ...]) -> tuple[np.ndarray, bool]:
    """(cov, single): the state's (P, 2n, 2n) covariance stack, broadcast
    against per-slice parameters of `shape` (() for one value), and whether
    the result is one state rather than a stack."""
    cov = _slices(state)
    size = shape[0] if shape and shape[0] != 1 else len(cov)
    if len(cov) != size:
        if len(cov) != 1:
            raise ValueError(f"{size} parameter values for {len(cov)} slices")
        cov = np.broadcast_to(cov, (size, *cov.shape[1:]))
    return cov, state.cov.ndim == 2 and shape == ()


def _result(labels: tuple[str, ...], cov: np.ndarray, single: bool) -> GaussianState:
    """The validated result of an operation on a (P, 2n, 2n) stack."""
    return GaussianState(labels, cov[0] if single else cov)


def _reject(
    value, is_bad: Callable[[np.ndarray], np.ndarray], error_of: Callable[[float], Exception]
) -> np.ndarray:
    """A parameter, a number or one per slice, as floats; raises
    error_of(v) for its first bad value v, before any work is done."""
    values = np.asarray(value, dtype=float)
    bad = is_bad(values)
    if bad.any():
        raise error_of(np.asarray(value)[bad].tolist()[0])
    return values


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
    """Product state of two disjoint registers.  A stack pairs each of its
    slices with the same slice of the other stack, or with the other state."""
    if set(a.mode_labels) & set(b.mode_labels):
        raise ModeError("mode labels overlap")
    cov_a, single = _broadcast(a, b.cov.shape[:-2])
    cov_b, _ = _broadcast(b, a.cov.shape[:-2])
    na = 2 * a.n_modes
    n = na + 2 * b.n_modes
    cov = np.zeros((len(cov_a), n, n))
    cov[:, :na, :na] = cov_a
    cov[:, na:, na:] = cov_b
    return _result(a.mode_labels + b.mode_labels, cov, single)


def _gate(state: GaussianState, labels: Sequence[str], small) -> GaussianState:
    """Apply a symplectic acting on `labels`, expanded to the full mode set:
    one (k, k) matrix, or a (P, k, k) stack of one per slice."""
    small = np.asarray(small, dtype=float)
    cov, single = _broadcast(state, small.shape[:-2])
    size, dim = cov.shape[:2]
    if small.ndim == 2:
        small = small[None]
    S = np.eye(dim)[None].repeat(size, axis=0)
    starts = [2 * state.mode_index(lab) for lab in labels]
    for a, i in enumerate(starts):
        for b, j in enumerate(starts):
            S[:, i : i + 2, j : j + 2] = small[:, 2 * a : 2 * a + 2, 2 * b : 2 * b + 2]
    return _result(state.mode_labels, S @ cov @ S.transpose(0, 2, 1), single)


def _matrix(rows) -> np.ndarray:
    """A (k, k) matrix of numbers, or a (P, k, k) stack where entries are
    arrays of P values."""
    shape = np.broadcast(*(x for row in rows for x in row)).shape
    out = np.empty((*shape, len(rows), len(rows)))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            out[..., i, j] = x
    return out


def phase_symplectic(theta) -> np.ndarray:
    """Phase-space rotation for a -> exp(i theta) a; one per phase for a
    sequence of phases."""
    theta = np.asarray(theta, dtype=float)
    # One phase at a time, as for a single state: np.cos and np.sin are not
    # correctly rounded, so a vectorised loop need not round like the call
    # on one float (they agreed on every phase tried, but nothing promises it).
    c = np.array([np.cos(t) for t in theta.flat]).reshape(theta.shape)
    s = np.array([np.sin(t) for t in theta.flat]).reshape(theta.shape)
    return _matrix([[c, -s], [s, c]])


def beamsplitter_symplectic(transmissivity) -> np.ndarray:
    """Two-mode beamsplitter: a -> sqrt(eta) a + sqrt(1-eta) b."""
    t, r = np.sqrt(transmissivity), np.sqrt(1.0 - transmissivity)
    # the entries, signed zeros included, of [[t I, r I], [-r I, t I]]
    return _matrix(
        [[t, 0.0, r, 0.0], [0.0, t, 0.0, r], [-r, -0.0, t, 0.0], [-0.0, -r, 0.0, t]]
    )


def two_mode_squeeze_symplectic(gain) -> np.ndarray:
    """Two-mode squeezer: a -> sqrt(G) a + sqrt(G-1) b^dagger."""
    g, h = np.sqrt(gain), np.sqrt(gain - 1.0)
    # the entries, signed zeros included, of [[g I, h Z], [h Z, g I]], Z = diag(1, -1)
    return _matrix(
        [[g, 0.0, h, 0.0], [0.0, g, 0.0, -h], [h, 0.0, g, 0.0], [0.0, -h, 0.0, g]]
    )


def apply_phase(state: GaussianState, mode: str, theta) -> GaussianState:
    """Rotate one mode by theta; photon statistics are unchanged."""
    return _gate(state, [mode], phase_symplectic(theta))


def apply_beamsplitter(
    state: GaussianState, mode_a: str, mode_b: str, transmissivity
) -> GaussianState:
    """Mix two modes on a beamsplitter of the given transmissivity."""
    eta = _reject(
        transmissivity,
        lambda t: ~((0.0 <= t) & (t <= 1.0)),
        lambda t: ValueError(f"transmissivity must be in [0, 1], got {t}"),
    )
    if mode_a == mode_b:
        raise ModeError("beamsplitter needs two distinct modes")
    return _gate(state, [mode_a, mode_b], beamsplitter_symplectic(eta))


def apply_two_mode_squeeze(state: GaussianState, mode_a: str, mode_b: str, gain) -> GaussianState:
    """Two-mode squeezing of gain G >= 1 on (mode_a, mode_b)."""
    gain = _reject(gain, lambda g: g < 1.0, lambda g: ValueError(f"gain must be >= 1, got {g}"))
    if mode_a == mode_b:
        raise ModeError("two-mode squeezer needs two distinct modes")
    return _gate(state, [mode_a, mode_b], two_mode_squeeze_symplectic(gain))


def apply_thermal_loss(
    state: GaussianState, mode: str, transmissivity, added_noise=0.0
) -> GaussianState:
    """Thermal-loss channel, receiver-referred: output photon mean equals
    ``kappa * n_in + added_noise``.

    The equivalent dilation mixes the mode with an environment thermal state
    of mean ``added_noise / (1 - kappa)`` on a beamsplitter of transmissivity
    kappa.  kappa = 0 is rejected as degenerate; use `thermal` to construct
    the replacement state directly.
    """
    kappa = _reject(
        transmissivity,
        lambda k: ~((0.0 < k) & (k <= 1.0)),
        lambda k: ValueError(f"transmissivity must be in (0, 1], got {k}"),
    )
    noise = _reject(
        added_noise, lambda n: n < 0.0, lambda n: ValueError("added noise photons must be >= 0")
    )
    kappa, noise = np.broadcast_arrays(kappa, noise)
    cov, single = _broadcast(state, kappa.shape)
    i = 2 * state.mode_index(mode)
    scale = np.ones(cov.shape[:2])
    scale[:, i : i + 2] = np.sqrt(kappa).reshape(-1, 1)
    cov = cov * (scale[:, :, None] * scale[:, None, :])
    cov[:, i : i + 2, i : i + 2] += ((1.0 - kappa) + 2.0 * noise).reshape(-1, 1, 1) * np.eye(2)
    return _result(state.mode_labels, cov, single)


def _block(state: GaussianState, mode_a: str, mode_b: str) -> np.ndarray:
    """The (P, 2, 2) covariance block between two modes of each slice."""
    cov = _slices(state)
    ia, ib = 2 * state.mode_index(mode_a), 2 * state.mode_index(mode_b)
    return np.ascontiguousarray(cov[:, ia : ia + 2, ib : ib + 2])


def _clamp(x):
    """max(x, 0.0) per element, NaN and -0.0 kept as max() keeps them."""
    return np.where(0.0 > x, 0.0, x)[()]


def _per_slice(state: GaussianState, values: np.ndarray):
    """A stack's values as an array, a single state's as its one number."""
    return values.reshape(state.cov.shape[:-2])[()]


def photon_mean(state: GaussianState, mode: str):
    """Mean photon number of one mode."""
    V = _block(state, mode, mode)
    return _per_slice(state, (np.trace(V, axis1=1, axis2=2) - 2.0) / 4.0)


def photon_variance(state: GaussianState, mode: str):
    """Photon-number variance of one mode."""
    V = _block(state, mode, mode)
    return _per_slice(state, _clamp((np.trace(V @ V, axis1=1, axis2=2) - 2.0) / 8.0))


def photon_covariance(state: GaussianState, mode_a: str, mode_b: str):
    """Photon-number covariance between two modes; the variance when both
    labels name the same mode."""
    if mode_a == mode_b:
        return photon_variance(state, mode_a)
    C = _block(state, mode_a, mode_b)
    return _per_slice(state, np.sum(C * C, axis=(1, 2)) / 8.0)


def difference_stats(state: GaussianState, mode_a: str, mode_b: str):
    """Mean and variance of the balanced difference count n_a - n_b."""
    if mode_a == mode_b:
        raise ModeError("difference statistics need two distinct modes")
    mean = photon_mean(state, mode_a) - photon_mean(state, mode_b)
    var = (
        photon_variance(state, mode_a)
        + photon_variance(state, mode_b)
        - 2.0 * photon_covariance(state, mode_a, mode_b)
    )
    return mean, _clamp(var)
