"""Brute-force truncated Fock-space oracle for up to three modes.

Everything here is deliberately direct: density matrices are dense tensors
of shape ``cutoffs + cutoffs``, unitaries are matrix exponentials of
quadratic generators, and loss channels are explicit Kraus sums.  The
oracle is validated against closed-form micro-cases only; the fast
Gaussian engine is validated against the oracle.

Cutoffs are per-mode Hilbert-space dimensions (levels 0..cutoff-1) and may
differ between modes, which keeps three-mode pipelines tractable when only
one mode is noisy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaln

from .gaussian import GaussianState, omega, photon_mean

MAX_TOTAL_DIM = 8000
DEFICIT_LIMIT = 1e-6


class TruncationError(ValueError):
    """Raised when a truncated-space computation would be untrustworthy."""


@dataclass
class FockState:
    """Truncated-Fock-space density matrix with bookkeeping of the
    probability mass lost to truncation."""

    dm: np.ndarray  # shape cutoffs + cutoffs, complex
    cutoffs: tuple[int, ...]
    trace_deficit: float = 0.0

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.cutoffs))

    def matrix(self) -> np.ndarray:
        d = self.total_dim
        return self.dm.reshape(d, d)

    def trace(self) -> float:
        return float(np.trace(self.matrix()).real)


def _as_cutoffs(cutoffs, n_modes: int) -> tuple[int, ...]:
    if isinstance(cutoffs, int):
        cutoffs = (cutoffs,) * n_modes
    cutoffs = tuple(int(c) for c in cutoffs)
    if len(cutoffs) != n_modes or any(c < 2 for c in cutoffs):
        raise ValueError(f"need one cutoff >= 2 per mode, got {cutoffs}")
    if int(np.prod(cutoffs)) > MAX_TOTAL_DIM:
        raise TruncationError(f"total dimension {np.prod(cutoffs)} exceeds cap")
    return cutoffs


def destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)


def _on_mode(op: np.ndarray, i: int, cutoffs) -> np.ndarray:
    """Full-space operator: `op` on mode i, the identity on every other mode."""
    full = np.eye(1)
    for j, c in enumerate(cutoffs):
        full = np.kron(full, op if j == i else np.eye(c))
    return full


def vacuum_fock(cutoffs) -> FockState:
    cutoffs = _as_cutoffs(cutoffs, len(cutoffs) if not isinstance(cutoffs, int) else 1)
    dm = np.zeros(cutoffs + cutoffs, dtype=complex)
    dm[(0,) * (2 * len(cutoffs))] = 1.0
    return FockState(dm, cutoffs, 0.0)


def thermal_fock(mean_photons: float, cutoff: int) -> FockState:
    """Single-mode thermal state, geometric photon distribution."""
    k = np.arange(cutoff)
    if mean_photons == 0.0:
        p = np.zeros(cutoff)
        p[0] = 1.0
        deficit = 0.0
    else:
        r = mean_photons / (mean_photons + 1.0)
        p = (1.0 - r) * r**k
        deficit = r**cutoff
    dm = np.diag(p).astype(complex)
    return FockState(dm, (cutoff,), float(deficit))


def product_fock(*states: FockState) -> FockState:
    dm = states[0].dm
    cutoffs: tuple[int, ...] = states[0].cutoffs
    deficit = states[0].trace_deficit
    for s in states[1:]:
        dm = np.tensordot(dm, s.dm, axes=0)
        # interleave: current (l1, r1, l2, r2) -> (l1, l2, r1, r2)
        n1, n2 = len(cutoffs), s.n_modes
        perm = (
            list(range(n1))
            + list(range(2 * n1, 2 * n1 + n2))
            + list(range(n1, 2 * n1))
            + list(range(2 * n1 + n2, 2 * (n1 + n2)))
        )
        dm = dm.transpose(perm)
        cutoffs = cutoffs + s.cutoffs
        deficit = 1.0 - (1.0 - deficit) * (1.0 - s.trace_deficit)
    return FockState(dm, cutoffs, deficit)


def _apply_left_right(dm, cutoffs, left_op, axes):
    """dm -> L dm L^dagger where L acts on the given mode axes."""
    n = len(cutoffs)
    rest = [i for i in range(n) if i not in axes]
    d_act = int(np.prod([cutoffs[i] for i in axes]))
    d_rest = int(np.prod([cutoffs[i] for i in rest]))
    perm = list(axes) + rest + [a + n for a in axes] + [r + n for r in rest]
    t = dm.transpose(perm).reshape(d_act, d_rest, d_act, d_rest)
    t = np.einsum("ab,bjcl->ajcl", left_op, t, optimize=True)
    t = np.einsum("ajcl,dc->ajdl", t, left_op.conj(), optimize=True)
    shape = (
        [cutoffs[i] for i in axes]
        + [cutoffs[i] for i in rest]
        + [cutoffs[i] for i in axes]
        + [cutoffs[i] for i in rest]
    )
    t = t.reshape(shape)
    inv = np.argsort(perm)
    return t.transpose(inv)


def apply_unitary(state: FockState, u: np.ndarray, modes) -> FockState:
    dm = _apply_left_right(state.dm, state.cutoffs, u, list(modes))
    return FockState(dm, state.cutoffs, state.trace_deficit)


def apply_kraus(state: FockState, kraus_ops, modes) -> FockState:
    """Sum_k K rho K^dagger; any trace lost to truncation is booked."""
    acc = None
    for k in kraus_ops:
        term = _apply_left_right(state.dm, state.cutoffs, k, list(modes))
        acc = term if acc is None else acc + term
    out = FockState(acc, state.cutoffs, state.trace_deficit)
    lost = state.trace() - out.trace()
    out.trace_deficit = state.trace_deficit + max(lost, 0.0)
    return out


def fock_phase(state: FockState, mode: int, theta: float) -> FockState:
    k = np.arange(state.cutoffs[mode])
    u = np.diag(np.exp(1j * theta * k))
    return apply_unitary(state, u, [mode])


def fock_beamsplitter(state: FockState, mode_a: int, mode_b: int, eta: float) -> FockState:
    """Beamsplitter matching the phase-space convention
    a -> sqrt(eta) a + sqrt(1-eta) b."""
    da, db = state.cutoffs[mode_a], state.cutoffs[mode_b]
    a, b = destroy(da), destroy(db)
    gen = np.kron(a.conj().T, b) - np.kron(a, b.conj().T)
    u = sla.expm(math.acos(math.sqrt(eta)) * gen)
    return apply_unitary(state, u, [mode_a, mode_b])


def fock_two_mode_squeeze(state: FockState, mode_a: int, mode_b: int, gain: float) -> FockState:
    """Two-mode squeezer a -> sqrt(G) a + sqrt(G-1) b^dagger.

    Mildly enlarges occupations; caller picks cutoffs with headroom."""
    da, db = state.cutoffs[mode_a], state.cutoffs[mode_b]
    a, b = destroy(da), destroy(db)
    gen = np.kron(a.conj().T, b.conj().T) - np.kron(a, b)
    r = math.acosh(math.sqrt(gain))
    u = sla.expm(r * gen)
    out = apply_unitary(state, u, [mode_a, mode_b])
    lost = state.trace() - out.trace()
    out.trace_deficit = state.trace_deficit + max(lost, 0.0)
    return out


def _loss_kraus(dim: int, kappa: float) -> list[np.ndarray]:
    """Pure-loss Kraus operators A_l with
    A_l |k> = sqrt(binom(k, l) (1-kappa)^l kappa^(k-l)) |k-l>."""
    ops = []
    for loss in range(dim):
        op = np.zeros((dim, dim))
        kk = np.arange(loss, dim)
        logc = gammaln(kk + 1) - gammaln(loss + 1) - gammaln(kk - loss + 1)
        logw = logc + loss * math.log(1.0 - kappa) + (kk - loss) * math.log(kappa)
        op[kk - loss, kk] = np.exp(0.5 * logw)
        ops.append(op)
    return ops


def _amp_kraus(dim: int, gain: float) -> list[np.ndarray]:
    """Quantum-limited amplifier Kraus operators,
    B_l |k> = sqrt(binom(k+l, l) (1-1/G)^l (1/G)^(k+1)) |k+l>."""
    if gain == 1.0:
        return [np.eye(dim)]
    x = 1.0 - 1.0 / gain
    ops = []
    for added in range(dim):
        op = np.zeros((dim, dim))
        kk = np.arange(0, dim - added)
        logc = gammaln(kk + added + 1) - gammaln(added + 1) - gammaln(kk + 1)
        vals = np.exp(0.5 * (logc + added * math.log(x) - (kk + 1) * math.log(gain)))
        op[kk + added, kk] = vals
        ops.append(op)
    return ops


def fock_thermal_loss(state: FockState, mode: int, kappa: float, added_noise: float = 0.0) -> FockState:
    """Receiver-referred thermal loss: output mean = kappa * n_in + added_noise.

    Realized as a pure-loss channel of transmissivity kappa/(N+1) followed
    by a quantum-limited amplifier of gain N+1."""
    if not 0.0 < kappa <= 1.0:
        raise ValueError("transmissivity must be in (0, 1]")
    if added_noise < 0.0:
        raise ValueError("added noise must be >= 0")
    gain = added_noise + 1.0
    kappa1 = kappa / gain
    dim = state.cutoffs[mode]
    out = state
    if kappa1 < 1.0:
        out = apply_kraus(out, _loss_kraus(dim, kappa1), [mode])
    if gain > 1.0:
        out = apply_kraus(out, _amp_kraus(dim, gain), [mode])
    return out


# ---------------------------------------------------------------------------
# photon statistics


def _joint_pmf(state: FockState) -> np.ndarray:
    diag = np.real(np.diagonal(state.matrix()))
    return diag.reshape(state.cutoffs)


def fock_photon_mean(state: FockState, mode: int) -> float:
    p = _joint_pmf(state)
    k = np.arange(state.cutoffs[mode])
    axes = tuple(i for i in range(state.n_modes) if i != mode)
    pm = p.sum(axis=axes) if axes else p
    return float(np.dot(pm, k))


def fock_photon_variance(state: FockState, mode: int) -> float:
    p = _joint_pmf(state)
    k = np.arange(state.cutoffs[mode])
    axes = tuple(i for i in range(state.n_modes) if i != mode)
    pm = p.sum(axis=axes) if axes else p
    m1, m2 = float(np.dot(pm, k)), float(np.dot(pm, k**2))
    return m2 - m1**2


def fock_photon_covariance(state: FockState, mode_a: int, mode_b: int) -> float:
    if mode_a == mode_b:
        return fock_photon_variance(state, mode_a)
    p = _joint_pmf(state)
    axes = tuple(i for i in range(state.n_modes) if i not in (mode_a, mode_b))
    pj = p.sum(axis=axes) if axes else p
    if mode_a > mode_b:
        pj = pj.T
    ka = np.arange(state.cutoffs[mode_a])
    kb = np.arange(state.cutoffs[mode_b])
    m_ab = float(ka @ pj @ kb)
    return m_ab - fock_photon_mean(state, mode_a) * fock_photon_mean(state, mode_b)


def fock_difference_stats(state: FockState, mode_a: int, mode_b: int) -> tuple[float, float]:
    mean = fock_photon_mean(state, mode_a) - fock_photon_mean(state, mode_b)
    var = (
        fock_photon_variance(state, mode_a)
        + fock_photon_variance(state, mode_b)
        - 2.0 * fock_photon_covariance(state, mode_a, mode_b)
    )
    return mean, var


# ---------------------------------------------------------------------------
# state metrics


def _check_comparable(a: FockState, b: FockState) -> None:
    if a.cutoffs != b.cutoffs:
        raise ValueError("states must share cutoffs")
    if a.trace_deficit > DEFICIT_LIMIT or b.trace_deficit > DEFICIT_LIMIT:
        raise TruncationError("trace deficit too large for a trustworthy comparison")


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fock_fidelity(a: FockState, b: FockState) -> float:
    """Uhlmann fidelity in the sqrt convention, F(pure, pure) = |<psi|phi>|."""
    _check_comparable(a, b)
    ra, rb = _psd_sqrt(a.matrix()), _psd_sqrt(b.matrix())
    sv = np.linalg.svd(ra @ rb, compute_uv=False)
    return float(np.sum(sv))


def fock_rel_entropy(a: FockState, b: FockState) -> float:
    """D(a || b) in nats via eigendecompositions."""
    _check_comparable(a, b)
    am, bm = a.matrix(), b.matrix()
    va, ua = np.linalg.eigh(am)
    vb, ub = np.linalg.eigh(bm)
    va = np.clip(va.real, 0.0, None)
    vb = np.clip(vb.real, 1e-300, None)  # keeps log(vb) finite
    s_a = float(np.sum(va[va > 0] * np.log(va[va > 0])))
    # tr(a log b) = sum_j log(mu_j) <u_j| a |u_j>
    w = np.real(np.einsum("ij,ij->j", ub.conj(), am @ ub))
    cross = float(np.dot(w, np.log(vb)))
    return s_a - cross


# ---------------------------------------------------------------------------
# arbitrary Gaussian state -> Fock representation


def williamson(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson decomposition cov = S diag(nu) S^T with S symplectic and
    nu the symplectic eigenvalues (each repeated for x and p)."""
    n = cov.shape[0] // 2
    vals, vecs = np.linalg.eigh(cov)
    if np.min(vals) <= 0:
        raise ValueError("covariance must be positive definite")
    v_sqrt = (vecs * np.sqrt(vals)) @ vecs.T
    v_isqrt = (vecs / np.sqrt(vals)) @ vecs.T
    x = v_isqrt @ omega(n) @ v_isqrt
    x = 0.5 * (x - x.T)
    t, q = sla.schur(x, output="real")
    # canonicalize each 2x2 block to [[0, lam], [-lam, 0]] with lam > 0
    for i in range(n):
        j = 2 * i
        if t[j, j + 1] < 0:
            q[:, [j, j + 1]] = q[:, [j + 1, j]]
            t[[j, j + 1], :] = t[[j + 1, j], :]
            t[:, [j, j + 1]] = t[:, [j + 1, j]]
    nu = np.array([1.0 / t[2 * i, 2 * i + 1] for i in range(n)])
    d_isqrt = np.diag(np.repeat(1.0 / np.sqrt(nu), 2))
    s = v_sqrt @ q @ d_isqrt
    return s, np.repeat(nu, 2)


def _quadrature_ops(cutoffs) -> list[np.ndarray]:
    """Full-space x and p operators in (x1, p1, x2, p2, ...) order."""
    n = len(cutoffs)
    ops = []
    for i in range(n):
        a = destroy(cutoffs[i])
        x = a + a.conj().T
        p = -1j * (a - a.conj().T)
        ops += [_on_mode(x, i, cutoffs), _on_mode(p, i, cutoffs)]
    return ops


def unitary_from_symplectic(s: np.ndarray, cutoffs) -> np.ndarray:
    """Dense Fock-space unitary U with U^dagger r U = S r, built from the
    polar decomposition S = O P (passive times active)."""
    n = s.shape[0] // 2
    p = _psd_sqrt(s.T @ s).real
    o = s @ np.linalg.inv(p)
    # active part: P = exp(A), quadratic generator H = -Omega A
    a_gen = sla.logm(p).real
    h = -omega(n) @ a_gen
    h = 0.5 * (h + h.T)
    quads = _quadrature_ops(cutoffs)
    d = int(np.prod(cutoffs))
    ham = np.zeros((d, d), dtype=complex)
    for j in range(2 * n):
        for k in range(2 * n):
            if h[j, k] != 0.0:
                ham += h[j, k] * (quads[j] @ quads[k])
    u_active = sla.expm(-0.25j * ham)
    # passive part: O <-> unitary mode mixing, generator sum K_jk a_j^dag a_k
    u_modes = o[0::2, 0::2] + 1j * o[1::2, 0::2]
    k_herm = -1j * sla.logm(u_modes)
    k_herm = 0.5 * (k_herm + k_herm.conj().T)
    gen = np.zeros((d, d), dtype=complex)
    ladders = [_on_mode(destroy(cutoffs[i]), i, cutoffs) for i in range(n)]
    for j in range(n):
        for k in range(n):
            if k_herm[j, k] != 0.0:
                gen += k_herm[j, k] * (ladders[j].conj().T @ ladders[k])
    u_passive = sla.expm(1j * gen)
    return u_passive @ u_active


def displacement_op(alpha: complex, dim: int) -> np.ndarray:
    a = destroy(dim)
    return sla.expm(alpha * a.conj().T - np.conj(alpha) * a)


def from_gaussian(state: GaussianState, cutoffs) -> FockState:
    """Fock representation of a Gaussian state via Williamson decomposition
    (thermal core, Gaussian unitary, displacement)."""
    n = state.n_modes
    if n > 3:
        raise ValueError("oracle supports at most 3 modes")
    cutoffs = _as_cutoffs(cutoffs, n)
    for i, lab in enumerate(state.mode_labels):
        if photon_mean(state, lab) > cutoffs[i] / 8.0:
            raise TruncationError(
                f"mode {lab!r} mean occupation exceeds cutoff/8 guard"
            )
    s, nu = williamson(state.cov)
    thermals = [thermal_fock((nu[2 * i] - 1.0) / 2.0, cutoffs[i]) for i in range(n)]
    fock = product_fock(*thermals) if n > 1 else thermals[0]
    u = unitary_from_symplectic(s, cutoffs)
    mat = u @ fock.matrix() @ u.conj().T
    for i in range(n):
        mx, mp = state.mean[2 * i], state.mean[2 * i + 1]
        if mx != 0.0 or mp != 0.0:
            alpha = 0.5 * (mx + 1j * mp)
            full = _on_mode(displacement_op(alpha, cutoffs[i]), i, cutoffs)
            mat = full @ mat @ full.conj().T
    out = FockState(mat.reshape(cutoffs + cutoffs), cutoffs, 0.0)
    out.trace_deficit = max(1.0 - out.trace(), 0.0)
    return out
