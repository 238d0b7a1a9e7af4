"""Fundamental estimation limits: Gaussian fidelity, quantum Fisher
information by fidelity finite differences, and the classical Fisher
information of the receivers' difference counts.

The fidelity follows the general Gaussian-state formula of Banchi,
Braunstein and Pirandola (PRL 115, 260501), in the square-root convention
F(pure, pure) = |<psi|phi>|.  The finite-difference QFI needs the fidelity
of two nearly identical states resolved far below double precision
(1 - F can be ~1e-14 at operating points of interest), so the QFI path
evaluates the same formula in 60-digit `decimal` arithmetic.  There its
determinant comes in product form from the symplectic spectrum of the
auxiliary matrix, det(sqrt(m) + I) = prod_k (1 + sqrt(mu_k))^2, read off
tr m and det m for the 1- and 2-mode states every caller builds, with no
matrix square root (see _fidelity_mp).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from typing import Callable

import numpy as np

from .gaussian import GaussianState, omega
from .protocol import ProtocolVariant, SensingScenario, build_receiver_inputs
from .receivers import ReceiverStats

QFI_STEPS = (1e-3, 5e-4)
QFI_PRECISION_DPS = 60
_QFI_CONTEXT = Context(prec=QFI_PRECISION_DPS)
_ZERO = Decimal(0)
_QUARTER = Decimal("0.25")


class ConvergenceError(RuntimeError):
    """Raised when the finite-difference QFI fails its error budget."""


@dataclass(frozen=True)
class QfiResult:
    """Quantum Fisher information per mode pair and the resulting
    Cramer-Rao variance bound for M pairs."""

    J: float
    qcrb_var: float
    richardson_error: float


def gaussian_fidelity(state_a: GaussianState, state_b: GaussianState) -> float:
    """Uhlmann fidelity of two Gaussian states (at most 2 modes needed by
    callers, but the formula is general).  SciPy's linear algebra is
    imported here, off the CLI's import path, which never calls this."""
    import scipy.linalg as sla

    if state_a.n_modes != state_b.n_modes:
        raise ValueError("states must have the same number of modes")
    n = state_a.n_modes
    v1, v2 = state_a.cov, state_b.cov
    om = omega(n)
    sig_sum = (v1 + v2) / 2.0
    sinv = np.linalg.inv(sig_sum)
    vaux = om.T @ sinv @ (om / 4.0 + (v2 / 2.0) @ om @ (v1 / 2.0))
    w = vaux @ om
    m = np.eye(2 * n) + np.linalg.matrix_power(np.linalg.inv(w), 2) / 4.0
    ftot4 = np.linalg.det(2.0 * (sla.sqrtm(m) + np.eye(2 * n)) @ vaux)
    f0_4 = np.real(ftot4) / np.linalg.det(sig_sum)
    if f0_4 < 0.0:
        f0_4 = 0.0
    return float(min(max(f0_4**0.25, 0.0), 1.0))


def _decimal_matrix(a: np.ndarray) -> list[list[Decimal]]:
    """Exact Decimal copy of a float array (Decimal(float) does not round)."""
    return [[Decimal(x) for x in row] for row in a.tolist()]


def _matmul(a: list[list[Decimal]], b: list[list[Decimal]]) -> list[list[Decimal]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _times_omega(a: list[list[Decimal]]) -> list[list[Decimal]]:
    """a @ omega(n): column 2k becomes -a[:, 2k+1], column 2k+1 becomes a[:, 2k]."""
    return [[z for k in range(0, len(row), 2) for z in (-row[k + 1], row[k])] for row in a]


def _omega_t_times(a: list[list[Decimal]]) -> list[list[Decimal]]:
    """omega(n).T @ a: row 2k becomes -a[2k+1], row 2k+1 becomes a[2k]."""
    return [r for k in range(0, len(a), 2) for r in ([-x for x in a[k + 1]], a[k])]


def _pivot(rows: list[list[Decimal]], c: int) -> bool:
    """Partial pivoting: swap the row with the largest |entry| in column c
    (from row c down) into row c; True if rows moved."""
    p = max(range(c, len(rows)), key=lambda r: abs(rows[r][c]))
    rows[c], rows[p] = rows[p], rows[c]
    return p != c


def _solve(a: list[list[Decimal]], b: list[list[Decimal]]) -> list[list[Decimal]]:
    """a^-1 b by Gauss-Jordan elimination with partial pivoting; a singular
    a raises decimal.DivisionByZero, a ZeroDivisionError."""
    n = len(a)
    rows = [ra + rb for ra, rb in zip(a, b)]
    for c in range(n):
        _pivot(rows, c)
        pivot = rows[c][c]
        rows[c] = prow = [x / pivot for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], prow)]
    return [row[n:] for row in rows]


def _det(a: list[list[Decimal]]) -> Decimal:
    """Determinant by Gaussian elimination with partial pivoting; 0 at the
    first zero pivot."""
    n = len(a)
    rows = [row[:] for row in a]
    det = Decimal(1)
    for c in range(n):
        if _pivot(rows, c):
            det = -det
        pivot = rows[c][c]
        if not pivot:
            return pivot
        det *= pivot
        for r in range(c + 1, n):
            f = rows[r][c] / pivot
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def _fidelity_mp(cov_a: np.ndarray, cov_b: np.ndarray) -> Decimal:
    """Same formula in 60-digit decimal arithmetic, for the covariance
    matrices of two 1- or 2-mode states; returns a Decimal so the caller
    can subtract from 1 without cancellation.

    The determinant det(2 (sqrt(m) + I) Vaux), m = I + (Vaux Omega)^-2 / 4,
    is taken from the symplectic spectrum instead of a matrix square root:
    Vaux Omega has eigenvalues +-i nu_k, so m has eigenvalues
    mu_k = 1 - 1/(4 nu_k^2), each twice, and det(sqrt(m) + I) =
    prod_k (1 + sqrt(mu_k))^2.  The product is read off tr m and det m
    without solving for the mu_k, which would lose half the digits where
    nu_1 = nu_2.  tests/test_metrology.py keeps two binary-float references
    at the same precision that this must match bit for bit in qfi_phase:
    the same spectrum form, and the matrix-square-root form."""
    n = len(cov_a) // 2
    if n not in (1, 2):
        raise ValueError(f"multi-precision fidelity supports 1 or 2 modes, not {n} modes")
    with localcontext(_QFI_CONTEXT):
        eye = [[Decimal(int(i == j)) for j in range(2 * n)] for i in range(2 * n)]
        sig1 = _decimal_matrix(cov_a / 2.0)
        sig2 = _decimal_matrix(cov_b / 2.0)
        sig_sum = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(sig1, sig2)]
        # omega / 4 + sig2 omega sig1
        inner = _matmul(_times_omega(sig2), sig1)
        for k in range(0, 2 * n, 2):
            inner[k][k + 1] += _QUARTER
            inner[k + 1][k] -= _QUARTER
        vaux = _omega_t_times(_solve(sig_sum, inner))
        w_inv = _solve(_times_omega(vaux), eye)
        w_inv2 = _matmul(w_inv, w_inv)
        m = [[eye[i][j] + w_inv2[i][j] / 4 for j in range(2 * n)] for i in range(2 * n)]
        # mu_1 + mu_2 = tr m / 2 and sqrt(mu_1 mu_2) = (det m)^(1/4); one mode
        # has mu_2 = 0.  At a pure mode mu_k = 0, so det m and the radicand
        # can round to tiny negative numbers: clamp both at 0.
        mu_sum = sum(m[i][i] for i in range(2 * n)) / 2
        mu_geo = max(_det(m), _ZERO).sqrt().sqrt() if n == 2 else _ZERO
        prod = 1 + mu_geo + max(mu_sum + 2 * mu_geo, _ZERO).sqrt()
        ftot4 = 4**n * _det(vaux) * prod * prod
        return (ftot4 / _det(sig_sum)).sqrt().sqrt()


def qfi_of_family(
    family: Callable[[list[float]], GaussianState], theta: float
) -> QfiResult:
    """QFI of a one-parameter Gaussian family by central finite differences
    of the fidelity, J = lim 8 (1 - F(theta - h/2, theta + h/2)) / h^2,
    with Richardson extrapolation over the two QFI_STEPS.

    family(phases) returns the family's states at a list of phases as one
    stack; it is called once, at theta -+ h/2 for each step in turn."""
    phases = [th for h in QFI_STEPS for th in (theta - h / 2.0, theta + h / 2.0)]
    cov = family(phases).cov
    estimates = []
    # 1 - F is taken at 60 digits, where it is exact; the default 28-digit
    # context would round it before float() does.  Decimal rounds its
    # intermediates differently from a binary float of the same precision,
    # but the two fidelities agree to ~1e-58 while 1 - F is never below
    # ~1e-16, so float(1 - F), and with it every QFI byte, does not depend
    # on the arithmetic.
    with localcontext(_QFI_CONTEXT):
        for k, h in enumerate(QFI_STEPS):
            fid = _fidelity_mp(cov[2 * k], cov[2 * k + 1])
            estimates.append(8.0 * float(1 - fid) / h**2)
    j1, j2 = estimates
    j = (4.0 * j2 - j1) / 3.0
    err = abs(j2 - j1) / 3.0
    if j > 0.0 and err > 1e-3 * j:
        raise ConvergenceError(
            f"finite-difference QFI did not converge (J={j:.3e}, err={err:.3e})"
        )
    return QfiResult(J=max(j, 0.0), qcrb_var=math.nan, richardson_error=err)


def qfi_phase(scenario: SensingScenario, variant: ProtocolVariant) -> QfiResult:
    """QFI per mode pair of the receiver-input state (returned probe plus
    stored idler/reference, storage loss included) with respect to the
    probed phase; qcrb_var = 1 / (M J)."""
    if scenario.N_S == 0.0:
        return QfiResult(J=0.0, qcrb_var=math.inf, richardson_error=0.0)

    result = qfi_of_family(
        lambda phases: build_receiver_inputs([scenario] * len(phases), variant, phases),
        scenario.theta,
    )
    qcrb = math.inf if result.J == 0.0 else 1.0 / (scenario.M * result.J)
    return QfiResult(result.J, qcrb, result.richardson_error)


def receiver_fisher(stats: ReceiverStats) -> float:
    """Classical Fisher information per mode pair of the receiver's
    difference count at the scenario's phase, from the cosine response
    law: J_rec = A^2 sin^2(theta) / var_diff."""
    if stats.var_diff <= 0.0:
        raise ValueError("zero-variance output; Fisher information undefined here")
    return stats.calib_scale**2 * math.sin(stats.scenario.theta) ** 2 / stats.var_diff
