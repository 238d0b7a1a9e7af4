"""Seeded Monte Carlo of the sensing procedure.

Each shot is one full sensing attempt: the aggregate balanced difference
count over the M mode pairs is drawn from Normal(M * mean_diff,
M * var_diff) — the central-limit aggregate of M i.i.d. per-mode counts —
and scaled into cosine and phase estimates.  Per-mode photon sampling at
M ~ 1e6..1e9 would be both intractable and redundant: the per-mode
statistics are validated independently against a truncated Fock oracle.

Determinism contract: results are bit-identical for fixed (receiver
statistics, K, seed, point index), because every grid point draws from
its own counter-based Philox stream keyed by (seed, point index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # at import, not in the first simulate call

from .receivers import ReceiverStats, cosine_estimator

CLT_GUARD_COUNTS = 100.0
DEFAULT_SHOTS = 2000


class CltGuardError(ValueError):
    """The scenario is too dim for the Gaussian aggregate-count model."""


@dataclass(frozen=True)
class EstimationResult:
    """Monte Carlo summary for one scenario point: the per-shot estimates in
    shot order, their mean squared errors and the jackknife standard error
    of mse_theta.  The theory values are ReceiverStats.var_cos/var_theta."""

    cos_hat: np.ndarray
    theta_hat: np.ndarray
    mse_cos: float
    mse_theta: float
    stderr: float


def _stream(seed: int, point_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, point_index]))


def _jackknife_stderr(errors: np.ndarray) -> float:
    """Delete-one jackknife standard error of the mean squared error."""
    k = errors.size
    total = errors.sum()
    leave_one_out = (total - errors) / (k - 1)
    center = leave_one_out.mean()
    return math.sqrt((k - 1) / k * np.sum((leave_one_out - center) ** 2))


def _check_clt(stats: ReceiverStats) -> None:
    m = stats.scenario.M
    floor = m * min(stats.arm_means)
    if floor < CLT_GUARD_COUNTS:
        raise CltGuardError(
            f"M*min(arm mean) = {floor:.3g} < {CLT_GUARD_COUNTS:g}; the Gaussian "
            "aggregate model is unreliable here — increase W*T or brightness"
        )


def simulate(
    stats: ReceiverStats,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    point_index: int = 0,
) -> EstimationResult:
    """Run K independent sensing shots of the receiver whose statistics are
    `stats`, at its scenario, and summarize the estimators.

    Shot j consumes the j-th normal draw of the stream keyed by
    (seed, point_index), so shots and grid points are reproducible
    independently of execution order."""
    if shots < 2:
        raise ValueError("need at least 2 shots")
    _check_clt(stats)
    scenario = stats.scenario
    m = scenario.M

    draws = _stream(seed, point_index).normal(
        loc=m * stats.mean_diff, scale=math.sqrt(m * stats.var_diff), size=shots
    )
    cos_hat, theta_hat = cosine_estimator(stats, draws)

    theta = scenario.theta
    th_err = theta_hat - theta
    return EstimationResult(
        cos_hat=cos_hat,
        theta_hat=theta_hat,
        mse_cos=float(np.mean((cos_hat - math.cos(theta)) ** 2)),
        mse_theta=float(np.mean(th_err**2)),
        stderr=_jackknife_stderr(th_err**2),
    )
