"""Willie's side: thermal-state discrimination bounds, the exact optimal
photon-counting test, the covertness parameter, and square-root-law
schedules.

The covertness parameter is defined through quantum relative entropy and
Pinsker's inequality, epsilon = sqrt(M D(rho1 || rho0) / 8), preserving
the operational guarantee P_e >= 1/2 - epsilon.  In the weak-probe,
bright-background regime it scales as sqrt(M) N_S / N_B.

Every bound here compares thermal states, which is what Willie sees for
both probes: the signal arm of the entangled and of the classical source
is thermal with mean N_S.

Willie's counting test evaluates its tail probabilities with SciPy's
ufuncs directly: ``scipy.special._ufuncs._nbinom_sf``/``_nbinom_cdf`` for
the exact negative-binomial count and ``scipy.special.ndtr`` for its
Gaussian (CLT) approximation.  The four ``_nbinom_*``/``_norm_*`` helpers
below return what SciPy's generic ``stats.nbinom``/``stats.norm`` wrappers
return (argument checks, support edges, clipping) without their per-call
array and mask set-up, and without importing SciPy's statistics package.
The public ``scipy.special.nbdtr``/``nbdtrc`` are not used: they differ
from ``stats.nbinom`` in the last bit on most inputs.  The guard test in
``tests/test_adversary.py`` compares every helper bit for bit with the
``stats`` wrappers, so a SciPy upgrade that moves or changes a ufunc
fails there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import _ufuncs, ndtr

from .protocol import SensingScenario, willie_brightnesses

EXACT_COUNT_LIMIT = 1e6  # expected total counts above which we switch to CLT
NS_SOLVER_CAP = 10.0


@dataclass(frozen=True)
class DetectionTest:
    """Outcome of Willie's threshold test on the total photon count."""

    threshold: int
    pe: float
    method: str  # "exact_threshold" or "gaussian_approx"


@dataclass(frozen=True)
class CovertnessReport:
    n0: float
    n1: float
    M: int
    epsilon: float
    pe_lower_fidelity: float
    pe_exact: float
    method: str

    def csv_row(self) -> dict:
        return {
            "n0": self.n0,
            "n1": self.n1,
            "M": self.M,
            "epsilon": self.epsilon,
            "pe_lower": self.pe_lower_fidelity,
            "pe_exact": self.pe_exact,
            "method": self.method,
        }


def thermal_rel_entropy(n_a: float, n_b: float) -> float:
    """Quantum relative entropy D(thermal(n_a) || thermal(n_b)) in nats.

    The textbook expression -g(n_a) + n_a ln((n_b+1)/n_b) + ln(n_b+1)
    cancels catastrophically in the covert regime (|n_a - n_b| / n_b down
    to ~1e-7, D down to ~1e-14), so it is rearranged into the equivalent
    D = n_a log1p(d/n_b) - (n_a+1) log1p(d/(n_b+1)) with d = n_a - n_b,
    and for very small contrasts evaluated by its power series
    D = sum_{k>=1} (-1)^(k+1) d^(k+1) / (k(k+1)) * (n_b^-k - (n_b+1)^-k),
    whose leading term is the small-difference law d^2 / (2 n_b (n_b+1)).
    """
    if n_a < 0.0 or n_b < 0.0:
        raise ValueError("thermal means must be >= 0")
    if n_b == 0.0:
        if n_a == 0.0:
            return 0.0
        raise ValueError("divergence is infinite against a vacuum null state")
    if n_a == 0.0:
        return math.log(n_b + 1.0)
    d = n_a - n_b
    if d == 0.0:
        return 0.0
    if abs(d) < 1e-3 * n_b:
        total, dk = 0.0, d
        for k in range(1, 12):
            dk *= d  # d^(k+1)
            term = dk / (k * (k + 1)) * (n_b**-k - (n_b + 1.0) ** -k)
            if k % 2 == 0:
                term = -term
            total += term
            if abs(term) < 1e-18 * abs(total):
                break
        return max(total, 0.0)
    val = n_a * math.log1p(d / n_b) - (n_a + 1.0) * math.log1p(d / (n_b + 1.0))
    return max(val, 0.0)


def epsilon_of(scenario: SensingScenario) -> float:
    """Covertness parameter via the relative-entropy/Pinsker route."""
    n0, n1 = willie_brightnesses(scenario)
    if n1 == n0:
        return 0.0
    return math.sqrt(scenario.M * thermal_rel_entropy(n1, n0) / 8.0)


def _thermal_infidelity_gap(n0: float, n1: float) -> float:
    """1/F - 1 for single-mode thermal states, computed without the
    catastrophic cancellation of the textbook sqrt((n0+1)(n1+1)) -
    sqrt(n0 n1) at nearly equal brightnesses: the exact rearrangement is
    (sqrt(n1) - sqrt(n0))^2 / (sqrt((n0+1)(n1+1)) + sqrt(n0 n1) + 1)."""
    if n0 == n1:
        return 0.0
    s = (n1 - n0) / (math.sqrt(n1) + math.sqrt(n0))
    return s * s / (math.sqrt((n0 + 1.0) * (n1 + 1.0)) + math.sqrt(n0 * n1) + 1.0)


def pe_lower_bound(n0: float, n1: float, m_copies: int) -> float:
    """Fidelity-based lower bound on the detection error probability for
    discriminating M-fold thermal products at equal priors:
    P_e >= (1 - sqrt(1 - F^(2M))) / 2.

    Evaluated in log space so the covert regime (1 - F down to ~1e-14,
    M up to ~1e9) keeps full precision."""
    if n0 < 0 or n1 < 0:
        raise ValueError("thermal means must be >= 0")
    log_f = -math.log1p(_thermal_infidelity_gap(n0, n1))
    one_minus_f2m = -math.expm1(2.0 * m_copies * log_f)
    return 0.5 * (1.0 - math.sqrt(max(0.0, one_minus_f2m)))


def _nbinom_valid(k: float, n: float, p: float) -> bool:
    return n > 0 and 0.0 < p <= 1.0 and not math.isnan(k)


def _nbinom_sf(k: float, n: float, p: float) -> np.float64:
    """SciPy's ``stats.nbinom.sf(k, n, p)`` at a finite or NaN count k."""
    if not _nbinom_valid(k, n, p):
        return np.float64(math.nan)
    if k < 0:
        return np.float64(1.0)
    return np.clip(_ufuncs._nbinom_sf(np.floor(k), n, p), 0.0, 1.0)


def _nbinom_cdf(k: float, n: float, p: float) -> np.float64:
    """SciPy's ``stats.nbinom.cdf(k, n, p)`` at a finite or NaN count k."""
    if not _nbinom_valid(k, n, p):
        return np.float64(math.nan)
    if k < 0:
        return np.float64(0.0)
    return np.clip(_ufuncs._nbinom_cdf(np.floor(k), n, p), 0.0, 1.0)


def _norm_sf(x: float, mu: float, s: float) -> np.float64:
    """SciPy's ``stats.norm.sf(x, mu, s)``; NaN unless s > 0."""
    if not s > 0.0:
        return np.float64(math.nan)
    return ndtr(-((x - mu) / s))


def _norm_cdf(x: float, mu: float, s: float) -> np.float64:
    """SciPy's ``stats.norm.cdf(x, mu, s)``; NaN unless s > 0."""
    if not s > 0.0:
        return np.float64(math.nan)
    return ndtr((x - mu) / s)


def _pe_threshold_exact(n0: float, n1: float, m: int) -> DetectionTest:
    """Exact Bayes-optimal threshold test on the negative-binomial total
    count, for n0 > 0; the likelihood ratio is monotone so only the
    crossing threshold and its neighbors need checking.

    The tails come from the private ufuncs
    ``scipy.special._ufuncs._nbinom_sf``/``_nbinom_cdf``, which match
    ``stats.nbinom`` bit for bit where the public ``nbdtrc``/``nbdtr`` do
    not; the guard test in ``tests/test_adversary.py`` checks this."""
    p0, p1 = 1.0 / (n0 + 1.0), 1.0 / (n1 + 1.0)
    # LR(k) >= 1  <=>  k >= m * ln((n1+1)/(n0+1)) / ln(n1 (n0+1) / (n0 (n1+1)))
    # (n1 - n0 below double resolution makes the log ratio 0: take the
    # limit n1 -> n0, the mean count m n0)
    log_ratio = math.log((n1 * (n0 + 1.0)) / (n0 * (n1 + 1.0)))
    t_star = m * math.log((n1 + 1.0) / (n0 + 1.0)) / log_ratio if log_ratio else m * n0
    candidates = sorted(
        {max(0, int(math.floor(t_star)) + d) for d in (-1, 0, 1, 2)}
    )
    best_t, best_pe = 0, 0.5
    for t in candidates:
        # decide H1 iff count >= t
        pe = 0.5 * (_nbinom_sf(t - 1, m, p0) + _nbinom_cdf(t - 1, m, p1))
        if pe < best_pe:
            best_t, best_pe = t, pe
    return DetectionTest(threshold=best_t, pe=min(best_pe, 0.5), method="exact_threshold")


def _pe_threshold_gaussian(n0: float, n1: float, m: int) -> DetectionTest:
    """Gaussian (CLT) approximation of the threshold test, minimized over a
    continuous threshold between the two means.

    The tails are ``scipy.special.ndtr`` of the standardized threshold,
    as ``stats.norm`` computes them; needs n0 > 0, since a zero spread
    would give NaN, as it does there.  The guard test in
    ``tests/test_adversary.py`` checks the helpers against ``stats.norm``."""
    mu0, mu1 = m * n0, m * n1
    s0 = math.sqrt(m * n0 * (n0 + 1.0))
    s1 = math.sqrt(m * n1 * (n1 + 1.0))

    def pe_at(t: float) -> float:
        return 0.5 * (_norm_sf(t, mu0, s0) + _norm_cdf(t, mu1, s1))

    res = minimize_scalar(pe_at, bounds=(mu0, mu1), method="bounded")
    pe = min(float(res.fun), 0.5)
    return DetectionTest(threshold=int(round(res.x)), pe=pe, method="gaussian_approx")


def pe_optimal_counting(n0: float, n1: float, m_copies: int) -> DetectionTest:
    """Error probability of Willie's optimal measurement: direct photon
    counting with the Bayes-optimal threshold on the total count over M
    thermal modes.

    At a zero background any nonzero count certifies the probe, so
    P_e = p1^M / 2 exactly, at any M.  Otherwise the exact negative-binomial
    summation runs while the expected count is at most 1e6; beyond that a
    Gaussian (CLT) approximation takes over and the result is flagged
    accordingly."""
    if not n1 > n0 >= 0.0:
        if n0 == n1:
            return DetectionTest(threshold=0, pe=0.5, method="exact_threshold")
        raise ValueError("need n1 > n0 >= 0")
    m = int(m_copies)
    if n0 == 0.0:
        pe = 0.5 * math.exp(m * math.log(1.0 / (n1 + 1.0)))
        return DetectionTest(threshold=1, pe=pe, method="exact_threshold")
    if m * n1 <= EXACT_COUNT_LIMIT:
        return _pe_threshold_exact(n0, n1, m)
    return _pe_threshold_gaussian(n0, n1, m)


def solve_ns_for_epsilon(epsilon_target: float, scenario: SensingScenario) -> float:
    """Invert epsilon_of for the probe brightness at fixed channel and M.

    epsilon_of is strictly increasing in N_S, so a bracketed root search
    suffices; raises if the target is unreachable below the cap."""
    if epsilon_target < 0.0:
        raise ValueError("epsilon target must be >= 0")
    if epsilon_target == 0.0:
        return 0.0

    def gap(n_s: float) -> float:
        return epsilon_of(scenario.with_(N_S=n_s)) - epsilon_target

    if gap(NS_SOLVER_CAP) < 0.0:
        raise ValueError(
            f"epsilon target {epsilon_target} unreachable with N_S <= {NS_SOLVER_CAP}"
        )
    root = brentq(gap, 0.0, NS_SOLVER_CAP, xtol=1e-300, rtol=1e-12)
    return float(root)


def sqrt_law_schedule(
    constant: float, t_grid: Sequence[float], scenario: SensingScenario
) -> list[SensingScenario]:
    """Scenarios holding kappa * N_S * sqrt(M) = constant across a grid of
    interrogation times (the square-root law), so covertness stays flat
    while total signal grows only as sqrt(M)."""
    if constant <= 0.0:
        raise ValueError("schedule constant must be > 0")
    out = []
    for t in t_grid:
        sc = scenario.with_(T=float(t))
        n_s = constant / (sc.kappa * math.sqrt(sc.M))
        if n_s > NS_SOLVER_CAP:
            raise ValueError(
                f"schedule needs N_S={n_s:.3g} at T={t}, above the cap {NS_SOLVER_CAP}"
            )
        out.append(sc.with_(N_S=n_s))
    return out


def covertness_report(scenario: SensingScenario) -> CovertnessReport:
    """Full adversary-side summary for one scenario point."""
    n0, n1 = willie_brightnesses(scenario)
    m = scenario.M
    test = pe_optimal_counting(n0, n1, m)
    return CovertnessReport(
        n0=n0,
        n1=n1,
        M=m,
        epsilon=epsilon_of(scenario),
        pe_lower_fidelity=pe_lower_bound(n0, n1, m),
        pe_exact=test.pe,
        method=test.method,
    )
