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
the exact negative-binomial count and ``ndtr`` for its Gaussian (CLT)
approximation.  All three come from the compiled ``_ufuncs`` extension,
which ``covertsense._scipy`` loads through a bare stand-in
``scipy.special`` package module and without running ``scipy.special``'s
``__init__`` (over half of a CLI process's start-up); if that package is
already imported, or the stand-in route raises ``ImportError``, it falls
back to the plain import.  Either way these are the ufuncs that
``scipy.special`` itself exports.

The four ``_nbinom_*``/``_norm_*`` helpers below return what SciPy's
generic ``stats.nbinom``/``stats.norm`` wrappers return (argument checks,
support edges, clipping) without their per-call array and mask set-up,
and without importing SciPy's statistics package.
The public ``scipy.special.nbdtr``/``nbdtrc`` are not used: they differ
from ``stats.nbinom`` in the last bit on most inputs.  The guard test in
``tests/test_adversary.py`` compares every helper bit for bit with the
``stats`` wrappers, so a SciPy upgrade that moves or changes a ufunc
fails there.

The two optimisers are Brent's (*Algorithms for Minimization without
Derivatives*, 1973), ported operation for operation from SciPy 1.17.1 so
that no CLI process imports ``scipy.optimize``: ``_brentq`` is its
``brentq`` root finder, which ``solve_ns_for_epsilon`` uses, and
``_minimize_bounded`` its bounded ``minimize_scalar``, which the CLT
threshold test uses.  ``test_root_finder_port_matches_scipy_bit_for_bit``
and ``test_minimizer_port_matches_scipy_bit_for_bit`` in the same file
hold each to SciPy's result (or exception) bit for bit on 10^4 seeded
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._scipy import ufuncs as _ufuncs
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
    pe_lower: float
    pe_exact: float
    method: str


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
    return _ufuncs.ndtr(-((x - mu) / s))


def _norm_cdf(x: float, mu: float, s: float) -> np.float64:
    """SciPy's ``stats.norm.cdf(x, mu, s)``; NaN unless s > 0."""
    if not s > 0.0:
        return np.float64(math.nan)
    return _ufuncs.ndtr((x - mu) / s)


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


def _minimize_bounded(
    func: Callable[[float], float], x1: float, x2: float
) -> tuple[np.float64, np.float64]:
    """(f(x), x) at a minimum of func on [x1, x2] by Brent's bounded method
    (Brent 1973, ch. 5): what SciPy 1.17.1's ``minimize_scalar(func,
    bounds=(x1, x2), method="bounded")`` returns as ``(res.fun, res.x)``.
    Its ``_minimize_scalar_bounded`` is ported operation for operation, with
    the wrapper's bounds checks and scalar conversion and without its
    status flag and printing, at SciPy's default tolerances."""
    xatol, maxiter = 1e-5, 500
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if np.abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat
            if np.abs(p) < np.abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = True
        if golden:  # golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    fun = np.asarray(fx)[()]
    return fun, np.reshape(xf, fun.shape)[()]


def _pe_threshold_gaussian(n0: float, n1: float, m: int) -> DetectionTest:
    """Gaussian (CLT) approximation of the threshold test, minimized over a
    continuous threshold between the two means.

    The tails are ``ndtr`` of the standardized threshold,
    as ``stats.norm`` computes them; needs n0 > 0, since a zero spread
    would give NaN, as it does there.  The guard test in
    ``tests/test_adversary.py`` checks the helpers against ``stats.norm``."""
    mu0, mu1 = m * n0, m * n1
    s0 = math.sqrt(m * n0 * (n0 + 1.0))
    s1 = math.sqrt(m * n1 * (n1 + 1.0))

    def pe_at(t: float) -> float:
        return 0.5 * (_norm_sf(t, mu0, s0) + _norm_cdf(t, mu1, s1))

    fun, x = _minimize_bounded(pe_at, mu0, mu1)
    pe = min(float(fun), 0.5)
    return DetectionTest(threshold=int(round(x)), pe=pe, method="gaussian_approx")


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


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign, by
    Brent's method (Brent 1973, ch. 4): SciPy 1.17.1's ``brentq``, its C
    routine and the NaN check it wraps f in, ported operation for
    operation with the same exceptions and messages, at SciPy's default of
    100 iterations."""
    maxiter = 100

    def checked(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)  # a C double from here on

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = checked(xpre), checked(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):  # C's signbit test, for nonzero values
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = checked(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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
    return _brentq(gap, 0.0, NS_SOLVER_CAP, xtol=1e-300, rtol=1e-12)


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
        pe_lower=pe_lower_bound(n0, n1, m),
        pe_exact=test.pe,
        method=test.method,
    )
