import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsense import adversary
from covertsense.adversary import (
    NS_SOLVER_CAP,
    covertness_report,
    epsilon_of,
    pe_lower_bound,
    pe_optimal_counting,
    solve_ns_for_epsilon,
    sqrt_law_schedule,
    thermal_rel_entropy,
)
from covertsense.protocol import SensingScenario


def test_rel_entropy_basics():
    assert thermal_rel_entropy(1.0, 1.0) == 0.0
    assert thermal_rel_entropy(0.0, 2.0) == pytest.approx(math.log(3.0), rel=1e-12)
    with pytest.raises(ValueError):
        thermal_rel_entropy(1.0, 0.0)
    with pytest.raises(ValueError):
        thermal_rel_entropy(-0.1, 1.0)


def test_rel_entropy_matches_textbook_formula_at_large_contrast():
    def direct(n_a, n_b):
        g = (n_a + 1) * math.log(n_a + 1) - n_a * math.log(n_a)
        return -g + n_a * math.log((n_b + 1) / n_b) + math.log(n_b + 1)

    for n_a, n_b in ((2.0, 1.0), (0.5, 3.0), (10.0, 0.2)):
        assert thermal_rel_entropy(n_a, n_b) == pytest.approx(direct(n_a, n_b), rel=1e-12)


def test_rel_entropy_small_difference_law():
    n_b = 160.0
    for delta in (1e-3, 1e-6):
        law = delta**2 / (2.0 * n_b * (n_b + 1.0))
        assert thermal_rel_entropy(n_b + delta, n_b) == pytest.approx(law, rel=0.01)


def test_epsilon_zero_probe():
    assert epsilon_of(SensingScenario(N_S=0.0)) == 0.0


def test_epsilon_scaling_laws():
    sc = SensingScenario()
    e1 = epsilon_of(sc.with_(N_S=1e-5))
    assert epsilon_of(sc.with_(N_S=2e-5)) / e1 == pytest.approx(2.0, rel=1e-3)
    assert epsilon_of(sc.with_(T=sc.T * 4)) / epsilon_of(sc) == pytest.approx(
        2.0, rel=1e-3
    )


def test_pe_lower_bound_values_and_monotonicity():
    assert pe_lower_bound(1.0, 1.0, 5) == 0.5
    # closed form (1 - sqrt(1 - F^(2M)))/2 with F = 1/sqrt(2)
    assert pe_lower_bound(0.0, 1.0, 1) == pytest.approx(
        0.5 * (1.0 - math.sqrt(0.5)), rel=1e-12
    )
    bounds = [pe_lower_bound(1.0, 1.5, m) for m in (1, 5, 25, 125)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))


def test_pe_lower_bound_covert_regime_precision():
    # 1 - F ~ 1e-14 here; the bound must stay strictly below 1/2 and above 0
    lo = pe_lower_bound(160.0, 160.0000235, 125000)
    assert 0.49 < lo < 0.5


def test_pe_optimal_counting_examples():
    assert pe_optimal_counting(1.0, 1.0, 10).pe == 0.5
    t = pe_optimal_counting(0.0, 1.0, 1)
    assert t.pe == pytest.approx(0.25, rel=1e-12)
    t = pe_optimal_counting(1.0, 2.0, 1)
    assert t.threshold == 2
    assert t.pe == pytest.approx(0.4028, abs=5e-4)
    with pytest.raises(ValueError):
        pe_optimal_counting(2.0, 1.0, 1)
    # M n1 = 5e6 is past the CLT switch-over, but at n0 = 0 any count
    # certifies the probe: P_e = p1^M / 2 exactly, which underflows to 0 here
    t = pe_optimal_counting(0.0, 0.5, 10**7)
    assert (t.threshold, t.pe, t.method) == (1, 0.0, "exact_threshold")


def test_pe_optimal_counting_brightnesses_one_ulp_apart():
    # n1 (n0 + 1) / (n0 (n1 + 1)) rounds to 1, so the likelihood-ratio
    # crossing is 0/0; its limit is the mean count M n0
    n0 = 168.0
    t = pe_optimal_counting(n0, math.nextafter(n0, math.inf), 5)
    assert t.method == "exact_threshold"
    assert t.threshold in range(5 * 168 - 1, 5 * 168 + 3)
    assert t.pe == pytest.approx(0.5, abs=1e-15)


def test_pe_optimal_counting_threshold_is_truly_optimal():
    # brute force over all thresholds with the same negative binomial model
    from scipy.stats import nbinom

    n0, n1, m = 0.8, 1.7, 7
    p0, p1 = 1 / (n0 + 1), 1 / (n1 + 1)
    brute = min(
        0.5 * (nbinom.sf(t - 1, m, p0) + nbinom.cdf(t - 1, m, p1)) for t in range(500)
    )
    assert pe_optimal_counting(n0, n1, m).pe == pytest.approx(brute, rel=1e-12)


def _tail_draws():
    """Seeded (M, n0, n1, t) draws over the range the counting test sees,
    as the exact path's (k, n, p0, p1) and the CLT path's (x, mu, s)."""
    rng = np.random.default_rng(8626)
    size = 2000
    m = np.floor(10 ** rng.uniform(0.0, 9.6, size))
    n0 = 10 ** rng.uniform(-4.0, 3.2, size)
    n1 = n0 * (1.0 + 10 ** rng.uniform(-8.0, 0.5, size))
    t = np.floor(m * (n0 + rng.uniform(0.0, 1.0, size) * (n1 - n0)))
    t += rng.integers(-1, 3, size)
    nb = [(int(ti) - 1, int(mi), 1 / (a + 1), 1 / (b + 1)) for ti, mi, a, b in zip(t, m, n0, n1)]
    nb += [(-1, 5, 0.4, 0.3), (3, 5, 1.0, 1.0), (3, 0, 0.4, 0.3), (3, -2, 0.4, 0.3),
           (math.nan, 5, 0.4, 0.3), (3, 5, 0.0, 1.5), (0, 1, 0.5, 0.5)]
    norm_args = [(float(ti), mi * a, math.sqrt(mi * a * (a + 1))) for ti, mi, a in zip(t, m, n0)]
    norm_args += [(5.0, 5.0, 2.0), (5.0, 2.0, 0.0), (5.0, 5.0, 0.0), (5.0, 2.0, -1.0),
                  (math.nan, 2.0, 1.0), (0.0, 0.0, 1e-300)]
    return nb, norm_args


def test_tail_helpers_match_scipy_stats_bit_for_bit():
    # the private ufuncs behind the counting test must reproduce the generic
    # scipy.stats wrappers exactly; a scipy upgrade that breaks this fails here
    from scipy.stats import nbinom, norm

    from covertsense.adversary import _nbinom_cdf, _nbinom_sf, _norm_cdf, _norm_sf

    nb, norm_args = _tail_draws()
    cases = [
        (_nbinom_sf, nbinom.sf, [(k, n, p0) for k, n, p0, _ in nb]),
        (_nbinom_cdf, nbinom.cdf, [(k, n, p1) for k, n, _, p1 in nb]),
        (_norm_sf, norm.sf, norm_args),
        (_norm_cdf, norm.cdf, norm_args),
    ]
    for helper, reference, draws in cases:
        with np.errstate(divide="ignore", invalid="ignore"):  # the s <= 0 edges
            expected = reference(*(np.array(col, dtype=float) for col in zip(*draws)))
        got = [helper(*args) for args in draws]
        assert all(type(v) is np.float64 for v in got), helper.__name__
        assert [v.hex() for v in got] == [float(v).hex() for v in expected], helper.__name__


def _outcome(call, *args, **kwargs):
    """What a call gives: a list of (type, float.hex) for the values it
    returns, or a (type, message) tuple for the exception it raises."""
    try:
        value = call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    values = value if isinstance(value, tuple) else (value,)
    return [(type(v), float(v).hex()) for v in values]


def _scipy_minimize_bounded(func, x1, x2):
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(func, bounds=(x1, x2), method="bounded")
    return res.fun, res.x


def _scipy_brentq(f, xa, xb, xtol, rtol):
    from scipy.optimize import brentq

    return brentq(f, xa, xb, xtol=xtol, rtol=rtol)


def _against_scipy(monkeypatch, name, reference):
    """Make adversary's port `name` also run `reference` on every call it
    gets; returns the list of (port outcome, reference outcome) pairs."""
    port = getattr(adversary, name)
    pairs = []

    def both(*args, **kwargs):
        pairs.append((_outcome(port, *args, **kwargs), _outcome(reference, *args, **kwargs)))
        return port(*args, **kwargs)

    monkeypatch.setattr(adversary, name, both)
    return pairs


def test_minimizer_port_matches_scipy_bit_for_bit(monkeypatch):
    # the bounded minimiser is SciPy's, ported; a port or SciPy change that
    # moves a bit of Willie's CLT threshold or error probability fails here
    pairs = _against_scipy(monkeypatch, "_minimize_bounded", _scipy_minimize_bounded)
    rng = np.random.default_rng(5318)
    size = 10_000
    n0 = 10 ** rng.uniform(-4.0, 4.0, size)
    n1 = n0 * (1.0 + 10 ** rng.uniform(-12.0, 1.0, size))
    m = np.floor(10 ** rng.uniform(0.0, 10.0, size) * np.maximum(1.0, 1e6 / n1))
    draws = [(a, b, int(k)) for a, b, k in zip(n0.tolist(), n1.tolist(), m)]
    # mu1 one ulp above mu0, mu0 == mu1 after rounding, and bounds past
    # the largest double
    draws += [(1000.0, math.nextafter(1000.0, math.inf), 10**6),
              (1023.123456789, math.nextafter(1023.123456789, math.inf), 1_000_013),
              (1e300, 2e300, 10**9)]
    for draw in draws:
        try:
            adversary._pe_threshold_gaussian(*draw)
        except ValueError:  # the non-finite bound
            pass
    mu = [(draw[2] * draw[0], draw[2] * draw[1]) for draw in draws[-3:]]
    assert mu[0][1] == math.nextafter(mu[0][0], math.inf)
    assert mu[1][0] == mu[1][1]
    assert mu[2][1] == math.inf
    # the wrapper's bound checks, called directly
    for x1, x2 in ((2.0, 1.0), (math.nan, 1.0), (0.0, math.inf), (1.0, 1.0)):
        _outcome(adversary._minimize_bounded, abs, x1, x2)
    assert len(pairs) == size + 7
    assert sum(isinstance(got, tuple) for got, _ in pairs) == 4  # the raising cases
    assert [got for got, _ in pairs] == [want for _, want in pairs]


def test_root_finder_port_matches_scipy_bit_for_bit(monkeypatch):
    # solve_ns_for_epsilon's root finder is SciPy's brentq, ported
    pairs = _against_scipy(monkeypatch, "_brentq", _scipy_brentq)
    rng = np.random.default_rng(9127)
    size = 10_000
    # log10 N_B, log10 T, kappa_T, kappa_E, log10 W and log10 of the target
    draws = rng.uniform((-3.0, -6.0, 0.01, 0.01, 8.0, -6.0), (5.0, -2.0, 1.0, 1.0, 10.0, -1.0),
                        (size, 6))
    solved = [
        _outcome(solve_ns_for_epsilon, 10**e,
                 SensingScenario(N_B=10**nb, T=10**t, kappa_T=kt, kappa_E=ke, W=10**w))
        for nb, t, kt, ke, w, e in draws.tolist()
    ]
    unreachable = sum(isinstance(out, tuple) for out in solved)
    assert 100 < unreachable < size // 2  # raised before any root search
    assert len(pairs) == size - unreachable
    # a target that makes the gap NaN, and one whose root is the bracket's end
    sc = SensingScenario()
    at_cap = epsilon_of(sc.with_(N_S=NS_SOLVER_CAP))
    assert solve_ns_for_epsilon(at_cap, sc) == NS_SOLVER_CAP
    _outcome(solve_ns_for_epsilon, math.nan, sc)
    nan_message = "The function value at x=0.0 is NaN; solver cannot continue."
    assert pairs[-1][0] == (ValueError, nan_message)
    # a same-sign bracket, a root at the lower end, and a step whose root
    # bisection cannot reach in 100 iterations
    for f, xa, xb in ((lambda x: x * x + 1.0, -1.0, 1.0), (lambda x: x - 2.0, 2.0, 5.0),
                      (lambda x: 1.0 if x > 1e-200 else -1.0, 0.0, NS_SOLVER_CAP)):
        _outcome(adversary._brentq, f, xa, xb, 1e-300, 1e-12)
    assert [got[0] for got, _ in pairs[-3:]] == [ValueError, (float, "0x1.0000000000000p+1"),
                                                 RuntimeError]
    assert [got for got, _ in pairs] == [want for _, want in pairs]


def test_pe_gaussian_approx_agrees_near_switchover():
    n0, n1 = 1.0, 1.01
    m = 900_000  # m * n1 just below the exact-summation limit
    exact = pe_optimal_counting(n0, n1, m)
    from covertsense.adversary import _pe_threshold_gaussian

    approx = _pe_threshold_gaussian(n0, n1, m)
    assert exact.method == "exact_threshold"
    assert approx.pe == pytest.approx(exact.pe, rel=5e-3)


def test_pe_method_switches_at_large_counts():
    big = pe_optimal_counting(160.0, 160.1, 10**6)
    assert big.method == "gaussian_approx"


@pytest.mark.parametrize("target", [1e-5, 2e-4, 1e-2])
def test_solve_ns_round_trip(target):
    sc = SensingScenario(N_S=1e-6)
    n_s = solve_ns_for_epsilon(target, sc)
    assert epsilon_of(sc.with_(N_S=n_s)) == pytest.approx(target, rel=1e-6)


def test_solve_ns_unreachable_target_raises():
    with pytest.raises(ValueError):
        solve_ns_for_epsilon(1e6, SensingScenario())


def test_sqrt_law_schedule_holds_constant():
    base = SensingScenario(kappa_T=1.0, kappa_E=0.5, N_B=1280.0)
    grid = np.geomspace(0.0625, 4.0, 6)
    sched = sqrt_law_schedule(200.0, grid, base)
    eps = [epsilon_of(sc) for sc in sched]
    for sc in sched:
        assert sc.kappa * sc.N_S * math.sqrt(sc.M) == pytest.approx(200.0, rel=1e-9)
    assert (max(eps) - min(eps)) / np.mean(eps) < 2e-3


def test_covertness_report_ladder_and_csv():
    rep = covertness_report(SensingScenario())
    assert rep.pe_lower <= rep.pe_exact <= 0.5
    row = dataclasses.asdict(rep)
    assert list(row) == ["n0", "n1", "M", "epsilon", "pe_lower", "pe_exact", "method"]


@settings(max_examples=60, deadline=None)
@given(
    n0=st.floats(0.01, 500.0),
    delta=st.floats(1e-6, 50.0),
    m=st.sampled_from([1, 10, 1000, 100_000]),
)
def test_bound_ladder_property(n0, delta, m):
    n1 = n0 + delta
    lo = pe_lower_bound(n0, n1, m)
    hi = pe_optimal_counting(n0, n1, m).pe
    assert 0.0 <= lo <= hi + 1e-12
    assert hi <= 0.5 + 1e-12
