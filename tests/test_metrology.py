import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import SCENARIO_PARAMS

from covertsense import gaussian as g
from covertsense import metrology
from covertsense.adversary import covertness_report
from covertsense.metrology import (
    QFI_PRECISION_DPS,
    ConvergenceError,
    gaussian_fidelity,
    qfi_of_family,
    qfi_phase,
    receiver_fisher,
)
from covertsense.protocol import ProtocolVariant, SensingScenario, tmsv
from covertsense.receivers import CalibrationError, pcr_stats, receiver_stats

QCRB_VARIANTS = (ProtocolVariant.ENTANGLED, ProtocolVariant.CLASSICAL_THERMAL)


def test_fidelity_identical_states():
    st = g.thermal(0.7)
    assert gaussian_fidelity(st, st) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_thermal_closed_form():
    # F = 1 / (sqrt((n0+1)(n1+1)) - sqrt(n0 n1))
    a, b = g.thermal(0.4, "a"), g.thermal(1.1, "a")
    closed = 1.0 / (math.sqrt(1.4 * 2.1) - math.sqrt(0.4 * 1.1))
    assert gaussian_fidelity(a, b) == pytest.approx(closed, rel=1e-9)


def test_fidelity_two_mode_pure_overlap():
    # TMSV at different phases: overlap has closed form via the state overlap
    st1 = tmsv(0.3)
    st2 = g.apply_phase(tmsv(0.3), "S", 0.4)
    fid = gaussian_fidelity(st1, st2)
    # <psi(0)|psi(theta)> = (1 - lam^2) / |1 - lam^2 e^(i theta)| with lam^2 = N/(N+1)
    lam2 = 0.3 / 1.3
    expected = (1 - lam2) / abs(1 - lam2 * np.exp(1j * 0.4))
    assert fid == pytest.approx(expected, rel=1e-8)


def test_fidelity_mode_count_mismatch():
    with pytest.raises(ValueError):
        gaussian_fidelity(g.thermal(0.1), g.vacuum(("a", "b")))


def test_qfi_pure_tmsv_phase():
    # phase on one arm of a lossless TMSV: J = 4 Var(n) = 4 N_S (N_S + 1)
    sc = SensingScenario(
        N_S=0.2, N_B=0.0, kappa_T=1.0, kappa_E=1.0, kappa_I=1.0, W=1e6, T=1e-3
    )
    res = qfi_phase(sc, ProtocolVariant.ENTANGLED)
    assert res.J == pytest.approx(4 * 0.2 * 1.2, rel=1e-6)
    assert res.qcrb_var == pytest.approx(1.0 / (sc.M * res.J), rel=1e-12)


def test_qfi_pure_squeezed_vacuum_phase():
    # phase on one-mode squeezed vacuum, R(theta) diag(e^2r, e^-2r) R(theta)^T,
    # of energy N = sinh^2 r: J = 8 N (N + 1)
    r = 0.4
    squeezed = g.GaussianState(("a",), np.diag([math.exp(2 * r), math.exp(-2 * r)]))
    res = qfi_of_family(lambda th: g.apply_phase(squeezed, "a", th), 0.7)
    n = math.sinh(r) ** 2
    assert res.J == pytest.approx(8 * n * (n + 1), rel=1e-6)


def test_qfi_noisy_asymptotic_law():
    # weak probe in bright background: J -> 4 kappa N_S (N_S+1) / (N_B+1)
    sc = SensingScenario()
    res = qfi_phase(sc, ProtocolVariant.ENTANGLED)
    law = 4 * sc.kappa * sc.N_S * (sc.N_S + 1) / (sc.N_B + 1)
    assert res.J == pytest.approx(law, rel=0.02)
    assert res.richardson_error < 1e-3 * res.J


def test_qfi_classical_bright_reference_law():
    sc = SensingScenario()
    res = qfi_phase(sc, ProtocolVariant.CLASSICAL_THERMAL)
    law = 4 * sc.kappa * sc.N_S / (2 * sc.N_B + 1)
    assert res.J == pytest.approx(law, rel=0.02)


def test_qfi_zero_probe():
    res = qfi_phase(SensingScenario(N_S=0.0), ProtocolVariant.ENTANGLED)
    assert res.J == 0.0
    assert math.isinf(res.qcrb_var)


def test_qfi_of_family_on_explicit_rotation():
    def family(theta):
        return g.apply_phase(tmsv(0.15), "S", theta)

    res = qfi_of_family(family, 0.9)
    assert res.J == pytest.approx(4 * 0.15 * 1.15, rel=1e-6)


def test_receiver_fisher_matches_theory_inverse():
    sc = SensingScenario(theta=1.1)
    stats = pcr_stats(sc)
    assert receiver_fisher(stats) == pytest.approx(1.0 / (sc.M * stats.var_theta), rel=1e-10)


def test_receiver_never_beats_qcrb():
    sc = SensingScenario()
    stats = pcr_stats(sc)
    j_rec = receiver_fisher(stats)
    j_q = qfi_phase(sc, ProtocolVariant.ENTANGLED).J
    assert j_rec <= j_q * (1.0 + 1e-6)


def test_qfi_zero_background():
    # N_B = 0 leaves pure modes in the receiver input; the weak-probe laws
    # above still hold there
    sc = SensingScenario(N_B=0.0)
    laws = {
        ProtocolVariant.ENTANGLED: 4 * sc.kappa * sc.N_S * (sc.N_S + 1),
        ProtocolVariant.CLASSICAL_THERMAL: 4 * sc.kappa * sc.N_S,
    }
    for variant in QCRB_VARIANTS:
        res = qfi_phase(sc, variant)
        assert math.isfinite(res.J)
        assert res.J == pytest.approx(laws[variant], rel=0.02)
        assert receiver_fisher(receiver_stats(sc, variant)) <= res.J


def test_bounds_hold_over_the_scenario_domain():
    # Each draw, for each variant, either raises a documented error or
    # satisfies pe_lower <= pe_exact <= 1/2, the Pinsker bound
    # pe_exact >= 1/2 - epsilon, var_diff >= 0 and receiver Fisher <= QFI.
    # pe_exact is compared up to its rounding: the exact count's tail
    # parameter p = 1/(n0 + 1) carries a relative error ~1e-16 / n0 in
    # 1 - p, which moves pe_exact by up to ~2e-17 sqrt(1 + M n1) / n0
    # (measured), and the CLT branch minimises numerically, to ~1e-12.
    reached = []

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(params=SCENARIO_PARAMS)
    def check(params):
        for variant in QCRB_VARIANTS:
            try:
                sc = SensingScenario(**params)
                report = covertness_report(sc)
                stats = receiver_stats(sc, variant)
                assert stats.var_diff >= 0.0
                j_rec = receiver_fisher(stats)
                j_q = qfi_phase(sc, variant).J
            except (ValueError, CalibrationError, ConvergenceError):
                reached.append(False)
                continue
            reached.append(True)
            n0, n1, m = report.n0, report.n1, report.M
            slack = 1e-11
            if n0 > 0.0:  # at n0 = 0, pe_exact is the closed form p1^M / 2
                slack += 1e-16 * math.sqrt(1.0 + m * n1) / min(n0, 1.0)
            assert report.pe_lower <= report.pe_exact + slack
            assert report.pe_exact <= 0.5
            assert report.pe_exact >= 0.5 - report.epsilon - slack
            assert j_rec <= j_q * (1.0 + 1e-6)

    check()
    assert sum(reached) >= len(reached) / 2


def test_qfi_rejects_three_modes():
    def family(theta):
        return g.apply_phase(g.vacuum(("a", "b", "c")), "a", theta)

    with pytest.raises(ValueError, match="3 modes"):
        qfi_of_family(family, 0.5)


def _mp_aux(cov_a: np.ndarray, cov_b: np.ndarray):
    """(sig_sum, Vaux, m = I + (Vaux Omega)^-2 / 4) in mpmath, at the
    caller's working precision."""
    n = len(cov_a) // 2
    om = mp.matrix(g.omega(n).tolist())
    sig1 = mp.matrix(cov_a.tolist()) / 2
    sig2 = mp.matrix(cov_b.tolist()) / 2
    sig_sum = sig1 + sig2
    vaux = om.T * (sig_sum**-1) * (om / 4 + sig2 * om * sig1)
    w = vaux * om
    return sig_sum, vaux, mp.eye(2 * n) + (w**-1) ** 2 / 4


def fidelity_mp_spectrum(cov_a: np.ndarray, cov_b: np.ndarray) -> mp.mpf:
    """Reference for metrology._fidelity_mp in mpmath: the same spectrum
    form, det(sqrt(m) + I) read off tr m and det m, in binary arithmetic."""
    n = len(cov_a) // 2
    with mp.workdps(QFI_PRECISION_DPS):
        sig_sum, vaux, m = _mp_aux(cov_a, cov_b)
        mu_sum = sum(m[i, i] for i in range(2 * n)) / 2
        mu_geo = max(mp.det(m), 0) ** mp.mpf("0.25") if n == 2 else mp.mpf(0)
        prod = 1 + mu_geo + mp.sqrt(max(mu_sum + 2 * mu_geo, 0))
        ftot4 = 4**n * mp.det(vaux) * prod**2
        return (ftot4 / mp.det(sig_sum)) ** mp.mpf("0.25")


def fidelity_mp_sqrtm(cov_a: np.ndarray, cov_b: np.ndarray) -> mp.mpf:
    """Reference for metrology._fidelity_mp in mpmath: the
    Banchi-Braunstein-Pirandola fidelity with det(2 (sqrt(m) + I) Vaux)
    taken through mp.sqrtm."""
    with mp.workdps(QFI_PRECISION_DPS):
        sig_sum, vaux, m = _mp_aux(cov_a, cov_b)
        ftot4 = mp.det(2 * (mp.sqrtm(m) + mp.eye(m.rows)) * vaux)
        return (mp.re(ftot4) / mp.det(sig_sum)) ** mp.mpf("0.25")


def _reference_cases():
    """(scenario, variant) pairs for both references, and pairs for the
    spectrum-form reference only.  mp.sqrtm does not converge at N_B = 0,
    where a mode of the receiver input is pure, and costs ~0.25 s a pair,
    so the contract's qcrb grid is checked against the spectrum form."""
    rng = np.random.default_rng(20151221)
    both = []
    for variant in ProtocolVariant:
        for _ in range(4):
            sc = SensingScenario(
                N_S=10 ** rng.uniform(-6, math.log10(5)),
                N_B=10 ** rng.uniform(-3, 4),
                kappa_T=10 ** rng.uniform(-2, 0),
                kappa_E=10 ** rng.uniform(-2, 0),
                kappa_I=10 ** rng.uniform(-2, 0),
                theta=rng.uniform(0, 2 * math.pi),
                N_R=10 ** rng.uniform(-3, 5),
            )
            both.append((sc, variant))
    fig3 = SensingScenario(theta=round(0.1 * math.pi, 12))
    fig4 = SensingScenario(N_B=1280.0)
    near_pure = [SensingScenario(N_B=n_b) for n_b in (1e-9, 1e-6, 1e-3)]
    both += [(sc, v) for sc in (fig3, fig4, *near_pure) for v in QCRB_VARIANTS]
    spectrum_only = [SensingScenario(N_B=0.0)]
    spectrum_only += [
        SensingScenario(N_B=n_b, theta=theta, N_S=n_s)
        for n_b in (0.001, 0.01, 40.0, 1280.0)
        for theta in (0.3, 2.5)
        for n_s in (1e-4, 0.1)
    ]
    return both, [(sc, v) for sc in spectrum_only for v in QCRB_VARIANTS]


def test_qfi_matches_sqrtm_reference_bit_for_bit(monkeypatch):
    def bits(cases):
        return [
            (res.J.hex(), res.qcrb_var.hex(), res.richardson_error.hex())
            for res in (qfi_phase(sc, v) for sc, v in cases)
        ]

    both, spectrum_only = _reference_cases()
    fast = bits(both), bits(spectrum_only)
    monkeypatch.setattr(metrology, "_fidelity_mp", fidelity_mp_spectrum)
    assert (bits(both), bits(spectrum_only)) == fast
    monkeypatch.setattr(metrology, "_fidelity_mp", fidelity_mp_sqrtm)
    assert bits(both) == fast[0]
