"""Acceptance suite: one test per headline criterion, each emitting a
single PASS/FAIL line on the terminal (bypassing capture) with the
measured quantity and its tolerance."""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import (
    mixed_tol_err,
    oracle_hr_stats,
    oracle_pcr_stats,
    oracle_receiver_input_entangled,
    rng_for,
)
from covertsense import fock as f
from covertsense import gaussian as g
from covertsense.adversary import (
    epsilon_of,
    pe_lower_bound,
    pe_optimal_counting,
    solve_ns_for_epsilon,
    sqrt_law_schedule,
    thermal_rel_entropy,
)
from covertsense.cli import main as cli_main
from covertsense.metrology import gaussian_fidelity, qfi_phase, receiver_fisher
from covertsense.montecarlo import simulate
from covertsense.protocol import (
    ProtocolVariant,
    SensingScenario,
    split_thermal,
    tmsv,
)
from covertsense.receivers import hr_stats, pcr_stats, receiver_stats

ENT = ProtocolVariant.ENTANGLED
CLS = ProtocolVariant.CLASSICAL_THERMAL


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_quantum_advantage_direction(capsys):
    """Entangled cosine-rms beats classical at every theta; averaged ratio
    in [0.55, 0.95]."""
    thetas = np.linspace(0.1 * math.pi, 0.9 * math.pi, 13)
    worst_gap, ratios = math.inf, []
    idx = 0
    for w in (1e8, 1e9, 1e10):
        for theta in thetas:
            sc = SensingScenario(W=w, theta=float(theta))
            re_ = simulate(pcr_stats(sc), 2000, seed=0, point_index=idx)
            rc_ = simulate(hr_stats(sc), 2000, seed=0, point_index=idx + 1)
            idx += 2
            rms_e, rms_c = math.sqrt(re_.mse_cos), math.sqrt(rc_.mse_cos)
            worst_gap = min(worst_gap, rms_c - rms_e)
            ratios.append(rms_e / rms_c)
    mean_ratio = float(np.mean(ratios))
    ok = worst_gap > 0.0 and 0.55 <= mean_ratio <= 0.95
    report(
        capsys, 1, ok,
        f"entangled < classical cosine-rms at all 13 thetas x 3 bandwidths "
        f"(min gap {worst_gap:.3g}); mean rms ratio {mean_ratio:.3f} in [0.55, 0.95]",
    )


def test_criterion_2_mse_advantage_magnitude(capsys):
    """Ideal-device theory MSE ratio entangled/classical <= 0.60."""
    sc = SensingScenario(kappa_I=1.0, G_pc=1.01, N_B=160.0, N_S=8e-4, theta=math.pi / 2)
    v_ent = pcr_stats(sc).var_theta
    v_cls = hr_stats(sc).var_theta
    ratio = v_ent / v_cls
    report(capsys, 2, ratio <= 0.60, f"ideal-device MSE ratio {ratio:.4f} <= 0.60")


def test_criterion_3_near_optimality(capsys):
    """Receiver Fisher information within 20% of the QFI and simulated
    (delta-method) MSE within 1.3x of the QCRB at the fixed-covertness
    operating points."""
    worst_eff, worst_excess = math.inf, 0.0
    for i, n_b in enumerate((40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)):
        base = SensingScenario(N_B=n_b)
        sc = base.with_(N_S=solve_ns_for_epsilon(2e-4, base))
        stats = receiver_stats(sc, ENT)
        q = qfi_phase(sc, ENT)
        worst_eff = min(worst_eff, receiver_fisher(stats) / q.J)
        res = simulate(stats, 2000, seed=0, point_index=i)
        sim_mse_theta = res.mse_cos / math.sin(sc.theta) ** 2
        worst_excess = max(worst_excess, sim_mse_theta / q.qcrb_var)
    ok = worst_eff >= 0.80 and worst_excess <= 1.3
    report(
        capsys, 3, ok,
        f"min receiver_fisher/QFI {worst_eff:.3f} >= 0.80; "
        f"max simulated MSE/QCRB {worst_excess:.3f} <= 1.3",
    )


def test_criterion_4_fixed_covertness_flatness(capsys):
    """Theory phase MSE flat to <5% peak-to-peak over the N_B grid at
    epsilon = 2e-4, and the epsilon column constant to 2%."""
    nb_grid = (40.0, 80.0, 160.0, 320.0, 640.0, 1280.0)
    p2p = {}
    eps_vals = []
    for variant in (ENT, CLS):
        vals = []
        for n_b in nb_grid:
            base = SensingScenario(W=1e10, N_B=n_b)
            sc = base.with_(N_S=solve_ns_for_epsilon(2e-4, base))
            vals.append(receiver_stats(sc, variant).var_theta)
            if variant is ENT:
                eps_vals.append(epsilon_of(sc))
        vals = np.array(vals)
        p2p[variant] = float((vals.max() - vals.min()) / vals.mean())
    eps_arr = np.array(eps_vals)
    eps_p2p = float((eps_arr.max() - eps_arr.min()) / eps_arr.mean())
    ok = all(v < 0.05 for v in p2p.values()) and eps_p2p < 0.02
    report(
        capsys, 4, ok,
        f"theory MSE peak-to-peak entangled {p2p[ENT]:.3%}, classical "
        f"{p2p[CLS]:.3%} (< 5%); epsilon spread {eps_p2p:.2e} (< 2%)",
    )


def test_criterion_5_square_root_law(capsys):
    """Obey-law detection error flat to 2% over a x64 time span; violate-law
    strictly decreasing; log-log MSE slopes -0.5 and -1.0 within 0.05."""
    base = SensingScenario(kappa_T=1.0, kappa_E=0.5, N_B=1280.0)
    t_grid = np.geomspace(0.0625, 4.0, 6)
    obey = sqrt_law_schedule(200.0, t_grid, base)
    violate = [base.with_(T=float(t), N_S=6.25e-5 * base.N_B / base.kappa) for t in t_grid]

    def pe_of(sc):
        n0 = sc.N_B
        n1 = n0 + sc.f_W * (1 - sc.kappa_E) * sc.kappa_T * sc.N_S
        return pe_optimal_counting(n0, n1, sc.M).pe

    def slope(scenarios, variant):
        mses = [receiver_stats(sc, variant).var_theta for sc in scenarios]
        return float(np.polyfit(np.log(t_grid), np.log(mses), 1)[0])

    pe_obey = np.array([pe_of(sc) for sc in obey])
    pe_violate = np.array([pe_of(sc) for sc in violate])
    pe_flat = float((pe_obey.max() - pe_obey.min()) / pe_obey.mean())
    strictly_down = bool(np.all(np.diff(pe_violate) < 0.0))
    slopes = {
        ("obey", v): slope(obey, v) for v in (ENT, CLS)
    } | {("violate", v): slope(violate, v) for v in (ENT, CLS)}
    slopes_ok = all(
        abs(s - (-0.5 if sched == "obey" else -1.0)) <= 0.05
        for (sched, _), s in slopes.items()
    )
    ok = pe_flat < 0.02 and strictly_down and slopes_ok
    report(
        capsys, 5, ok,
        f"obey pe spread {pe_flat:.2e} (< 2%); violate strictly decreasing "
        f"{strictly_down}; slopes obey {slopes[('obey', ENT)]:.3f}/"
        f"{slopes[('obey', CLS)]:.3f}, violate {slopes[('violate', ENT)]:.3f}/"
        f"{slopes[('violate', CLS)]:.3f} (within +-0.05 of -0.5/-1.0)",
    )


def test_criterion_6_epsilon_scaling_regression(capsys):
    """log epsilon regresses on log N_S with slope 1.00 +- 0.01 and on
    log M with slope 0.50 +- 0.01 in the weak-probe bright-background regime."""
    sc = SensingScenario(N_B=160.0)
    ns_grid = np.geomspace(1e-5, 1e-3, 7)
    eps_ns = [epsilon_of(sc.with_(N_S=float(n))) for n in ns_grid]
    slope_ns = float(np.polyfit(np.log(ns_grid), np.log(eps_ns), 1)[0])
    t_grid = np.geomspace(125e-6, 125e-4, 7)
    m_grid = [sc.with_(T=float(t)).M for t in t_grid]
    eps_m = [epsilon_of(sc.with_(N_S=1e-4, T=float(t))) for t in t_grid]
    slope_m = float(np.polyfit(np.log(m_grid), np.log(eps_m), 1)[0])
    ok = abs(slope_ns - 1.0) <= 0.01 and abs(slope_m - 0.5) <= 0.01
    report(
        capsys, 6, ok,
        f"slope vs log N_S {slope_ns:.4f} (1.00 +- 0.01); "
        f"slope vs log M {slope_m:.4f} (0.50 +- 0.01)",
    )


def _random_core_scenarios(rng, count):
    """Random 1-2 mode Gaussian states with a random op chain applied."""
    cases = []
    for _ in range(count):
        kind = rng.choice(["thermal_loss", "tmsv_chain", "split_bs"])
        if kind == "thermal_loss":
            n = rng.uniform(0.05, 1.2)
            kappa = rng.uniform(0.3, 0.95)
            n_b = rng.uniform(0.0, 0.5)
            state = g.apply_thermal_loss(g.thermal(n, "a"), "a", kappa, n_b)
            cutoffs = (30,)
        elif kind == "tmsv_chain":
            n_s = rng.uniform(0.02, 0.4)
            theta = rng.uniform(0.0, 2 * math.pi)
            kappa = rng.uniform(0.4, 1.0)
            n_b = rng.uniform(0.0, 0.4)
            state = tmsv(n_s, ("a", "b"))
            state = g.apply_phase(state, "a", theta)
            state = g.apply_thermal_loss(state, "a", kappa, n_b)
            cutoffs = (22, 22)
        else:
            n_s = rng.uniform(0.05, 0.5)
            n_r = rng.uniform(0.05, 0.8)
            eta = rng.uniform(0.2, 0.8)
            state = split_thermal(n_s, n_r, ("a", "b"))
            state = g.apply_beamsplitter(state, "a", "b", eta)
            cutoffs = (24, 24)
        cases.append((state, cutoffs))
    return cases


def test_criterion_7_oracle_equivalence(capsys):
    """Gaussian-core statistics, receiver pipelines, fidelities, relative
    entropies, and QFI agree with the truncated Fock oracle at >= 20
    randomized desk-scale points."""
    rng = rng_for("criterion-7-oracle")
    checks = 0
    worst_stat, worst_qfi = 0.0, 0.0

    # 10 gaussian-core photon/difference statistic points
    for state, cutoffs in _random_core_scenarios(rng, 10):
        fs = f.from_gaussian(state, cutoffs)
        assert fs.trace_deficit < 1e-6
        labels = state.mode_labels
        for i, lab in enumerate(labels):
            worst_stat = max(
                worst_stat,
                mixed_tol_err(f.fock_photon_mean(fs, i), g.photon_mean(state, lab)),
                mixed_tol_err(f.fock_photon_variance(fs, i), g.photon_variance(state, lab)),
            )
        if len(labels) == 2:
            dm, dv = f.fock_difference_stats(fs, 0, 1)
            gm, gv = g.difference_stats(state, *labels)
            worst_stat = max(worst_stat, mixed_tol_err(dm, gm), mixed_tol_err(dv, gv))
        checks += 1

    # 3 phase-conjugate receiver pipeline points
    for _ in range(3):
        sc = SensingScenario(
            N_S=rng.uniform(0.02, 0.12),
            N_B=rng.uniform(0.1, 0.4),
            kappa_T=1.0,
            kappa_E=rng.uniform(0.4, 0.9),
            kappa_I=rng.uniform(0.7, 1.0),
            theta=rng.uniform(0.3, 2.8),
            G_pc=rng.uniform(1.05, 1.15),
        )
        mean_f, var_f, deficit = oracle_pcr_stats(sc, (18, 10, 12))
        assert deficit < 1e-6
        st = pcr_stats(sc)
        worst_stat = max(
            worst_stat,
            mixed_tol_err(st.mean_diff, mean_f),
            mixed_tol_err(st.var_diff, var_f),
        )
        checks += 1

    # 3 balanced classical receiver pipeline points
    for _ in range(3):
        sc = SensingScenario(
            N_S=rng.uniform(0.02, 0.12),
            N_B=rng.uniform(0.1, 0.5),
            kappa_T=1.0,
            kappa_E=rng.uniform(0.4, 0.9),
            kappa_I=rng.uniform(0.7, 1.0),
            theta=rng.uniform(0.3, 2.8),
            N_R=rng.uniform(0.5, 1.0),
        )
        mean_f, var_f, deficit = oracle_hr_stats(sc, (26, 26))
        assert deficit < 1e-6
        st = hr_stats(sc)
        worst_stat = max(
            worst_stat,
            mixed_tol_err(st.mean_diff, mean_f),
            mixed_tol_err(st.var_diff, var_f),
        )
        checks += 1

    # 5 fidelity points
    for _ in range(5):
        if rng.random() < 0.5:
            a = g.thermal(rng.uniform(0.05, 1.0), "a")
            b = g.thermal(rng.uniform(0.05, 1.0), "a")
            fa, fb = f.from_gaussian(a, (45,)), f.from_gaussian(b, (45,))
        else:
            n_s = rng.uniform(0.05, 0.3)
            a = tmsv(n_s)
            b = g.apply_phase(tmsv(n_s), "S", rng.uniform(0.1, 1.0))
            fa, fb = f.from_gaussian(a, (20, 20)), f.from_gaussian(b, (20, 20))
        worst_stat = max(
            worst_stat, mixed_tol_err(gaussian_fidelity(a, b), f.fock_fidelity(fa, fb))
        )
        checks += 1

    # 3 relative-entropy points
    for _ in range(3):
        n_a, n_b = rng.uniform(0.1, 1.2), rng.uniform(0.1, 1.2)
        worst_stat = max(
            worst_stat,
            mixed_tol_err(
                thermal_rel_entropy(n_a, n_b),
                f.fock_rel_entropy(f.thermal_fock(n_a, 60), f.thermal_fock(n_b, 60)),
            ),
        )
        checks += 1

    # 2 QFI points: Fock-space fidelity finite differences vs the Gaussian path
    for n_s, n_b in ((0.2, 0.3), (0.1, 0.15)):
        sc = SensingScenario(
            N_S=n_s, N_B=n_b, kappa_T=1.0, kappa_E=0.7, kappa_I=0.9, theta=0.9
        )

        def fock_input(theta):
            return oracle_receiver_input_entangled(sc.with_(theta=theta), (20, 14))

        estimates = []
        for h in (2e-2, 1e-2):
            fid = f.fock_fidelity(fock_input(sc.theta - h / 2), fock_input(sc.theta + h / 2))
            estimates.append(8.0 * (1.0 - fid) / h**2)
        j_oracle = (4.0 * estimates[1] - estimates[0]) / 3.0
        j_gauss = qfi_phase(sc, ENT).J
        worst_qfi = max(worst_qfi, abs(j_gauss / j_oracle - 1.0))
        checks += 1

    ok = checks >= 20 and worst_stat < 1e-5 and worst_qfi < 0.01
    report(
        capsys, 7, ok,
        f"{checks} oracle points; worst statistic mismatch {worst_stat:.2e} "
        f"(< 1e-5); worst QFI mismatch {worst_qfi:.2e} (< 1%)",
    )


def test_criterion_8_bound_ladder_and_estimator_sanity(capsys, tmp_path):
    """pe_lower <= pe_exact <= 1/2 on a random grid; empirical MSE
    concentrates on theory at K=2000; reruns are bit-identical."""
    rng = rng_for("criterion-8-ladder")
    ladder_ok = True
    for _ in range(100):
        n0 = rng.uniform(0.01, 1000.0)
        n1 = n0 + rng.uniform(1e-6, 20.0)
        m = int(rng.choice([1, 10, 1000, 100_000]))
        lo = pe_lower_bound(n0, n1, m)
        hi = pe_optimal_counting(n0, n1, m).pe
        ladder_ok &= 0.0 <= lo <= hi + 1e-12 <= 0.5 + 1e-12

    bound = 3.0 * math.sqrt(2.0 / 2000.0)
    worst_dev = 0.0
    for i, (variant, n_b) in enumerate(((ENT, 160.0), (CLS, 160.0), (ENT, 640.0))):
        stats = receiver_stats(SensingScenario(N_B=n_b), variant)
        res = simulate(stats, 2000, seed=7, point_index=i)
        worst_dev = max(worst_dev, abs(res.mse_cos / stats.var_cos - 1.0))
    concentration_ok = worst_dev <= bound

    a = simulate(pcr_stats(SensingScenario()), 2000, seed=3)
    b = simulate(pcr_stats(SensingScenario()), 2000, seed=3)
    args = ["fig3", "--shots", "100", "--set", "compute_qcrb=false",
            "--set", "theta_grid=[1.5707963267948966]"]
    runner = CliRunner()
    runner.invoke(cli_main, [*args, "--out", str(tmp_path / "a.csv")], catch_exceptions=False)
    runner.invoke(cli_main, [*args, "--out", str(tmp_path / "b.csv")], catch_exceptions=False)
    rerun_ok = (
        np.array_equal(a.cos_hat, b.cos_hat)
        and np.array_equal(a.theta_hat, b.theta_hat)
        and (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    )

    ok = ladder_ok and concentration_ok and rerun_ok
    report(
        capsys, 8, ok,
        f"bound ladder held at 100/100 points: {ladder_ok}; worst empirical/theory "
        f"MSE deviation {worst_dev:.3f} <= {bound:.3f}; bit-identical reruns: {rerun_ok}",
    )
