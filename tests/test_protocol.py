import math
from dataclasses import fields

import numpy as np
import pytest

from covertsense import gaussian as g
from covertsense.protocol import (
    ProtocolVariant,
    SensingScenario,
    build_receiver_inputs,
    split_thermal,
    tmsv,
    willie_brightnesses,
)


def test_scenario_defaults_and_derived():
    sc = SensingScenario()
    assert sc.M == 125000
    assert sc.kappa == pytest.approx(0.0165, rel=1e-12)


def test_scenario_validation():
    with pytest.raises(ValueError):
        SensingScenario(N_S=-1.0)
    with pytest.raises(ValueError):
        SensingScenario(kappa_E=0.0)
    with pytest.raises(ValueError):
        SensingScenario(kappa_T=1.5)
    with pytest.raises(ValueError):
        SensingScenario(W=1.0, T=1e-9)  # M rounds to zero


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", [f.name for f in fields(SensingScenario)])
def test_scenario_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SensingScenario(**{name: value})


def test_with_returns_modified_copy():
    sc = SensingScenario()
    sc2 = sc.with_(N_B=320.0)
    assert sc2.N_B == 320.0 and sc.N_B == 160.0


@pytest.mark.parametrize("n_s", [1e-4, 0.01, 0.5])
def test_tmsv_arm_stats_and_cross(n_s):
    state = tmsv(n_s)
    assert g.photon_mean(state, "S") == pytest.approx(n_s, rel=1e-9)
    assert g.photon_mean(state, "I") == pytest.approx(n_s, rel=1e-9)
    cross = state.cov[:2, 2:]
    mag = 2.0 * math.sqrt(n_s * (n_s + 1.0))
    assert cross[0, 0] == pytest.approx(mag, rel=1e-9)
    assert cross[1, 1] == pytest.approx(-mag, rel=1e-9)


def test_split_thermal_blocks_and_classicality():
    state = split_thermal(0.3, 1.7)
    assert np.allclose(state.cov[:2, :2], (2 * 0.3 + 1) * np.eye(2))
    assert np.allclose(state.cov[2:, 2:], (2 * 1.7 + 1) * np.eye(2))
    assert np.allclose(state.cov[:2, 2:], 2 * math.sqrt(0.3 * 1.7) * np.eye(2))
    # classical state: cov - I is positive semidefinite for any brightnesses
    eigs = np.linalg.eigvalsh(state.cov - np.eye(4))
    assert eigs.min() >= -1e-12


def test_split_thermal_symmetric_default():
    # equal brightnesses give a symmetric split
    state = split_thermal(0.25, 0.25)
    assert g.photon_mean(state, "S") == pytest.approx(0.25, rel=1e-12)
    assert g.photon_mean(state, "R") == pytest.approx(0.25, rel=1e-12)


def test_tmsv_cross_beats_classical_cross_at_equal_energy():
    for n_s in (1e-4, 0.01, 1.0):
        assert 2 * math.sqrt(n_s * (n_s + 1)) > 2 * n_s


def test_receiver_input_identity_channel_preserves_source():
    sc = SensingScenario(
        N_S=0.2, N_B=0.0, kappa_T=1.0, kappa_E=1.0, kappa_I=1.0, theta=0.0
    )
    out = build_receiver_inputs([sc], ProtocolVariant.ENTANGLED, [sc.theta])
    src = tmsv(0.2, ("ret", "idler"))
    assert np.allclose(out.cov, src.cov, atol=1e-10)


def test_receiver_input_return_brightness_at_reference_point():
    sc = SensingScenario()  # N_S=8e-4, N_B=160, kappa=0.0165
    out = build_receiver_inputs([sc], ProtocolVariant.ENTANGLED, [sc.theta])
    assert g.photon_mean(out, "ret") == pytest.approx(
        0.0165 * 8e-4 + 160.0, rel=1e-10
    )


def test_receiver_input_cross_magnitude_scaling():
    sc = SensingScenario(
        N_S=0.1, kappa_T=0.9, kappa_E=0.6, kappa_I=0.8, N_B=0.5, theta=0.0
    )
    out = build_receiver_inputs([sc], ProtocolVariant.ENTANGLED, [sc.theta])
    cross = out.cov[0, :2, 2:]
    expected = 2.0 * math.sqrt(sc.kappa * sc.kappa_I * 0.1 * 1.1)
    assert cross[0, 0] == pytest.approx(expected, rel=1e-10)


def test_receiver_input_theta_2pi_equivalence():
    sc = SensingScenario(theta=0.8)
    turned = sc.with_(theta=0.8 + 2 * math.pi)
    a = build_receiver_inputs([sc], ProtocolVariant.ENTANGLED, [sc.theta])
    b = build_receiver_inputs([turned], ProtocolVariant.ENTANGLED, [turned.theta])
    assert np.allclose(a.cov, b.cov, atol=1e-12)


def test_willie_brightness_formula():
    sc = SensingScenario(f_W=1.0, kappa_E=0.5, kappa_T=1.0, N_S=0.4, N_B=2.0)
    n0, n1 = willie_brightnesses(sc)
    assert n0 == 2.0
    assert n1 == pytest.approx(2.2, rel=1e-12)


def test_willie_no_probe_is_background_only():
    n0, n1 = willie_brightnesses(SensingScenario(N_S=0.0))
    assert n0 == n1 == 160.0


def test_willie_marginal_identical_across_variants():
    # Willie's brightnesses depend on the probe arm S only through its mean
    # photon number, which every source sets to N_S
    n_s = 0.01
    for probe in (tmsv(n_s, ("S", "x")), split_thermal(n_s, 3.0, ("S", "x"))):
        cov = probe.mode_block("S")
        assert np.allclose(cov, (2 * n_s + 1) * np.eye(2), atol=1e-10)
        assert g.photon_mean(probe, "S") == pytest.approx(n_s, rel=1e-9)
