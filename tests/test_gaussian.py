import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsense import gaussian as g


def test_vacuum_photon_stats():
    state = g.vacuum(("a", "b"))
    assert g.photon_mean(state, "a") == pytest.approx(0.0, abs=1e-12)
    assert g.photon_variance(state, "a") == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(state.cov, np.eye(4))


@pytest.mark.parametrize("n", [0.0, 0.3, 2.0, 160.0])
def test_thermal_photon_stats(n):
    state = g.thermal(n)
    (label,) = state.mode_labels
    assert g.photon_mean(state, label) == pytest.approx(n, rel=1e-12, abs=1e-12)
    assert g.photon_variance(state, label) == pytest.approx(
        n * (n + 1.0), rel=1e-12, abs=1e-12
    )


def test_symplectic_eigenvalues_vacuum_and_squeezed():
    # det V is the product of the squared symplectic eigenvalues, each >= 1
    assert np.linalg.det(np.eye(4)) == pytest.approx(1.0, rel=1e-12)
    sq = g.apply_two_mode_squeeze(g.vacuum(("a", "b")), "a", "b", 3.0)
    # pure state: all symplectic eigenvalues stay at 1
    assert np.linalg.det(sq.cov) == pytest.approx(1.0, rel=1e-9)
    th = g.thermal(0.7)
    assert math.sqrt(np.linalg.det(th.cov)) == pytest.approx(2.4, rel=1e-12)


def test_cov_validation_rejects_asymmetry_and_unphysical():
    with pytest.raises(g.StateError):
        g.GaussianState(("a",), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(g.StateError):
        g.GaussianState(("a",), 0.1 * np.eye(2))


def test_beamsplitter_energy_conservation():
    state = g.tensor(g.thermal(1.3, "a"), g.thermal(0.4, "b"))
    out = g.apply_beamsplitter(state, "a", "b", 0.27)
    before = 1.3 + 0.4
    after = g.photon_mean(out, "a") + g.photon_mean(out, "b")
    assert after == pytest.approx(before, rel=1e-12)


def test_beamsplitter_transmissivity_mixing():
    state = g.tensor(g.thermal(2.0, "a"), g.vacuum(("b",)))
    out = g.apply_beamsplitter(state, "a", "b", 0.7)
    assert g.photon_mean(out, "a") == pytest.approx(1.4, rel=1e-12)
    assert g.photon_mean(out, "b") == pytest.approx(0.6, rel=1e-12)


def test_two_mode_squeeze_on_vacuum():
    gain = 1.5
    out = g.apply_two_mode_squeeze(g.vacuum(("a", "b")), "a", "b", gain)
    assert g.photon_mean(out, "a") == pytest.approx(gain - 1.0, rel=1e-12)
    assert g.photon_mean(out, "b") == pytest.approx(gain - 1.0, rel=1e-12)
    # phase-sensitive cross block magnitude 2 sqrt(G(G-1)) on the diagonal
    cross = out.cov[:2, 2:]
    assert cross[0, 0] == pytest.approx(2.0 * math.sqrt(gain * (gain - 1.0)), rel=1e-12)
    assert cross[1, 1] == pytest.approx(-2.0 * math.sqrt(gain * (gain - 1.0)), rel=1e-12)


def test_phase_rotation_preserves_photon_stats():
    state = g.apply_two_mode_squeeze(g.vacuum(("a", "b")), "a", "b", 1.8)
    rotated = g.apply_phase(state, "a", 1.234)
    assert g.photon_mean(rotated, "a") == pytest.approx(g.photon_mean(state, "a"))
    assert g.photon_variance(rotated, "a") == pytest.approx(
        g.photon_variance(state, "a")
    )


def test_phase_2pi_identity():
    state = g.apply_two_mode_squeeze(g.vacuum(("a", "b")), "a", "b", 1.3)
    out = g.apply_phase(state, "a", 2.0 * math.pi)
    assert np.allclose(out.cov, state.cov, atol=1e-12)


def test_thermal_loss_receiver_referred_brightness():
    st = g.thermal(2.0, "a")
    out = g.apply_thermal_loss(st, "a", 0.4, 1.5)
    # receiver-referred convention: output brightness = kappa*n + N_B
    assert g.photon_mean(out, "a") == pytest.approx(0.4 * 2.0 + 1.5, rel=1e-12)
    assert g.photon_variance(out, "a") == pytest.approx(2.3 * 3.3, rel=1e-12)


def test_thermal_loss_rejects_zero_transmissivity():
    with pytest.raises(ValueError):
        g.apply_thermal_loss(g.thermal(1.0, "a"), "a", 0.0, 0.0)


def test_partial_trace_marginals():
    state = g.apply_two_mode_squeeze(g.vacuum(("a", "b")), "a", "b", 2.0)
    cov = state.mode_block("a")
    # TMSV marginal is thermal with the same per-arm brightness
    assert np.allclose(cov, (2.0 * 1.0 + 1.0) * np.eye(2), atol=1e-12)


def test_difference_stats_matches_photon_stats():
    state = g.apply_two_mode_squeeze(g.vacuum(("a", "b")), "a", "b", 1.7)
    state = g.apply_beamsplitter(state, "a", "b", 0.5)
    mean, var = g.difference_stats(state, "a", "b")
    pa, pb = g.photon_mean(state, "a"), g.photon_mean(state, "b")
    va, vb = g.photon_variance(state, "a"), g.photon_variance(state, "b")
    cab = g.photon_covariance(state, "a", "b")
    assert mean == pytest.approx(pa - pb, rel=1e-12, abs=1e-12)
    assert var == pytest.approx(va + vb - 2.0 * cab, rel=1e-12, abs=1e-12)


def test_unknown_mode_raises():
    with pytest.raises(g.ModeError):
        g.photon_mean(g.vacuum(("a",)), "nope")


@settings(max_examples=25, deadline=None)
@given(
    n_a=st.floats(0.0, 3.0),
    n_b=st.floats(0.0, 3.0),
    eta=st.floats(0.01, 0.99),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_passive_ops_preserve_total_energy(n_a, n_b, eta, theta):
    state = g.tensor(g.thermal(n_a, "a"), g.thermal(n_b, "b"))
    out = g.apply_phase(g.apply_beamsplitter(state, "a", "b", eta), "a", theta)
    total = g.photon_mean(out, "a") + g.photon_mean(out, "b")
    assert total == pytest.approx(n_a + n_b, rel=1e-10, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(0.0, 2.0 * math.pi),
    eta=st.floats(0.0, 1.0),
    gain=st.floats(1.0, 50.0),
)
def test_gate_matrices_are_symplectic(theta, eta, gain):
    for S in (
        g.phase_symplectic(theta),
        g.beamsplitter_symplectic(eta),
        g.two_mode_squeeze_symplectic(gain),
    ):
        om = g.omega(S.shape[0] // 2)
        defect = np.linalg.norm(S @ om @ S.T - om)
        assert defect <= 1e-9 * max(1.0, np.linalg.norm(S) ** 2)


@settings(max_examples=25, deadline=None)
@given(n=st.floats(0.0, 5.0), gain=st.floats(1.0, 4.0))
def test_uncertainty_principle_survives_active_ops(n, gain):
    state = g.tensor(g.thermal(n, "a"), g.vacuum(("b",)))
    out = g.apply_two_mode_squeeze(state, "a", "b", gain)
    scale = max(1.0, float(np.max(np.abs(out.cov))))
    assert np.linalg.eigvalsh(out.cov + 1j * g.omega(2)).min() >= -1e-9 * scale


# Reference bodies of the gate primitives as np.block / np.ix_ expressions;
# the engine builds the same matrices entry by entry.
def _beamsplitter_block(eta):
    t, r = np.sqrt(eta), np.sqrt(1.0 - eta)
    return np.block([[t * np.eye(2), r * np.eye(2)], [-r * np.eye(2), t * np.eye(2)]])


def _two_mode_squeeze_block(gain):
    g_, h = np.sqrt(gain), np.sqrt(gain - 1.0)
    Z = np.diag([1.0, -1.0])
    return np.block([[g_ * np.eye(2), h * Z], [h * Z, g_ * np.eye(2)]])


def _gate_ix(state, labels, small):
    S = np.eye(2 * state.n_modes)
    idx = []
    for lab in labels:
        i = 2 * state.mode_index(lab)
        idx.extend([i, i + 1])
    idx = np.array(idx)
    S[np.ix_(idx, idx)] = small
    return g.GaussianState(state.mode_labels, S @ state.cov @ S.T)


def _assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_gate_matrices_match_block_reference_bit_for_bit():
    rng = np.random.default_rng(15)
    etas = [0.0, 0.5, 1.0, *rng.uniform(0.0, 1.0, 2000).tolist()]
    gains = [1.0, *rng.uniform(1.0, 50.0, 2000).tolist()]
    for eta in etas:
        _assert_bit_identical(g.beamsplitter_symplectic(eta), _beamsplitter_block(eta))
    for gain in gains:
        _assert_bit_identical(
            g.two_mode_squeeze_symplectic(gain), _two_mode_squeeze_block(gain)
        )


def test_gate_matches_ix_reference_on_reversed_non_adjacent_labels():
    # idler, ret, conj: the PCR's beamsplitter acts on modes 2 and 0, in that order
    state = g.tensor(
        g.apply_two_mode_squeeze(g.tensor(g.thermal(0.3, "idler"), g.thermal(2.0, "ret")),
                                 "idler", "ret", 1.7),
        g.thermal(0.8, "conj"),
    )
    state = g.apply_phase(state, "ret", 0.4)
    for labels, small in (
        (["conj", "idler"], g.beamsplitter_symplectic(0.5)),
        (["conj", "ret"], g.two_mode_squeeze_symplectic(1.3)),
        (["ret"], g.phase_symplectic(2.1)),
    ):
        out, ref = g._gate(state, labels, small), _gate_ix(state, labels, small)
        _assert_bit_identical(out.cov, ref.cov)
    out = g.apply_beamsplitter(state, "conj", "idler", 0.5)
    ref = _gate_ix(state, ["conj", "idler"], _beamsplitter_block(0.5))
    _assert_bit_identical(out.cov, ref.cov)


def test_gate_output_is_validated():
    # 0.5 I is not symplectic: the vacuum goes to covariance 0.25 I
    with pytest.raises(g.StateError):
        g._gate(g.vacuum(("a", "b")), ["b", "a"], 0.5 * np.eye(4))


def test_omega_returns_a_fresh_writable_array():
    om = g.omega(2)
    assert om.flags.writeable
    om[0, 1] = 7.0
    assert g.omega(2)[0, 1] == 1.0
