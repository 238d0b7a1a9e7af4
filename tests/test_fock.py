import math

import numpy as np
import pytest

from covertsense import fock as f
from covertsense import gaussian as g
from covertsense.protocol import split_thermal, tmsv


def test_thermal_fock_moments():
    st = f.thermal_fock(0.8, 40)
    assert f.fock_photon_mean(st, 0) == pytest.approx(0.8, rel=1e-10)
    assert f.fock_photon_variance(st, 0) == pytest.approx(0.8 * 1.8, rel=1e-9)


def test_vacuum_fock_is_ground_state():
    st = f.vacuum_fock((5, 5))
    assert st.dm[0, 0, 0, 0] == pytest.approx(1.0)
    assert f.fock_photon_mean(st, 0) == 0.0


def test_beamsplitter_conserves_total_photons():
    st = f.product_fock(f.thermal_fock(0.6, 20), f.thermal_fock(0.2, 20))
    out = f.fock_beamsplitter(st, 0, 1, 0.3)
    before = 0.6 + 0.2
    after = f.fock_photon_mean(out, 0) + f.fock_photon_mean(out, 1)
    assert after == pytest.approx(before, rel=1e-6)
    assert out.trace_deficit < 1e-7


def test_beamsplitter_splitting_ratio():
    st = f.product_fock(f.thermal_fock(0.5, 20), f.vacuum_fock((20,)))
    out = f.fock_beamsplitter(st, 0, 1, 0.7)
    assert f.fock_photon_mean(out, 0) == pytest.approx(0.35, rel=1e-6)
    assert f.fock_photon_mean(out, 1) == pytest.approx(0.15, rel=1e-6)


def test_two_mode_squeeze_vacuum_gain():
    st = f.vacuum_fock((22, 22))
    out = f.fock_two_mode_squeeze(st, 0, 1, 1.4)
    assert f.fock_photon_mean(out, 0) == pytest.approx(0.4, rel=1e-7)
    assert f.fock_photon_mean(out, 1) == pytest.approx(0.4, rel=1e-7)


def test_pure_loss_on_thermal():
    st = f.thermal_fock(1.0, 30)
    out = f.fock_thermal_loss(st, 0, 0.35)
    assert f.fock_photon_mean(out, 0) == pytest.approx(0.35, rel=1e-6)
    # a lossy thermal state stays thermal: variance n(n+1)
    assert f.fock_photon_variance(out, 0) == pytest.approx(0.35 * 1.35, rel=1e-6)


def test_thermal_loss_receiver_referred():
    st = f.thermal_fock(0.5, 30)
    out = f.fock_thermal_loss(st, 0, 0.4, 0.6)
    assert f.fock_photon_mean(out, 0) == pytest.approx(0.4 * 0.5 + 0.6, rel=1e-7)
    n = 0.8
    assert f.fock_photon_variance(out, 0) == pytest.approx(n * (n + 1), rel=1e-6)


def test_phase_preserves_populations():
    st = f.thermal_fock(0.7, 15)
    out = f.fock_phase(st, 0, 1.1)
    assert np.allclose(np.diag(out.dm), np.diag(st.dm))


def test_from_gaussian_thermal_roundtrip():
    st = f.from_gaussian(g.thermal(0.9, "a"), (35,))
    ref = f.thermal_fock(0.9, 35)
    assert np.max(np.abs(st.dm - ref.dm)) < 1e-10


def test_from_gaussian_tmsv_stats():
    n_s = 0.25
    st = f.from_gaussian(tmsv(n_s), (18, 18))
    assert f.fock_photon_mean(st, 0) == pytest.approx(n_s, abs=1e-7)
    assert f.fock_photon_variance(st, 0) == pytest.approx(n_s * (n_s + 1), abs=1e-6)
    # perfect photon-number correlation of the two arms
    cov = f.fock_photon_covariance(st, 0, 1)
    assert cov == pytest.approx(n_s * (n_s + 1), abs=1e-6)


def test_from_gaussian_coherent_displacement():
    mean = np.array([2.0 * math.sqrt(0.3), 0.0])
    state = g.GaussianState(("a",), mean, np.eye(2))
    st = f.from_gaussian(state, (20,))
    assert f.fock_photon_mean(st, 0) == pytest.approx(0.3, abs=1e-9)
    # Poisson statistics of a coherent state
    assert f.fock_photon_variance(st, 0) == pytest.approx(0.3, abs=1e-8)


def test_from_gaussian_split_thermal_cross_covariance():
    st = f.from_gaussian(split_thermal(0.2, 0.5), (16, 20))
    # classically correlated arms: Cov(n_a, n_b) = n_a n_b
    assert f.fock_photon_covariance(st, 0, 1) == pytest.approx(0.2 * 0.5, abs=1e-5)


def test_fock_fidelity_thermal_closed_form():
    a, b = f.thermal_fock(0.4, 45), f.thermal_fock(1.1, 45)
    expected = 1.0 / (math.sqrt(1.4 * 2.1) - math.sqrt(0.4 * 1.1))
    assert f.fock_fidelity(a, b) == pytest.approx(expected, rel=1e-8)


def test_fock_fidelity_pure_overlap():
    vac = f.vacuum_fock((25,))
    mean = np.array([2.0 * math.sqrt(0.5), 0.0])
    coh = f.from_gaussian(g.GaussianState(("a",), mean, np.eye(2)), (25,))
    # |<0|alpha>| = exp(-|alpha|^2 / 2)
    assert f.fock_fidelity(vac, coh) == pytest.approx(math.exp(-0.25), rel=1e-8)


def test_fock_rel_entropy_thermal_closed_form():
    from covertsense.adversary import thermal_rel_entropy

    a, b = f.thermal_fock(1.3, 60), f.thermal_fock(0.9, 60)
    assert f.fock_rel_entropy(a, b) == pytest.approx(
        thermal_rel_entropy(1.3, 0.9), rel=1e-6
    )


def test_dimension_guard():
    with pytest.raises(f.TruncationError):
        f.vacuum_fock((100, 100))


def test_from_gaussian_mean_headroom_guard():
    mean = np.array([40.0, 0.0])
    state = g.GaussianState(("a",), mean, np.eye(2))
    with pytest.raises(f.TruncationError):
        f.from_gaussian(state, (20,))
