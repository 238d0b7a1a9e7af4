import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsense import gaussian as g
from covertsense import receivers
from covertsense.protocol import ProtocolVariant, SensingScenario, build_receiver_inputs
from covertsense.receivers import (
    CalibrationError,
    ReceiverStats,
    cosine_estimator,
    hr_stats,
    pcr_stats,
    receiver_stats,
    stacked_receiver_stats,
)

from conftest import SCENARIO_PARAMS, oracle_hr_stats, oracle_pcr_stats

DESK = SensingScenario(
    N_S=0.08, N_B=0.3, kappa_T=1.0, kappa_E=0.6, kappa_I=0.9, theta=0.7, G_pc=1.1, N_R=0.8
)


@pytest.mark.parametrize("stats_fn", [pcr_stats, hr_stats])
def test_cosine_response_law(stats_fn):
    base = stats_fn(DESK)
    amp = base.calib_scale
    for theta in np.linspace(0.0, math.pi, 9):
        st = stats_fn(DESK.with_(theta=float(theta)))
        assert st.mean_diff == pytest.approx(amp * math.cos(theta), abs=1e-12)


def test_calibration_amplitude_is_theta_zero_mean():
    st = pcr_stats(DESK.with_(theta=0.0))
    assert st.mean_diff == pytest.approx(st.calib_scale, rel=1e-12)


def test_receiver_stats_dispatch():
    assert receiver_stats(DESK, ProtocolVariant.ENTANGLED).variant is ProtocolVariant.ENTANGLED
    assert (
        receiver_stats(DESK, ProtocolVariant.CLASSICAL_THERMAL).variant
        is ProtocolVariant.CLASSICAL_THERMAL
    )


def test_zero_probe_degenerate_calibration():
    with pytest.raises(CalibrationError):
        pcr_stats(DESK.with_(N_S=0.0))


def test_receiver_stats_rejects_zero_calibration_however_built():
    with pytest.raises(CalibrationError, match="^PCR cosine amplitude is zero"):
        ReceiverStats(0.0, 1.0, 0.0, ProtocolVariant.ENTANGLED, DESK, (1.0, 1.0))
    with pytest.raises(CalibrationError, match="^HR cosine amplitude is zero"):
        dataclasses.replace(hr_stats(DESK), calib_scale=0.0)


def test_cosine_estimator_scaling():
    st = pcr_stats(DESK)
    m = DESK.M
    thetas = np.array([0.2, 0.7, 2.5])
    cos_hat, theta_hat = cosine_estimator(st, m * st.calib_scale * np.cos(thetas))
    assert cos_hat == pytest.approx(np.cos(thetas), rel=1e-12)
    assert theta_hat == pytest.approx(thetas, rel=1e-12)


def test_cosine_estimator_clamps_out_of_range():
    st = pcr_stats(DESK)
    cos_hat, theta_hat = cosine_estimator(st, np.array([2.0, -2.0]) * DESK.M * st.calib_scale)
    assert cos_hat[0] > 1.0 and cos_hat[1] < -1.0
    assert theta_hat.tolist() == [0.0, math.pi]


def test_cosine_estimator_is_clamped_math_acos_per_shot():
    st = pcr_stats(DESK)
    m = DESK.M
    rng = np.random.default_rng(4)
    # spread wide enough that a good share of shots land outside [-1, 1]
    draws = rng.normal(0.0, 1.5 * m * st.calib_scale, size=5000)
    cos_hat, theta_hat = cosine_estimator(st, draws)
    assert np.any(np.abs(cos_hat) > 1.0) and np.any(np.abs(cos_hat) < 1.0)
    expected = [math.acos(min(1.0, max(-1.0, c))) for c in cos_hat.tolist()]
    assert theta_hat.tolist() == expected


def test_theory_mse_scales_inverse_m():
    # the per-mode statistics do not depend on W or T, only M = W*T does
    s1 = pcr_stats(DESK.with_(W=1000.0, T=1.0))
    s2 = pcr_stats(DESK.with_(W=4000.0, T=1.0))
    assert s1.var_cos / s2.var_cos == pytest.approx(4.0, rel=1e-12)
    assert s1.var_theta / s2.var_theta == pytest.approx(4.0, rel=1e-12)


def test_theory_mse_singular_at_theta_zero():
    st = pcr_stats(DESK.with_(theta=0.0))
    assert st.var_theta == math.inf
    assert math.isfinite(st.var_cos)


def test_entangled_beats_classical_at_reference_point():
    sc = SensingScenario()
    assert pcr_stats(sc).var_theta < hr_stats(sc).var_theta


def test_pcr_matches_fock_oracle():
    mean_f, var_f, deficit = oracle_pcr_stats(DESK, (18, 10, 12))
    st = pcr_stats(DESK)
    assert deficit < 1e-6
    assert abs(st.mean_diff - mean_f) / (1 + abs(mean_f)) < 1e-5
    assert abs(st.var_diff - var_f) / (1 + abs(var_f)) < 1e-5


def test_hr_matches_fock_oracle():
    mean_f, var_f, deficit = oracle_hr_stats(DESK, (26, 26))
    st = hr_stats(DESK)
    assert deficit < 1e-6
    assert abs(st.mean_diff - mean_f) / (1 + abs(mean_f)) < 1e-5
    assert abs(st.var_diff - var_f) / (1 + abs(var_f)) < 1e-5


def _bits(result):
    """float.hex of every statistic, or the exception's type and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    values = (result.mean_diff, result.var_diff, result.calib_scale, *result.arm_means)
    return tuple(float(x).hex() for x in values)


def _one_at_a_time(scenarios, variant):
    out = []
    for sc in scenarios:
        try:
            out.append(receiver_stats(sc, variant))
        except ValueError as exc:
            out.append(exc)
    return out


def test_stacked_stats_match_one_scenario_calls_bit_for_bit():
    # kappa_T * kappa_E underflows to 0.0 here, which the thermal-loss gate
    # refuses: a parameter failure inside the stack
    scenarios = [SensingScenario(kappa_T=1e-200, kappa_E=1e-200)]

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(params=SCENARIO_PARAMS, theta=st.sampled_from([None, 0.0, math.pi]))
    def collect(params, theta):
        if theta is not None:
            params = {**params, "theta": theta}
        try:
            scenarios.append(SensingScenario(**params))
        except ValueError:  # W*T rounds to no mode pair
            pass

    collect()
    assert len(scenarios) > 150
    assert {0.0, math.pi} <= {sc.theta for sc in scenarios}
    assert any(sc.N_B == 0.0 for sc in scenarios) and any(sc.N_S == 0.0 for sc in scenarios)
    for variant in ProtocolVariant:
        stacked = stacked_receiver_stats(scenarios, variant)
        assert [_bits(s) for s in stacked] == [_bits(s) for s in _one_at_a_time(scenarios, variant)]
        kinds = {type(s) for s in stacked}
        assert {ReceiverStats, CalibrationError, ValueError} <= kinds


def test_corrupted_slice_fails_alone(monkeypatch):
    grid = [DESK.with_(theta=theta) for theta in (0.2, 0.7, 1.9, 2.8)]
    bad = 2

    def corrupting(scenarios, variant, thetas):
        # picks the slice by scenario, so the one-scenario retries find it too
        state = build_receiver_inputs(scenarios, variant, thetas)
        hit = [sc is grid[bad] for sc in scenarios]
        cov = np.where(np.array(hit)[:, None, None], 0.1, 1.0) * state.cov  # below the bound
        return g.GaussianState(state.mode_labels, cov)

    for variant in ProtocolVariant:
        clean = [receiver_stats(sc, variant) for sc in grid]
        thetas = [sc.theta for sc in grid]
        inputs = build_receiver_inputs(grid, variant, thetas)
        with pytest.raises(g.StateError) as single:
            g.GaussianState(inputs.mode_labels, 0.1 * inputs.cov[bad])
        with pytest.raises(g.StateError):  # the whole stack fails
            corrupting(grid, variant, thetas)

        with monkeypatch.context() as patch, warnings.catch_warnings():
            patch.setattr(receivers, "build_receiver_inputs", corrupting)
            warnings.simplefilter("error")
            stacked = stacked_receiver_stats(grid, variant)
        assert type(stacked[bad]) is g.StateError
        assert str(stacked[bad]) == str(single.value)
        assert [_bits(s) for k, s in enumerate(stacked) if k != bad] == [
            _bits(s) for k, s in enumerate(clean) if k != bad
        ]


def test_runtime_warning_fails_only_its_scenario():
    # where RuntimeWarning is an error, the thermal-loss gate's 2 * N_B
    # overflow at N_B = 1e308 must fail that scenario alone
    grid = [SensingScenario(), SensingScenario(N_B=1e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stacked = stacked_receiver_stats(grid, ProtocolVariant.ENTANGLED)
        (alone,) = stacked_receiver_stats(grid[:1], ProtocolVariant.ENTANGLED)
    assert _bits(stacked[0]) == _bits(alone)
    assert type(stacked[1]) is RuntimeWarning
    assert "overflow" in str(stacked[1])
