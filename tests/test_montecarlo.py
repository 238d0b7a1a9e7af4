import math

import numpy as np
import pytest

from covertsense.montecarlo import CltGuardError, simulate
from covertsense.protocol import SensingScenario
from covertsense.receivers import hr_stats, pcr_stats

SC = SensingScenario()
PCR = pcr_stats(SC)


def test_same_seed_bit_identical():
    a = simulate(PCR, 500, seed=11)
    b = simulate(PCR, 500, seed=11)
    assert np.array_equal(a.cos_hat, b.cos_hat)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.mse_cos == b.mse_cos and a.mse_theta == b.mse_theta


def test_different_seed_differs():
    a = simulate(PCR, 500, seed=11)
    b = simulate(PCR, 500, seed=12)
    assert not np.array_equal(a.cos_hat, b.cos_hat)


def test_point_index_gives_independent_streams():
    a = simulate(PCR, 500, seed=11, point_index=0)
    b = simulate(PCR, 500, seed=11, point_index=1)
    assert not np.array_equal(a.cos_hat, b.cos_hat)


def test_cos_estimator_unbiased():
    sc = SC.with_(theta=1.0)
    stats = pcr_stats(sc)
    res = simulate(stats, 100_000, seed=3)
    cos_mean = float(np.mean(res.cos_hat))
    sem = math.sqrt(stats.var_cos / 100_000)
    assert abs(cos_mean - math.cos(1.0)) < 3.0 * sem


def test_mse_cos_concentrates_on_theory():
    bound = 3.0 * math.sqrt(2.0 / 2000.0)
    for seed in (0, 1, 2):
        res = simulate(PCR, 2000, seed)
        assert abs(res.mse_cos / PCR.var_cos - 1.0) <= bound


def test_result_invariants():
    res = simulate(hr_stats(SC), 400, seed=5)
    assert res.mse_theta >= 0.0 and res.stderr >= 0.0
    assert res.cos_hat.shape == res.theta_hat.shape == (400,)


def test_clt_guard_refuses_dim_scenarios():
    dim = SensingScenario(W=8e3, T=1.25e-4, N_S=1e-4, N_B=1e-3)
    with pytest.raises(CltGuardError):
        simulate(pcr_stats(dim), 100)


def test_shots_floor():
    with pytest.raises(ValueError):
        simulate(PCR, 1)
