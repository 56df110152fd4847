import math

import numpy as np
import pytest

from selfsim.params import (
    DomainError,
    ModelParams,
    Regime,
    alpha_beta_from_k,
    alpha_star_critical,
    finite,
    k_from_alpha,
    positive_finite,
    regime,
    sigma_critical,
)


def test_sigma_critical_values():
    assert sigma_critical(2.0, 0.5) == pytest.approx(1.0)
    assert sigma_critical(3.0, 0.5) == pytest.approx(0.5)
    assert sigma_critical(1.5, 0.5) == pytest.approx(2.0)


@pytest.mark.parametrize("m,p", [(1.0, 0.5), (0.8, 0.5), (2.0, 0.0),
                                 (2.0, 1.0), (2.0, 1.5), (math.inf, 0.5),
                                 (math.nan, 0.5)])
def test_sigma_critical_domain(m, p):
    with pytest.raises(DomainError):
        sigma_critical(m, p)
    if not 1.0 < m < math.inf:
        # alpha_star_critical holds m to the same rule; at m = inf it once
        # returned NaN
        with pytest.raises(DomainError, match="^m must be finite and > 1"):
            alpha_star_critical(m)


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, math.nan, math.inf,
                               -math.inf])
def test_positive_finite_names_the_argument(x):
    with pytest.raises(DomainError,
                       match=rf"^tol must be positive and finite, got {x}$"):
        positive_finite("tol", x)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_finite_names_the_argument(x):
    with pytest.raises(DomainError, match=rf"^t must be finite, got {x}$"):
        finite("t", x)


def test_finite_returns_a_python_float():
    for x in (np.float64(-2.5), -2.5, 0.0, np.int64(-3), -5e-324):
        out = finite("x", x)
        assert type(out) is float and out == x


def test_positive_finite_returns_a_python_float():
    for x in (np.float64(2.5), 2.5, np.int64(3), 5e-324):
        out = positive_finite("x", x)
        assert type(out) is float and out == x


def test_model_params_derives_sigma():
    params = ModelParams(m=2.0, p=0.5, N=4)
    assert params.sigma == sigma_critical(2.0, 0.5)


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(m=1.0, p=0.5, N=3)
    with pytest.raises(DomainError):
        ModelParams(m=2.0, p=0.5, N=0)


def test_regime_tags():
    assert regime(ModelParams(2.0, 0.5, 4)) is Regime.SUPERCRITICAL
    assert regime(ModelParams(1.5, 0.5, 3)) is Regime.CRITICAL
    assert regime(ModelParams(1.2, 0.5, 3)) is Regime.SUBCRITICAL


def test_power_ratio_by_regime():
    # (m-p)/(m-1) sits in (1,2) / ==2 / >2 across the three regimes
    q_super = ModelParams(2.0, 0.5, 4).power_ratio
    assert 1.0 < q_super < 2.0
    assert ModelParams(1.5, 0.5, 3).power_ratio == pytest.approx(2.0)
    assert ModelParams(1.2, 0.5, 3).power_ratio > 2.0


def test_alpha_from_k_hand_value():
    params = ModelParams(2.0, 0.5, 4)
    sp = alpha_beta_from_k(params, 0.5)
    assert sp.alpha == pytest.approx(4.0, rel=1e-14)
    assert sp.beta == pytest.approx(2.0, rel=1e-14)


def test_k_from_alpha_hand_value():
    params = ModelParams(2.0, 0.5, 4)
    sp = k_from_alpha(params, 4.0)
    assert sp.K == pytest.approx(0.5, rel=1e-14)


def test_round_trip_k():
    params = ModelParams(2.0, 0.5, 4)
    sp = alpha_beta_from_k(params, 0.1)
    back = k_from_alpha(params, sp.alpha)
    assert back.K == pytest.approx(0.1, abs=10 * math.ulp(0.1))


def test_k_alpha_monotone():
    params = ModelParams(2.0, 0.5, 4)
    alphas = [alpha_beta_from_k(params, k).alpha
              for k in (0.01, 0.1, 1.0, 10.0)]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_shooting_param_invariant():
    params = ModelParams(1.7, 0.4, 3)
    sp = alpha_beta_from_k(params, 0.37)
    assert sp.alpha == pytest.approx(2.0 * sp.beta / (params.m - 1.0))


def test_alpha_star_critical_values():
    assert alpha_star_critical(1.5) == pytest.approx(8.0 * math.sqrt(1.5))
    assert alpha_star_critical(4.0) == pytest.approx(8.0 / 3.0)
    with pytest.raises(DomainError):
        alpha_star_critical(1.0)


def test_alpha_star_consistent_with_k_star():
    for m in (1.25, 1.5, 1.75):
        params = ModelParams(m, 2.0 - m, 3)
        sp = alpha_beta_from_k(params, 0.25 * (m - 1.0) ** 2)
        assert sp.alpha == pytest.approx(alpha_star_critical(m), rel=1e-13)


def test_negative_k_rejected():
    params = ModelParams(2.0, 0.5, 4)
    with pytest.raises(DomainError):
        alpha_beta_from_k(params, -1.0)
    with pytest.raises(DomainError):
        alpha_beta_from_k(params, 0.0)
