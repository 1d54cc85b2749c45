"""Primitives, transforms, and benchmark values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimicgame.model import (
    GameParams,
    benchmark_values,
    inv_logit,
    lambda_tilde,
    logit,
    myopic_cutoffs,
    termination_payoff,
    transform_alternative_params,
)

FIG = GameParams(r1=0.5, r2=0.5, lam=2.0, psi=1.5, u=1.0, c=1.0, w_NI=1.0, w_I=-1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        FIG.with_(w_I=0.5)
    with pytest.raises(ValueError):
        FIG.with_(r1=-1.0)
    with pytest.raises(ValueError):
        FIG.with_(psi=0.0)


def test_logit_roundtrip_to_relative_tolerance():
    p = np.concatenate([np.logspace(-6, -0.31, 400), 1.0 - np.logspace(-6, -0.31, 400)])
    back = inv_logit(logit(p))
    assert np.max(np.abs(back - p) / p) < 1e-12


def test_termination_payoff():
    assert termination_payoff(0.5, FIG) == pytest.approx(0.0, abs=1e-16)
    assert termination_payoff(0.9, FIG) == pytest.approx(0.8, abs=1e-15)
    assert termination_payoff(0.0, FIG) == FIG.w_I
    assert termination_payoff(1.0, FIG) == FIG.w_NI
    with pytest.raises(ValueError):
        termination_payoff(1.2, FIG)
    with pytest.raises(ValueError):
        termination_payoff(-0.1, FIG)


def test_termination_payoff_affine():
    rng = np.random.default_rng(3)
    p = rng.uniform(0, 1, 200)
    q = rng.uniform(0, 1, 200)
    lhs = termination_payoff((p + q) / 2, FIG)
    rhs = (termination_payoff(p, FIG) + termination_payoff(q, FIG)) / 2
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_myopic_cutoffs_fig_values():
    p_ss, p_h = myopic_cutoffs(FIG)
    assert p_ss == pytest.approx(0.5, abs=1e-12)
    assert p_h == pytest.approx(0.9, abs=1e-12)
    assert abs(termination_payoff(p_ss, FIG)) < 1e-12
    assert termination_payoff(p_h, FIG) == pytest.approx(
        FIG.lam * FIG.w_NI / (FIG.r2 + FIG.lam), abs=1e-12)


def test_myopic_cutoffs_hand_case():
    pars = FIG.with_(w_NI=2.0, w_I=-1.0, r2=1.0, lam=1.0)
    p_ss, p_h = myopic_cutoffs(pars)
    assert p_ss == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert p_h == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_p_h_limit_as_r2_vanishes():
    vals = [myopic_cutoffs(FIG.with_(r2=r2))[1] for r2 in (0.5, 0.05, 0.005, 0.0005)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1.0 - 1e-3


def test_benchmark_values():
    w_under, w_over = benchmark_values(0.3, FIG)
    assert w_under == 0.0  # below the break-even belief
    w_under, w_over = benchmark_values(1.0, FIG)
    assert w_over == pytest.approx(0.8, abs=1e-15)
    w_under, _ = benchmark_values(0.9, FIG)
    assert w_under == pytest.approx(0.8 * termination_payoff(0.9, FIG), abs=1e-14)


def test_benchmarks_ordered_and_monotone():
    p = np.linspace(0.0, 1.0, 501)
    w_under, w_over = benchmark_values(p, FIG)
    assert np.all(w_under <= w_over + 1e-15)
    assert np.all(np.diff(w_under) >= -1e-15)
    assert np.all(np.diff(w_over) >= -1e-15)


def test_lambda_tilde():
    assert lambda_tilde(FIG) == pytest.approx(0.5)
    assert lambda_tilde(FIG.with_(u=2.0)) == pytest.approx(0.25)
    # both sweep anchors classify the same way against this threshold
    assert 0.1 < lambda_tilde(FIG) < 2.0


def test_transform_alternative_hand_case():
    pars = transform_alternative_params(b=1.0, delta=1.0, pi_I=3.0, u_hat=1.0,
                                        c_hat=1.0, lambda_hat=2.0, r1_hat=0.5,
                                        r2_hat=1.0, psi_hat=1.5)
    assert pars.w_I == pytest.approx(-1.0, abs=1e-15)
    assert pars.w_NI == pytest.approx(0.5, abs=1e-15)
    assert pars.r2 == pytest.approx(2.0)
    assert pars.r1 == pytest.approx(1.5)


def test_transform_rejects_boundary_and_below():
    with pytest.raises(ValueError, match="reward too small"):
        transform_alternative_params(b=1.0, delta=1.0, pi_I=1.0, u_hat=1.0,
                                     c_hat=1.0, lambda_hat=2.0, r1_hat=0.5,
                                     r2_hat=1.0)
    # delta -> 0 with pi_I fixed violates the condition as well
    with pytest.raises(ValueError, match="reward too small"):
        transform_alternative_params(b=1.0, delta=1e-9, pi_I=3.0, u_hat=1.0,
                                     c_hat=1.0, lambda_hat=2.0, r1_hat=0.5,
                                     r2_hat=1.0)


@settings(max_examples=200, deadline=None)
@given(
    b=st.floats(0.01, 10.0),
    delta=st.floats(0.01, 10.0),
    margin=st.floats(0.01, 10.0),
    r2_hat=st.floats(0.01, 5.0),
)
def test_transform_signs_property(b, delta, margin, r2_hat):
    pi_i = (r2_hat / delta) * b + margin
    pars = transform_alternative_params(b=b, delta=delta, pi_I=pi_i, u_hat=1.0,
                                        c_hat=1.0, lambda_hat=1.0, r1_hat=0.5,
                                        r2_hat=r2_hat)
    assert pars.w_I < 0.0 < pars.w_NI
    p_ss, p_h = myopic_cutoffs(pars)
    assert 0.0 < p_ss < p_h < 1.0
