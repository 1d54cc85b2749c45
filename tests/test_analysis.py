"""Expected performance, shape classification, sweeps, and the rate gate."""

import numpy as np
import pytest

import mimicgame as mg
from mimicgame.analysis import (
    SHAPE_DECREASING,
    SHAPE_ZIGZAG,
    classify_ep_shape,
    expected_performance,
    lambda_one,
    sweep_patience,
    sweep_psi,
)
from mimicgame.model import GameParams, benchmark_values, inv_logit, logit
from mimicgame.principal import ConvergenceError

FIG = GameParams(r1=0.5, r2=0.5, lam=2.0, psi=1.5, u=1.0, c=1.0, w_NI=1.0, w_I=-1.0)


@pytest.fixture(scope="module")
def fig_eq():
    return mg.solve_equilibrium(FIG)


def test_ep_values(fig_eq):
    # below the mixing region the intensity is zero: EP = psi (1 - p)
    assert expected_performance(fig_eq, 0.1) == pytest.approx(1.5 * 0.9, abs=1e-12)
    assert expected_performance(fig_eq, 1e-6) == pytest.approx(1.5, abs=1e-4)
    p = np.linspace(0.01, 0.99, 99)
    ep = expected_performance(fig_eq, p)
    assert np.all((ep > 0) & (ep <= FIG.psi))
    with pytest.raises(ValueError):
        expected_performance(fig_eq, 0.0)


def test_ep_separating_decreasing():
    eq = mg.solve_equilibrium(FIG.with_(r1=10.0))
    p = np.linspace(0.01, 0.99, 500)
    ep = expected_performance(eq, p)
    assert np.allclose(ep, FIG.psi * (1 - p), atol=1e-12)
    assert np.all(np.diff(ep) < 0)
    assert classify_ep_shape(eq).classification == SHAPE_DECREASING


def test_ep_shape_fig_is_zigzag(fig_eq):
    shape = classify_ep_shape(fig_eq)
    assert shape.classification == SHAPE_ZIGZAG
    assert shape.p_peak == pytest.approx(fig_eq.p_star)
    p_l = inv_logit(fig_eq.agent.z_L)
    assert p_l <= shape.p_underline < fig_eq.p_star
    # the minimizer is interior here
    assert shape.p_underline > p_l + 0.01


def test_ep_three_segment_monotonicity(fig_eq):
    shape = classify_ep_shape(fig_eq)
    eps = 1e-4
    seg1 = np.linspace(5e-3, shape.p_underline - eps, 700)
    seg2 = np.linspace(shape.p_underline + eps, shape.p_peak - eps, 700)
    seg3 = np.linspace(shape.p_peak + eps, 1 - 5e-3, 700)
    assert np.all(np.diff(expected_performance(fig_eq, seg1)) < 0)
    assert np.all(np.diff(expected_performance(fig_eq, seg2)) > 0)
    assert np.all(np.diff(expected_performance(fig_eq, seg3)) < 0)


def test_ep_criterion_flips_with_sign():
    # continuation toward the regime boundary: at a low opportunity rate the
    # criterion crosses zero while the policy is still humped, and the
    # classification flips exactly with the sign
    crits, labels = [], []
    for r1 in np.linspace(0.58, 0.638, 9):
        eq = mg.solve_equilibrium(FIG.with_(lam=0.5, r1=float(r1)), grid_n=1001)
        shape = classify_ep_shape(eq)
        assert eq.agent.regime == mg.REGIME_HUMP
        crits.append(shape.criterion_value)
        labels.append(shape.classification)
    crits = np.array(crits)
    assert (crits > 0).any() and (crits < 0).any()
    assert np.all(np.diff(crits) < 0)  # monotone continuation, single flip
    for c, lab in zip(crits, labels):
        assert lab == (SHAPE_ZIGZAG if c > 0 else SHAPE_DECREASING)
    # a humped equilibrium classified Decreasing really is monotone
    eq = mg.solve_equilibrium(FIG.with_(lam=0.5, r1=0.638), grid_n=1001)
    p = np.linspace(5e-3, 1 - 5e-3, 2000)
    ep = expected_performance(eq, p)
    assert np.all(np.diff(ep) < 0)


def test_ep_slope_identity(fig_eq):
    # in the mixing region left of the cutoff:
    #   psi - EP - EP'/p = 2 psi (v - u)/c, EP' by central differences
    sol = fig_eq.agent
    h = 1e-6
    z = np.linspace(sol.z_L + 10 * h, sol.z_star - 10 * h, 400)
    p = inv_logit(z)
    ep = expected_performance(fig_eq, p)
    ep_hi = expected_performance(fig_eq, inv_logit(z + h))
    ep_lo = expected_performance(fig_eq, inv_logit(z - h))
    ep_slope = (ep_hi - ep_lo) / (2 * h)
    _, v = mg.eval_agent(sol, z)
    lhs = FIG.psi - ep - ep_slope / p
    rhs = 2 * FIG.psi * (v - FIG.u) / FIG.c
    assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_lambda_one_gate():
    lam1 = lambda_one(FIG)
    target = FIG.psi**2
    assert mg.solve_r_star(FIG.with_(lam=lam1)) == pytest.approx(target, rel=1e-6)
    for scale in (0.2, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 3.0):
        above = mg.solve_r_star(FIG.with_(lam=lam1 * scale)) > target
        assert above == (scale > 1.0)


def test_sweep_psi_validation():
    with pytest.raises(ValueError):
        sweep_psi(FIG, [2.0, 1.0])
    with pytest.raises(ValueError):
        sweep_psi(FIG, [1.0, 2.0], probe_p=1.5)


def test_sweep_psi_rows_smoke():
    rows = sweep_psi(FIG, [0.8, 1.5, 3.0], probe_p=0.3, grid_n=1001)
    assert [r.value for r in rows] == [0.8, 1.5, 3.0]
    for r in rows:
        assert r.error is None
        w_under, w_over = benchmark_values(0.3, FIG.with_(psi=r.value))
        assert w_under - 1e-9 < r.w_probe < w_over
        assert r.gap_under >= -1e-9 and r.gap_over >= 0
        assert np.isfinite(r.runtime_s)
    mid = rows[1]
    eq = mg.solve_equilibrium(FIG, grid_n=1001)
    assert mid.p_star == pytest.approx(eq.p_star, abs=1e-6)


def _fail_first_solve(monkeypatch, exc):
    import mimicgame.analysis as analysis

    calls = {"n": 0}
    real = analysis.solve_equilibrium

    def flaky(params, grid_n=None, num=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise exc
        return real(params, grid_n=grid_n, num=num)

    monkeypatch.setattr(analysis, "solve_equilibrium", flaky)


def test_sweep_psi_continues_past_failures(monkeypatch):
    _fail_first_solve(monkeypatch, ConvergenceError("synthetic failure"))
    rows = sweep_psi(FIG, [1.0, 1.5], probe_p=0.3, grid_n=1001)
    assert rows[0].error is not None and "synthetic" in rows[0].error
    assert rows[1].error is None


@pytest.mark.parametrize("sweep, ladder", [(sweep_psi, [1.0, 1.5]),
                                           (sweep_patience, [1.0, 0.5])],
                         ids=["psi", "patience"])
def test_sweeps_propagate_programming_errors(monkeypatch, sweep, ladder):
    # only typed solver failures become error rows; a bug must surface
    _fail_first_solve(monkeypatch, TypeError("synthetic bug"))
    with pytest.raises(TypeError, match="synthetic bug"):
        sweep(FIG, ladder, grid_n=1001)


def test_sweep_patience_identity_row(fig_eq):
    rows = sweep_patience(FIG, [1.0], chi=1.0, probes=(0.3, 0.7))
    row = rows[0]
    assert row.error is None
    assert row.p_star == pytest.approx(fig_eq.p_star, abs=1e-9)
    _, v03 = mg.eval_agent(fig_eq.agent, logit(0.3))
    assert row.v_below == pytest.approx(float(v03), abs=1e-9)


def test_sweep_patience_trend_short():
    rows = sweep_patience(FIG, [1.0, 0.3, 0.1], chi=1.0, probes=(0.3, 0.7),
                          grid_n=2001)
    sup = [r.sup_dist_stop_value for r in rows]
    assert sup[0] > sup[1] > sup[2]
    assert rows[-1].warning is not None  # near-degenerate diffusion flagged
    assert rows[-1].a_at_pstar > 1 - 1e-3
