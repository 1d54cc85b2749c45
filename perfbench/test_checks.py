"""Each benchmark check passes on sound inputs and fails on one corrupted on purpose."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks
from mimicgame import (GameParams, Numerics, ValueCurve, classify_ep_shape, eval_agent,
                       expected_performance)
from mimicgame.model import benchmark_values, logit, myopic_cutoffs
from mimicgame.principal import solve_equilibrium
from spans import Tracer

FIG1 = GameParams(r1=0.5, r2=0.5, lam=2.0, psi=1.5, u=1.0, c=1.0, w_NI=1.0, w_I=-1.0)
NUM = Numerics()


@pytest.fixture(scope="module")
def eq():
    return solve_equilibrium(FIG1, num=NUM)


def _fails(label, eq):
    return checks.equilibrium_failures(label, eq, NUM, np.random.default_rng(0))


def test_equilibrium_check_passes(eq):
    assert _fails("fig1", eq) == []


def test_equilibrium_check_catches_p_star_outside_bracket(eq):
    _, p_h = myopic_cutoffs(FIG1)
    out = _fails("fig1", dataclasses.replace(eq, p_star=p_h + 0.01))
    assert any("outside [p**, p_H]" in f for f in out)


def test_equilibrium_check_catches_p_star_off_best_reply(eq):
    out = _fails("fig1", dataclasses.replace(eq, p_star=eq.p_star + 0.01))
    assert any("best reply" in f for f in out)


def test_equilibrium_check_catches_hjb_defect(eq):
    wrong = dataclasses.replace(eq.agent, params=FIG1.with_(r1=0.6))
    out = _fails("fig1", dataclasses.replace(eq, agent=wrong))
    assert any("HJB residual" in f for f in out)


def test_value_check_catches_w_below_no_information(eq):
    w_under, _ = benchmark_values(eq.W.states, FIG1)
    dented = eq.W.values.copy()
    i = int(np.argmax(w_under))
    dented[i] = w_under[i] - 1e-6
    out = _fails("fig1", dataclasses.replace(eq, W=ValueCurve(eq.W.states, dented)))
    assert out == ["fig1: W below the no-information value by 1e-06"]


def test_value_check_catches_w_above_full_information(eq):
    _, w_over = benchmark_values(eq.W.states, FIG1)
    out = checks.value_bound_failures("row", FIG1, eq.W.states, w_over + 1e-6)
    assert any("above the full-information value" in f for f in out)


def _ep_inputs(eq):
    shape = classify_ep_shape(eq, NUM)
    p = np.linspace(NUM.p_min, 1.0 - NUM.p_min, 2001)
    doc = {"classification": shape.classification, "p_peak": shape.p_peak,
           "p_underline": shape.p_underline, "p_star": eq.p_star}
    return doc, p, expected_performance(eq, p)


def test_ep_check_passes(eq):
    doc, p, ep = _ep_inputs(eq)
    assert checks.ep_failures(doc, eq.p_star, p, ep) == []


def test_ep_check_catches_wrong_class_and_peak(eq):
    doc, p, ep = _ep_inputs(eq)
    out = checks.ep_failures(dict(doc, classification="Decreasing", p_peak=0.5), eq.p_star, p, ep)
    assert len(out) == 2


def test_ep_check_catches_curve_without_dip(eq):
    doc, p, ep = _ep_inputs(eq)
    out = checks.ep_failures(doc, eq.p_star, p, np.sort(ep)[::-1])
    assert any("no interior dip" in f for f in out)


def test_ep_check_catches_misplaced_minimum(eq):
    doc, p, ep = _ep_inputs(eq)
    out = checks.ep_failures(dict(doc, p_underline=doc["p_underline"] - 0.05), eq.p_star, p, ep)
    assert any("p_underline" in f for f in out)


def test_patience_check():
    assert checks.patience_failures([1.0, 0.3], [0.2, 0.1]) == []
    assert checks.patience_failures([1.0, 0.3], [0.1, 0.2]) != []


def _mc_inputs(eq, p0=0.3):
    """Reports that sit one standard error from the closed form."""
    _, v = eval_agent(eq.agent, logit(p0))
    w = float(eq.W.at(p0))
    rep = SimpleNamespace(agent_value_mean=float(v) + 0.005, agent_value_se=0.005,
                          principal_value_mean=w - 0.002, principal_value_se=0.002,
                          martingale_gap=0.001, martingale_se=0.001)
    ref = SimpleNamespace(
        agent=SimpleNamespace(diff_mean=1e-4, diff_se=5e-4, coarse_se=0.005, fine_se=0.005),
        principal=SimpleNamespace(diff_mean=-1e-4, diff_se=2e-4, coarse_se=0.002, fine_se=0.002))
    return rep, SimpleNamespace(value=0.88), ref


def test_mc_check_passes(eq):
    assert checks.mc_failures(eq, 0.3, *_mc_inputs(eq)) == []


@pytest.mark.parametrize("field,se_field", [("agent_value_mean", "agent_value_se"),
                                            ("principal_value_mean", "principal_value_se")])
def test_mc_check_catches_mean_shifted_by_5_se(eq, field, se_field):
    rep, diag, ref = _mc_inputs(eq)
    _, v = eval_agent(eq.agent, logit(0.3))
    cf = float(v) if field == "agent_value_mean" else float(eq.W.at(0.3))
    side = math.copysign(1.0, getattr(rep, field) - cf)
    setattr(rep, field, getattr(rep, field) + side * 5.0 * getattr(rep, se_field))
    assert len(checks.mc_failures(eq, 0.3, rep, diag, ref)) == 1


def test_mc_check_catches_martingale_gap(eq):
    rep, diag, ref = _mc_inputs(eq)
    rep.martingale_gap = 5.0 * rep.martingale_se
    assert len(checks.mc_failures(eq, 0.3, rep, diag, ref)) == 1


def test_mc_check_catches_refinement_bias(eq):
    rep, diag, ref = _mc_inputs(eq)
    ref.principal = SimpleNamespace(diff_mean=0.009, diff_se=5e-4, coarse_se=0.005, fine_se=0.005)
    out = checks.mc_failures(eq, 0.3, rep, diag, ref)
    assert len(out) == 1 and "principal" in out[0]


def test_mc_check_catches_diagnostic_outside_unit_interval(eq):
    rep, _, ref = _mc_inputs(eq)
    assert len(checks.mc_failures(eq, 0.3, rep, SimpleNamespace(value=1.01), ref)) == 1


def _oracle_like(eq):
    """A discrete solution equal to the closed form on a logit grid."""
    z = np.linspace(-10.0, 10.0, 1335)
    p = 1.0 / (1.0 + np.exp(-z))
    _, v = eval_agent(eq.agent, z)
    return SimpleNamespace(p_star=eq.p_star, z_grid=z, p_grid=p, v=v, w=eq.W.at(p))


def test_oracle_check_passes(eq):
    assert checks.oracle_failures(eq, _oracle_like(eq), NUM) == []


def test_oracle_check_catches_p_star_moved(eq):
    de = _oracle_like(eq)
    de.p_star += 0.05
    assert len(checks.oracle_failures(eq, de, NUM)) == 1


def test_oracle_check_catches_value_gaps(eq):
    de = _oracle_like(eq)
    de.v = de.v * 1.05
    de.w = de.w + 0.03
    assert len(checks.oracle_failures(eq, de, NUM)) == 2


def test_identical_check():
    a = SimpleNamespace(x=1.0, y=math.nan)
    assert checks.identical_failures("r", a, [SimpleNamespace(x=1.0, y=math.nan)]) == []
    b = SimpleNamespace(x=math.nextafter(1.0, 2.0), y=math.nan)
    assert checks.identical_failures("r", a, [b]) != []


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    tr.enabled = True
    tr.call("outer", lambda: tr.call("inner", lambda: sum(range(10000))))
    s = tr.summary()
    outer = tr.spans[0]
    inner = tr.spans[1]
    assert inner.parent == 0 and outer.parent == -1
    assert s["outer"]["self_s"] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
