"""Monte Carlo machinery: determinism, degenerate cases, closed-form checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

import mimicgame as mg
from mimicgame.model import GameParams, logit
from mimicgame.simulate import (
    SimConfig,
    dt_refinement,
    estimate_values,
    learning_diagnostic,
    martingale_check,
    simulate_path,
)

FIG = GameParams(r1=0.5, r2=0.5, lam=2.0, psi=1.5, u=1.0, c=1.0, w_NI=1.0, w_I=-1.0)


@pytest.fixture(scope="module")
def fig_eq():
    return mg.solve_equilibrium(FIG)


@pytest.fixture(scope="module")
def fig_report(fig_eq):
    return estimate_values(fig_eq, SimConfig(p0=0.3, n_paths=20_000, seed=2),
                           with_diagnostic=False)


def test_config_validation(fig_eq):
    with pytest.raises(ValueError):
        SimConfig(p0=0.3, dt=1.0).resolve(FIG)       # too coarse
    with pytest.raises(ValueError):
        SimConfig(p0=0.3, z_cap=5.0).resolve(FIG)    # cap too small
    with pytest.raises(ValueError):
        SimConfig(p0=1.5).resolve(FIG)
    for batch in (0, -5):
        with pytest.raises(ValueError, match="batch"):
            SimConfig(p0=0.3, batch=batch).resolve(FIG)
    # a step or horizon that is not finite and positive never ends a path
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(p0=0.3, dt=bad).resolve(FIG)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(p0=0.3, horizon=bad).resolve(FIG)
    for refine in (0, -3):
        with pytest.raises(ValueError, match="band_refine"):
            SimConfig(p0=0.3, band_refine=refine).resolve(FIG)
    # counts must be integers, or they fail deep inside the kernels
    for name in ("n_paths", "batch", "band_refine"):
        with pytest.raises(ValueError, match=name):
            SimConfig(p0=0.3, **{name: 2.5}).resolve(FIG)


def _interp_reference(a_tab, z_lo, inv_dz, zv):
    """The table lookup as first written: clamp, index, blend, then patch the top end."""
    ntab = a_tab.size
    pos = (zv - z_lo) * inv_dz
    pos = np.maximum(pos, 0.0)
    i = pos.astype(np.int64)
    hi = i >= ntab - 1
    i = np.minimum(i, ntab - 2)
    frac = pos - i
    a = a_tab[i] + (a_tab[i + 1] - a_tab[i]) * frac
    return np.where(hi, a_tab[ntab - 1], a)


def test_lookup_matches_reference(fig_eq):
    # the fig1 policy table, and a random one on a dyadic grid whose nodes
    # map to exact table positions
    from mimicgame._simkernels import _lookup
    from mimicgame.model import Numerics
    from mimicgame.simulate import _policy_table
    rng = np.random.default_rng(3)
    tables = [_policy_table(fig_eq, SimConfig(p0=0.3).resolve(FIG), Numerics()),
              (rng.random(129), -16.0, 4.0)]
    for a_tab, z_lo, inv_dz in tables:
        z_cap = -z_lo
        nodes = z_lo + np.arange(a_tab.size) / inv_dz
        points = np.concatenate([
            rng.uniform(-z_cap, z_cap, 5000),
            nodes, nodes[-1:],                                # on nodes, the last one included
            rng.uniform(-3 * z_cap, z_lo, 50),                # below the table
            rng.uniform(nodes[-1], 3 * z_cap, 50),            # above the last node
            [-(z_cap + 1), z_cap + 1]])
        got = _lookup(a_tab, z_lo, inv_dz)(points)
        want = _interp_reference(a_tab, z_lo, inv_dz, points)
        assert got.tobytes() == want.tobytes()


def test_determinism_bit_identical(fig_eq):
    cfg = SimConfig(p0=0.4, n_paths=500, seed=99)
    r1 = estimate_values(fig_eq, cfg)
    r2 = estimate_values(fig_eq, cfg)
    assert r1 == r2
    r3 = estimate_values(fig_eq, replace(cfg, seed=100))
    assert r3.agent_value_mean != r1.agent_value_mean


def test_batch_split_invariance(fig_eq):
    # per-path streams make results independent of the batch partition
    base = SimConfig(p0=0.4, n_paths=700, seed=5, batch=4096)
    split = replace(base, batch=128)
    ra = estimate_values(fig_eq, base)
    rb = estimate_values(fig_eq, split)
    assert ra == rb
    assert dt_refinement(fig_eq, base) == dt_refinement(fig_eq, split)


def test_pool_refill_keeps_path_index(fig_eq):
    # a pool of 8 rows over 40 paths of each type refills rows mid-run; each
    # record must land at its own index and match the path run on its own
    from mimicgame import _simkernels
    from mimicgame.model import Numerics, inv_logit
    from mimicgame.simulate import _kernel_args, _run_types
    cfg = SimConfig(p0=0.4, n_paths=40, seed=5, batch=8).resolve(FIG)
    shared = _run_types(fig_eq, cfg, ("NI", "I"), Numerics())
    for k, agent_type in enumerate(("NI", "I")):
        res = shared[k]
        # a type's rows from the shared pool equal a run of that type alone
        alone = _run_types(fig_eq, cfg, (agent_type,), Numerics())[0]
        assert res.tobytes() == alone.tobytes()
        for i in (0, 7, 8, 39):
            rec = simulate_path(fig_eq, agent_type, cfg, path_index=i)
            t, stopped, pay, d1, d2, zpr = res[i]
            assert (rec.stop_time, rec.stopped, rec.disc_r1, rec.disc_r2, rec.p_probe) == (
                t, bool(stopped), d1, d2, inv_logit(zpr))
            if agent_type == "NI":
                assert rec.agent_payoff == pay
    # the coupled and diagnostic runs give identical arrays at any pool width,
    # and the coupled run gives each type the arrays of that type run alone
    refine, args = _kernel_args(fig_eq, cfg, ("NI", "I"), Numerics())
    diag_args = dict(z0=logit(0.4), z_int_lo=logit(0.05), z_int_hi=logit(0.95), psi=FIG.psi,
                     r1=FIG.r1, u=FIG.u, c=FIG.c, a_thresh=0.9, dt=cfg.dt, horizon=cfg.horizon,
                     a_tab=args["a_tab"], z_lo=args["z_lo"], inv_dz=args["inv_dz"],
                     n_paths=40, seed=5, tag=2)
    coupled, diag = [], []
    for width in (8, 37, 40):
        coupled.append(_simkernels.run_coupled(**dict(args, batch=width), refine=refine,
                                               n_paths=40))
        diag.append(_simkernels.run_diag(**diag_args, batch=width))
    for x in coupled[1:]:
        assert x.tobytes() == coupled[0].tobytes()
    for k, agent_type in enumerate(("NI", "I")):
        _, one = _kernel_args(fig_eq, cfg, (agent_type,), Numerics())
        alone = _simkernels.run_coupled(**dict(one, batch=40), refine=refine, n_paths=40)[0]
        assert alone.tobytes() == coupled[0][k].tobytes()
    for x in diag[1:]:
        assert x.tobytes() == diag[0].tobytes()


def test_frozen_belief_degenerate_case():
    # with a vanishing signal-to-noise ratio the belief never moves: the game
    # stops at the first opportunity iff the start is above the cutoff
    pars = FIG.with_(psi=1e-6)
    eq = mg.solve_equilibrium(pars)
    assert eq.agent.regime == mg.REGIME_SEPARATING
    cfg = SimConfig(p0=0.7, n_paths=64, seed=7, dt=0.005, horizon=80.0)
    recs = [simulate_path(eq, "NI", cfg, path_index=i) for i in range(20)]
    assert all(r.stopped for r in recs)
    for r in recs:
        # payoff accrues the full flow until the stop time
        expect = (pars.u + pars.c) * (1.0 - math.exp(-pars.r1 * r.stop_time))
        assert r.agent_payoff == pytest.approx(expect, rel=1e-6)
    # below the cutoff nothing ever stops and the annuity converges to u+c
    cfg_lo = replace(cfg, p0=0.3)
    recs = [simulate_path(eq, "NI", cfg_lo, path_index=i) for i in range(10)]
    assert not any(r.stopped for r in recs)
    for r in recs:
        assert r.agent_payoff == pytest.approx(pars.u + pars.c, rel=1e-6)


def test_mc_matches_closed_form(fig_eq, fig_report):
    rep = fig_report
    _, v_cf = mg.eval_agent(fig_eq.agent, logit(0.3))
    w_cf = float(fig_eq.W.at(0.3))
    assert abs(rep.agent_value_mean - v_cf) < 4 * rep.agent_value_se
    assert abs(rep.principal_value_mean - w_cf) < 4 * rep.principal_value_se
    assert rep.martingale_gap < 4 * rep.martingale_se
    assert rep.censored_frac_ni < 0.01


def test_se_scaling_with_paths(fig_eq):
    r1 = estimate_values(fig_eq, SimConfig(p0=0.3, n_paths=4000, seed=8))
    r2 = estimate_values(fig_eq, SimConfig(p0=0.3, n_paths=8000, seed=8))
    shrink = r2.agent_value_se / r1.agent_value_se
    assert shrink == pytest.approx(1.0 / math.sqrt(2.0), abs=0.1)


def test_martingale_probe(fig_eq):
    res = martingale_check(fig_eq, SimConfig(p0=0.5, n_paths=20_000, seed=4), t_probe=1.0)
    assert res.gap < 3 * res.se
    with pytest.raises(ValueError):
        martingale_check(fig_eq, SimConfig(p0=0.5, n_paths=100, seed=1), t_probe=1e9)


def test_conditional_belief_drifts(fig_eq):
    # the noninvestible side drives the belief up on average, the investible
    # side down: compare the probe means directly
    from mimicgame.simulate import _run_types
    from mimicgame.model import Numerics, inv_logit
    cfg = SimConfig(p0=0.5, n_paths=8000, seed=6, t_probe=1.0).resolve(FIG)
    res_ni, res_i = _run_types(fig_eq, cfg, ("NI", "I"), Numerics())
    mean_ni = float(np.mean(inv_logit(res_ni[:, 5])))
    mean_i = float(np.mean(inv_logit(res_i[:, 5])))
    assert mean_ni > 0.5 + 0.01
    assert mean_i < 0.5 - 0.01


def test_discount_factor_ordering():
    # on the same stopped paths, discounting at a smaller rate sits between
    # the base factor and its power transform
    pars = FIG.with_(r2=0.25)
    eq = mg.solve_equilibrium(pars)
    from mimicgame.simulate import _run_types
    from mimicgame.model import Numerics
    cfg = SimConfig(p0=0.4, n_paths=4000, seed=13).resolve(pars)
    res = _run_types(eq, cfg, ("NI",), Numerics())[0]
    d1 = res[:, 3]  # e^{-r1 T}
    d2 = res[:, 4]  # e^{-r2 T}, r2 = r1/2
    xi = float(np.mean(d1))
    mid = float(np.mean(d2))
    assert xi <= mid <= xi ** (pars.r2 / pars.r1)
    # pathwise consistency of the two discounts
    assert np.allclose(d2, d1 ** (pars.r2 / pars.r1), rtol=1e-9)


def test_dt_refinement_within_one_se(fig_eq):
    # the dt and dt/2 legs share one Brownian path per path index, so the
    # paired difference carries the step-size bias without the payoff noise;
    # adding 4 se(d) makes this stricter than |coarse - fine| < se + se
    cfg = SimConfig(p0=0.3, n_paths=20_000, seed=2)
    ref = dt_refinement(fig_eq, cfg)
    for est in (ref.agent, ref.principal):
        assert abs(est.diff_mean) + 4 * est.diff_se < est.coarse_se + est.fine_se


def test_dt_refinement_exact_when_coefficients_constant():
    # with no mimicking the drift and volatility are constant and each step is
    # exact in distribution, so on a shared Brownian path both legs reach the
    # same belief at every arrival and agree up to rounding
    eq = mg.solve_equilibrium(FIG.with_(r1=10.0))
    assert eq.agent.regime == mg.REGIME_SEPARATING
    ref = dt_refinement(eq, SimConfig(p0=0.5, n_paths=300, seed=21))
    for est in (ref.agent, ref.principal):
        assert est.coarse_se > 0.0
        assert abs(est.diff_mean) < 1e-12


def test_censoring_negligible(fig_report):
    # discounted mass beyond the default horizon is tiny by construction
    horizon = 20.0 / min(FIG.r1, FIG.r2)
    assert math.exp(-FIG.r1 * horizon) < 1e-8
    assert fig_report.censored_frac_ni * math.exp(-FIG.r1 * horizon) < 1e-4


def test_learning_diagnostic_separating_identity():
    # with no mimicking the indicator is always on, so the diagnostic equals
    # one minus the expected exit discount
    pars = FIG.with_(r1=10.0)
    eq = mg.solve_equilibrium(pars)
    cfg = SimConfig(p0=0.5, n_paths=3000, seed=21)
    diag = learning_diagnostic(eq, cfg, eps=0.1, interval=(0.2, 0.8))
    assert diag.value == pytest.approx(1.0 - diag.mean_disc_exit, abs=1e-12)


def test_learning_diagnostic_threshold_edge(fig_eq):
    # eps = 1 demands a <= 0; inside the mixing region the intensity is
    # positive, so the indicator never fires
    p_l = mg.inv_logit(fig_eq.agent.z_L)
    p_r = mg.inv_logit(fig_eq.agent.z_R)
    interval = (p_l + 0.02, p_r - 0.02)
    cfg = SimConfig(p0=0.5, n_paths=500, seed=3)
    diag = learning_diagnostic(fig_eq, cfg, eps=1.0, interval=interval)
    assert diag.value == 0.0


def test_learning_diagnostic_validation(fig_eq):
    cfg = SimConfig(p0=0.5, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        learning_diagnostic(fig_eq, cfg, eps=0.0)
    with pytest.raises(ValueError):
        learning_diagnostic(fig_eq, cfg, eps=0.1, interval=(0.6, 0.9))


def test_simulate_path_types(fig_eq):
    cfg = SimConfig(p0=0.4, n_paths=1, seed=17)
    rec_ni = simulate_path(fig_eq, "NI", cfg, path_index=3)
    rec_i = simulate_path(fig_eq, "I", cfg, path_index=3)
    assert math.isnan(rec_i.agent_payoff)
    assert rec_ni.agent_payoff > 0
    assert 0 < rec_ni.p_probe < 1
    with pytest.raises(ValueError):
        simulate_path(fig_eq, "X", cfg)
