"""Discrete-time solver against the closed form (coarse settings for speed).

The period here is coarser than the CLI's oracle-check default of
delta = 1e-3, to keep the file's run time down.
"""

import numpy as np
import pytest

import mimicgame as mg
from mimicgame import oracle
from mimicgame.model import GameParams, inv_logit, logit, termination_payoff
from mimicgame.oracle import DiscreteGame, discrete_equilibrium

FIG = GameParams(r1=0.5, r2=0.5, lam=2.0, psi=1.5, u=1.0, c=1.0, w_NI=1.0, w_I=-1.0)
COARSE = DiscreteGame(delta=4e-3, z_max=8.0)


@pytest.fixture(scope="module")
def fig_eq():
    return mg.solve_equilibrium(FIG)


@pytest.fixture(scope="module")
def fig_dp():
    return discrete_equilibrium(FIG, COARSE)


def _gaps(de, eq, pars):
    keep = np.abs(de.z_grid) <= logit(1 - 1e-4)
    a_cf, v_cf = mg.eval_agent(eq.agent, de.z_grid[keep])
    w_cf = eq.W.at(de.p_grid[keep])
    gap_v = float(np.max(np.abs(de.v[keep] - v_cf))) / (pars.u + pars.c)
    gap_w = float(np.max(np.abs(de.w[keep] - w_cf))) / pars.w_NI
    return gap_v, gap_w


def test_fig_equilibrium_matches(fig_eq, fig_dp):
    assert fig_dp.p_star == pytest.approx(fig_eq.p_star, abs=0.02)
    gap_v, gap_w = _gaps(fig_dp, fig_eq, FIG)
    assert gap_v < 0.02
    assert gap_w < 0.02


def test_fig_monotone_shapes(fig_dp):
    # shape holds up to one-grid-cell artifacts from the support-edge cells
    keep = np.abs(fig_dp.z_grid) <= 6.0
    v = fig_dp.v[keep]
    w = fig_dp.w[keep]
    dv = np.diff(v)
    assert np.all(dv < 2e-3)                      # no more than a cell-size blip
    assert np.sum(dv[dv > 0]) < 5e-3              # and blips do not accumulate
    assert np.all(np.diff(w) > -1e-8)
    assert np.min(np.diff(w, 2)) > -1e-3


def test_separating_case_matches():
    pars = FIG.with_(r1=2.0)  # above the critical rate: no mixing
    eq = mg.solve_equilibrium(pars)
    de = discrete_equilibrium(pars, COARSE)
    assert eq.agent.regime == mg.REGIME_SEPARATING
    assert de.outer_residual < 1e-5  # settles on the movement test
    gap_v, gap_w = _gaps(de, eq, pars)
    assert gap_v < 0.02
    assert gap_w < 0.02
    assert de.a.max() < 0.08  # residual mixing near the cutoff shrinks with delta


def test_delta_refinement_improves():
    pars = FIG.with_(r1=2.0)
    eq = mg.solve_equilibrium(pars)
    gaps = []
    for delta in (8e-3, 2e-3):
        de = discrete_equilibrium(pars, DiscreteGame(delta=delta, z_max=8.0))
        gaps.append(_gaps(de, eq, pars)[0])
    assert gaps[1] < gaps[0]


def test_rare_opportunity_cross_check():
    # the continuous best reply at lam = 0.01 sits against the waiting bound;
    # the discrete game lands on the same cutoff
    pars = FIG.with_(lam=0.01)
    eq = mg.solve_equilibrium(pars)
    de = discrete_equilibrium(pars, DiscreteGame(delta=4e-3, z_max=8.0))
    assert de.p_star == pytest.approx(eq.p_star, abs=5e-3)


def test_multistart_agreement(fig_eq):
    # three initial conjectures land on the same fixed point: identical
    # cutoffs and value functions (pointwise intensities can differ by the
    # support-edge cell quantization, so the comparison runs on p*, v, w)
    rng = np.random.default_rng(2718)
    runs = []
    n = discrete_equilibrium(FIG, COARSE).z_grid.size
    for k in range(3):
        init = np.clip(rng.uniform(0.0, 0.9, size=n), 0.0, 1.0 - 1e-6)
        runs.append(discrete_equilibrium(FIG, COARSE, init_a=init))
    for other in runs[1:]:
        assert other.p_star == pytest.approx(runs[0].p_star, abs=1e-3)
        assert np.max(np.abs(other.w - runs[0].w)) < 1e-3
        # pointwise agent values agree except for edge-cell noise, which sits
        # well inside the solver's own accuracy scale
        assert np.max(np.abs(other.v - runs[0].v)) < 0.01


def test_invalid_delta_rejected():
    with pytest.raises(ValueError):
        discrete_equilibrium(FIG, DiscreteGame(delta=1.0))


def test_init_a_validated():
    pars = FIG.with_(r1=2.0)  # settles in a few rounds
    base = discrete_equilibrium(pars, COARSE)
    n = base.z_grid.size
    # a scalar start broadcasts over the grid; zero is the default start
    flat = discrete_equilibrium(pars, COARSE, init_a=0.0)
    assert flat.p_star == base.p_star
    assert np.array_equal(flat.a, base.a) and np.array_equal(flat.v, base.v)
    assert (flat.agent_sweeps, flat.principal_sweeps) == (base.agent_sweeps,
                                                          base.principal_sweeps)
    with pytest.raises(ValueError, match=f"init_a.*{n}"):
        discrete_equilibrium(pars, COARSE, init_a=np.zeros(5))
    with pytest.raises(ValueError, match="init_a"):
        discrete_equilibrium(pars, COARSE, init_a=np.zeros((2, n)))
    bad = np.zeros(n)
    bad[7] = np.nan
    with pytest.raises(ValueError, match="init_a"):
        discrete_equilibrium(pars, COARSE, init_a=bad)
    with pytest.raises(ValueError, match="init_a"):
        discrete_equilibrium(pars, COARSE, init_a=np.inf)


def test_transition_matches_gather_formula():
    rng = np.random.default_rng(11)
    n, dz = 200, 0.05
    z0 = -0.5 * (n - 1) * dz
    x = rng.normal(size=n)
    # targets span past both grid edges, so some rows clamp to the end nodes
    t_up = rng.uniform(z0 - 1.0, -z0 + 1.0, size=3 * n)
    t_dn = t_up - rng.uniform(0.0, 0.5, size=3 * n)
    t_up[0], t_dn[0] = z0 - 3.0, -z0 + 3.0
    scale = rng.uniform(0.5, 1.0, size=3 * n)
    op = oracle._transition(t_up, t_dn, scale, z0, dz, n)
    assert op.shape == (3 * n, n)

    def read(t):
        pos = np.clip((t - z0) / dz, 0.0, n - 1.0)
        i = np.minimum(pos.astype(np.int64), n - 2)
        f = pos - i
        return x[i] * (1.0 - f) + x[i + 1] * f

    expect = scale * (0.5 * (read(t_up) + read(t_dn)))
    assert np.max(np.abs(op @ x - expect)) < 1e-14
    # a row clamped at both edges puts all its weight on the end nodes
    row = op[[0], :].toarray()[0]
    assert row[0] == row[-1] == pytest.approx(0.5 * scale[0])
    assert row.sum() == pytest.approx(scale[0])


def _vi_agent_gather(v, iu0, fu0, id0, fd0, iu1, fu1, id1, fd1,
                     surv, flow0, flow1, g1, tol, maxit):
    """The agent's value iteration as an explicit gather loop (the reference)."""
    for it in range(maxit):
        ev0 = 0.5 * ((v[iu0] * (1.0 - fu0) + v[iu0 + 1] * fu0)
                     + (v[id0] * (1.0 - fd0) + v[id0 + 1] * fd0))
        ev1 = 0.5 * ((v[iu1] * (1.0 - fu1) + v[iu1 + 1] * fu1)
                     + (v[id1] * (1.0 - fd1) + v[id1 + 1] * fd1))
        vn = np.maximum(flow0 + g1 * surv * ev0, flow1 + g1 * surv * ev1)
        diff = np.max(np.abs(vn - v))
        v[:] = vn
        if diff < tol:
            return it + 1
    return -maxit


def _eval_principal_gather(w, iu, fu, idn, fd, stop_prob, reward, g2, tol, maxit):
    """The principal's value evaluation as an explicit gather loop (the reference)."""
    for it in range(maxit):
        ev = 0.5 * ((w[iu] * (1.0 - fu) + w[iu + 1] * fu)
                    + (w[idn] * (1.0 - fd) + w[idn + 1] * fd))
        wn = stop_prob * reward + (1.0 - stop_prob) * (g2 * ev)
        diff = np.max(np.abs(wn - w))
        w[:] = wn
        if diff < tol:
            return it + 1
    return -maxit


def test_sweeps_match_gather_loops():
    # same sweep counts and values as the explicit gather loops, on a small grid
    delta = 2e-2
    psi, sd = FIG.psi, FIG.psi * np.sqrt(delta)
    dz = min(psi * delta, sd)
    half = int(np.ceil(8.0 / dz))
    n = 2 * half + 1
    z = (np.arange(n) - half) * dz
    p = inv_logit(z)
    reward = termination_payoff(p, FIG)
    stop_prob = -np.expm1(-FIG.lam * delta) * (reward > 0.0)
    rng = np.random.default_rng(3)
    a_hat = np.clip(0.9 * np.exp(-z**2) + 0.05 * rng.uniform(size=n), 0.0, 0.9)
    tol, maxit = oracle._TOL_INNER, oracle._VI_MAXIT

    def gather(t):
        return oracle._gather_weights(t, z[0], dz, n)

    stage = oracle._AgentStage(FIG, delta, z, dz)
    surv = 1.0 - stop_prob
    v_new, v_ref = np.zeros(n), np.zeros(n)
    it_new = stage.value_iterate(v_new, a_hat, surv)
    g1 = np.exp(-FIG.r1 * delta)
    weights = [w for t in stage._targets(a_hat) for w in gather(t)]
    it_ref = _vi_agent_gather(v_ref, *weights, surv, (1.0 - g1) * (FIG.u + FIG.c),
                              (1.0 - g1) * FIG.u, g1, tol, maxit)
    assert it_new == it_ref > 0
    assert np.max(np.abs(v_new - v_ref)) < 1e-13

    one_m = 1.0 - a_hat
    drift = psi**2 * one_m**2 * (p - 0.5) * delta
    t_up, t_dn = z + drift + sd * one_m, z + drift - sd * one_m
    g2 = np.exp(-FIG.r2 * delta)
    w_new, w_ref = np.zeros(n), np.zeros(n)
    op = oracle._transition(t_up, t_dn, (1.0 - stop_prob) * g2, z[0], dz, n)
    it_new = oracle._sweep(w_new, op, stop_prob * reward, tol, maxit)
    it_ref = _eval_principal_gather(w_ref, *gather(t_up), *gather(t_dn), stop_prob,
                                    reward, g2, tol, maxit)
    assert it_new == it_ref > 0
    assert np.max(np.abs(w_new - w_ref)) < 1e-13
