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
    # the continuous game does not mix at r1 = 2, and the oracle at this delta
    # stays close to that policy: max a reads 0.0086 here. Its residual mixing
    # near the cutoff grows as delta shrinks (0 at 1e-2, 0.043 at 2e-3, where
    # the outer iteration stops at its round cap), so the bound holds only at
    # a delta this coarse
    assert de.a.max() < 0.08


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


def test_multistart_agreement(fig_dp):
    # three initial conjectures land on the same fixed point: identical
    # cutoffs and value functions (pointwise intensities can differ by the
    # support-edge cell quantization, so the comparison runs on p*, v, w)
    rng = np.random.default_rng(2718)
    runs = []
    n = fig_dp.z_grid.size
    for k in range(3):
        init = np.clip(rng.uniform(0.0, 0.9, size=n), 0.0, 1.0 - 1e-6)
        runs.append(discrete_equilibrium(FIG, COARSE, init_a=init))
    for other in runs[1:]:
        assert other.p_star == pytest.approx(runs[0].p_star, abs=1e-3)
        assert np.max(np.abs(other.w - runs[0].w)) < 1e-3
        # pointwise agent values agree except for edge-cell noise, which sits
        # well inside the solver's own accuracy scale
        assert np.max(np.abs(other.v - runs[0].v)) < 0.01


def test_start_independence(fig_dp):
    # the continuous cutoff leaves no choice of stopping node to the start:
    # all starts stop first at the same node, and their p* agree
    n = fig_dp.z_grid.size
    runs = [fig_dp] + [discrete_equilibrium(FIG, COARSE,
                                            init_a=np.random.default_rng(k).uniform(0.0, 0.9, n))
                       for k in (0, 2, 4, 5)]

    def first_stop(de):
        return int(np.argmax(termination_payoff(de.p_grid, FIG) > de.w))

    assert len({first_stop(de) for de in runs}) == 1
    p_stars = [de.p_star for de in runs]
    assert max(p_stars) - min(p_stars) < 1e-3


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
    assert (flat.agent_solves, flat.principal_solves) == (base.agent_solves,
                                                          base.principal_solves)
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


def _dense(op):
    """The banded operator as a dense matrix."""
    (lo, up), band = op
    n = band.shape[1]
    out = np.zeros((n, n))
    for r in range(lo + up + 1):
        j = np.arange(max(0, up - r), min(n, n + up - r))
        out[j + r - up, j] = band[r, j]
    return out


def test_operator_matches_gather_formula():
    rng = np.random.default_rng(11)
    n, dz = 200, 0.05
    z0 = -0.5 * (n - 1) * dz
    x = rng.normal(size=n)
    # targets span past both grid edges, so some rows clamp to the end nodes
    t_up = rng.uniform(z0 - 1.0, -z0 + 1.0, size=n)
    t_dn = t_up - rng.uniform(0.0, 0.5, size=n)
    t_up[0], t_dn[0] = z0 - 3.0, -z0 + 3.0      # one target past each edge
    t_up[1], t_dn[1] = z0 - 1.0, z0 - 2.0       # all four weights on the first nodes
    t_up[-1], t_dn[-1] = -z0 + 2.0, -z0 + 1.0   # all four weights on the last nodes
    op = oracle._operator(t_up, t_dn, z0, dz, n)
    dense = _dense(op)

    def read(t):
        pos = np.clip((t - z0) / dz, 0.0, n - 1.0)
        i = np.minimum(pos.astype(np.int64), n - 2)
        f = pos - i
        return x[i] * (1.0 - f) + x[i + 1] * f

    assert np.max(np.abs(dense @ x - 0.5 * (read(t_up) + read(t_dn)))) < 1e-14
    assert np.allclose(dense.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    # a row clamped at both edges puts all its weight on the end nodes
    assert dense[0, 0] == dense[0, -1] == 0.5
    assert dense[1, 0] == 1.0 and dense[-1, -1] == 1.0
    # the solve inverts x = f + s * (P x)
    s = rng.uniform(0.5, 0.99, size=n)
    f = rng.normal(size=n)
    sol = oracle._solve(op, s, f)
    assert np.max(np.abs(sol - f - s * (dense @ sol))) < 1e-12


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


def _period_game(delta):
    """Grid, stop probability and a conjecture of one period of the fig1 game.

    The stop weight is fractional in the cell of a cutoff off the grid.
    """
    psi, sd = FIG.psi, FIG.psi * np.sqrt(delta)
    dz = min(psi * delta, sd)
    half = int(np.ceil(8.0 / dz))
    n = 2 * half + 1
    z = (np.arange(n) - half) * dz
    reward = termination_payoff(inv_logit(z), FIG)
    z_cut = z[np.argmax(reward > 0.0)] + 0.3 * dz
    stop_prob = -np.expm1(-FIG.lam * delta) * np.clip((z - z_cut) / dz + 0.5, 0.0, 1.0)
    rng = np.random.default_rng(3)
    a_hat = np.clip(0.9 * np.exp(-z**2) + 0.05 * rng.uniform(size=n), 0.0, 0.9)
    return z, dz, reward, stop_prob, a_hat


def test_solves_are_fixed_points_of_gather_loops():
    # one sweep of each explicit gather loop leaves the banded solution in place
    delta = 2e-2
    psi, sd = FIG.psi, FIG.psi * np.sqrt(delta)
    z, dz, reward, stop_prob, a_hat = _period_game(delta)
    n, p = z.size, inv_logit(z)

    def gather(t):
        return oracle._gather_weights(t, z[0], dz, n)

    stage = oracle._AgentStage(FIG, delta, z, dz)
    surv = 1.0 - stop_prob
    v = stage.value(a_hat, surv)
    assert stage.solves > 1 and 0 < stage.mimic.sum() < n   # both actions in use
    g1 = np.exp(-FIG.r1 * delta)
    weights = [w for t in stage._targets(a_hat) for w in gather(t)]
    assert _vi_agent_gather(v.copy(), *weights, surv, (1.0 - g1) * (FIG.u + FIG.c),
                            (1.0 - g1) * FIG.u, g1, 1e-12, 1) == 1

    one_m = 1.0 - a_hat
    drift = psi**2 * one_m**2 * (p - 0.5) * delta
    t_up, t_dn = z + drift + sd * one_m, z + drift - sd * one_m
    g2 = np.exp(-FIG.r2 * delta)
    op = oracle._operator(t_up, t_dn, z[0], dz, n)
    w = oracle._solve(op, (1.0 - stop_prob) * g2, stop_prob * reward)
    assert _eval_principal_gather(w.copy(), *gather(t_up), *gather(t_dn), stop_prob,
                                  reward, g2, 1e-12, 1) == 1


def test_inner_caps_raise(monkeypatch):
    # each inner loop that runs out of solves names its cause
    monkeypatch.setattr(oracle, "_INNER_MAXIT", 1)
    with pytest.raises(oracle.OscillationError, match="cutoff still moving"):
        discrete_equilibrium(FIG, COARSE)
    delta = 2e-2
    z, dz, _, stop_prob, a_hat = _period_game(delta)
    stage = oracle._AgentStage(FIG, delta, z, dz)
    with pytest.raises(oracle.OscillationError, match="policy iteration still switching"):
        stage.value(a_hat, 1.0 - stop_prob)
