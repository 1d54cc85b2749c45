"""Discrete-time solver against the closed form (coarse settings for speed).

The period here is coarser than the CLI's oracle-check default of
delta = 1e-3, to keep the file's run time down.
"""

import numpy as np
import pytest

import mimicgame as mg
from mimicgame.model import GameParams, logit
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
