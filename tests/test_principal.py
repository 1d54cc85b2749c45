"""Principal grid solver, best reply, and the equilibrium fixed point."""

import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mimicgame as mg
from mimicgame import analysis
from mimicgame.cli import load_config
from mimicgame.model import GameParams, Numerics, benchmark_values, logit, myopic_cutoffs, termination_payoff
from mimicgame.principal import best_reply_cutoff, solve_value_given_cutoff

FIG = GameParams(r1=0.5, r2=0.5, lam=2.0, psi=1.5, u=1.0, c=1.0, w_NI=1.0, w_I=-1.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def fig_eq():
    return mg.solve_equilibrium(FIG)


def test_value_near_one_with_separating_policy():
    pars = FIG.with_(r1=10.0)  # separating: a == 0
    agent = mg.build_agent_solution(pars, logit(0.9))
    curve = solve_value_given_cutoff(agent, 0.9, pars)
    assert float(curve.at(1.0 - 2e-4)) == pytest.approx(0.8, abs=2e-3)


def test_value_rejects_bad_inputs(fig_eq):
    with pytest.raises(ValueError):
        solve_value_given_cutoff(fig_eq.agent, 1.5, FIG)
    with pytest.raises(ValueError):
        solve_value_given_cutoff(fig_eq.agent, 0.5, FIG, grid_n=50)


def test_equilibrium_fig_values(fig_eq):
    assert fig_eq.p_star == pytest.approx(0.565, abs=0.01)
    assert mg.inv_logit(fig_eq.agent.z_L) == pytest.approx(0.195, abs=0.01)
    assert mg.inv_logit(fig_eq.agent.z_R) == pytest.approx(0.633, abs=0.01)
    assert fig_eq.diagnostics["residual"] < 1e-5
    assert fig_eq.agent.regime == mg.REGIME_HUMP


def test_equilibrium_value_crosses_payoff_once(fig_eq):
    r_line = termination_payoff(fig_eq.W.states, FIG)
    sign = np.sign(r_line - fig_eq.W.values)
    flips = np.nonzero(np.diff(sign) != 0)[0]
    assert len(flips) == 1
    crossing = fig_eq.W.states[flips[0]]
    assert crossing == pytest.approx(fig_eq.p_star, abs=1e-3)
    # indifference at the switch
    assert float(fig_eq.W.at(fig_eq.p_star)) == pytest.approx(
        termination_payoff(fig_eq.p_star, FIG), abs=1e-4)


def test_equilibrium_w_shape(fig_eq):
    w = fig_eq.W.values
    p = fig_eq.W.states
    assert np.all(np.diff(w) >= -1e-12)                      # nondecreasing
    assert np.min(np.diff(w, 2)) > -1e-8                     # convex
    assert np.all(w >= -1e-12)
    assert np.all(w <= FIG.lam * FIG.w_NI / (FIG.r2 + FIG.lam) + 1e-12)
    w_under, w_over = benchmark_values(p, FIG)
    inner = (p > 0.01) & (p < 0.99)
    assert np.all(w[inner] > w_under[inner] - 1e-12)
    assert np.all(w[inner] < w_over[inner])


@pytest.mark.parametrize("pars", [
    FIG, FIG.with_(psi=5.0), FIG.with_(r1=2.0), FIG.with_(r1=0.05, r2=0.05),
], ids=["fig1", "psi5", "r1-2", "patient"])
def test_value_edges_exact(pars):
    # the diffusion dies at both edges: W there is the frozen-belief annuity,
    # 0 below the cutoff and lam R / (r2 + lam) above it, with no rounding
    w = mg.solve_equilibrium(pars).W
    r_top = termination_payoff(w.states[-1], pars)
    assert w.values[0] == 0.0 and not np.signbit(w.values[0])   # no "-0" in curve_W.csv
    assert w.values[-1] == pars.lam * r_top / (pars.r2 + pars.lam)
    assert w.values.min() >= 0.0


def test_cutoff_bounds_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(100):
        pars = GameParams(r1=rng.uniform(0.05, 4.0), r2=rng.uniform(0.05, 3.0),
                          lam=rng.uniform(0.1, 5.0), psi=rng.uniform(0.3, 4.0),
                          u=rng.uniform(0.3, 2.0), c=rng.uniform(0.3, 2.0),
                          w_NI=rng.uniform(0.3, 2.0), w_I=-rng.uniform(0.3, 2.0))
        eq = mg.solve_equilibrium(pars, grid_n=1001)
        p_ss, p_h = myopic_cutoffs(pars)
        assert p_ss - 1e-9 <= eq.p_star <= p_h + 1e-9


def test_best_reply_nearly_myopic_when_uninformative():
    pars = FIG.with_(psi=1e-3)
    agent = mg.build_agent_solution(pars, logit(0.5))
    cut, _ = best_reply_cutoff(agent, pars)
    assert cut == pytest.approx(0.5, abs=0.01)


def test_best_reply_when_opportunities_rare():
    # with rare opportunities the whole admissible band [p**, p_H] collapses
    # and the reply lands inside it, close to the waiting bound in absolute
    # terms; the discrete-time solver cross-checks this point in test_oracle
    pars = FIG.with_(lam=0.01)
    agent = mg.build_agent_solution(pars, logit(0.5))
    cut, _ = best_reply_cutoff(agent, pars)
    p_ss, p_h = myopic_cutoffs(pars)
    assert p_ss < cut <= p_h + 1e-12
    assert p_h - cut < 0.01


def test_best_reply_fixed_point_at_fig(fig_eq):
    agent = mg.build_agent_solution(FIG, logit(0.565))
    cut, _ = best_reply_cutoff(agent, FIG)
    assert cut == pytest.approx(0.565, abs=0.01)


def test_separating_equilibrium_scale_invariance():
    pars = FIG.with_(r1=10.0)
    eq = mg.solve_equilibrium(pars)
    assert eq.agent.regime == mg.REGIME_SEPARATING
    # scaling both lump sums leaves the cutoff unchanged
    eq3 = mg.solve_equilibrium(pars.with_(w_NI=3.0, w_I=-3.0))
    assert eq3.p_star == pytest.approx(eq.p_star, abs=1e-6)


def test_scale_invariance_hump(fig_eq):
    eq3 = mg.solve_equilibrium(FIG.with_(w_NI=3.0, w_I=-3.0))
    assert eq3.p_star == pytest.approx(fig_eq.p_star, abs=1e-6)
    assert np.max(np.abs(eq3.W.values - 3.0 * fig_eq.W.values)) < 1e-8


def test_grid_convergence_second_order():
    cuts = [mg.solve_equilibrium(FIG, grid_n=n).p_star for n in (501, 1001, 2001, 4001)]
    d1 = abs(cuts[1] - cuts[0])
    d2 = abs(cuts[2] - cuts[1])
    d3 = abs(cuts[3] - cuts[2])
    # each doubling should cut the change by clearly more than a factor 4/..
    assert d2 < d1
    assert d3 < 4 * d2  # loose: second-order-ish behavior, not noise


def test_equilibrium_builds_the_agent_once(monkeypatch):
    # each conjectured cutoff re-anchors one closed-form shape
    from mimicgame import principal

    build = principal.build_agent_solution
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(principal, "build_agent_solution", counting_build)
    mg.solve_equilibrium(FIG)
    assert len(calls) == 1


def test_fixed_point_single_sign_change(fig_eq):
    # scan the best-reply map; its displacement changes sign exactly once
    p_ss, p_h = myopic_cutoffs(FIG)
    grid = np.linspace(p_ss + 1e-6, p_h - 1e-6, 50)
    disp = []
    for p in grid:
        agent = mg.build_agent_solution(FIG, logit(p))
        cut, _ = best_reply_cutoff(agent, FIG, grid_n=2001)
        disp.append(cut - p)
    sign = np.sign(disp)
    sign = sign[sign != 0]
    assert np.sum(np.diff(sign) != 0) == 1


def test_principal_scheme_is_second_order(fig_eq):
    # manufactured forcing: pick a smooth target value, feed the solver the
    # exact source that makes it the solution, and watch the error scale
    # like h^2 across three grid doublings (the raw solution-difference
    # ratios are polluted by the policy's kink phases relative to the grid)
    from mimicgame.model import termination_payoff
    from mimicgame.principal import _solve_tridiag, _stop_fraction

    agent = fig_eq.agent

    def w_tilde(p):
        return np.sin(2.5 * p) * (0.3 + p * p)

    def w_tilde_pp(p):
        return (-6.25 * np.sin(2.5 * p) * (0.3 + p * p)
                + 10.0 * p * np.cos(2.5 * p) + 2.0 * np.sin(2.5 * p))

    p_min = Numerics.p_min
    base = np.linspace(p_min, 1 - p_min, 251)
    p_cut = base[np.argmin(np.abs(base - fig_eq.p_star))]
    errs = []
    for n in (251, 501, 1001, 2001):
        pg = np.linspace(p_min, 1 - p_min, n)
        a_grid, _ = mg.eval_agent(agent, logit(pg))
        b = _stop_fraction(pg, p_cut)
        diff_c = 0.5 * FIG.psi**2 * (1 - a_grid) ** 2 * (pg * (1 - pg)) ** 2
        r_term = termination_payoff(pg, FIG)
        forcing = (FIG.r2 * w_tilde(pg) - diff_c * w_tilde_pp(pg)
                   - FIG.lam * b * (r_term - w_tilde(pg)))
        sol = _solve_tridiag(a_grid, b, pg, FIG, extra_rhs=forcing,
                             dirichlet=(w_tilde(pg[0]), w_tilde(pg[-1])))
        err = sol - w_tilde(pg)
        errs.append(np.sqrt(np.mean(err * err)))
    ratios = [a / b for a, b in zip(errs[:-1], errs[1:])]
    for r in ratios:
        assert 3.5 <= r <= 4.5


@pytest.mark.parametrize("pars, grid_n", [
    # patient players on a refined grid: the best reply wanders by
    # rounding-level amounts, so its stop must scale with the grid cell
    (FIG.with_(r1=0.05, r2=0.05), 8001),
    # a nearly frozen node holds the cutoff: a fractional stop weight there
    # priced W below the no-information value
    (GameParams(r1=0.058, r2=2.53, lam=0.854, psi=4.27, u=1.0, c=1.34, w_NI=1.0, w_I=-0.531),
     4001),
], ids=["patient", "frozen-cutoff-node"])
def test_equilibrium_when_belief_freezes_at_cutoff(pars, grid_n):
    num = Numerics()
    eq = mg.solve_equilibrium(pars, grid_n=grid_n)
    assert eq.agent.a_peak > 1.0 - 1e-9          # mimicking stops the belief at the cutoff
    p_ss, p_h = myopic_cutoffs(pars)
    assert p_ss <= eq.p_star <= p_h
    cut, _ = best_reply_cutoff(eq.agent, pars, grid_n)
    assert abs(cut - eq.p_star) < num.fp_tol
    w_under, w_over = benchmark_values(eq.W.states, pars)
    assert np.all(eq.W.values >= w_under - 1e-9)
    assert np.all(eq.W.values <= w_over + 1e-9)


def _separating_cutoff(pars):
    """The cutoff where the agent never mixes, in closed form.

    W = A p^b+ (1-p)^(1-b+) below the cutoff and lam R/(r2+lam)
    + B p^b- (1-p)^(1-b-) above it; value matching, C1 pasting and
    W(p*) = R(p*) leave one linear equation for p*.
    """
    b_plus = 0.5 + math.sqrt(0.25 + 2.0 * pars.r2 / pars.psi**2)
    b_minus = 0.5 - math.sqrt(0.25 + 2.0 * (pars.r2 + pars.lam) / pars.psi**2)
    k = (pars.r2 + pars.lam) * b_plus - pars.r2 * b_minus
    return -pars.w_I * k / ((pars.w_NI - pars.w_I) * k - pars.lam * pars.w_NI)


@pytest.mark.parametrize("grid_n", [1001, 4001, 16001])
@pytest.mark.parametrize("pars, p_exact", [
    (FIG.with_(r1=2.0), 0.674246480),
    (FIG.with_(r1=10.0), 0.674246480),
    (FIG.with_(r1=10.0, lam=0.1), 0.526524338),
], ids=["r1-2", "r1-10", "r1-10-lam-0.1"])
def test_separating_cutoff_matches_closed_form(pars, p_exact, grid_n):
    # a bisection that stops at |phi(p) - p| < fp_tol / 4 misses by up to 5.2e-7 here
    assert _separating_cutoff(pars) == pytest.approx(p_exact, abs=1e-9)
    eq = mg.solve_equilibrium(pars, grid_n=grid_n)
    assert eq.agent.regime == mg.REGIME_SEPARATING
    assert abs(eq.p_star - _separating_cutoff(pars)) < 2e-7


def test_ladder_phi_calls(monkeypatch):
    # phi calls of every solve the committed solver configs make: fig1, the
    # two psi sweeps and the patience sweep; the counts are deterministic.
    # Each bound is the count bisection made plus one; fig1's (bisection 16)
    # is 9. Low-friction psi = 20 (bisection 20) is allowed 22: there phi is
    # not monotone near the cutoff, the window |phi(p) - p| < fp_tol / 4 is
    # far narrower than a grid cell, and one ITP step lands just outside it.
    diags = []
    solve = analysis.solve_equilibrium

    def logged(*args, **kwargs):
        eq = solve(*args, **kwargs)
        diags.append(eq.diagnostics)
        return eq

    monkeypatch.setattr(analysis, "solve_equilibrium", logged)
    params, num, _ = load_config(str(CONFIGS / "fig1.json"))
    diags.append(mg.solve_equilibrium(params, num=num).diagnostics)
    for name in ("sweep_psi_highfriction.json", "sweep_psi_lowfriction.json"):
        params, num, cmd = load_config(str(CONFIGS / name))
        rows = analysis.sweep_psi(params, cmd["psi_list"], cmd["probe_p"], num=num)
        assert not any(r.error for r in rows)
    params, num, cmd = load_config(str(CONFIGS / "sweep_patience.json"))
    rows = analysis.sweep_patience(params, cmd["scale_list"], cmd["chi"], cmd["probes"], num=num)
    assert not any(r.error for r in rows)

    bounds = ([9]                              # fig1
              + [15, 14, 15, 14, 15]           # high friction, psi 1 to 20
              + [18, 17, 17, 20, 20, 22]       # low friction, psi 0.5 to 20
              + [9, 19, 17, 19])               # patience 1 (fig1) to 0.03
    assert all(d["iterations"] <= b for d, b in zip(diags, bounds, strict=True))
    assert all(d["linear_solves"] >= d["iterations"] for d in diags)
    # warm-started best replies: fig1 made 86 tridiagonal solves from cold starts
    assert diags[0]["linear_solves"] <= 30


def test_warm_started_best_reply_matches_cold():
    # policy iteration from any cutoff in [p**, p_H] settles on the reply of
    # the cold start from p**, and from that reply it confirms in one solve
    agent = mg.build_agent_solution(FIG, logit(0.55))
    h = (1.0 - 2.0 * Numerics.p_min) / (Numerics.grid_n - 1)
    cold_work, warm_work = Counter(linear_solves=0), Counter(linear_solves=0)
    cold, _ = best_reply_cutoff(agent, FIG, work=cold_work)
    for start in (0.5, 0.56, 0.6, 0.9):
        warm, _ = best_reply_cutoff(agent, FIG, start=start)
        assert abs(warm - cold) < 2e-3 * h
    best_reply_cutoff(agent, FIG, start=cold, work=warm_work)
    assert warm_work["linear_solves"] == 1 < cold_work["linear_solves"]
