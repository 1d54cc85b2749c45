"""Closed-form agent solution: roots, boundary maps, build and evaluation.

Regression constants marked "(50-digit)" were computed with mpmath at 50+
digits from the same defining equations (survival-function form to dodge
cancellation) and frozen here.
"""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import mimicgame as mg
from mimicgame.agent import (
    REGIME_HUMP,
    REGIME_SEPARATING,
    AgentSolution,
    SeparatingRegimeError,
    _Maps,
    eval_agent_derivs,
    hjb_residual,
    mixing_slope,
    mixing_z_of_value,
    raw_coefficients,
)
from mimicgame.model import GameParams, inv_logit, logit

FIG = GameParams(r1=0.5, r2=0.5, lam=2.0, psi=1.5, u=1.0, c=1.0, w_NI=1.0, w_I=-1.0)

# (50-digit) frozen oracle values at the figure parameters
R_STAR_FIG = 1.467067648192732455902
V_STAR_FIG = 0.6321972193116949721044
A_PEAK_FIG = 0.8332547583561979895054
A_MINUS_MID_FIG = 0.5671814976200860633738
A_PLUS_MID_FIG = 0.9999015444017581313545

# (50-digit) frozen stress values at psi = 50, lam = 2, r1 = 0.5, u = c = 1,
# at x = v_R + frac (v_L - v_R)
STRESS_LOG1M_MINUS = {0.25: -532.63191743153908586,
                      0.50: -17.331040870104543931,
                      0.75: -0.79698502740826021639}
STRESS_LOG1M_PLUS = {0.25: -4640.3049611240406752,
                     0.50: -13059.805363190201621,
                     0.75: -25257.809552676350903}
STRESS_V_STAR = 0.5003758400942784702181
PSI10_V_STAR = 0.5072134331864913549484


def test_r_star_fig_regression():
    r_star = mg.solve_r_star(FIG)
    assert r_star == pytest.approx(R_STAR_FIG, abs=5e-13)
    # residual of the defining equation, relative to its right side
    from mimicgame.agent import _r_star_residual
    scale = 4 * FIG.lam * (FIG.u / FIG.c + 1)
    assert abs(_r_star_residual(r_star, FIG.lam, FIG.psi, FIG.u / FIG.c)) < 1e-10 * scale
    assert r_star > FIG.r1  # figure parameters sit in the mixing regime


def test_r_star_monotone_in_lam_psi_uc():
    base = mg.solve_r_star(FIG)
    assert mg.solve_r_star(FIG.with_(lam=0.1)) < base
    assert mg.solve_r_star(FIG.with_(psi=3.0)) > base
    assert mg.solve_r_star(FIG.with_(u=2.0)) > base
    # and it ignores the principal's side entirely
    assert mg.solve_r_star(FIG.with_(r2=3.0, w_NI=5.0, w_I=-0.2)) == pytest.approx(base, rel=1e-12)


def test_characteristic_roots_exact_cases():
    xp, xm = mg.characteristic_roots(0.5, 1.5)
    assert xp == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert xm == pytest.approx(-4.0 / 3.0, abs=1e-15)
    # discriminant 89/9 case
    xp, xm = mg.characteristic_roots(2.5, 1.5)
    assert xp == pytest.approx((-1 + np.sqrt(89) / 3) / 2, rel=1e-15)
    assert xm == pytest.approx((-1 - np.sqrt(89) / 3) / 2, rel=1e-15)


def test_characteristic_roots_vieta():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = rng.uniform(0.01, 20)
        psi = rng.uniform(0.05, 30)
        xp, xm = mg.characteristic_roots(r, psi)
        assert xp > 0 > xm
        assert xp + xm == pytest.approx(-1.0, abs=1e-12)
        assert xp * xm == pytest.approx(-2 * r / psi**2, rel=1e-12)
        for xi in (xp, xm):
            assert xi * xi + xi == pytest.approx(2 * r / psi**2, rel=1e-13)


def test_boundary_values_fig():
    v_l, v_r, k_l, k_r = mg.boundary_values(FIG)
    assert v_l == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert v_r == pytest.approx(0.5072330188676101, abs=1e-12)
    assert k_l == pytest.approx(1.0 / 9.0, abs=1e-16)
    assert k_r == pytest.approx(1.0 / 45.0, abs=1e-16)
    assert v_l < FIG.u + FIG.c
    assert v_r > FIG.r1 * (FIG.u + FIG.c) / (FIG.r1 + FIG.lam)


def test_boundary_values_radical_form():
    # alternative closed forms via the discriminant
    rng = np.random.default_rng(11)
    for _ in range(40):
        pars = FIG.with_(r1=rng.uniform(0.05, 5), lam=rng.uniform(0.05, 8),
                         psi=rng.uniform(0.1, 20))
        v_l, v_r, _, _ = mg.boundary_values(pars)
        alt_l = pars.u + pars.c * (1 - (np.sqrt(1 + 8 * pars.r1 / pars.psi**2) + 1) / 4)
        alt_r = pars.r1 / (pars.r1 + pars.lam) * (
            pars.u + pars.c * (1 + (np.sqrt(1 + 8 * (pars.r1 + pars.lam) / pars.psi**2) - 1) / 4))
        assert v_l == pytest.approx(alt_l, rel=1e-12, abs=1e-12)
        assert v_r == pytest.approx(alt_r, rel=1e-12, abs=1e-12)


def test_boundary_maps_endpoints_and_midpoint():
    v_l, v_r, _, _ = mg.boundary_values(FIG)
    assert mg.mixing_boundary_map_minus(v_l, FIG) == pytest.approx(0.0, abs=1e-14)
    assert 0.0 < mg.mixing_boundary_map_minus(v_r, FIG) < 1.0
    assert mg.mixing_boundary_map_plus(v_r, FIG) == pytest.approx(0.0, abs=1e-14)
    assert 0.0 < mg.mixing_boundary_map_plus(v_l, FIG) < 1.0
    mid = 0.5 * (v_l + v_r)
    assert mg.mixing_boundary_map_minus(mid, FIG) == pytest.approx(A_MINUS_MID_FIG, abs=1e-13)
    assert mg.mixing_boundary_map_plus(mid, FIG) == pytest.approx(A_PLUS_MID_FIG, abs=1e-13)


def test_boundary_maps_monotonicity():
    v_l, v_r, _, _ = mg.boundary_values(FIG)
    xs = np.linspace(v_r, v_l, 400)
    minus = mg.mixing_boundary_map_minus(xs, FIG)
    plus = mg.mixing_boundary_map_plus(xs, FIG)
    assert np.all(np.diff(minus) < 0)
    assert np.all(np.diff(plus) > 0)
    assert np.all((minus >= 0) & (minus < 1))
    assert np.all((plus >= 0) & (plus < 1))


def test_boundary_maps_domain_error():
    v_l, v_r, _, _ = mg.boundary_values(FIG)
    with pytest.raises(ValueError):
        mg.mixing_boundary_map_minus(v_l + 0.1, FIG)
    with pytest.raises(ValueError):
        mg.mixing_boundary_map_plus(v_r - 0.1, FIG)


def test_boundary_maps_large_psi_stress():
    # log-domain evaluation against the 50-digit oracle; no overflow/underflow
    pars = FIG.with_(psi=50.0)
    maps = _Maps(pars)
    v_l, v_r, _, _ = mg.boundary_values(pars)
    for frac, ref in STRESS_LOG1M_MINUS.items():
        x = v_r + frac * (v_l - v_r)
        assert float(maps.log_one_minus_minus(x)) == pytest.approx(ref, rel=1e-12)
    for frac, ref in STRESS_LOG1M_PLUS.items():
        x = v_r + frac * (v_l - v_r)
        assert float(maps.log_one_minus_plus(x)) == pytest.approx(ref, rel=1e-12)
    assert mg.solve_v_star(pars) == pytest.approx(STRESS_V_STAR, abs=1e-10)


def test_v_star_fig_regression_and_bracket():
    v_star = mg.solve_v_star(FIG)
    v_l, v_r, _, _ = mg.boundary_values(FIG)
    assert v_r < v_star < v_l
    assert v_star == pytest.approx(V_STAR_FIG, abs=1e-12)
    gap = mg.mixing_boundary_map_minus(v_star, FIG) - mg.mixing_boundary_map_plus(v_star, FIG)
    assert abs(gap) < 1e-10
    assert mg.mixing_boundary_map_minus(v_star, FIG) == pytest.approx(A_PEAK_FIG, abs=1e-12)
    assert mg.solve_v_star(FIG.with_(psi=10.0)) == pytest.approx(PSI10_V_STAR, abs=1e-11)


def test_v_star_separating_gate():
    r_star = mg.solve_r_star(FIG)
    with pytest.raises(SeparatingRegimeError):
        mg.solve_v_star(FIG.with_(r1=r_star + 0.01))
    # exactly at the threshold counts as separating
    with pytest.raises(SeparatingRegimeError):
        mg.solve_v_star(FIG.with_(r1=r_star))


def test_regime_equivalence_random_sample():
    # mixing regime <=> v_L > v_R <=> r1 < r*, across 100 random draws
    rng = np.random.default_rng(17)
    for _ in range(100):
        pars = FIG.with_(r1=rng.uniform(0.05, 6.0), lam=rng.uniform(0.05, 6.0),
                         psi=rng.uniform(0.2, 8.0), u=rng.uniform(0.2, 3.0),
                         c=rng.uniform(0.2, 3.0))
        r_star = mg.solve_r_star(pars)
        v_l, v_r, _, _ = mg.boundary_values(pars)
        sol = mg.build_agent_solution(pars, z_star=0.0)
        assert (pars.r1 < r_star) == (v_l > v_r)
        assert (sol.regime == REGIME_HUMP) == (pars.r1 < r_star)


def test_build_fig_region_boundaries():
    sol = mg.build_agent_solution(FIG, logit(0.565))
    assert sol.regime == REGIME_HUMP
    assert inv_logit(sol.z_L) == pytest.approx(0.195, abs=0.01)
    assert inv_logit(sol.z_R) == pytest.approx(0.633, abs=0.01)
    assert sol.z_L < sol.z_star < sol.z_R
    assert sol.v_R < sol.v_star < sol.v_L
    coef = raw_coefficients(sol)
    assert coef["C1"] < 0 and coef["D1"] < 0
    assert sol.a_peak == pytest.approx(A_PEAK_FIG, abs=1e-12)


def test_build_value_matching_and_smooth_pasting():
    # one-sided branch limits, probed just off each pasting point so the
    # slope contribution (|v'| * 2 eps ~ 1e-12) sits far below the tolerances
    sol = mg.build_agent_solution(FIG, logit(0.565))
    eps = 5e-13
    for anchor in (sol.z_L, sol.z_star, sol.z_R):
        a_lo, v_lo, vp_lo, _ = eval_agent_derivs(sol, anchor - eps)
        a_hi, v_hi, vp_hi, _ = eval_agent_derivs(sol, anchor + eps)
        assert v_lo == pytest.approx(v_hi, abs=1e-9)
        assert vp_lo == pytest.approx(vp_hi, abs=1e-7)
        assert a_lo == pytest.approx(a_hi, abs=1e-6)
    # slope at the mixing edges equals the indifference slope
    for anchor in (sol.z_L, sol.z_R):
        _, _, vp, _ = eval_agent_derivs(sol, anchor - eps)
        assert vp == pytest.approx(-FIG.r1 * FIG.c / FIG.psi**2, abs=1e-7)


def test_build_separating_structure():
    pars = FIG.with_(r1=10.0)
    sol = mg.build_agent_solution(pars, 0.3)
    assert sol.regime == REGIME_SEPARATING
    z = np.linspace(-20, 20, 4001)
    a, v = mg.eval_agent(sol, z)
    assert np.all(a == 0.0)
    # strictly decreasing where the change is float-representable,
    # weakly decreasing into the flat tails
    assert np.all(np.diff(v) <= 0)
    zc = np.linspace(-5, 5, 2001)
    _, vc = mg.eval_agent(sol, zc)
    assert np.all(np.diff(vc) < 0)
    assert v[0] == pytest.approx(pars.u + pars.c, abs=1e-6)
    assert v[-1] == pytest.approx(pars.r1 * (pars.u + pars.c) / (pars.r1 + pars.lam), abs=1e-6)
    # value-matching and smooth-pasting at the cutoff
    a_lo, v_lo, vp_lo, _ = eval_agent_derivs(sol, 0.3 - 5e-13)
    a_hi, v_hi, vp_hi, _ = eval_agent_derivs(sol, 0.3 + 5e-13)
    assert v_lo == pytest.approx(v_hi, abs=1e-9)
    assert vp_lo == pytest.approx(vp_hi, abs=1e-7)


def test_translation_invariance():
    shift = 0.7
    z0 = logit(0.565)
    sol0 = mg.build_agent_solution(FIG, z0)
    sol1 = mg.build_agent_solution(FIG, z0 + shift)
    assert sol1.z_L == pytest.approx(sol0.z_L + shift, abs=1e-10)
    assert sol1.z_R == pytest.approx(sol0.z_R + shift, abs=1e-10)
    assert sol1.v_star == pytest.approx(sol0.v_star, abs=1e-10)
    z = np.linspace(-8, 8, 1001)
    a0, v0 = mg.eval_agent(sol0, z)
    a1, v1 = mg.eval_agent(sol1, z + shift)
    assert np.max(np.abs(a1 - a0)) < 1e-10
    assert np.max(np.abs(v1 - v0)) < 1e-10
    # moving the anchor of a built solution is building at the new cutoff,
    # field for field, in the hump, separating and wide-mixing regimes
    for pars in (FIG, FIG.with_(r1=2.0), FIG.with_(psi=20.0)):
        built = mg.build_agent_solution(pars, z0 + shift)
        moved = replace(mg.build_agent_solution(pars, z0), z_star=z0 + shift)
        for f in fields(AgentSolution):
            x, y = getattr(moved, f.name), getattr(built, f.name)
            assert x == y or (x != x and y != y), f.name


def test_eval_limits_and_peak():
    sol = mg.build_agent_solution(FIG, logit(0.565))
    a, v = mg.eval_agent(sol, -120.0)
    assert (a, v) == (0.0, pytest.approx(FIG.u + FIG.c, abs=1e-12))
    a, v = mg.eval_agent(sol, 50.0)
    assert a == 0.0
    assert v == pytest.approx(FIG.r1 * (FIG.u + FIG.c) / (FIG.r1 + FIG.lam), abs=1e-12)
    # the peak sits exactly at the cutoff on a dense grid
    z = np.linspace(sol.z_L - 1, sol.z_R + 1, 20001)
    a, v = mg.eval_agent(sol, z)
    assert abs(z[np.argmax(a)] - sol.z_star) < 2e-4
    a_at_cut, _ = mg.eval_agent(sol, sol.z_star)
    assert a_at_cut == pytest.approx(sol.a_peak, abs=1e-12)
    assert np.max(a) <= a_at_cut + 1e-12        # grid max cannot beat the cutoff
    assert np.max(a) == pytest.approx(sol.a_peak, abs=5e-6)
    assert np.max(a) < 1.0
    assert np.all(np.diff(v) < 0)


def test_eval_first_order_identity_everywhere():
    # a = 1 - r1 c / max(r1 c, -psi^2 v') pointwise
    sol = mg.build_agent_solution(FIG, logit(0.565))
    z = np.linspace(-6, 6, 4001)
    a, v, vp, _ = eval_agent_derivs(sol, z)
    implied = 1.0 - FIG.r1 * FIG.c / np.maximum(FIG.r1 * FIG.c, -FIG.psi**2 * vp)
    assert np.max(np.abs(a - implied)) < 1e-8


def test_hjb_residual_off_kinks():
    # the hump, the separating regime (no mixing edges) and a wide mixing region
    z = np.linspace(-8, 8, 4001)
    h = z[1] - z[0]
    for pars in (FIG, FIG.with_(r1=2.0), FIG.with_(r1=10.0), FIG.with_(psi=20.0)):
        sol = mg.build_agent_solution(pars, logit(0.565))
        keep = np.ones_like(z, dtype=bool)
        for kink in (sol.z_L, sol.z_star, sol.z_R):
            if math.isfinite(kink):
                keep &= np.abs(z - kink) > h
        res = hjb_residual(sol, z[keep])
        assert np.max(np.abs(res)) < 1e-6 * pars.r1 * (pars.u + pars.c)


def test_mixing_slope_identities():
    # left region: 1 - a - a' = 2 (v - u)/c; right region carries the
    # (r1 + lam)/r1 factor; a' by central differences
    sol = mg.build_agent_solution(FIG, logit(0.565))
    h = 1e-6
    for lo, hi, factor, anchor in (
        (sol.z_L, sol.z_star, 1.0, FIG.u),
        (sol.z_star, sol.z_R, (FIG.r1 + FIG.lam) / FIG.r1,
         FIG.r1 * FIG.u / (FIG.r1 + FIG.lam)),
    ):
        z = np.linspace(lo + 5 * h, hi - 5 * h, 301)
        a, v = mg.eval_agent(sol, z)
        a_hi, _ = mg.eval_agent(sol, z + h)
        a_lo, _ = mg.eval_agent(sol, z - h)
        ap = (a_hi - a_lo) / (2 * h)
        lhs = 1.0 - a - ap
        rhs = 2.0 * (v - anchor) / FIG.c * factor
        assert np.max(np.abs(lhs - rhs)) < 1e-6
        # the closed form the Lamperti table uses states the same identity
        assert np.max(np.abs(mixing_slope(sol, a, v) - ap)) < 1e-6


@pytest.mark.parametrize("pars", [FIG, FIG.with_(psi=5.0)], ids=["fig1", "psi5"])
def test_mixing_z_of_value_round_trip(pars):
    # the closed-form inverse of v(z) on the mixing region gives v back,
    # and maps the region's ends and the cutoff's value onto its z. Near
    # the peak |v'(z)| = r1 c / (psi^2 (1 - a)) amplifies eval_agent's own
    # rounding: at psi = 5 (1 - a_peak = 1e-6) it misses v by up to 1e-11
    # at an exact z, so the miss in v is bounded in units of 1 - a
    sol = mg.build_agent_solution(pars, logit(0.565))
    v = np.linspace(sol.v_R, sol.v_L, 1000)
    a, v_back = mg.eval_agent(sol, mixing_z_of_value(sol, v))
    assert np.max(np.abs(v_back - v) * (1.0 - a)) < 1e-12 * (pars.u + pars.c)
    ends = mixing_z_of_value(sol, [sol.v_L, sol.v_star, sol.v_R])
    assert np.max(np.abs(ends - [sol.z_L, sol.z_star, sol.z_R])) < 1e-12
    with pytest.raises(SeparatingRegimeError):
        mixing_z_of_value(mg.build_agent_solution(pars.with_(r1=10.0), 0.0), sol.v_star)


def test_shape_monotone_segments_and_curvature():
    sol = mg.build_agent_solution(FIG, logit(0.565))
    eps = 1e-9
    z_left = np.linspace(sol.z_L + eps, sol.z_star - eps, 2000)
    z_right = np.linspace(sol.z_star + eps, sol.z_R - eps, 2000)
    a_left, _ = mg.eval_agent(sol, z_left)
    a_right, _ = mg.eval_agent(sol, z_right)
    assert np.all(np.diff(a_left) > 0)
    assert np.all(np.diff(a_right) < 0)
    a_out, _ = mg.eval_agent(sol, np.array([sol.z_L - 0.5, sol.z_R + 0.5]))
    assert np.all(a_out == 0.0)
    # value curvature: concave left of the cutoff, convex right of it
    for zs, sign in ((np.linspace(sol.z_L - 2, sol.z_star - 1e-4, 1500), -1.0),
                     (np.linspace(sol.z_star + 1e-4, sol.z_R + 2, 1500), 1.0)):
        _, v = mg.eval_agent(sol, zs)
        second = np.diff(v, 2)
        assert np.all(sign * second > -1e-8)


def test_eval_agent_large_psi_no_overflow():
    pars = FIG.with_(psi=20.0)
    sol = mg.build_agent_solution(pars, 0.0)
    z = np.linspace(-250.0, 30.0, 4001)
    a, v = mg.eval_agent(sol, z)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(v))
    assert np.all((a >= 0) & (a < 1))
    assert np.all(np.diff(v) <= 1e-12)
    # the mixing region is extremely wide at this signal-to-noise ratio
    assert sol.z_L < -150
    # the raw coefficients saturate there, silently, and their logs stay exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coef = raw_coefficients(sol)
    assert math.isfinite(coef["log_abs_A1"]) and math.isfinite(coef["log_abs_B1"])
