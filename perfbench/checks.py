"""Correctness checks on the benchmark's outputs.

Each function returns a list of failure messages, empty when the check
passes. They test the outputs against computations made apart from the
code that produced them (benchmark values, the HJB equation, the closed
form against simulation) or against properties the method must have,
never against a stored copy of earlier output.
"""

import math

import numpy as np

from mimicgame.agent import eval_agent, hjb_residual
from mimicgame.model import benchmark_values, logit, myopic_cutoffs
from mimicgame.principal import best_reply_cutoff

N_SE = 4.0             # Monte Carlo estimates must lie within this many standard errors
VALUE_TOL = 1e-9       # slack on W against the no- and full-information values
HJB_TOL = 1e-8         # |HJB residual| / (u + c) at sample beliefs
PASTE_GAP = 1e-3       # logit distance kept from the pasting points


def equilibrium_failures(label, eq, num, rng, n_beliefs=32):
    """p* in [p**, p_H]; best reply at p* returns p*; HJB residual small;
    W between the no-information and full-information values on its grid."""
    out = []
    p = eq.params
    p_ss, p_h = myopic_cutoffs(p)
    if not p_ss <= eq.p_star <= p_h:
        out.append(f"{label}: p* = {eq.p_star:.6g} outside [p**, p_H] = [{p_ss:.6g}, {p_h:.6g}]")
    cut, _ = best_reply_cutoff(eq.agent, p, eq.W.states.size, num.p_min, num.policy_maxit)
    if abs(cut - eq.p_star) > num.fp_tol:
        out.append(f"{label}: best reply at p* is {cut:.8g}, p* = {eq.p_star:.8g}")
    z = logit(rng.uniform(0.02, 0.98, n_beliefs))
    kinks = [k for k in (eq.agent.z_star, eq.agent.z_L, eq.agent.z_R) if math.isfinite(k)]
    z = z[np.all([np.abs(z - k) > PASTE_GAP for k in kinks], axis=0)]
    res = float(np.max(np.abs(hjb_residual(eq.agent, z)))) / (p.u + p.c)
    if not res < HJB_TOL:
        out.append(f"{label}: HJB residual {res:.3g} at sample beliefs")
    out += value_bound_failures(label, p, eq.W.states, eq.W.values)
    return out


def value_bound_failures(label, params, p, w):
    """No-information value <= W <= full-information value at beliefs p."""
    w_under, w_over = benchmark_values(p, params)
    gap_under = float(np.min(w - w_under))
    gap_over = float(np.min(w_over - w))
    out = []
    if gap_under < -VALUE_TOL:
        out.append(f"{label}: W below the no-information value by {-gap_under:.3g}")
    if gap_over < -VALUE_TOL:
        out.append(f"{label}: W above the full-information value by {-gap_over:.3g}")
    return out


def ep_failures(shape, p_star, p, ep):
    """fig1 is ZigZag peaking at p*, and its EP curve dips then rises before p*."""
    out = []
    if shape["classification"] != "ZigZag":
        out.append(f"ep: classified {shape['classification']}, expected ZigZag")
    if shape["p_peak"] != p_star or shape["p_star"] != p_star:
        out.append(f"ep: p_peak {shape['p_peak']} and p_star {shape['p_star']} differ from p* {p_star}")
    below = p < p_star
    ep_b = ep[below]
    i = int(np.argmin(ep_b))
    p_min = p[below][i]
    if not (0 < i < ep_b.size - 1 and ep_b[-1] > ep_b[i]):
        out.append("ep: curve has no interior dip below p*")
    elif shape["p_underline"] is None or abs(shape["p_underline"] - p_min) > 2.0 * (p[1] - p[0]):
        out.append(f"ep: p_underline {shape['p_underline']} is not the curve's minimum "
                   f"near {p_min:.6g}")
    return out


def patience_failures(scales, sup_dist):
    """sup |W - max(0, R)| falls as the patience scale falls (solved rows only)."""
    order = np.argsort(scales)[::-1]
    d = np.asarray(sup_dist)[order]
    if np.all(np.diff(d) < 0.0):
        return []
    return [f"sweep-patience: sup distance {list(d)} does not fall with the scale"]


def mc_failures(eq, p0, rep, diag, ref):
    """Simulation against the closed form, the belief martingale, dt refinement."""
    out = []
    _, v_cf = eval_agent(eq.agent, logit(p0))
    w_cf = float(eq.W.at(p0))
    for name, mean, se, cf in (("agent", rep.agent_value_mean, rep.agent_value_se, float(v_cf)),
                               ("principal", rep.principal_value_mean, rep.principal_value_se, w_cf)):
        if not abs(mean - cf) <= N_SE * se:
            out.append(f"mc: {name} value {mean:.6g} +- {se:.3g} vs closed form {cf:.6g}")
    if not rep.martingale_gap <= N_SE * rep.martingale_se:
        out.append(f"mc: martingale gap {rep.martingale_gap:.3g} vs se {rep.martingale_se:.3g}")
    for name, leg in (("agent", ref.agent), ("principal", ref.principal)):
        if not abs(leg.diff_mean) + N_SE * leg.diff_se < leg.coarse_se + leg.fine_se:
            out.append(f"mc: dt refinement of the {name} value {leg.diff_mean:.3g} +- {leg.diff_se:.3g}")
    if not 0.0 <= diag.value <= 1.0:
        out.append(f"mc: learning diagnostic {diag.value} outside [0, 1]")
    return out


def oracle_failures(eq, de, num, tol=0.02):
    """Discrete-time oracle against the closed form: p*, and v and W relative gaps."""
    p = eq.params
    keep = np.abs(de.z_grid) <= logit(1.0 - num.p_min)
    _, v_cf = eval_agent(eq.agent, de.z_grid[keep])
    gap_v = float(np.max(np.abs(de.v[keep] - v_cf))) / (p.u + p.c)
    gap_w = float(np.max(np.abs(de.w[keep] - eq.W.at(de.p_grid[keep])))) / p.w_NI
    gap_p = abs(de.p_star - eq.p_star)
    out = []
    if not gap_p <= tol:
        out.append(f"oracle: p* {de.p_star:.6g} vs closed form {eq.p_star:.6g}")
    if not gap_v <= tol:
        out.append(f"oracle: relative v gap {gap_v:.3g}")
    if not gap_w <= tol:
        out.append(f"oracle: relative W gap {gap_w:.3g}")
    return out


def identical_failures(label, first, later):
    """Every later report equals the first, float for float."""
    ref = repr(first)
    if all(repr(x) == ref for x in later):
        return []
    return [f"{label}: repeated calls at one seed gave different reports"]
