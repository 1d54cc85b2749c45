"""Expected-performance analysis and comparative-statics sweep runners.

Expected performance is the outsider's view of the signal drift,
EP = psi * (1 - (1 - a(p)) p) in signal-to-noise units: the investible
share contributes drift psi, the noninvestible share psi*a. Mimicking
bends EP upward just below the termination cutoff, so the curve is either
globally decreasing in the belief or dips and spikes right before the
cutoff. The sweep runners re-solve the equilibrium along psi ladders and
patience ladders and tabulate the trends the limit results predict.
"""

import math
from dataclasses import dataclass

import numpy as np

# solve_r_star is no longer called here, but perfbench traces the calls
# made through analysis.solve_r_star, so the name stays
from .agent import REGIME_HUMP, eval_agent, solve_r_star  # noqa: F401
from .model import GameParams, Numerics, benchmark_values, inv_logit, logit, myopic_cutoffs, termination_payoff
from .principal import BracketError, ConvergenceError, Equilibrium, solve_equilibrium

SHAPE_DECREASING = "Decreasing"
SHAPE_ZIGZAG = "ZigZag"

# failures a sweep records in its row and sweeps past; anything else is a bug
# and propagates (SeparatingRegimeError is a ValueError)
_SOLVER_ERRORS = (ConvergenceError, BracketError, ValueError)


@dataclass(frozen=True)
class EpShape:
    classification: str
    criterion_value: float          # (1 - a(z*)) p* - 2 (v* - u)/c; positive means ZigZag
    p_underline: float | None = None
    p_peak: float | None = None


@dataclass(frozen=True)
class SweepRow:
    """One solved parameter point of a sweep."""

    param: str
    value: float
    p_star: float = math.nan
    w_probe: float = math.nan
    a_at_pstar: float = math.nan
    gap_under: float = math.nan      # W(probe) - no-information value
    gap_over: float = math.nan       # full-information value - W(probe)
    sup_dist_stop_value: float = math.nan   # patience rows: sup |W - max(0, R)|
    v_below: float = math.nan        # patience rows: agent value below p**
    v_above: float = math.nan        # patience rows: agent value above p**
    error: str | None = None
    warning: str | None = None


def expected_performance(eq: Equilibrium, p):
    """Outsider's expected signal drift at belief p, in psi units."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("belief must be interior")
    a, _ = eval_agent(eq.agent, logit(p_arr))
    out = eq.params.psi * (1.0 - (1.0 - a) * p_arr)
    return float(out) if out.ndim == 0 else out


def _golden_min(f, lo, hi, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def classify_ep_shape(eq: Equilibrium, num: Numerics = Numerics()) -> EpShape:
    """Decreasing everywhere, or dip-then-spike peaking at the cutoff.

    The exact switch is whether (1 - a(z*)) p(z*) exceeds 2 (v* - u)/c in
    the mixing regime; when it does, the curve turns upward before the
    cutoff and the interior minimum is located by golden-section search.
    """
    p = eq.params
    if eq.agent.regime != REGIME_HUMP:
        return EpShape(classification=SHAPE_DECREASING, criterion_value=-math.inf)
    crit = (1.0 - eq.agent.a_peak) * eq.p_star - 2.0 * (eq.agent.v_star - p.u) / p.c
    if crit <= 0.0:
        return EpShape(classification=SHAPE_DECREASING, criterion_value=crit)
    p_l = inv_logit(eq.agent.z_L)
    p_under = _golden_min(lambda q: expected_performance(eq, q), p_l, eq.p_star, 1e-6)
    return EpShape(classification=SHAPE_ZIGZAG, criterion_value=crit,
                   p_underline=float(p_under), p_peak=eq.p_star)


def _solved_row(param_name, value, params, probe_p, grid_n, num):
    eq = solve_equilibrium(params, grid_n=grid_n, num=num)
    w_probe = float(eq.W.at(probe_p))
    w_under, w_over = benchmark_values(probe_p, params)
    return eq, SweepRow(param=param_name, value=value, p_star=eq.p_star,
                        w_probe=w_probe, a_at_pstar=eq.agent.a_peak,
                        gap_under=w_probe - w_under, gap_over=w_over - w_probe)


def sweep_psi(params: GameParams, psi_list, probe_p: float = 0.3,
              grid_n: int | None = None, num: Numerics = Numerics()):
    """Re-solve the equilibrium along an ascending signal-to-noise ladder."""
    psi_list = list(psi_list)
    if any(b <= a for a, b in zip(psi_list, psi_list[1:])):
        raise ValueError("psi_list must be strictly ascending")
    if not (0.0 < probe_p < 1.0):
        raise ValueError("probe_p must be interior")
    rows = []
    for psi in psi_list:
        try:
            _, row = _solved_row("psi", float(psi), params.with_(psi=float(psi)),
                                 probe_p, grid_n, num)
        except _SOLVER_ERRORS as exc:  # keep sweeping; mark the row
            row = SweepRow(param="psi", value=float(psi), error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows


def sweep_patience(params: GameParams, scale_list, chi: float = 1.0,
                   probes=None, grid_n: int | None = None,
                   num: Numerics = Numerics()):
    """Shrink both discount rates toward zero at relative speed chi.

    Row at scale s solves with r1 -> s r1 and r2 -> chi s r1, refining the
    principal grid like 1/sqrt(s) because the mixing peak approaches full
    intensity and the diffusion collapses near the cutoff.
    """
    scale_list = list(scale_list)
    if any(b >= a for a, b in zip(scale_list, scale_list[1:])):
        raise ValueError("scale_list must be strictly descending")
    if not chi > 0.0:
        raise ValueError("chi must be positive")
    p_ss, _ = myopic_cutoffs(params)
    if probes is None:
        probes = (max(1e-3, p_ss - 0.2), min(1.0 - 1e-3, p_ss + 0.2))
    base_grid = num.grid_n if grid_n is None else grid_n
    rows = []
    for s in scale_list:
        pars = params.with_(r1=s * params.r1, r2=chi * s * params.r1)
        n_s = int(base_grid / math.sqrt(s)) | 1
        try:
            eq = solve_equilibrium(pars, grid_n=n_s, num=num)
            pg = eq.W.states
            stop_value = np.maximum(0.0, termination_payoff(pg, pars))
            sup_dist = float(np.max(np.abs(eq.W.values - stop_value)))
            _, v_below = eval_agent(eq.agent, logit(probes[0]))
            _, v_above = eval_agent(eq.agent, logit(probes[1]))
            warn = None
            if eq.agent.a_peak > 1.0 - 1e-3:
                warn = "near-degenerate diffusion at the cutoff; grid refined"
            w_probe = float(eq.W.at(probes[0]))
            wu, wo = benchmark_values(probes[0], pars)
            rows.append(SweepRow(param="scale", value=float(s), p_star=eq.p_star,
                                 w_probe=w_probe, a_at_pstar=eq.agent.a_peak,
                                 gap_under=w_probe - wu, gap_over=wo - w_probe,
                                 sup_dist_stop_value=sup_dist,
                                 v_below=float(v_below), v_above=float(v_above),
                                 warning=warn))
        except _SOLVER_ERRORS as exc:
            rows.append(SweepRow(param="scale", value=float(s),
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows


def lambda_one(params: GameParams) -> float:
    """Opportunity rate at which the critical discount rate equals psi^2.

    At r = psi^2 the r* equation (see solve_r_star) reads
    psi^2 (3 + sqrt(9 + 8 lam/psi^2)) = 4 lam u/c, whose only positive root
    is psi^2 c (c + 3u) / (2 u^2). r* rises in lam, so it exceeds psi^2
    exactly above this rate.
    """
    u, c = params.u, params.c
    return params.psi**2 * c * (c + 3.0 * u) / (2.0 * u * u)
