"""Closed-form agent side of the equilibrium.

Given a principal termination cutoff z* (in logit coordinates), the
noninvestible agent's mimicking policy a(z) and value v(z) have piecewise
closed forms. Each side of the cutoff has one exponential branch, where
a = 0 beyond the mixing edge, and one normal-quantile branch, between the
edge and z*; one formula per branch kind serves both sides. When the
agent never mixes the mixing region has zero width, both edges sit at z*,
and the same evaluator reads only the exponential branches. The shape
(boundary values, region widths relative to z*, the peak intensity)
depends on the model parameters only, and z* merely translates it. An
AgentSolution is that shape plus its anchor z_star, so moving the cutoff
needs no rebuild.

All tail-sensitive quantities are carried in log space; see gaussian.py.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gaussian import (
    log_norm_cdf_diff,
    log_norm_pdf,
    log_norm_sf,
    mills_ratio,
    norm_cdf,
    norm_isf_log,
)
from .model import GameParams, Numerics
from .roots import itp_root

REGIME_HUMP = "hump-shaped"
REGIME_SEPARATING = "fully-separating"


class SeparatingRegimeError(ValueError):
    """Raised when a mixing-region quantity is requested but the agent never mixes."""


def _root(f, lo, hi, num: Numerics, scale=1.0):
    """Root of f on [lo, hi] to num.root_tol * scale in f, or to rounding in x;
    brackets are guaranteed by monotonicity upstream."""
    x, _, _ = itp_root(f, lo, hi, f(lo), f(hi), eps=2e-16 * max(abs(lo), abs(hi)),
                       ftol=num.root_tol * scale, maxit=num.root_maxit)
    return x


def _r_star_residual(r, lam, psi, u_over_c):
    sl = math.sqrt(1.0 + 8.0 * r / psi**2)
    sr = math.sqrt(1.0 + 8.0 * (r + lam) / psi**2)
    return r * (sl + sr) + lam * (sl + 1.0) - 4.0 * lam * (u_over_c + 1.0)


def solve_r_star(params: GameParams, num: Numerics = Numerics()) -> float:
    """Critical agent discount rate below which the equilibrium mixes.

    Unique root of

        r (sqrt(1+8r/psi^2) + sqrt(1+8(r+lam)/psi^2)) + lam (sqrt(1+8r/psi^2)+1)
            = 4 lam (u/c + 1).

    The left side is increasing, sits below the right side at r = 0, and
    grows without bound, so a bracket always exists. r* increases in lam,
    psi and u/c and ignores the principal's parameters.
    """
    lam, psi, uc = params.lam, params.psi, params.u / params.c
    scale = 4.0 * lam * (uc + 1.0)
    hi = 100.0 * lam * (uc + 1.0)
    return _root(lambda r: _r_star_residual(r, lam, psi, uc), 0.0, hi, num, scale=scale)


def characteristic_roots(rate_sum: float, psi: float):
    """(positive, negative) roots of xi^2 + xi = 2*rate_sum/psi^2."""
    if rate_sum <= 0.0 or psi <= 0.0:
        raise ValueError("rate_sum and psi must be positive")
    disc = math.sqrt(1.0 + 8.0 * rate_sum / psi**2)
    return 0.5 * (-1.0 + disc), 0.5 * (-1.0 - disc)


def boundary_values(params: GameParams):
    """(v_L, v_R, kappa_L, kappa_R): mixing-boundary values and branch curvatures.

    v_L is the agent's value where mixing would start on the left, v_R
    where it stops on the right; both depend only on parameters. kappa_L
    and kappa_R scale the quantile branches of v inside the mixing region.
    """
    r1, lam, psi, u, c = params.r1, params.lam, params.psi, params.u, params.c
    xi_l, _ = characteristic_roots(r1, psi)
    _, xi_r = characteristic_roots(r1 + lam, psi)
    v_l = u + c - r1 * c / (xi_l * psi**2)
    v_r = r1 * (u + c) / (r1 + lam) - r1 * c / (xi_r * psi**2)
    kappa_l = r1 * c**2 / (2.0 * psi**2)
    kappa_r = r1**2 * c**2 / (2.0 * (r1 + lam) * psi**2)
    return v_l, v_r, kappa_l, kappa_r


# ---------------------------------------------------------------------------
# The two monotone boundary maps. For x in [v_R, v_L]:
#   1 - a_-(x) = betaL phi(q) / (betaL phi(qL) + cdf(qL) - cdf(q)),   q = (x-u)/sqrt(kL)
#   1 - a_+(x) = betaR phi(q) / (betaR phi(qR) + cdf(qR) - cdf(q)),   q = (x-m)/sqrt(kR)
# with m = r1 u/(r1+lam). The minus denominator is a sum of positives as
# written; the plus denominator subtracts, and is rewritten as
#   phi(qR) (betaR - mills(qR)) + sf(q)
# which is again a sum of positives because qR > 2/betaR.
# ---------------------------------------------------------------------------


class _Maps:
    """Log-domain evaluators for the two boundary maps at fixed parameters."""

    def __init__(self, params: GameParams):
        r1, lam, psi, u = params.r1, params.lam, params.psi, params.u
        self.v_l, self.v_r, self.kappa_l, self.kappa_r = boundary_values(params)
        self.sqrt_kl = math.sqrt(self.kappa_l)
        self.sqrt_kr = math.sqrt(self.kappa_r)
        self.u = u
        self.m = r1 * u / (r1 + lam)
        beta_r = math.sqrt(2.0 * (r1 + lam)) / psi
        self.log_beta_l = math.log(math.sqrt(2.0 * r1) / psi)
        self.log_beta_r = math.log(beta_r)
        self.q_l = (self.v_l - u) / self.sqrt_kl
        self.q_r = (self.v_r - self.m) / self.sqrt_kr
        self.log_t1 = self.log_beta_l + float(log_norm_pdf(self.q_l))    # log betaL phi(qL)
        self.log_nr = self.log_beta_r + float(log_norm_pdf(self.q_r))    # log betaR phi(qR)
        self.log_gap_r = float(log_norm_pdf(self.q_r)) + math.log(
            beta_r - float(mills_ratio(self.q_r)))

    def log_den_minus(self, x):
        q = (np.asarray(x, dtype=float) - self.u) / self.sqrt_kl
        return np.logaddexp(self.log_t1, log_norm_cdf_diff(q, self.q_l))

    def log_den_plus(self, x):
        q = (np.asarray(x, dtype=float) - self.m) / self.sqrt_kr
        return np.logaddexp(self.log_gap_r, log_norm_sf(q))

    def log_one_minus_minus(self, x):
        q = (np.asarray(x, dtype=float) - self.u) / self.sqrt_kl
        return self.log_beta_l + log_norm_pdf(q) - self.log_den_minus(x)

    def log_one_minus_plus(self, x):
        q = (np.asarray(x, dtype=float) - self.m) / self.sqrt_kr
        return self.log_beta_r + log_norm_pdf(q) - self.log_den_plus(x)


def _boundary_map(x, params: GameParams, log_one_minus):
    maps = _Maps(params)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < maps.v_r - 1e-12) or np.any(xa > maps.v_l + 1e-12):
        raise ValueError(f"argument outside the mixing-value range [{maps.v_r}, {maps.v_l}]")
    out = -np.expm1(log_one_minus(maps, x))
    return float(out) if np.ndim(out) == 0 else out


def mixing_boundary_map_minus(x, params: GameParams):
    """Intensity the left mixing branch reaches at the cutoff when v* = x.

    Strictly decreasing on [v_R, v_L], zero at v_L. Values can round to
    1.0 at extreme psi; _Maps.log_one_minus_minus keeps full resolution.
    """
    return _boundary_map(x, params, _Maps.log_one_minus_minus)


def mixing_boundary_map_plus(x, params: GameParams):
    """Mirror of the minus map: strictly increasing, zero at v_R."""
    return _boundary_map(x, params, _Maps.log_one_minus_plus)


def _v_star(maps: _Maps, num: Numerics) -> float:
    def gap(x):
        # log(1-a_-) - log(1-a_+) is increasing in x and crosses zero at v*
        return float(maps.log_one_minus_minus(x) - maps.log_one_minus_plus(x))

    return _root(gap, maps.v_r, maps.v_l, num)


def solve_v_star(params: GameParams, num: Numerics = Numerics()) -> float:
    """Unique agent value at the cutoff equating the two boundary maps.

    Only defined in the mixing regime; raises SeparatingRegimeError when
    r1 >= r*. The maps cross exactly once on (v_R, v_L) because the minus
    map falls from a positive value to 0 while the plus map rises from 0.
    """
    r_star = solve_r_star(params, num)
    if params.r1 >= r_star:
        raise SeparatingRegimeError(
            f"separating regime: r1={params.r1} >= r*={r_star}; the agent never mixes")
    return _v_star(_Maps(params), num)


class _Side(NamedTuple):
    """The branch constants of one side of the cutoff.

    Beyond the mixing edge a = 0 and v = tail + mag exp(xi d), with d
    measured from the edge. Between the edge and z*, with d measured from
    the branch's start (z_L on the left, z* on the right),
        log sf(q) = logaddexp(log_b, log_a + d + log1p(-exp(-d))),
        v = centre + sqrt(kappa) q,  log(1 - a) = log_beta + log phi(q) - log_a - d.
    """

    tail: float
    mag: float
    xi: float
    log_a: float
    log_b: float
    centre: float
    kappa: float
    log_beta: float


@dataclass(frozen=True)
class AgentSolution:
    """Closed-form agent solution: a parameter-only shape anchored at z_star.

    Every field but z_star depends on the parameters alone, and the
    region edges z_L, z_R sit at fixed offsets from the anchor, so
    dataclasses.replace(sol, z_star=z) is the solution for a cutoff at z.
    Each side of the cutoff is one exponential and one quantile branch
    (see _Side); when the agent never mixes both edges sit at z_star and
    only the exponential branches are read. Evaluation runs on the
    log-magnitude fields, which are exact for any |z - z_star|;
    raw_coefficients gives the absolute branch coefficients.
    """

    params: GameParams
    regime: str
    z_star: float
    v_star: float
    v_L: float
    v_R: float
    xi_L: float
    xi_L_prime: float
    xi_R: float
    xi_R_prime: float
    kappa_L: float
    kappa_R: float
    a_peak: float
    r_star: float
    # internal: the mixing edges as offsets from z_star, and each side's branches
    _zl_rel: float
    _zr_rel: float
    _left: _Side
    _right: _Side

    @property
    def z_L(self) -> float:
        """Left edge of the mixing region (NaN when the agent never mixes)."""
        return self.z_star + self._zl_rel if self.regime == REGIME_HUMP else math.nan

    @property
    def z_R(self) -> float:
        """Right edge of the mixing region (NaN when the agent never mixes)."""
        return self.z_star + self._zr_rel if self.regime == REGIME_HUMP else math.nan


def build_agent_solution(params: GameParams, z_star: float,
                         num: Numerics = Numerics()) -> AgentSolution:
    """Assemble the agent's policy/value branches for a cutoff at z_star.

    Matches value and slope at the region edges by construction: the
    exponential branches paste to the quantile branches at z_L and z_R
    where the intensity hits zero, and the two quantile branches meet at
    z_star where both deliver the common peak intensity. When the agent
    never mixes the region has zero width and the exponential branches
    paste to each other at z_star.
    """
    if not math.isfinite(z_star):
        raise ValueError("z_star must be finite")
    r1, lam, psi, u, c = params.r1, params.lam, params.psi, params.u, params.c
    r_star = solve_r_star(params, num)
    maps = _Maps(params)
    xi_l, xi_l_p = characteristic_roots(r1, psi)
    xi_r_p, xi_r = characteristic_roots(r1 + lam, psi)
    tail_left = u + c

    if r1 < r_star:
        regime = REGIME_HUMP
        v_star = _v_star(maps, num)
        zl_rel = maps.log_t1 - float(maps.log_den_minus(v_star))      # z_L - z_star  (negative)
        a_peak = float(-np.expm1(maps.log_one_minus_minus(v_star)))
        mag_a = r1 * c / (xi_l * psi**2)       # v = u+c - mag_a exp(xi_L (z - z_L))
        mag_b = r1 * c / (-xi_r * psi**2)      # v = tail_right + mag_b exp(xi_R (z - z_R))
    else:
        # never mixes: a mixing region of zero width, whose quantile
        # branches are never read, and two exponential branches pasted at z_star
        regime, zl_rel, a_peak = REGIME_SEPARATING, 0.0, 0.0
        coef = lam * (u + c) / (r1 + lam) / (xi_l - xi_r)
        v_star = tail_left + xi_r * coef
        mag_a, mag_b = -xi_r * coef, xi_l * coef
    log_den_r = float(maps.log_den_plus(v_star))
    zr_rel = maps.log_nr - log_den_r if regime == REGIME_HUMP else 0.0   # z_R - z_star
    q_star_r = (v_star - maps.m) / maps.sqrt_kr

    return AgentSolution(
        params=params, regime=regime, z_star=z_star, v_star=v_star,
        v_L=maps.v_l, v_R=maps.v_r,
        xi_L=xi_l, xi_L_prime=xi_l_p, xi_R=xi_r, xi_R_prime=xi_r_p,
        kappa_L=maps.kappa_l, kappa_R=maps.kappa_r, a_peak=a_peak, r_star=r_star,
        _zl_rel=zl_rel, _zr_rel=zr_rel,
        _left=_Side(tail_left, -mag_a, xi_l, maps.log_t1, float(log_norm_sf(maps.q_l)),
                    u, maps.kappa_l, maps.log_beta_l),
        _right=_Side(r1 * (u + c) / (r1 + lam), mag_b, xi_r, log_den_r,
                     float(log_norm_sf(q_star_r)), maps.m, maps.kappa_r, maps.log_beta_r))


def raw_coefficients(sol: AgentSolution) -> dict:
    """Branch coefficients anchored at absolute positions, for reporting.

    v = u + c + A1 exp(xi_L z) left of the mixing region (left of z_star
    when the agent never mixes) and v = r1 (u + c)/(r1 + lam) + B1 exp(xi_R z)
    right of it. Inside it, Phi((v - u)/sqrt(kappa_L)) = C1 exp(z) + C2 left
    of z_star and Phi((v - m)/sqrt(kappa_R)) = D1 exp(z) + D2 right of it,
    with m = r1 u/(r1 + lam). The raw values saturate at extreme anchors
    (at exp(700) or infinity); log_abs_A1 and log_abs_B1 stay exact.
    """
    z_star, xi_l, xi_r = sol.z_star, sol.xi_L, sol.xi_R
    mag_a, mag_b = -sol._left.mag, sol._right.mag
    z_l, z_r = z_star + sol._zl_rel, z_star + sol._zr_rel
    out = {"log_abs_A1": math.log(mag_a) - xi_l * z_l, "sign_A1": -1.0,
           "log_abs_B1": math.log(mag_b) - xi_r * z_r, "sign_B1": 1.0}
    if sol.regime == REGIME_SEPARATING:
        a1 = -mag_a * math.exp(-xi_l * z_star) if abs(xi_l * z_star) < 700 else -math.inf
        b1 = mag_b * math.exp(-xi_r * z_star) if abs(xi_r * z_star) < 700 else math.inf
        return {"A1": a1, "B1": b1, "C1": math.nan, "C2": math.nan,
                "D1": math.nan, "D2": math.nan, **out}
    maps = _Maps(sol.params)
    with np.errstate(over="ignore", under="ignore"):
        a1 = -mag_a * math.exp(min(-xi_l * z_l, 700.0))
        b1 = mag_b * math.exp(min(-xi_r * z_r, 700.0))
        den_l = math.exp(float(maps.log_den_minus(sol.v_star)))
        den_r = math.exp(sol._right.log_a)
        c1 = -den_l * math.exp(-z_star) if abs(z_star) < 700 else -math.inf
        d1 = -den_r * math.exp(-z_star) if abs(z_star) < 700 else -math.inf
    c2 = float(norm_cdf(maps.q_l)) + math.exp(maps.log_t1)
    d2 = float(norm_cdf(maps.q_r)) + math.exp(maps.log_nr)
    return {"A1": a1, "B1": b1, "C1": c1, "C2": c2, "D1": d1, "D2": d2, **out}


def mixing_z_of_value(sol: AgentSolution, v):
    """Logit state in the mixing region where the agent's value is v.

    Inverts the quantile branches in closed form: where v > v_star,
    exp(z - z_star) = den_-(v) / den_-(v_star), elsewhere
    exp(z - z_star) = den_+(v) / den_+(v_star), with den_-/den_+ the
    boundary maps' denominators; both branches give z_star at v_star.
    Meant for v in [v_R, v_L], which maps onto [z_L, z_R].
    """
    if sol.regime != REGIME_HUMP:
        raise SeparatingRegimeError("the agent never mixes; no mixing region to invert")
    maps = _Maps(sol.params)
    v = np.asarray(v, dtype=float)
    left = v > sol.v_star
    log_ratio = np.empty(v.shape)
    log_ratio[left] = maps.log_den_minus(v[left]) - maps.log_den_minus(sol.v_star)
    log_ratio[~left] = maps.log_den_plus(v[~left]) - sol._right.log_a
    return sol.z_star + log_ratio


def mixing_slope(sol: AgentSolution, a, v):
    """da/dz at mixing states with intensity a and value v.

    (1 - a) v' = -r1 c / psi^2 is constant in the mixing region, so
    a' = (1 - a) v'' / v', and the quantile branches give v'' = v' + v'^2
    (v - centre) / kappa. The branch is read from v, not z: near the peak
    one ulp of z spans more than the whole mixing range of v.
    """
    p = sol.params
    rate = p.r1 * p.c / p.psi
    left = v > sol.v_star
    centre = np.where(left, sol._left.centre, sol._right.centre)
    kappa = np.where(left, sol._left.kappa, sol._right.kappa)
    return (1.0 - a) - rate * (v - centre) / (p.psi * kappa)


def _exponential(side: _Side, d, p: GameParams, derivs):
    # a = 0 here, which the evaluator's zeroed row already holds
    e = side.mag * np.exp(side.xi * d)
    if not derivs:
        return None, side.tail + e
    return None, side.tail + e, side.xi * e, side.xi**2 * e


def _quantile(side: _Side, d, p: GameParams, derivs):
    # sf(q) grows from its value at the start by exp(log_a) (exp(d) - 1): a sum of positives
    with np.errstate(divide="ignore"):
        log_sf = np.logaddexp(side.log_b, side.log_a + d + np.log1p(-np.exp(-d)))
    q = norm_isf_log(log_sf)
    v = side.centre + math.sqrt(side.kappa) * q
    log_1ma = side.log_beta + log_norm_pdf(q) - side.log_a - d
    if not derivs:
        return -np.expm1(log_1ma), v
    vp = -p.r1 * p.c / (p.psi**2 * np.exp(log_1ma))
    return -np.expm1(log_1ma), v, vp, vp + vp**2 * (v - side.centre) / side.kappa


def _evaluate(sol: AgentSolution, z, derivs):
    """Rows a, v (and v', v'' if derivs) at logit states z, each branch on its piece."""
    zrel = np.atleast_1d(np.asarray(z, dtype=float)) - sol.z_star
    zl, zr = sol._zl_rel, sol._zr_rel
    below, right = zrel < 0.0, zrel >= zr
    left = below & (zrel <= zl)          # z* itself is right of a zero-width region
    pieces = ((left, _exponential, sol._left, zl),
              (below ^ left, _quantile, sol._left, zl),
              (~(below | right), _quantile, sol._right, 0.0),
              (right, _exponential, sol._right, zr))
    out = np.empty((4 if derivs else 2,) + zrel.shape)    # the pieces cover every z
    out[0] = 0.0
    for mask, branch, side, start in pieces:
        if mask.any():
            for row, val in zip(out, branch(side, zrel[mask] - start, sol.params, derivs)):
                if val is not None:
                    row[mask] = val
    return out


def eval_agent(sol: AgentSolution, z):
    """(a, v) at logit state z; vectorized, exact limits for any |z|."""
    a, v = _evaluate(sol, z, derivs=False)
    if np.ndim(z) == 0:
        return float(a[0]), float(v[0])
    return a, v


def eval_agent_derivs(sol: AgentSolution, z):
    """(a, v, v', v'') with analytic branch derivatives, for residual checks."""
    a, v, vp, vpp = _evaluate(sol, z, derivs=True)
    if np.ndim(z) == 0:
        return float(a[0]), float(v[0]), float(vp[0]), float(vpp[0])
    return a, v, vp, vpp


def hjb_residual(sol: AgentSolution, z):
    """Pointwise defect of the mixing-consistent value equation at z.

    With b = 1{z >= z*}:  (r1 + b lam) v  -  r1 (u + (1-a) c)
                          - 0.5 psi^2 (1-a)^2 (v' + v'')
    using the analytic branch derivatives. Zero up to roundoff away from
    the pasting points.
    """
    p = sol.params
    z = np.asarray(z, dtype=float)
    a, v, vp, vpp = eval_agent_derivs(sol, np.atleast_1d(z))
    b = (np.atleast_1d(z) >= sol.z_star).astype(float)
    res = ((p.r1 + b * p.lam) * v - p.r1 * (p.u + (1.0 - a) * p.c)
           - 0.5 * p.psi**2 * (1.0 - a) ** 2 * (vp + vpp))
    return float(res[0]) if z.ndim == 0 else res
