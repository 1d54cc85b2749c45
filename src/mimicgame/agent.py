"""Closed-form agent side of the equilibrium.

Given a principal termination cutoff z* (in logit coordinates), the
noninvestible agent's mimicking policy a(z) and value v(z) have piecewise
closed forms: exponential branches where a = 0 and normal-quantile
branches inside the mixing region. Their shape (boundary values, region
widths relative to z*, the peak intensity) depends on the model
parameters only, and z* merely translates it. An AgentSolution is that
shape plus its anchor z_star, so moving the cutoff needs no rebuild.

All tail-sensitive quantities are carried in log space; see gaussian.py.
"""

import math
from dataclasses import dataclass

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
        r1, lam, psi, u, c = params.r1, params.lam, params.psi, params.u, params.c
        self.v_l, self.v_r, self.kappa_l, self.kappa_r = boundary_values(params)
        self.sqrt_kl = math.sqrt(self.kappa_l)
        self.sqrt_kr = math.sqrt(self.kappa_r)
        self.u = u
        self.m = r1 * u / (r1 + lam)
        self.beta_l = math.sqrt(2.0 * r1) / psi
        self.beta_r = math.sqrt(2.0 * (r1 + lam)) / psi
        self.q_l = (self.v_l - u) / self.sqrt_kl
        self.q_r = (self.v_r - self.m) / self.sqrt_kr
        self.log_t1 = math.log(self.beta_l) + float(log_norm_pdf(self.q_l))
        self.log_gap_r = float(log_norm_pdf(self.q_r)) + math.log(
            self.beta_r - float(mills_ratio(self.q_r)))

    def log_one_minus_minus(self, x):
        q = (np.asarray(x, dtype=float) - self.u) / self.sqrt_kl
        log_t2 = log_norm_cdf_diff(q, self.q_l)
        log_den = np.logaddexp(self.log_t1, log_t2)
        return math.log(self.beta_l) + log_norm_pdf(q) - log_den

    def log_one_minus_plus(self, x):
        q = (np.asarray(x, dtype=float) - self.m) / self.sqrt_kr
        log_den = np.logaddexp(self.log_gap_r, log_norm_sf(q))
        return math.log(self.beta_r) + log_norm_pdf(q) - log_den

    def log_den_minus(self, x):
        q = (np.asarray(x, dtype=float) - self.u) / self.sqrt_kl
        return np.logaddexp(self.log_t1, log_norm_cdf_diff(q, self.q_l))

    def log_den_plus(self, x):
        q = (np.asarray(x, dtype=float) - self.m) / self.sqrt_kr
        return np.logaddexp(self.log_gap_r, log_norm_sf(q))


def _check_map_domain(x, v_r, v_l):
    x = np.asarray(x, dtype=float)
    if np.any(x < v_r - 1e-12) or np.any(x > v_l + 1e-12):
        raise ValueError(f"argument outside the mixing-value range [{v_r}, {v_l}]")


def mixing_boundary_map_minus(x, params: GameParams):
    """Intensity the left mixing branch reaches at the cutoff when v* = x.

    Strictly decreasing on [v_R, v_L], zero at v_L. Values can round to
    1.0 at extreme psi; _Maps.log_one_minus_minus keeps full resolution.
    """
    maps = _Maps(params)
    _check_map_domain(x, maps.v_r, maps.v_l)
    out = -np.expm1(maps.log_one_minus_minus(x))
    return float(out) if np.ndim(out) == 0 else out


def mixing_boundary_map_plus(x, params: GameParams):
    """Mirror of the minus map: strictly increasing, zero at v_R."""
    maps = _Maps(params)
    _check_map_domain(x, maps.v_r, maps.v_l)
    out = -np.expm1(maps.log_one_minus_plus(x))
    return float(out) if np.ndim(out) == 0 else out


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
    maps = _Maps(params)

    def gap(x):
        # log(1-a_-) - log(1-a_+) is increasing in x and crosses zero at v*
        return float(maps.log_one_minus_minus(x) - maps.log_one_minus_plus(x))

    return _root(gap, maps.v_r, maps.v_l, num)


@dataclass(frozen=True)
class AgentSolution:
    """Closed-form agent solution: a parameter-only shape anchored at z_star.

    Every field but z_star depends on the parameters alone, and the
    region edges z_L, z_R sit at fixed offsets from the anchor, so
    dataclasses.replace(sol, z_star=z) is the solution for a cutoff at z.
    Evaluation runs on the log-magnitude fields, which are exact for any
    |z - z_star|; raw_coefficients gives the absolute branch coefficients.
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
    # internal log-domain anchors (relative offsets from z_star)
    _zl_rel: float
    _zr_rel: float
    _log_t1: float
    _log_den_l: float
    _log_den_r: float
    _log_sf_ql: float
    _log_sf_qsr: float
    _q_l: float
    _q_r: float
    _beta_l: float
    _beta_r: float
    _mag_a: float
    _mag_b: float

    @property
    def z_L(self) -> float:
        """Left edge of the mixing region (NaN when the agent never mixes)."""
        return self.z_star + self._zl_rel

    @property
    def z_R(self) -> float:
        """Right edge of the mixing region (NaN when the agent never mixes)."""
        return self.z_star + self._zr_rel


def build_agent_solution(params: GameParams, z_star: float,
                         num: Numerics = Numerics()) -> AgentSolution:
    """Assemble the agent's policy/value branches for a cutoff at z_star.

    Matches value and slope at the region edges by construction: the
    exponential branches paste to the quantile branches at z_L and z_R
    where the intensity hits zero, and the two quantile branches meet at
    z_star where both deliver the common peak intensity.
    """
    if not math.isfinite(z_star):
        raise ValueError("z_star must be finite")
    r1, lam, psi, u, c = params.r1, params.lam, params.psi, params.u, params.c
    r_star = solve_r_star(params, num)
    xi_l, xi_l_p = characteristic_roots(r1, psi)
    xi_r_p, xi_r = characteristic_roots(r1 + lam, psi)
    v_l, v_r, kappa_l, kappa_r = boundary_values(params)
    m = r1 * u / (r1 + lam)
    tail_left = u + c
    mag_a = r1 * c / (xi_l * psi**2)       # v = u+c - mag_a exp(xi_L (z - z_L))
    mag_b = r1 * c / (-xi_r * psi**2)      # v = tail_right + mag_b exp(xi_R (z - z_R))

    if params.r1 >= r_star:
        # never mixes: two exponential branches pasted at z_star
        coef = lam * (u + c) / (r1 + lam) / (xi_l - xi_r)
        return AgentSolution(
            params=params, regime=REGIME_SEPARATING, z_star=z_star,
            v_star=tail_left + xi_r * coef, v_L=v_l, v_R=v_r,
            xi_L=xi_l, xi_L_prime=xi_l_p, xi_R=xi_r, xi_R_prime=xi_r_p,
            kappa_L=kappa_l, kappa_R=kappa_r, a_peak=0.0, r_star=r_star,
            _zl_rel=math.nan, _zr_rel=math.nan, _log_t1=math.nan,
            _log_den_l=math.nan, _log_den_r=math.nan,
            _log_sf_ql=math.nan, _log_sf_qsr=math.nan,
            _q_l=math.nan, _q_r=math.nan,
            _beta_l=math.nan, _beta_r=math.nan, _mag_a=-xi_r * coef, _mag_b=xi_l * coef)

    v_star = solve_v_star(params, num)
    maps = _Maps(params)
    q_star_r = (v_star - m) / maps.sqrt_kr
    log_t1 = maps.log_t1
    log_den_l = float(maps.log_den_minus(v_star))
    log_den_r = float(maps.log_den_plus(v_star))
    log_nr = math.log(maps.beta_r) + float(log_norm_pdf(maps.q_r))
    zl_rel = log_t1 - log_den_l            # z_L - z_star  (negative)
    zr_rel = log_nr - log_den_r            # z_R - z_star  (positive)
    log_sf_ql = float(log_norm_sf(maps.q_l))
    log_sf_qsr = float(log_norm_sf(q_star_r))
    a_peak = float(-np.expm1(maps.log_one_minus_minus(v_star)))

    return AgentSolution(
        params=params, regime=REGIME_HUMP, z_star=z_star, v_star=v_star,
        v_L=v_l, v_R=v_r,
        xi_L=xi_l, xi_L_prime=xi_l_p, xi_R=xi_r, xi_R_prime=xi_r_p,
        kappa_L=kappa_l, kappa_R=kappa_r, a_peak=a_peak, r_star=r_star,
        _zl_rel=zl_rel, _zr_rel=zr_rel, _log_t1=log_t1,
        _log_den_l=log_den_l, _log_den_r=log_den_r,
        _log_sf_ql=log_sf_ql, _log_sf_qsr=log_sf_qsr,
        _q_l=maps.q_l, _q_r=maps.q_r,
        _beta_l=maps.beta_l, _beta_r=maps.beta_r, _mag_a=mag_a, _mag_b=mag_b)


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
    if sol.regime == REGIME_SEPARATING:
        a1 = -sol._mag_a * math.exp(-xi_l * z_star) if abs(xi_l * z_star) < 700 else -math.inf
        b1 = sol._mag_b * math.exp(-xi_r * z_star) if abs(xi_r * z_star) < 700 else math.inf
        return {"A1": a1, "B1": b1, "C1": math.nan, "C2": math.nan,
                "D1": math.nan, "D2": math.nan,
                "log_abs_A1": math.log(sol._mag_a) - xi_l * z_star, "sign_A1": -1.0,
                "log_abs_B1": math.log(sol._mag_b) - xi_r * z_star, "sign_B1": 1.0}
    z_l, z_r = sol.z_L, sol.z_R
    log_nr = math.log(sol._beta_r) + float(log_norm_pdf(sol._q_r))
    with np.errstate(over="ignore", under="ignore"):
        a1 = -sol._mag_a * math.exp(min(-xi_l * z_l, 700.0))
        b1 = sol._mag_b * math.exp(min(-xi_r * z_r, 700.0))
        den_l = math.exp(sol._log_den_l)
        den_r = math.exp(sol._log_den_r)
        c1 = -den_l * math.exp(-z_star) if abs(z_star) < 700 else -math.inf
        d1 = -den_r * math.exp(-z_star) if abs(z_star) < 700 else -math.inf
    c2 = float(norm_cdf(sol._q_l)) + math.exp(sol._log_t1)
    d2 = float(norm_cdf(sol._q_r)) + math.exp(log_nr)
    return {"A1": a1, "B1": b1, "C1": c1, "C2": c2, "D1": d1, "D2": d2,
            "log_abs_A1": math.log(sol._mag_a) - xi_l * z_l, "sign_A1": -1.0,
            "log_abs_B1": math.log(sol._mag_b) - xi_r * z_r, "sign_B1": 1.0}


def mixing_z_of_value(sol: AgentSolution, v):
    """Logit state in the mixing region where the agent's value is v.

    Inverts the quantile branches of _eval_hump in closed form: where
    v > v_star, exp(z - z_star) = den_-(v) / den_-(v_star), elsewhere
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
    log_ratio[left] = maps.log_den_minus(v[left]) - sol._log_den_l
    log_ratio[~left] = maps.log_den_plus(v[~left]) - sol._log_den_r
    return sol.z_star + log_ratio


def _eval_hump(sol: AgentSolution, zrel, want_derivs):
    p = sol.params
    r1, lam, psi, u, c = p.r1, p.lam, p.psi, p.u, p.c
    m = r1 * u / (r1 + lam)
    sqrt_kl = math.sqrt(sol.kappa_L)
    sqrt_kr = math.sqrt(sol.kappa_R)
    a = np.zeros_like(zrel)
    v = np.empty_like(zrel)
    vp = np.empty_like(zrel)

    left = zrel <= sol._zl_rel
    lmix = (zrel > sol._zl_rel) & (zrel < 0.0)
    rmix = (zrel >= 0.0) & (zrel < sol._zr_rel)
    right = zrel >= sol._zr_rel

    if np.any(left):
        e = sol._mag_a * np.exp(sol.xi_L * (zrel[left] - sol._zl_rel))
        v[left] = (u + c) - e
        vp[left] = -sol.xi_L * e
    if np.any(lmix):
        zr = zrel[lmix]
        dz = zr - sol._zl_rel
        # sf(q(z)) = sf(qL) + T1 (exp(z - zL) - 1): a sum of positives
        log_gain = sol._log_t1 + dz + np.log1p(-np.exp(-dz))
        log_sf = np.logaddexp(sol._log_sf_ql, log_gain)
        q = norm_isf_log(log_sf)
        v[lmix] = u + sqrt_kl * q
        log_1ma = math.log(sol._beta_l) + log_norm_pdf(q) - sol._log_t1 - dz
        one_ma = np.exp(log_1ma)
        a[lmix] = -np.expm1(log_1ma)
        vp[lmix] = -r1 * c / (psi**2 * one_ma)
    if np.any(rmix):
        zr = zrel[rmix]
        # sf(q(z)) = sf(q*) + den_r (exp(z - z*) - 1); gain vanishes at z = z*
        with np.errstate(divide="ignore"):
            log_gain = sol._log_den_r + zr + np.log1p(-np.exp(-zr))
        log_sf = np.logaddexp(sol._log_sf_qsr, log_gain)
        q = norm_isf_log(log_sf)
        v[rmix] = m + sqrt_kr * q
        log_1ma = math.log(sol._beta_r) + log_norm_pdf(q) - sol._log_den_r - zr
        one_ma = np.exp(log_1ma)
        a[rmix] = -np.expm1(log_1ma)
        vp[rmix] = -r1 * c / (psi**2 * one_ma)
    if np.any(right):
        e = sol._mag_b * np.exp(sol.xi_R * (zrel[right] - sol._zr_rel))
        v[right] = r1 * (u + c) / (r1 + lam) + e
        vp[right] = sol.xi_R * e

    if not want_derivs:
        return a, v
    vpp = np.empty_like(zrel)
    if np.any(left):
        vpp[left] = -sol.xi_L**2 * sol._mag_a * np.exp(sol.xi_L * (zrel[left] - sol._zl_rel))
    if np.any(lmix):
        vpp[lmix] = vp[lmix] + vp[lmix] ** 2 * (v[lmix] - u) / sol.kappa_L
    if np.any(rmix):
        vpp[rmix] = vp[rmix] + vp[rmix] ** 2 * (v[rmix] - m) / sol.kappa_R
    if np.any(right):
        vpp[right] = sol.xi_R**2 * sol._mag_b * np.exp(sol.xi_R * (zrel[right] - sol._zr_rel))
    return a, v, vp, vpp


def _eval_separating(sol: AgentSolution, zrel, want_derivs):
    p = sol.params
    u, c, r1, lam = p.u, p.c, p.r1, p.lam
    a = np.zeros_like(zrel)
    v = np.empty_like(zrel)
    vp = np.empty_like(zrel)
    lo = zrel < 0.0
    hi = ~lo
    e_lo = sol._mag_a * np.exp(sol.xi_L * zrel[lo])
    v[lo] = (u + c) - e_lo
    vp[lo] = -sol.xi_L * e_lo
    e_hi = sol._mag_b * np.exp(sol.xi_R * zrel[hi])
    v[hi] = r1 * (u + c) / (r1 + lam) + e_hi
    vp[hi] = sol.xi_R * e_hi
    if not want_derivs:
        return a, v
    vpp = np.empty_like(zrel)
    vpp[lo] = -sol.xi_L**2 * e_lo
    vpp[hi] = sol.xi_R**2 * e_hi
    return a, v, vp, vpp


def eval_agent(sol: AgentSolution, z):
    """(a, v) at logit state z; vectorized, exact limits for any |z|."""
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    zrel = np.atleast_1d(z) - sol.z_star
    if sol.regime == REGIME_HUMP:
        a, v = _eval_hump(sol, zrel, want_derivs=False)
    else:
        a, v = _eval_separating(sol, zrel, want_derivs=False)
    if scalar:
        return float(a[0]), float(v[0])
    return a, v


def eval_agent_derivs(sol: AgentSolution, z):
    """(a, v, v', v'') with analytic branch derivatives, for residual checks."""
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    zrel = np.atleast_1d(z) - sol.z_star
    if sol.regime == REGIME_HUMP:
        a, v, vp, vpp = _eval_hump(sol, zrel, want_derivs=True)
    else:
        a, v, vp, vpp = _eval_separating(sol, zrel, want_derivs=True)
    if scalar:
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
