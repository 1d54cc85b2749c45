"""Monte Carlo validation of the equilibrium objects.

Simulates the belief process in logit coordinates under each agent type,
with termination opportunities at exact exponential arrival times. The
noninvestible type drifts up at +psi^2 (1-a)^2 / 2, the investible type
down at the mirror rate, both diffusing at psi (1-a). Type-conditioned
runs combine into unconditional estimates with prior weights. Both types
run in one pool of in-flight paths, whose width and type mix do not change
any result.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import _simkernels
from .agent import eval_agent
from .model import GameParams, Numerics, inv_logit, logit
from .principal import Equilibrium

TYPE_NONINVESTIBLE = "NI"
TYPE_INVESTIBLE = "I"

_TAG_NI, _TAG_I, _TAG_DIAG = 0, 1, 2
# step shrink factor inside the mixing band; ROADMAP Direction 5 tabulates
# the agent's bias per halving at 1, 2 and 4
_BAND_REFINE = 4
_BOTH = (TYPE_NONINVESTIBLE, TYPE_INVESTIBLE)


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls. dt and horizon default from the model scales."""

    p0: float = 0.3
    n_paths: int = 100_000
    seed: int = 12345
    dt: float | None = None          # must satisfy dt <= 0.01 / max(1, psi^2)
    horizon: float | None = None     # defaults to 20 / min(r1, r2)
    z_cap: float = 12.0
    t_probe: float = 1.0
    batch: int = 4096                # paths in flight at most, over both types; results
                                     # do not depend on it

    def resolve(self, params: GameParams) -> "SimConfig":
        dt = self.dt if self.dt is not None else 0.01 / max(1.0, params.psi**2)
        horizon = self.horizon if self.horizon is not None else 20.0 / min(params.r1, params.r2)
        cfg = replace(self, dt=dt, horizon=horizon)
        cfg.validate(params)
        return cfg

    def validate(self, params: GameParams):
        if not (0.0 < self.p0 < 1.0):
            raise ValueError("p0 must lie in (0, 1)")
        if self.dt is None or self.horizon is None:
            raise ValueError("dt and horizon unresolved; call resolve(params)")
        for name in ("dt", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.dt > 0.01 / max(1.0, params.psi**2) * (1.0 + 1e-12):
            raise ValueError("dt too coarse: need dt <= 0.01 / max(1, psi^2)")
        if self.z_cap < 12.0:
            raise ValueError("z_cap must be at least 12")
        for name in ("n_paths", "batch"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True)
class PathRecord:
    """Outcome of one simulated path."""

    stop_time: float
    stopped: bool
    agent_payoff: float      # NaN for investible-type paths
    disc_r1: float           # e^{-r1 T}
    disc_r2: float           # e^{-r2 T}
    p_probe: float           # belief at the probe time (frozen after stopping)


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo means and standard errors for one equilibrium."""

    n_paths: int
    seed: int
    p0: float
    agent_value_mean: float
    agent_value_se: float
    principal_value_mean: float
    principal_value_se: float
    disc_r1_ni_mean: float
    disc_r1_ni_se: float
    disc_r2_ni_mean: float
    disc_r2_ni_se: float
    disc_r1_i_mean: float
    disc_r1_i_se: float
    disc_r2_i_mean: float
    disc_r2_i_se: float
    martingale_gap: float
    martingale_se: float
    low_mimic_mean: float
    low_mimic_se: float
    censored_frac_ni: float
    censored_frac_i: float


@dataclass(frozen=True)
class MartingaleResult:
    gap: float
    se: float
    mixture_mean: float


@dataclass(frozen=True)
class RefinedEstimate:
    """One value estimated at dt and at dt/2 on the same paths."""

    coarse_mean: float
    coarse_se: float
    fine_mean: float
    fine_se: float
    diff_mean: float         # coarse minus fine, path by path
    diff_se: float


@dataclass(frozen=True)
class RefinementReport:
    """Step-size refinement of the agent and principal value estimates."""

    n_paths: int
    seed: int
    p0: float
    dt: float
    agent: RefinedEstimate
    principal: RefinedEstimate


@dataclass(frozen=True)
class LearningDiagnostic:
    """Discounted time spent at low mimicking before leaving a belief interval."""

    value: float
    se: float
    mean_disc_exit: float    # E[e^{-r1 T}] at the interval exit time
    exited_frac: float


def _policy_table(eq: Equilibrium, cfg: SimConfig, num: Numerics):
    n = 2 * int(round(cfg.z_cap / num.z_table_step)) + 1
    z_tab = np.linspace(-cfg.z_cap, cfg.z_cap, n)
    a_tab, _ = eval_agent(eq.agent, z_tab)
    inv_dz = (n - 1) / (2.0 * cfg.z_cap)
    return np.ascontiguousarray(a_tab), -cfg.z_cap, inv_dz


def _se(x):
    return float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.nan


def _lump(res, w):
    """Principal's discounted lump sum per path: w e^{-r2 T} on stopped paths."""
    return np.where(res[..., 1] > 0.0, res[..., 4] * w, 0.0)


def _mix(weights, samples):
    """Mean and standard error of sum_k w_k E[x_k] from independent samples x_k."""
    mean = sum(w * float(np.mean(x)) for w, x in zip(weights, samples))
    se = math.sqrt(sum((w * _se(x)) ** 2 for w, x in zip(weights, samples)))
    return mean, se


def _refined(weights, samples) -> RefinedEstimate:
    """Coarse, fine and paired-difference estimates from (2, n) leg samples."""
    coarse = _mix(weights, [x[0] for x in samples])
    fine = _mix(weights, [x[1] for x in samples])
    diff = _mix(weights, [x[0] - x[1] for x in samples])
    return RefinedEstimate(*coarse, *fine, *diff)


def _kernel_args(eq: Equilibrium, cfg: SimConfig, agent_types, num: Numerics):
    """Kernel arguments for one pool of agent_types; refine is the step shrink in the band."""
    p = eq.params
    a_tab, z_lo, inv_dz = _policy_table(eq, cfg, num)
    if eq.agent.regime == "hump-shaped":
        band_lo, band_hi = eq.agent.z_L - 0.3, eq.agent.z_R + 0.3
        refine = _BAND_REFINE
    else:
        band_lo, band_hi, refine = np.inf, -np.inf, 1
    ni = [t == TYPE_NONINVESTIBLE for t in agent_types]
    return refine, dict(
        z0=logit(cfg.p0), z_star=eq.agent.z_star,
        drift_sign=tuple(1.0 if x else -1.0 for x in ni),
        psi=p.psi, r1=p.r1, r2=p.r2, u=p.u, c=p.c, lam=p.lam, dt=cfg.dt,
        horizon=cfg.horizon, z_cap=cfg.z_cap, a_tab=a_tab, z_lo=z_lo, inv_dz=inv_dz,
        seed=cfg.seed, tag=tuple(_TAG_NI if x else _TAG_I for x in ni), batch=cfg.batch,
        band_lo=band_lo, band_hi=band_hi)


def _martingale(cfg: SimConfig, res_ni, res_i) -> MartingaleResult:
    """|E[p at (t_probe wedge T)] - p0| under the prior type mixture, from both type runs."""
    mix, se = _mix((cfg.p0, 1.0 - cfg.p0), (inv_logit(res_ni[:, 5]), inv_logit(res_i[:, 5])))
    return MartingaleResult(gap=abs(mix - cfg.p0), se=se, mixture_mean=mix)


def _run_types(eq: Equilibrium, cfg: SimConfig, agent_types, num: Numerics,
               n_paths=None, path_offset=0):
    """Runs of agent_types in one pool; result[k] holds agent_types[k]'s paths."""
    refine, args = _kernel_args(eq, cfg, agent_types, num)
    return _simkernels.run_main(
        **args, t_probe=cfg.t_probe, n_paths=cfg.n_paths if n_paths is None else n_paths,
        path_offset=path_offset, dt_band=cfg.dt / refine)


def simulate_path(eq: Equilibrium, agent_type: str, cfg: SimConfig,
                  path_index: int = 0, num: Numerics = Numerics()) -> PathRecord:
    """Run the single path identified by path_index and return its record."""
    if agent_type not in (TYPE_NONINVESTIBLE, TYPE_INVESTIBLE):
        raise ValueError("agent_type must be 'NI' or 'I'")
    cfg = cfg.resolve(eq.params)
    rec = _run_types(eq, cfg, (agent_type,), num, n_paths=1, path_offset=path_index)
    t, stopped, pay, d1, d2, zpr = rec[0, 0]
    return PathRecord(stop_time=float(t), stopped=bool(stopped),
                      agent_payoff=float(pay) if agent_type == TYPE_NONINVESTIBLE else math.nan,
                      disc_r1=float(d1), disc_r2=float(d2), p_probe=float(inv_logit(zpr)))


def estimate_values(eq: Equilibrium, cfg: SimConfig, num: Numerics = Numerics(),
                    eps: float = 0.1, interval=(0.05, 0.95),
                    with_diagnostic: bool = True) -> SimReport:
    """Aggregate type-conditioned runs into payoff and diagnostic estimates.

    The agent estimate is the mean discounted flow payoff of the
    noninvestible type; the principal estimate weights the two
    type-conditioned lump-sum estimates by the prior p0. Both types run
    in one pool. Draws come from per-path streams keyed by (seed, type,
    path), so reports are reproducible bit for bit.
    """
    cfg = cfg.resolve(eq.params)
    p = eq.params
    res_ni, res_i = _run_types(eq, cfg, _BOTH, num)

    pay_ni = res_ni[:, 2]
    weights = (cfg.p0, 1.0 - cfg.p0)
    principal_mean, principal_se = _mix(weights, (_lump(res_ni, p.w_NI), _lump(res_i, p.w_I)))
    mart = _martingale(cfg, res_ni, res_i)

    if with_diagnostic:
        diag = learning_diagnostic(eq, cfg, eps=eps, interval=interval, num=num)
        low_mean, low_se = diag.value, diag.se
    else:
        low_mean, low_se = math.nan, math.nan

    return SimReport(
        n_paths=cfg.n_paths, seed=cfg.seed, p0=cfg.p0,
        agent_value_mean=float(np.mean(pay_ni)), agent_value_se=_se(pay_ni),
        principal_value_mean=principal_mean, principal_value_se=principal_se,
        disc_r1_ni_mean=float(np.mean(res_ni[:, 3])), disc_r1_ni_se=_se(res_ni[:, 3]),
        disc_r2_ni_mean=float(np.mean(res_ni[:, 4])), disc_r2_ni_se=_se(res_ni[:, 4]),
        disc_r1_i_mean=float(np.mean(res_i[:, 3])), disc_r1_i_se=_se(res_i[:, 3]),
        disc_r2_i_mean=float(np.mean(res_i[:, 4])), disc_r2_i_se=_se(res_i[:, 4]),
        martingale_gap=mart.gap, martingale_se=mart.se,
        low_mimic_mean=low_mean, low_mimic_se=low_se,
        censored_frac_ni=float(np.mean(res_ni[:, 1] == 0.0)),
        censored_frac_i=float(np.mean(res_i[:, 1] == 0.0)))


def dt_refinement(eq: Equilibrium, cfg: SimConfig,
                  num: Numerics = Numerics()) -> RefinementReport:
    """Agent and principal values at cfg.dt and at cfg.dt/2 on shared Brownian paths.

    Independent runs at the two step sizes differ by sampling noise of the
    order of their standard errors, which hides any discretisation bias
    smaller than that. Here each path index drives both step sizes with one
    Brownian path: unit normals on the grid of the fine leg's in-band step,
    restarted at every opportunity arrival, each step summing the units it
    spans, plus one draw for the partial unit before an arrival or the
    horizon. Arrival times come from the same exponential stream as
    estimate_values. The two legs then stay within a small distance of each
    other path by path, and the standard error of the paired difference
    V(dt) - V(dt/2) measures the bias itself rather than the spread of the
    payoffs.

    Both legs advance through the same step function as estimate_values,
    so the check covers the scheme that produces the reported values.
    Both types run in one pool. Draws come from per-path Philox streams,
    so the result does not depend on how many paths are in flight at once
    (cfg.batch).
    """
    cfg = cfg.resolve(eq.params)
    p = eq.params
    refine, args = _kernel_args(eq, cfg, _BOTH, num)
    res_ni, res_i = _simkernels.run_coupled(**args, refine=refine, n_paths=cfg.n_paths)
    pay = res_ni[..., 2]
    lump = (_lump(res_ni, p.w_NI), _lump(res_i, p.w_I))
    return RefinementReport(
        n_paths=cfg.n_paths, seed=cfg.seed, p0=cfg.p0, dt=cfg.dt,
        agent=_refined((1.0,), (pay,)),
        principal=_refined((cfg.p0, 1.0 - cfg.p0), lump))


def martingale_check(eq: Equilibrium, cfg: SimConfig, t_probe: float,
                     num: Numerics = Numerics()) -> MartingaleResult:
    """|E[p at (t_probe wedge T)] - p0| under the prior type mixture."""
    cfg = replace(cfg, t_probe=t_probe).resolve(eq.params)
    if cfg.t_probe > cfg.horizon:
        raise ValueError("t_probe beyond the simulation horizon")
    return _martingale(cfg, *_run_types(eq, cfg, _BOTH, num))


def learning_diagnostic(eq: Equilibrium, cfg: SimConfig, eps: float,
                        interval=(0.05, 0.95),
                        num: Numerics = Numerics()) -> LearningDiagnostic:
    """Mean of r1 * int e^{-r1 t} 1{a(p_t) <= 1-eps} dt up to leaving the interval.

    Runs the noninvestible dynamics without termination: the clock stops
    when the belief leaves (interval[0], interval[1]) or at the horizon.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    lo, hi = interval
    if not (0.0 < lo < cfg.p0 < hi < 1.0):
        raise ValueError("interval must strictly contain p0 inside (0, 1)")
    cfg = cfg.resolve(eq.params)
    p = eq.params
    a_tab, z_lo, inv_dz = _policy_table(eq, cfg, num)
    res = _simkernels.run_diag(
        z0=logit(cfg.p0), z_int_lo=logit(lo), z_int_hi=logit(hi), psi=p.psi,
        r1=p.r1, u=p.u, c=p.c, a_thresh=1.0 - eps, dt=cfg.dt, horizon=cfg.horizon,
        a_tab=a_tab, z_lo=z_lo, inv_dz=inv_dz, n_paths=cfg.n_paths,
        seed=cfg.seed, tag=_TAG_DIAG, batch=cfg.batch)
    vals = res[:, 3]
    return LearningDiagnostic(value=float(np.mean(vals)), se=_se(vals),
                              mean_disc_exit=float(np.mean(res[:, 2])),
                              exited_frac=float(np.mean(res[:, 1] > 0.0)))
