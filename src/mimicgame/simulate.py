"""Monte Carlo validation of the equilibrium objects.

Simulates the belief process under each agent type, with termination
opportunities at exact exponential arrival times. In logit coordinates z
the noninvestible type drifts up at +psi^2 (1-a)^2 / 2, the investible
type down at the mirror rate, both diffusing at psi (1-a). The kernels
step the belief in its Lamperti coordinate X = int dz / (psi (1-a)),
where it diffuses at unit volatility (Kloeden & Platen 1992, section
4.4); _lamperti gives X in closed form in z and z in closed form in X,
and tabulates z, a and da/dz on a uniform X grid. Type-conditioned runs
combine into unconditional estimates with prior weights. Both types run
in one pool of in-flight paths, whose width and type mix do not change
any result.

Each kernel call runs in shares: contiguous ranges of each type's path
indices, one per usable core, each of at least _MIN_SHARE paths. Share 0
runs in the calling process; every other share runs in a forked child
that sends its array back through a one-way pipe, and the parent joins
every child (terminating them first if anything fails) and joins the
arrays on the path axis. Every path draws from its own Philox stream, so
the result is the one-process result bit for bit. The shares split
cfg.batch between them, so at most cfg.batch paths are in flight over
all processes. Where os.fork or os.sched_getaffinity is unavailable,
where the process runs other threads, or where a run is too small to gain
from a second share, the call runs in one share in process.
"""

import math
import numbers
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import _simkernels
from .agent import REGIME_HUMP, eval_agent, mixing_slope, mixing_z_of_value
from .model import GameParams, Numerics, inv_logit, logit
from .principal import Equilibrium

TYPE_NONINVESTIBLE = "NI"
TYPE_INVESTIBLE = "I"

_TAG_NI, _TAG_I, _TAG_DIAG = 0, 1, 2
_Z_CAP_MAX = 37.0
_BOTH = (TYPE_NONINVESTIBLE, TYPE_INVESTIBLE)
_MAX_PATHS = 2**47       # path indices below this keep (tag << 48) + 2 idx + stream unique
_MIN_SHARE = 200         # fewest paths per type in a share; measured, see _share_count


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
    batch: int = 4096                # at most this many paths in flight over both types
                                     # and all shares; results do not depend on it

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
        # past z = _Z_CAP_MAX the belief inv_logit(z) rounds to exactly 1
        if not (12.0 <= self.z_cap <= _Z_CAP_MAX):
            raise ValueError(f"z_cap must lie in [12, {_Z_CAP_MAX:g}], got {self.z_cap}")
        if not (math.isfinite(self.t_probe) and self.t_probe >= 0.0):
            raise ValueError(f"t_probe must be finite and at least 0, got {self.t_probe}")
        for name in ("n_paths", "batch"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        # the seed is the first word of every Philox key
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


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
    richardson_mean: float   # 2 fine - coarse, path by path (Talay & Tubaro 1990)
    richardson_se: float


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
    mean_disc_exit: float    # E[e^{-r1 T}] at the interval exit time, or the horizon
    exited_frac: float       # mean probability of leaving the interval before the horizon


def _lamperti(eq: Equilibrium, cfg: SimConfig, num: Numerics):
    """The belief's Lamperti coordinate X = int dz / (psi (1 - a(z))), and its table.

    Where the agent does not mix (outside [z_L, z_R], and everywhere in the
    separating regime) a = 0, so X = z / psi up to a constant. Inside the
    mixing region both quantile branches of the agent's value have
    v'(z) = -r1 c / (psi^2 (1 - a)), so there X = X(z_L) - psi (v(z) - v_L)
    / (r1 c). The constants make X = z / psi left of z_L and continuous
    across z_R. The table inverts this without root finding: a mixing node
    at X has v = v_L - r1 c (X - X_L) / psi, and mixing_z_of_value gives
    its z, so the table is finite and in order even where 1 - a_peak is
    below double precision. Returns (to_x, tab, x_cap): to_x maps a 1-d
    array of logit beliefs to X; tab holds the rows z, a and a' = da/dz on
    uniform nodes from x_cap[0] = X(-z_cap) to x_cap[1] = X(z_cap), at a
    spacing of at most z_table_step / psi.
    """
    sol, p = eq.agent, eq.params
    psi = p.psi
    rate = p.r1 * p.c / psi              # -dv/dX inside the mixing region
    mixes = sol.regime == REGIME_HUMP
    z_l, z_r = (sol.z_L, sol.z_R) if mixes else (math.inf, math.inf)
    x_l = z_l / psi
    x_r = x_l + (sol.v_L - sol.v_R) / rate if mixes else math.inf

    def to_x(z):
        z = np.array(z, dtype=float)
        x = z / psi
        right = z >= z_r
        x[right] = x_r + (z[right] - z_r) / psi
        mix = (z_l < z) & ~right
        if mix.any():
            x[mix] = x_l - (eval_agent(sol, z[mix])[1] - sol.v_L) / rate
        return x

    x_cap = tuple(float(x) for x in to_x([-cfg.z_cap, cfg.z_cap]))
    n = int(math.ceil((x_cap[1] - x_cap[0]) * psi / num.z_table_step)) + 1
    x = np.linspace(x_cap[0], x_cap[1], n)
    z = psi * x
    right = x >= x_r
    z[right] = z_r + psi * (x[right] - x_r)
    mix = (x_l < x) & ~right
    v = sol.v_L - rate * (x[mix] - x_l)
    if mix.any():
        z[mix] = mixing_z_of_value(sol, v)
    a = eval_agent(sol, z)[0]
    ap = np.zeros(n)
    ap[mix] = mixing_slope(sol, a[mix], v)     # v from the node's X, exact near the peak
    return to_x, np.stack([z, a, ap]), x_cap


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
    """Coarse, fine, paired-difference and Richardson estimates from (2, n) leg samples."""
    coarse = _mix(weights, [x[0] for x in samples])
    fine = _mix(weights, [x[1] for x in samples])
    diff = _mix(weights, [x[0] - x[1] for x in samples])
    richardson = _mix(weights, [2.0 * x[1] - x[0] for x in samples])
    return RefinedEstimate(*coarse, *fine, *diff, *richardson)


def _kernel_args(eq: Equilibrium, cfg: SimConfig, agent_types, num: Numerics):
    """Kernel arguments for one pool of agent_types, in the Lamperti coordinate."""
    p = eq.params
    to_x, tab, x_cap = _lamperti(eq, cfg, num)
    x0, x_star = to_x([logit(cfg.p0), eq.agent.z_star])
    ni = [t == TYPE_NONINVESTIBLE for t in agent_types]
    return dict(
        x0=float(x0), x_star=float(x_star),
        drift_sign=tuple(1.0 if x else -1.0 for x in ni),
        psi=p.psi, r1=p.r1, r2=p.r2, u=p.u, c=p.c, lam=p.lam, dt=cfg.dt,
        horizon=cfg.horizon, x_cap=x_cap, tab=tab,
        seed=cfg.seed, tag=tuple(_TAG_NI if x else _TAG_I for x in ni), batch=cfg.batch)


def _martingale(cfg: SimConfig, res_ni, res_i) -> MartingaleResult:
    """|E[p at (t_probe wedge T)] - p0| under the prior type mixture, from both type runs."""
    mix, se = _mix((cfg.p0, 1.0 - cfg.p0), (inv_logit(res_ni[:, 5]), inv_logit(res_i[:, 5])))
    return MartingaleResult(gap=abs(mix - cfg.p0), se=se, mixture_mean=mix)


class ShareError(RuntimeError):
    """A forked share of a Monte Carlo run ended without sending its paths."""


def _share_count(n_paths):
    """Shares for a run of n_paths per type: one per usable core, each of at least _MIN_SHARE.

    A run's passes carry a fixed cost that does not shrink with the pool,
    so small shares do not pay for their fork. At fig1 on a 2-core x86 VM
    (three runs, best of 3 or 5 per call), two shares of 100 paths per type
    were as often slower as faster than one process, and two of 200 were
    about even (3% faster on average, from 12% faster to 11% slower on a
    call). Two of 400 to 1600 saved 10 to 30% on estimate_values and
    dt_refinement; learning_diagnostic, whose every share runs to the
    horizon, gained up to 18% and lost on some calls. A process with other
    threads runs one share: a forked child gets only the calling thread,
    and any lock another thread held stays locked there.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_paths // _MIN_SHARE))


def _share_main(send, run, lo, n):
    """A forked share's body: run paths [lo, lo + n) and send (True, array) or (False, error)."""
    try:
        msg = (True, run(lo, n))
    except Exception as exc:
        msg = (False, exc)
    send.send(msg)
    send.close()


def _in_shares(kernel, axis, n_paths, batch, path_offset=0, shares=None, **kwargs):
    """_simkernels.<kernel> over paths [path_offset, path_offset + n_paths), in shares.

    The shares are contiguous ranges of the path indices, as even as they
    can be, each run with batch // shares rows; their arrays join on axis,
    the kernel's path axis. shares defaults to _share_count(n_paths) and is
    cut to leave no share without paths or rows. Share 0 runs here, every
    other share in a forked child; the kernel is looked up by name in each,
    so a wrapped kernel is the one that runs. An error here terminates the
    children; a child's exception is raised here, and a child that dies
    without sending raises ShareError with its exit code. Every child is
    joined before this returns or raises.
    """
    assert path_offset + n_paths <= _MAX_PATHS, "path index beyond the Philox key's range"
    shares = min(_share_count(n_paths) if shares is None else shares, n_paths, batch)
    cuts = [path_offset + n_paths * k // shares for k in range(shares + 1)]
    ranges = [(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])]
    width = batch // shares

    def run(lo, n):
        return getattr(_simkernels, kernel)(**kwargs, n_paths=n, batch=width, path_offset=lo)

    if shares == 1:
        return run(*ranges[0])
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for lo, n in ranges[1:]:
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_share_main, args=(send, run, lo, n), daemon=True)
            child.start()
            send.close()        # so that recv sees EOF if the child dies
            children.append((child, recv))
        parts = [run(*ranges[0])]
        for k, (child, recv) in enumerate(children, 1):
            try:
                ok, value = recv.recv()
            except EOFError:
                child.join()
                raise ShareError(f"Monte Carlo share {k} of {shares} exited with code "
                                 f"{child.exitcode} before sending its paths") from None
            if not ok:
                raise value
            parts.append(value)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return np.concatenate(parts, axis=axis)


def _run_types(eq: Equilibrium, cfg: SimConfig, agent_types, num: Numerics,
               n_paths=None, path_offset=0):
    """Runs of agent_types in one pool; result[k] holds agent_types[k]'s paths."""
    return _in_shares("run_main", 1, **_kernel_args(eq, cfg, agent_types, num),
                      t_probe=cfg.t_probe, n_paths=cfg.n_paths if n_paths is None else n_paths,
                      path_offset=path_offset)


def simulate_path(eq: Equilibrium, agent_type: str, cfg: SimConfig,
                  path_index: int = 0, num: Numerics = Numerics()) -> PathRecord:
    """Run the single path identified by path_index and return its record."""
    if agent_type not in (TYPE_NONINVESTIBLE, TYPE_INVESTIBLE):
        raise ValueError("agent_type must be 'NI' or 'I'")
    if not (isinstance(path_index, numbers.Integral) and 0 <= path_index < _MAX_PATHS):
        raise ValueError(f"path_index must be an integer in [0, 2**47), got {path_index!r}")
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
    if with_diagnostic:
        _check_diagnostic(cfg, eps, interval)
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
    Brownian path: the legs step in lockstep, each pass taking two fine
    steps driven by one normal each and one coarse step driven by their
    sum, all clipped at the next opportunity arrival or the horizon.
    Arrival times come from the same exponential stream as
    estimate_values. The two legs then stay within a small distance of each
    other path by path, and the standard error of the paired difference
    V(dt) - V(dt/2) measures the bias itself rather than the spread of the
    payoffs. Each estimate also carries the Richardson value
    2 V(dt/2) - V(dt), from the same paths.

    Both legs advance through the same step function as estimate_values,
    so the check covers the scheme that produces the reported values.
    Both types run in one pool. Draws come from per-path Philox streams,
    so the result does not depend on how many paths are in flight at once
    (cfg.batch).
    """
    cfg = cfg.resolve(eq.params)
    p = eq.params
    res_ni, res_i = _in_shares("run_coupled", 2, **_kernel_args(eq, cfg, _BOTH, num),
                               n_paths=cfg.n_paths)
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


def _check_diagnostic(cfg: SimConfig, eps, interval):
    """Raise ValueError unless eps and interval suit learning_diagnostic at cfg.p0."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    lo, hi = interval
    if not (0.0 < lo < cfg.p0 < hi < 1.0):
        raise ValueError("interval must strictly contain p0 inside (0, 1)")


def learning_diagnostic(eq: Equilibrium, cfg: SimConfig, eps: float,
                        interval=(0.05, 0.95),
                        num: Numerics = Numerics()) -> LearningDiagnostic:
    """Mean of r1 * int e^{-r1 t} 1{a(p_t) <= 1-eps} dt up to leaving the interval.

    Runs the noninvestible dynamics without termination: the clock stops
    when the belief leaves (interval[0], interval[1]) or at the horizon.
    Exits between step ends are weighted in by the Brownian-bridge
    crossing chance of each step, which removes the sqrt(dt) bias of
    watching the barriers only at step ends. mean_disc_exit counts the
    horizon as the exit of a path still inside there, and exited_frac is
    the mean probability that a path has left by the end of its run.
    """
    _check_diagnostic(cfg, eps, interval)
    lo, hi = interval
    cfg = cfg.resolve(eq.params)
    p = eq.params
    to_x, tab, x_cap = _lamperti(eq, cfg, num)
    x0, x_a, x_b = to_x([logit(cfg.p0), logit(lo), logit(hi)])
    res = _in_shares(
        "run_diag", 0, x0=float(x0), x_int=(float(x_a), float(x_b)), psi=p.psi, r1=p.r1,
        a_thresh=1.0 - eps, dt=cfg.dt, horizon=cfg.horizon, tab=tab, x_cap=x_cap,
        n_paths=cfg.n_paths, seed=cfg.seed, tag=_TAG_DIAG, batch=cfg.batch)
    vals = res[:, 3]
    return LearningDiagnostic(value=float(np.mean(vals)), se=_se(vals),
                              mean_disc_exit=float(np.mean(res[:, 2])),
                              exited_frac=float(np.mean(res[:, 1])))
