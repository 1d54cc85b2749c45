"""Brute-force discrete-time cross-check of the equilibrium.

A period-Delta approximation on a uniform logit grid with a two-point
signal: each period the standardized innovation is +-1 with equal odds
and the belief jumps by the conjecture-implied step, interpolated
linearly where it lands. The grid is much finer than the jump size
(dz ~ psi * Delta, well under the psi * sqrt(Delta) jump scale): spacing
at the jump scale itself would let the interpolation curvature error act
like artificial signal noise that never vanishes with Delta.

The fixed point alternates three blocks until the conjectured mimicking
profile stops moving:

  1. the principal's best reply to the conjecture. She stops at rate
     lambda above a cutoff z_c, with the fractional weight
     clip((z - z_c) / dz + 1/2, 0, 1) in the cell the cutoff crosses, so
     the rule moves continuously with z_c rather than a whole cell at a
     time. z_c is the fixed point of z_c <- cutoff(w(z_c)): w(z_c) is
     her value under the rule, cutoff() its first crossing with the
     termination payoff;
  2. the agent's value by Howard policy iteration over the endpoint
     actions, given the conjecture and the stopping rule (the period
     objective is linear in the action, so endpoint evaluation is exact);
  3. a conjecture update toward the pointwise indifference root: at each
     state, the mimicking probability at which the agent is exactly
     indifferent between the endpoint actions given the current value
     function. Full mimicking freezes the belief and destroys its own
     benefit, so the root is interior wherever mixing is sustainable.

Every value here solves a policy-fixed linear system x = f + s * (P x):
P is the transition matrix of the period game's Markov-chain
approximation, s the discount times the survival or continuation
probability, f the period flow. Row i of P reads the next value at the two
jump targets from i by linear interpolation, so it holds four weights, all
within one jump (about 1 / sqrt(Delta) cells) of the diagonal. I - s P is
banded and diagonally dominant, so each evaluation is one
scipy.linalg.solve_banded. The agent's policy and the cutoff are warm-
started from the previous round, which keeps the solves per round few.

Just above the cutoff, the agent's gain from mimicking can be slightly
negative at a = 0 yet positive for small a > 0. A node whose conjecture
lies in (0, dz / sd), where mimicking shifts the jump by less than one
cell, keeps its interior root when the gain at 0.9 times its conjecture
is positive; otherwise its target would toggle between 0 and the root.
Tracking larger conjectures would keep spurious roots alive.

Cells near the mixing boundary cannot satisfy the indifference exactly
(the true support edge falls between grid nodes), so their targets keep
flipping by O(slope * dz) under any fixed damping and a pointwise
residual test can never pass. The loop instead runs an approach phase at
the nominal damping, then a polish phase at a smaller weight whose
trailing rounds are averaged; the zero-mean flip noise cancels in the
average, and the returned objects are re-solved once under the averaged
conjecture. Genuinely convergent cases (for instance the fully
separating regime) exit early on the movement test.

This solver shares nothing with the closed-form machinery beyond the
model primitives; it exists to validate the other modules end to end.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .model import GameParams, inv_logit, termination_payoff


class OscillationError(RuntimeError):
    """The damped conjecture iteration or one of its inner solves failed to settle."""


# Fixed controls of the conjecture loop and its inner solves.
_DZ_PER_DELTA = 1.0      # grid spacing as a multiple of psi * delta
_DAMPING = 0.5           # conjecture step weight in the approach phase
_POLISH_DAMPING = 0.12
_APPROACH_ROUNDS = 40
_POLISH_ROUNDS = 200
_AVG_WINDOW = 100        # trailing rounds averaged into the final conjecture
_TOL_OUTER = 1e-5        # early-exit test on the conjecture movement
_TOL_CUT = 1e-6          # cutoff fixed-point stop, in grid cells
_INNER_MAXIT = 100       # banded solves allowed per policy iteration or cutoff fixed point
_A_CAP = 1.0 - 1e-6
_ROOT_ITERS = 48         # bisection depth for the indifference root
_ROOT_TRACK = 0.9        # bracket start, as a share of the conjecture, near a = 0


@dataclass(frozen=True)
class DiscreteGame:
    """Discretization controls for the period game."""

    delta: float = 1e-3          # period length
    z_max: float = 10.0          # grid half-width in logit units

    def __post_init__(self):
        if self.delta <= 0.0 or self.z_max <= 0.0:
            raise ValueError("delta and z_max must be positive")


@dataclass(frozen=True)
class DiscreteEquilibrium:
    p_star: float
    z_grid: np.ndarray
    p_grid: np.ndarray
    a: np.ndarray
    v: np.ndarray
    w: np.ndarray
    outer_iters: int
    outer_residual: float        # undamped sup |target - conjecture| at exit
    agent_solves: int            # banded solves of the agent's policy iteration, over the run
    principal_solves: int        # banded solves of the principal's cutoff fixed point, over the run


def _gather_weights(zq, z0, dz, n):
    """(index, fraction) of each query under linear interpolation, edge-clamped."""
    pos = (zq - z0) / dz
    pos = np.clip(pos, 0.0, n - 1.0)
    idx = np.minimum(pos.astype(np.int64), n - 2)
    frac = pos - idx
    return idx, frac


def _operator(t_up, t_dn, z0, dz, n):
    """The period's transition matrix P in solve_banded's layout.

    Row k maps x to 0.5 * (x(t_up[k]) + x(t_dn[k])), each read by
    edge-clamped linear interpolation on the grid of n nodes; a row's four
    weights may share columns, and then add up. Returns ((l, u), band) with
    band[u + k - j, j] = P[k, j].
    """
    iu, fu = _gather_weights(t_up, z0, dz, n)
    idn, fd = _gather_weights(t_dn, z0, dz, n)
    rows = np.arange(n)
    lo = max(0, int(np.max(rows - np.minimum(iu, idn))))
    up = max(0, int(np.max(np.maximum(iu, idn) + 1 - rows)))
    band = np.zeros((lo + up + 1, n))
    for col, wt in ((iu, 1.0 - fu), (iu + 1, fu), (idn, 1.0 - fd), (idn + 1, fd)):
        band[up + rows - col, col] += 0.5 * wt
    return (lo, up), band


def _solve(op, s, f):
    """x = f + s * (P x) for P = op, by one banded solve of (diag(1/s) - P) x = f / s.

    s is the per-row discount (positive, below 1), f the period flow.
    """
    (lo, up), band = op
    ab = -band
    ab[up] += 1.0 / s
    return solve_banded((lo, up), ab, f / s, overwrite_ab=True, overwrite_b=True,
                        check_finite=False)


def _start(init_a, n):
    """The initial conjecture init_a on the grid of n nodes, clipped to [0, _A_CAP]."""
    try:
        a = np.broadcast_to(np.asarray(init_a, float), (n,))
    except ValueError:
        raise ValueError(f"init_a must be a scalar or broadcast to the grid's {n} nodes; "
                         f"got shape {np.shape(init_a)}") from None
    if not np.all(np.isfinite(a)):
        raise ValueError("init_a must be finite on every node")
    return np.clip(a, 0.0, _A_CAP)


def _cutoff_from_w(z, reward, w):
    f = reward - w
    pos = np.nonzero(f > 0.0)[0]
    if pos.size == 0:
        return z[-1]
    i = pos[0]
    if i == 0:
        return z[0]
    t = f[i - 1] / (f[i - 1] - f[i])
    return z[i - 1] + t * (z[i] - z[i - 1])


class _AgentStage:
    """Policy iteration and indifference roots for one parameter set."""

    def __init__(self, params: GameParams, delta: float, z, dz):
        self.z = z
        self.dz = dz
        self.n = z.size
        self.psi = params.psi
        self.delta = delta
        self.sd = params.psi * math.sqrt(delta)
        self.g1 = math.exp(-params.r1 * delta)
        # period flows of the endpoint actions: 0 does not mimic, 1 mimics
        self.flow0 = (1.0 - self.g1) * (params.u + params.c)
        self.flow1 = (1.0 - self.g1) * params.u
        self.cost = (1.0 - self.g1) * params.c
        self.mimic = np.zeros(self.n, dtype=bool)   # Howard policy, kept across rounds
        self.solves = 0

    def _targets(self, a_hat, idx=slice(None)):
        """Jump targets (up and down, for action 0 then 1) from the nodes idx."""
        one_m = 1.0 - a_hat
        z, psi, delta, sd = self.z[idx], self.psi, self.delta, self.sd
        drift0 = psi**2 * one_m * (1.0 - 0.5 * one_m) * delta
        drift1 = psi**2 * one_m * (-0.5 * one_m) * delta
        return (z + drift0 + sd * one_m, z + drift0 - sd * one_m,
                z + drift1 + sd * one_m, z + drift1 - sd * one_m)

    def _gain(self, v, s, targets):
        """Period gain from mimicking minus its cost, at discount s and the given targets."""
        i, f = _gather_weights(np.concatenate(targets), self.z[0], self.dz, self.n)
        x0u, x0d, x1u, x1d = (v[i] * (1.0 - f) + v[i + 1] * f).reshape(4, -1)
        e0 = 0.5 * (x0u + x0d)
        e1 = 0.5 * (x1u + x1d)
        return -self.cost + s * (e1 - e0)

    def value(self, a_hat, surv):
        """Agent value under the conjecture a_hat, by Howard policy iteration.

        Each step solves the current policy's linear system, then switches a
        node's action only where the other one is strictly better.
        """
        t0u, t0d, t1u, t1d = targets = self._targets(a_hat)
        s = self.g1 * surv
        for _ in range(_INNER_MAXIT):
            m = self.mimic
            op = _operator(np.where(m, t1u, t0u), np.where(m, t1d, t0d),
                           self.z[0], self.dz, self.n)
            v = _solve(op, s, np.where(m, self.flow1, self.flow0))
            self.solves += 1
            gain = self._gain(v, s, targets)
            switch = np.where(m, gain < 0.0, gain > 0.0)
            if not switch.any():
                return v
            self.mimic = m ^ switch
        raise OscillationError(f"agent policy iteration still switching actions after "
                               f"{_INNER_MAXIT} solves")

    def indifference_root(self, v, surv, a_hat):
        """Conjecture making the agent indifferent, zero where unsustainable."""
        s = self.g1 * surv
        lo = np.zeros(self.n)
        active = self._gain(v, s, self._targets(lo)) > 0.0
        # a node just short of its root at 0 keeps it if mimicking a little pays
        near = np.nonzero(~active & (a_hat > 0.0) & (a_hat < self.dz / self.sd))[0]
        start = _ROOT_TRACK * a_hat[near]
        keep = self._gain(v, s[near], self._targets(start, near)) > 0.0
        lo[near[keep]] = start[keep]
        active[near[keep]] = True

        idx = np.nonzero(active)[0]
        lo, hi, s = lo[idx], np.full(idx.size, _A_CAP), s[idx]
        for _ in range(_ROOT_ITERS):
            mid = 0.5 * (lo + hi)
            up = self._gain(v, s, self._targets(mid, idx)) > 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        root = np.zeros(self.n)
        root[idx] = 0.5 * (lo + hi)
        return root


def discrete_equilibrium(params: GameParams, dg: DiscreteGame = DiscreteGame(),
                         init_a: np.ndarray | float | None = None) -> DiscreteEquilibrium:
    """Fixed point of the period game; independent of the closed form.

    init_a is the initial conjecture, a scalar or one value per grid node
    (zero by default); a start that does not broadcast to the grid or is
    not finite raises ValueError. Raises OscillationError if the round
    budget is exhausted, the conjecture is still moving wholesale when the
    phases end, or an inner policy iteration or cutoff fixed point fails to
    settle within its budget of solves.
    """
    r2, lam, psi = params.r2, params.lam, params.psi
    delta = dg.delta
    dz = min(psi * delta * _DZ_PER_DELTA, psi * math.sqrt(delta))
    half = int(math.ceil(dg.z_max / dz))
    n = 2 * half + 1
    z = (np.arange(n) - half) * dz
    p = inv_logit(z)
    reward = termination_payoff(p, params)

    p_arrive = -math.expm1(-lam * delta)
    if not p_arrive < 0.5:
        raise ValueError("delta too coarse: arrival probability must stay below 0.5")
    g2 = math.exp(-r2 * delta)
    sd = psi * math.sqrt(delta)
    stage = _AgentStage(params, delta, z, dz)

    a_hat = np.zeros(n) if init_a is None else _start(init_a, n)
    z_c = _cutoff_from_w(z, reward, np.zeros(n))   # the myopic cutoff to start
    acc = np.zeros(n)
    n_acc = 0
    principal_solves = 0

    def principal_round(a_used):
        """Principal's value under a_used and her cutoff; returns (w, agent survival)."""
        nonlocal z_c, principal_solves
        one_m = 1.0 - a_used
        driftw = psi**2 * one_m**2 * (p - 0.5) * delta
        op = _operator(z + driftw + sd * one_m, z + driftw - sd * one_m, z[0], dz, n)
        for _ in range(_INNER_MAXIT):
            stop_prob = p_arrive * np.clip((z - z_c) / dz + 0.5, 0.0, 1.0)
            w = _solve(op, (1.0 - stop_prob) * g2, stop_prob * reward)
            principal_solves += 1
            z_new = _cutoff_from_w(z, reward, w)
            moved = abs(z_new - z_c)
            z_c = z_new
            if moved < _TOL_CUT * dz:
                return w, 1.0 - stop_prob
        raise OscillationError(f"principal cutoff still moving by {moved / dz:.2e} cells "
                               f"after {_INNER_MAXIT} solves")

    total_rounds = _APPROACH_ROUNDS + _POLISH_ROUNDS
    outer_res = math.inf
    outer = 0
    settled = False
    for outer in range(1, total_rounds + 1):
        _, surv = principal_round(a_hat)
        v = stage.value(a_hat, surv)
        target = stage.indifference_root(v, surv, a_hat)
        step = target - a_hat
        outer_res = float(np.max(np.abs(step)))
        wgt = _DAMPING if outer <= _APPROACH_ROUNDS else _POLISH_DAMPING
        a_hat = np.clip(a_hat + wgt * step, 0.0, _A_CAP)
        if outer > total_rounds - _AVG_WINDOW:
            acc += a_hat
            n_acc += 1
        if outer_res < _TOL_OUTER:
            settled = True
            break

    if not settled:
        if outer_res > 0.5:
            raise OscillationError(
                f"conjecture loop still moving wholesale after {outer} rounds; "
                f"residual {outer_res:.2e}")
        if n_acc > 0:
            a_hat = acc / n_acc

    # final consistency pass: both values under the final conjecture; the
    # principal's does not depend on the agent's, so one pass of each coheres
    w, surv = principal_round(a_hat)
    v = stage.value(a_hat, surv)
    return DiscreteEquilibrium(p_star=float(inv_logit(z_c)), z_grid=z, p_grid=p,
                               a=a_hat, v=v, w=w,
                               outer_iters=outer, outer_residual=outer_res,
                               agent_solves=stage.solves, principal_solves=principal_solves)
