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

  1. agent value iteration over the endpoint actions, given the
     conjecture and the stopping rule (the period objective is linear in
     the action, so endpoint evaluation is exact);
  2. principal policy iteration on the stopping indicator;
  3. a conjecture update toward the pointwise indifference root: at each
     state, the mimicking probability at which the agent is exactly
     indifferent between the endpoint actions given the current value
     function. Full mimicking freezes the belief and destroys its own
     benefit, so the root is interior wherever mixing is sustainable.

Both value loops are plain value iteration on a fixed linear operator:
the transition matrix of the period game's Markov-chain approximation.
Row i of it reads the next value at the two jump targets from i by linear
interpolation, so it holds four weights, and the discount, the
survival or continuation probability and the signal's 1/2 odds are folded
into them. Each inner solve builds its operator once as a sparse CSR
matrix: the agent's stacks one n-row block per endpoint action (2n x n),
the principal's is n x n for each stopping policy. A sweep is then one
compiled product op @ x plus the period flow, a pointwise max over the
agent's two blocks, and a sup-norm test on the step.

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

from .model import GameParams, inv_logit, termination_payoff


class OscillationError(RuntimeError):
    """The damped conjecture iteration failed to settle."""


# Fixed controls of the conjecture loop and its inner solves.
_DZ_PER_DELTA = 1.0      # grid spacing as a multiple of psi * delta
_DAMPING = 0.5           # conjecture step weight in the approach phase
_POLISH_DAMPING = 0.12
_APPROACH_ROUNDS = 40
_POLISH_ROUNDS = 200
_AVG_WINDOW = 100        # trailing rounds averaged into the final conjecture
_TOL_INNER = 1e-8        # sup-norm stop for both value loops
_TOL_OUTER = 1e-5        # early-exit test on the conjecture movement
_VI_MAXIT = 400_000
_A_CAP = 1.0 - 1e-6
_ROOT_ITERS = 48         # bisection depth for the indifference root


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
    agent_sweeps: int            # value-iteration sweeps of the agent, over the run
    principal_sweeps: int        # value-evaluation sweeps of the principal, over the run


def _gather_weights(zq, z0, dz, n):
    """(index, fraction) of each query under linear interpolation, edge-clamped."""
    pos = (zq - z0) / dz
    pos = np.clip(pos, 0.0, n - 1.0)
    idx = np.minimum(pos.astype(np.int64), n - 2)
    frac = pos - idx
    return idx, frac


def _transition(t_up, t_dn, scale, z0, dz, n):
    """CSR operator of one period: row k maps x to scale[k] * E[x(next)].

    The expectation is 0.5 * (x(t_up[k]) + x(t_dn[k])), each read by
    edge-clamped linear interpolation on the grid of n nodes; a row's four
    weights may share columns, which the product sums.
    """
    # imported on first use: the commands that never run the oracle then
    # do not pay for scipy.sparse at start-up
    from scipy import sparse

    iu, fu = _gather_weights(t_up, z0, dz, n)
    idn, fd = _gather_weights(t_dn, z0, dz, n)
    half = 0.5 * scale
    data = np.stack([half * (1.0 - fu), half * fu, half * (1.0 - fd), half * fd], axis=1)
    cols = np.stack([iu, iu + 1, idn, idn + 1], axis=1)
    rows = t_up.size
    return sparse.csr_array((data.ravel(), cols.ravel(), np.arange(0, 4 * rows + 1, 4)),
                            shape=(rows, n))


def _sweep(x, op, const, tol, maxit):
    """Value iteration x <- op @ x + const, in place.

    op has one block of x.size rows, or two (one per endpoint action of the
    agent), which the sweep maximizes over pointwise. Stops once the
    sup-norm step is below tol; returns the sweep count, or -maxit when the
    budget runs out.
    """
    n = x.size
    for it in range(maxit):
        y = op @ x
        y += const
        xn = np.maximum(y[:n], y[n:]) if y.size > n else y
        diff = np.abs(xn - x).max()
        x[:] = xn
        if diff < tol:
            return it + 1
    return -maxit


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
    """Transitions and indifference roots for one parameter set."""

    def __init__(self, params: GameParams, delta: float, z, dz):
        self.z = z
        self.dz = dz
        self.n = z.size
        self.psi = params.psi
        self.delta = delta
        self.sd = params.psi * math.sqrt(delta)
        self.g1 = math.exp(-params.r1 * delta)
        # period flows of the endpoint actions, one block of the stacked operator each
        self.flows = np.repeat([(1.0 - self.g1) * (params.u + params.c),
                                (1.0 - self.g1) * params.u], self.n)
        self.cost = (1.0 - self.g1) * params.c

    def _targets(self, a_hat):
        one_m = 1.0 - a_hat
        z, psi, delta, sd = self.z, self.psi, self.delta, self.sd
        drift0 = psi**2 * one_m * (1.0 - 0.5 * one_m) * delta
        drift1 = psi**2 * one_m * (-0.5 * one_m) * delta
        return (z + drift0 + sd * one_m, z + drift0 - sd * one_m,
                z + drift1 + sd * one_m, z + drift1 - sd * one_m)

    def value_iterate(self, v, a_hat, surv):
        """Agent value iteration in place; returns the sweep count (negative if exhausted)."""
        t0u, t0d, t1u, t1d = self._targets(a_hat)
        scale = self.g1 * surv
        op = _transition(np.concatenate([t0u, t1u]), np.concatenate([t0d, t1d]),
                         np.concatenate([scale, scale]), self.z[0], self.dz, self.n)
        return _sweep(v, op, self.flows, _TOL_INNER, _VI_MAXIT)

    def _mimic_gain(self, v, surv, a):
        """Period gain from mimicking minus its cost, when conjectured at a."""
        i, f = _gather_weights(np.concatenate(self._targets(a)), self.z[0], self.dz, self.n)
        x0u, x0d, x1u, x1d = (v[i] * (1.0 - f) + v[i + 1] * f).reshape(4, self.n)
        e0 = 0.5 * (x0u + x0d)
        e1 = 0.5 * (x1u + x1d)
        return -self.cost + self.g1 * surv * (e1 - e0)

    def indifference_root(self, v, surv):
        """Conjecture making the agent indifferent, zero where unsustainable."""
        lo = np.zeros(self.n)
        hi = np.full(self.n, _A_CAP)
        active = self._mimic_gain(v, surv, lo) > 0.0
        for _ in range(_ROOT_ITERS):
            mid = 0.5 * (lo + hi)
            up = self._mimic_gain(v, surv, mid) > 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        root = 0.5 * (lo + hi)
        return np.where(active, root, 0.0)


def discrete_equilibrium(params: GameParams, dg: DiscreteGame = DiscreteGame(),
                         init_a: np.ndarray | float | None = None) -> DiscreteEquilibrium:
    """Fixed point of the period game; independent of the closed form.

    init_a is the initial conjecture, a scalar or one value per grid node
    (zero by default); a start that does not broadcast to the grid or is
    not finite raises ValueError. Raises OscillationError if the round
    budget is exhausted or the conjecture is still moving wholesale when
    the phases end.
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
    v = np.zeros(n)
    w = np.zeros(n)
    b = reward > 0.0
    acc = np.zeros(n)
    n_acc = 0
    agent_sweeps = principal_sweeps = 0

    def agent_round(a_used):
        nonlocal agent_sweeps
        it_a = stage.value_iterate(v, a_used, 1.0 - p_arrive * b.astype(float))
        if it_a < 0:
            raise OscillationError("agent value iteration exhausted its sweep budget")
        agent_sweeps += it_a

    def principal_round(a_used):
        nonlocal b, principal_sweeps
        one_m = 1.0 - a_used
        driftw = psi**2 * one_m**2 * (p - 0.5) * delta
        t_up = z + driftw + sd * one_m
        t_dn = z + driftw - sd * one_m
        for _ in range(100):
            stop_prob = p_arrive * b.astype(float)
            op = _transition(t_up, t_dn, (1.0 - stop_prob) * g2, z[0], dz, n)
            it_w = _sweep(w, op, stop_prob * reward, _TOL_INNER, _VI_MAXIT)
            if it_w < 0:
                raise OscillationError("principal value evaluation exhausted its budget")
            principal_sweeps += it_w
            b_new = reward > w
            if np.array_equal(b_new, b):
                return
            b = b_new
        raise OscillationError("stopping-policy iteration did not settle")

    total_rounds = _APPROACH_ROUNDS + _POLISH_ROUNDS
    outer_res = math.inf
    outer = 0
    settled = False
    for outer in range(1, total_rounds + 1):
        agent_round(a_hat)
        principal_round(a_hat)
        surv = 1.0 - p_arrive * b.astype(float)
        target = stage.indifference_root(v, surv)
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

    # final consistency pass: re-solve both values under the final conjecture
    # until the stopping mask stops moving, so the returned objects cohere
    for _ in range(25):
        agent_round(a_hat)
        b_before = b.copy()
        principal_round(a_hat)
        if np.array_equal(b, b_before):
            break
    else:
        raise OscillationError("final stopping mask failed to stabilize")

    z_cut = _cutoff_from_w(z, reward, w)
    return DiscreteEquilibrium(p_star=float(inv_logit(z_cut)), z_grid=z, p_grid=p,
                               a=a_hat, v=v.copy(), w=w.copy(),
                               outer_iters=outer, outer_residual=outer_res,
                               agent_sweeps=agent_sweeps, principal_sweeps=principal_sweeps)
