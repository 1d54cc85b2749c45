"""Principal's grid solver and the equilibrium fixed point.

The principal's value W(p) solves, between opportunities to stop,

    r2 W = 0.5 psi^2 (1 - a(p))^2 (p(1-p))^2 W'' + lam b (R(p) - W),

with b = 1 above her cutoff. On a clamped uniform belief grid the
diffusion coefficient dies at both ends, so the edge values are the exact
degenerate-state limits and the interior is one tridiagonal solve per
stopping policy. The equilibrium closes a fixed point on the cutoff: the
agent best-responds to a conjectured cutoff, the principal best-responds
to the induced policy, and bisection finds the consistent point.
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_banded

from .agent import AgentSolution, build_agent_solution, eval_agent, solve_r_star
from .model import GameParams, Numerics, logit, myopic_cutoffs, termination_payoff


class ConvergenceError(RuntimeError):
    """A solver loop exceeded its iteration budget."""


@dataclass(frozen=True)
class ValueCurve:
    """A quantity tabulated on a strictly increasing state grid."""

    states: np.ndarray
    values: np.ndarray
    meta: str = ""

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if s.ndim != 1 or s.shape != v.shape:
            raise ValueError("states and values must be matching 1-d arrays")
        if not np.all(np.diff(s) > 0.0):
            raise ValueError("states must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "values", v)

    def at(self, x):
        return np.interp(x, self.states, self.values)


@dataclass(frozen=True)
class Equilibrium:
    params: GameParams
    agent: AgentSolution
    p_star: float
    W: ValueCurve
    diagnostics: dict = field(default_factory=dict)


def _belief_grid(grid_n: int, p_min: float):
    return np.linspace(p_min, 1.0 - p_min, grid_n)


def _stop_fraction(pgrid, p_cut):
    """Cell-overlap weight of the stopping region: 1 above the cutoff, 0 below,
    fractional in the cell the cutoff crosses (keeps the interface second order)."""
    h = pgrid[1] - pgrid[0]
    return np.clip((pgrid + 0.5 * h - p_cut) / h, 0.0, 1.0)


def _solve_tridiag(a_grid, b_mask, pgrid, params: GameParams,
                   extra_rhs=None, dirichlet=None):
    """One linear solve of the stopping-policy ODE; Dirichlet edges.

    extra_rhs and dirichlet are testing seams: a manufactured forcing term
    and explicit edge values for order-of-accuracy studies.
    """
    n = pgrid.size
    h = pgrid[1] - pgrid[0]
    gamma = pgrid * (1.0 - pgrid)
    diff = 0.5 * params.psi**2 * (1.0 - a_grid) ** 2 * gamma**2 / h**2
    r_term = termination_payoff(pgrid, params)
    # The cell-overlap stop weight locates the cutoff inside its cell; that
    # is sound only where the diffusion spreads W over a cell before the
    # next opportunity (diff >= r2 + lam in grid units). At a nearly frozen
    # node a fractional weight would price it below the no-information
    # value lam R / (r2 + lam), so there the node stops iff p >= cutoff.
    b_mask = np.where(diff < params.r2 + params.lam, b_mask >= 0.5, b_mask)

    # the diffusion dies at the clamped edges, so the exact edge values are
    # the frozen-belief annuities under the policy's own stopping indicator
    # (+ 0.0: a continuing node where R < 0 is worth 0.0, not -0.0)
    def edge_value(b_edge, r_edge):
        return params.lam * b_edge * r_edge / (params.r2 + params.lam * b_edge) + 0.0

    w = np.empty(n)
    if dirichlet is None:
        w[0] = edge_value(b_mask[0], r_term[0])
        w[-1] = edge_value(b_mask[-1], r_term[-1])
    else:
        w[0], w[-1] = dirichlet

    # the edges are known, so only the n - 2 interior nodes are unknowns;
    # their couplings to the edges move to the right-hand side
    d = diff[1:-1]
    lam_b = params.lam * b_mask[1:-1]
    ab = np.zeros((3, n - 2))
    ab[0, 1:] = -d[:-1]
    ab[1] = params.r2 + lam_b + 2.0 * d
    ab[2, :-1] = -d[1:]
    rhs = lam_b * r_term[1:-1]
    if extra_rhs is not None:
        rhs += extra_rhs[1:-1]
    rhs[0] += d[0] * w[0]
    rhs[-1] += d[-1] * w[-1]
    w[1:-1] = solve_banded((1, 1), ab, rhs)
    return w


def solve_value_given_cutoff(agent: AgentSolution, p_cut: float, params: GameParams,
                             grid_n: int = Numerics.grid_n,
                             p_min: float = Numerics.p_min) -> ValueCurve:
    """Principal value on the belief grid for the policy "stop iff p >= p_cut"."""
    if not (0.0 < p_cut < 1.0):
        raise ValueError("p_cut must lie in (0, 1)")
    if grid_n < 201:
        raise ValueError("grid_n too small for a meaningful solve")
    pgrid = _belief_grid(grid_n, p_min)
    a_grid, _ = eval_agent(agent, logit(pgrid))
    w = _solve_tridiag(a_grid, _stop_fraction(pgrid, p_cut), pgrid, params)
    return ValueCurve(states=pgrid, values=w, meta="W")


def _crossing(pgrid, f):
    """First downward-to-upward zero crossing of f = R - W, linearly interpolated."""
    pos = np.nonzero(f > 0.0)[0]
    if pos.size == 0:
        return pgrid[-1]
    i = pos[0]
    if i == 0:
        return pgrid[0]
    t = f[i - 1] / (f[i - 1] - f[i])
    return pgrid[i - 1] + t * (pgrid[i] - pgrid[i - 1])


def best_reply_cutoff(agent: AgentSolution, params: GameParams,
                      grid_n: int = Numerics.grid_n, p_min: float = Numerics.p_min,
                      policy_maxit: int = Numerics.policy_maxit):
    """Principal's optimal cutoff against a fixed agent policy.

    Policy iteration on the stopping indicator: start from the myopic rule,
    alternate one tridiagonal solve with reassigning b = 1{R > W}, stop
    when the switch point moves by less than a thousandth of a grid cell.
    Where the diffusion nearly dies at the cutoff the crossing keeps
    wandering by rounding-level amounts, up to about 1e-4 of a cell on
    refined grids, so the stop scales with the cell. Returns (cutoff, W curve).
    """
    pgrid = _belief_grid(grid_n, p_min)
    a_grid, _ = eval_agent(agent, logit(pgrid))
    r_term = termination_payoff(pgrid, params)
    p_ss, p_h = myopic_cutoffs(params)
    tol = 1e-3 * (pgrid[1] - pgrid[0])

    cut = p_ss
    w = None
    for _ in range(policy_maxit):
        w = _solve_tridiag(a_grid, _stop_fraction(pgrid, cut), pgrid, params)
        new_cut = _crossing(pgrid, r_term - w)
        if abs(new_cut - cut) < tol:
            cut = new_cut
            break
        cut = new_cut
    else:
        raise ConvergenceError("stopping-policy iteration did not settle")
    cut = float(np.clip(cut, p_ss, p_h))
    return cut, ValueCurve(states=pgrid, values=w, meta="W")


def solve_equilibrium(params: GameParams, grid_n: int | None = None,
                      num: Numerics = Numerics()) -> Equilibrium:
    """Unique consistent cutoff p* and the induced solution objects.

    The map phi sends a conjectured cutoff to the principal's best reply
    against the agent's reaction; it is continuous and lands in
    [p**, p_H] (best_reply_cutoff clips it there), so g(p) = phi(p) - p
    is >= 0 at p** and <= 0 at p_H without evaluating either end, and
    bisection pins the unique fixed point. The agent's reaction to each
    conjecture is one closed-form shape re-anchored at the conjectured cutoff.
    """
    if grid_n is None:
        grid_n = num.grid_n
    p_ss, p_h = myopic_cutoffs(params)
    shape = build_agent_solution(params, logit(p_ss), num)

    def phi(p_conj):
        agent = replace(shape, z_star=logit(p_conj))
        cut, w = best_reply_cutoff(agent, params, grid_n, num.p_min, num.policy_maxit)
        return cut, agent, w

    lo, hi = p_ss, p_h
    iters = 0
    mid = 0.5 * (lo + hi)
    residual = np.inf
    for iters in range(1, 64):
        mid = 0.5 * (lo + hi)
        reply, agent, w = phi(mid)
        residual = reply - mid
        if abs(residual) < 0.25 * num.fp_tol or (hi - lo) < 1e-10:
            break
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
    if abs(residual) >= num.fp_tol:
        raise ConvergenceError(
            f"fixed point stalled: |phi(p*) - p*| = {abs(residual):.3e} after {iters} bisections")

    diag = {
        "iterations": iters,
        "residual": float(abs(residual)),
        "r_star": solve_r_star(params, num),
        "grid_n": grid_n,
        "p_min": num.p_min,
    }
    return Equilibrium(params=params, agent=agent, p_star=float(mid), W=w, diagnostics=diag)
