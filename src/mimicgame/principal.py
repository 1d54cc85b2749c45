"""Principal's grid solver and the equilibrium fixed point.

The principal's value W(p) solves, between opportunities to stop,

    r2 W = 0.5 psi^2 (1 - a(p))^2 (p(1-p))^2 W'' + lam b (R(p) - W),

with b = 1 above her cutoff. On a clamped uniform belief grid the
diffusion coefficient dies at both ends, so the edge values are the exact
degenerate-state limits and the interior is one tridiagonal solve per
stopping policy; the policy-independent part of that system is built once
per agent policy. The equilibrium closes a fixed point on the cutoff: the
agent best-responds to a conjectured cutoff, the principal best-responds
to the induced policy, and a bracketed ITP root finder (roots.py) finds
the consistent point.
"""

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_banded

from .agent import AgentSolution, build_agent_solution, eval_agent, solve_r_star
from .model import GameParams, Numerics, logit, myopic_cutoffs, termination_payoff
from .roots import itp_root


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


class _PolicySystem:
    """The stopping-policy ODE on a belief grid, built for one agent policy.

    The diffusion, R, the nodes that stop sharply, the off-diagonals and
    the edge couplings depend on the agent's policy and the grid but not
    on the principal's stopping weights, so they are built once; each
    solve writes only the diagonal and the right-hand side.
    """

    def __init__(self, a_grid, pgrid, params: GameParams):
        h = pgrid[1] - pgrid[0]
        gamma = pgrid * (1.0 - pgrid)
        diff = 0.5 * params.psi**2 * (1.0 - a_grid) ** 2 * gamma**2 / h**2
        self.params = params
        self.r_term = termination_payoff(pgrid, params)
        # The cell-overlap stop weight locates the cutoff inside its cell;
        # that is sound only where the diffusion spreads W over a cell
        # before the next opportunity (diff >= r2 + lam in grid units). At a
        # nearly frozen node a fractional weight would price it below the
        # no-information value lam R / (r2 + lam), so there the node stops
        # iff p >= cutoff.
        self.sharp = diff < params.r2 + params.lam
        # the edges are known, so only the n - 2 interior nodes are unknowns;
        # their couplings to the edges move to the right-hand side
        self.d = diff[1:-1]
        self.two_d = 2.0 * self.d
        self.ab = np.zeros((3, pgrid.size - 2))
        self.ab[0, 1:] = -self.d[:-1]
        self.ab[2, :-1] = -self.d[1:]

    def solve(self, b_mask, extra_rhs=None, dirichlet=None):
        """W under the stop weights b_mask, with Dirichlet edges."""
        par, r_term, d = self.params, self.r_term, self.d
        b_mask = np.where(self.sharp, b_mask >= 0.5, b_mask)

        # the diffusion dies at the clamped edges, so the exact edge values
        # are the frozen-belief annuities under the policy's own stopping
        # indicator (+ 0.0: a continuing node where R < 0 is worth 0.0, not -0.0)
        def edge_value(b_edge, r_edge):
            return par.lam * b_edge * r_edge / (par.r2 + par.lam * b_edge) + 0.0

        w = np.empty(r_term.size)
        if dirichlet is None:
            w[0] = edge_value(b_mask[0], r_term[0])
            w[-1] = edge_value(b_mask[-1], r_term[-1])
        else:
            w[0], w[-1] = dirichlet

        lam_b = par.lam * b_mask[1:-1]
        self.ab[1] = par.r2 + lam_b + self.two_d
        rhs = lam_b * r_term[1:-1]
        if extra_rhs is not None:
            rhs += extra_rhs[1:-1]
        rhs[0] += d[0] * w[0]
        rhs[-1] += d[-1] * w[-1]
        w[1:-1] = solve_banded((1, 1), self.ab, rhs, overwrite_b=True, check_finite=False)
        return w


def _solve_tridiag(a_grid, b_mask, pgrid, params: GameParams,
                   extra_rhs=None, dirichlet=None):
    """One linear solve of the stopping-policy ODE; Dirichlet edges.

    extra_rhs and dirichlet are testing seams: a manufactured forcing term
    and explicit edge values for order-of-accuracy studies.
    """
    return _PolicySystem(a_grid, pgrid, params).solve(b_mask, extra_rhs, dirichlet)


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
                      policy_maxit: int = Numerics.policy_maxit,
                      start: float | None = None, work: Counter | None = None):
    """Principal's optimal cutoff against a fixed agent policy.

    Policy iteration on the stopping indicator: start from the myopic rule
    (or from the cutoff start), alternate one tridiagonal solve with
    reassigning b = 1{R > W}, stop when the switch point moves by less than
    a thousandth of a grid cell. Where the diffusion nearly dies at the
    cutoff the crossing keeps wandering by rounding-level amounts, up to
    about 1e-4 of a cell on refined grids, so the stop scales with the
    cell. The system's policy-independent part is built once. Adds the
    solves made to work["linear_solves"] when work is given. Returns
    (cutoff, W curve).
    """
    pgrid = _belief_grid(grid_n, p_min)
    a_grid, _ = eval_agent(agent, logit(pgrid))
    system = _PolicySystem(a_grid, pgrid, params)
    p_ss, p_h = myopic_cutoffs(params)
    tol = 1e-3 * (pgrid[1] - pgrid[0])

    cut = p_ss if start is None else start
    for solves in range(1, policy_maxit + 1):
        w = system.solve(_stop_fraction(pgrid, cut))
        new_cut = _crossing(pgrid, system.r_term - w)
        moved = abs(new_cut - cut)
        cut = new_cut
        if moved < tol:
            break
    else:
        raise ConvergenceError("stopping-policy iteration did not settle")
    if work is not None:
        work["linear_solves"] += solves
    cut = float(np.clip(cut, p_ss, p_h))
    return cut, ValueCurve(states=pgrid, values=w, meta="W")


def solve_equilibrium(params: GameParams, grid_n: int | None = None,
                      num: Numerics = Numerics()) -> Equilibrium:
    """Unique consistent cutoff p* and the induced solution objects.

    The map phi sends a conjectured cutoff to the principal's best reply
    against the agent's reaction; it is continuous and lands in
    [p**, p_H] (best_reply_cutoff clips it there), so g(p) = phi(p) - p
    is >= 0 at p** and <= 0 at p_H without evaluating either end. The ITP
    root finder pins the unique fixed point: it bisects until both ends of
    its bracket hold a value of g, then takes ITP steps, and stops at
    |g| < fp_tol / 4 or a bracket of 1e-10. Each best reply starts its
    policy iteration from the reply before it. The agent's reaction to
    each conjecture is one closed-form shape re-anchored at the
    conjectured cutoff. diagnostics counts the phi calls ("iterations")
    and the tridiagonal solves ("linear_solves").
    """
    if grid_n is None:
        grid_n = num.grid_n
    p_ss, p_h = myopic_cutoffs(params)
    shape = build_agent_solution(params, logit(p_ss), num)
    work = Counter(linear_solves=0)
    reply = (p_ss, None, None)     # cutoff, agent and W of the latest phi call

    def g(p_conj):
        nonlocal reply
        agent = replace(shape, z_star=logit(p_conj))
        cut, w = best_reply_cutoff(agent, params, grid_n, num.p_min, num.policy_maxit,
                                   start=reply[0], work=work)
        reply = (cut, agent, w)
        return cut - p_conj

    # stop at |g| < fp_tol / 4, or once the bracket is at most 1e-10 wide
    p_star, residual, iters = itp_root(g, p_ss, p_h, math.inf, -math.inf, eps=5e-11,
                                       ftol=0.25 * num.fp_tol)
    if abs(residual) >= num.fp_tol:
        raise ConvergenceError(
            f"fixed point stalled: |phi(p*) - p*| = {abs(residual):.3e} after {iters} phi calls")

    diag = {
        "iterations": iters,
        "linear_solves": work["linear_solves"],
        "residual": float(abs(residual)),
        "r_star": solve_r_star(params, num),
        "grid_n": grid_n,
        "p_min": num.p_min,
    }
    _, agent, w = reply
    return Equilibrium(params=params, agent=agent, p_star=p_star, W=w, diagnostics=diag)
