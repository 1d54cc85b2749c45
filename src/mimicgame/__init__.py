"""Numerical engine for a continuous-time termination game with a manipulable signal.

A principal watches a noisy performance signal and may terminate the
relationship when Poisson-arriving opportunities strike; a noninvestible
agent can pay a flow cost to mimic the investible type's signal drift.
This package computes the unique Markov equilibrium in closed form on the
agent side, solves the principal's free-boundary value function on a grid,
validates both against Monte Carlo simulation and an independent
discrete-time dynamic program, and runs the comparative-statics sweeps.
"""

__version__ = "0.1.0"

from .model import GameParams, Numerics, logit, inv_logit
from .model import termination_payoff, myopic_cutoffs, benchmark_values
from .model import lambda_tilde, transform_alternative_params
from .agent import (
    AgentSolution,
    REGIME_HUMP,
    REGIME_SEPARATING,
    SeparatingRegimeError,
    build_agent_solution,
    boundary_values,
    characteristic_roots,
    eval_agent,
    mixing_boundary_map_minus,
    mixing_boundary_map_plus,
    solve_r_star,
    solve_v_star,
)
from .principal import (
    Equilibrium,
    ValueCurve,
    best_reply_cutoff,
    solve_equilibrium,
    solve_value_given_cutoff,
)
from .simulate import SimConfig, SimReport, RefinementReport, dt_refinement, estimate_values, martingale_check, learning_diagnostic, simulate_path
from .oracle import DiscreteGame, DiscreteEquilibrium, discrete_equilibrium
from .analysis import EpShape, SweepRow, expected_performance, classify_ep_shape, sweep_psi, sweep_patience, lambda_one
