"""Game primitives, elementary transforms, and benchmark value functions."""

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class GameParams:
    """The eight model primitives.

    r1, r2      discount rates of agent and principal (1/time)
    lam         Poisson arrival rate of termination opportunities (1/time)
    psi         signal-to-noise ratio mu/sigma (dimensionless)
    u           agent flow payoff while mimicking (utility/time)
    c           flow cost of mimicking (utility/time)
    w_NI        principal lump sum for stopping a noninvestible agent (> 0)
    w_I         principal lump sum for stopping an investible agent (< 0)
    """

    r1: float
    r2: float
    lam: float
    psi: float
    u: float
    c: float
    w_NI: float
    w_I: float

    def __post_init__(self):
        for name in ("r1", "r2", "lam", "psi", "u", "c", "w_NI"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not self.w_I < 0.0:
            raise ValueError("w_I must be strictly negative")
        p_ss = -self.w_I / (self.w_NI - self.w_I)
        p_h = (self.lam / (self.r2 + self.lam) * self.w_NI - self.w_I) / (self.w_NI - self.w_I)
        if not (0.0 < p_ss < p_h < 1.0):
            raise ValueError("implied cutoffs must satisfy 0 < p** < p_H < 1")

    def with_(self, **kw) -> "GameParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class Numerics:
    """Single source of truth for tolerances and grid defaults."""

    root_tol: float = 1e-12        # residual target of the scalar ITP roots, times their scale
    root_maxit: int = 200          # cap on the evaluations of one scalar root
    grid_n: int = 4001             # principal ODE grid points
    p_min: float = 1e-4            # belief clamp; grids live in [p_min, 1-p_min]
    fp_tol: float = 1e-5           # |phi(p*) - p*| at the equilibrium fixed point
    policy_maxit: int = 100
    mc_paths: int = 100_000
    mc_seed: int = 12345
    mc_batch: int = 4096
    z_table_step: float = 1e-3     # spacing of the tabulated policy fed to kernels


def logit(p):
    """z = log(p / (1-p)), elementwise."""
    p = np.asarray(p, dtype=float)
    out = np.log(p) - np.log1p(-p)
    return float(out) if out.ndim == 0 else out


def inv_logit(z):
    """p = 1 / (1 + exp(-z)), overflow-safe on both sides."""
    z = np.asarray(z, dtype=float)
    out = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                   np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    return float(out) if out.ndim == 0 else out


def termination_payoff(p, params: GameParams):
    """Expected lump sum from stopping at belief p: p*w_NI + (1-p)*w_I."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("belief outside [0, 1]")
    out = p * params.w_NI + (1.0 - p) * params.w_I
    return float(out) if out.ndim == 0 else out


def myopic_cutoffs(params: GameParams):
    """(p**, p_H): where stopping breaks even, and where waiting cannot win.

    p** is the zero of the termination payoff; p_H is where the payoff
    reaches the best conceivable waiting value lam/(r2+lam) * w_NI.
    """
    span = params.w_NI - params.w_I
    p_ss = -params.w_I / span
    p_h = (params.lam / (params.r2 + params.lam) * params.w_NI - params.w_I) / span
    return p_ss, p_h


def benchmark_values(p, params: GameParams):
    """(no-information value, full-information value) at belief p."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("belief outside [0, 1]")
    scale = params.lam / (params.r2 + params.lam)
    w_under = scale * np.maximum(0.0, p * params.w_NI + (1.0 - p) * params.w_I)
    w_over = scale * p * params.w_NI
    if w_under.ndim == 0:
        return float(w_under), float(w_over)
    return w_under, w_over


def lambda_tilde(params: GameParams) -> float:
    """Friction threshold r1*c/u separating the two transparency regimes."""
    return params.r1 * params.c / params.u


def transform_alternative_params(b: float, delta: float, pi_I: float,
                                 u_hat: float, c_hat: float, lambda_hat: float,
                                 r1_hat: float, r2_hat: float,
                                 psi_hat: float = 1.0) -> GameParams:
    """Map the flow-cost / revealing-event formulation into the eight primitives.

    The relationship costs the principal a flow b > 0; a revealing event
    arrives at rate delta and pays pi_I if the agent is investible. The
    equivalent reduced form augments both discount rates by delta and sets

        w_I  = (r2_hat*b - delta*pi_I) / (r2_hat + delta)
        w_NI = r2_hat*b / (r2_hat + delta)

    The signal process is untouched by the transformation, so psi_hat
    passes straight through. Raises ValueError("reward too small") when
    pi_I <= (r2_hat/delta)*b, which would make w_I nonnegative.
    """
    for name, val in (("b", b), ("delta", delta), ("pi_I", pi_I), ("u_hat", u_hat),
                      ("c_hat", c_hat), ("lambda_hat", lambda_hat),
                      ("r1_hat", r1_hat), ("r2_hat", r2_hat), ("psi_hat", psi_hat)):
        if not val > 0.0:
            raise ValueError(f"{name} must be strictly positive")
    if pi_I <= (r2_hat / delta) * b:
        raise ValueError("reward too small: need pi_I > (r2_hat/delta)*b")
    w_I = (r2_hat * b - delta * pi_I) / (r2_hat + delta)
    w_NI = r2_hat * b / (r2_hat + delta)
    return GameParams(r1=r1_hat + delta, r2=r2_hat + delta, lam=lambda_hat,
                      psi=psi_hat, u=u_hat, c=c_hat, w_NI=w_NI, w_I=w_I)
