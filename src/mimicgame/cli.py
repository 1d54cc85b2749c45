"""Command-line surface: config ingestion, orchestration, stable outputs.

Commands: solve | simulate | sweep-psi | sweep-patience | ep | oracle-check.
Configs are JSON with top-level keys "params" (the eight primitives),
"numerics", and an optional "command" block of command-specific settings.
Outputs are CSV (17 significant digits, '.' decimal, '\n' endings, '#'
header lines carrying the resolved config) and JSON (sorted keys), byte
identical across runs for a fixed config and seed.

Exit codes: 0 success, 1 config/validation error, 2 solver non-convergence
or a failed oracle check.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .agent import SeparatingRegimeError, eval_agent, raw_coefficients
from .analysis import classify_ep_shape, expected_performance, sweep_patience, sweep_psi
from .model import GameParams, Numerics, inv_logit, logit, myopic_cutoffs
from .oracle import DiscreteGame, OscillationError, discrete_equilibrium
from .principal import ConvergenceError, solve_equilibrium
from .simulate import SimConfig, estimate_values

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER = 0, 1, 2

_PARAM_KEYS = {"r1", "r2", "lambda", "lam", "psi", "u", "c", "w_NI", "w_I"}
_NUMERICS_KEYS = {f.name for f in dataclasses.fields(Numerics)}
_COMMAND_KEYS = {
    "solve": {"name"},
    "simulate": {"name", "p0", "n_paths", "seed", "dt", "horizon", "z_cap",
                 "t_probe", "eps", "interval"},
    "sweep-psi": {"name", "psi_list", "probe_p"},
    "sweep-patience": {"name", "scale_list", "chi", "probes"},
    "ep": {"name", "ep_grid_n"},
    "oracle-check": {"name", "delta", "z_max", "p_star_tol", "value_tol"},
}


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.17g}"
    return str(x)


def load_config(path: str, overrides=(), command: str | None = None):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"params", "numerics", "command"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        try:
            val = json.loads(val)
        except json.JSONDecodeError:
            pass  # keep raw string
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = val

    pblock = dict(raw.get("params", {}))
    unknown = set(pblock) - _PARAM_KEYS
    if unknown:
        raise ConfigError(f"unknown params keys: {sorted(unknown)}")
    if "lambda" in pblock:
        pblock["lam"] = pblock.pop("lambda")
    try:
        params = GameParams(**pblock)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params block: {exc}") from exc

    nblock = dict(raw.get("numerics", {}))
    unknown = set(nblock) - _NUMERICS_KEYS
    if unknown:
        raise ConfigError(f"unknown numerics keys: {sorted(unknown)}")
    try:
        numerics = Numerics(**nblock)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numerics block: {exc}") from exc

    cblock = dict(raw.get("command", {}))
    if command is not None and cblock:
        name = cblock.get("name", command)
        if name != command:
            raise ConfigError(f"config command block is for {name!r}, invoked {command!r}")
        allowed = _COMMAND_KEYS[command]
        unknown = set(cblock) - allowed
        if unknown:
            raise ConfigError(f"unknown command keys for {command}: {sorted(unknown)}")
    return params, numerics, cblock


def resolved_config(params: GameParams, numerics: Numerics, cblock: dict) -> dict:
    pd = dataclasses.asdict(params)
    pd["lambda"] = pd.pop("lam")
    return {"params": pd, "numerics": dataclasses.asdict(numerics), "command": cblock}


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_csv(path: Path, header_cfg: dict, columns: list[str], rows):
    lines = [f"# mimicgame {__version__}", f"# config: {_canon_json(header_cfg)}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, header_cfg: dict, payload: dict):
    doc = {"tool": "mimicgame", "version": __version__, "config": header_cfg}
    doc.update(payload)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _cmd_solve(params, numerics, cblock, out: Path, args):
    eq = solve_equilibrium(params, num=numerics)
    cfg = resolved_config(params, numerics, {"name": "solve"})
    agent = eq.agent
    pgrid = eq.W.states
    a_curve, v_curve = eval_agent(agent, logit(pgrid))
    p_ss, p_h = myopic_cutoffs(params)
    payload = {
        "p_star": eq.p_star,
        "z_star": agent.z_star,
        "regime": agent.regime,
        "r_star": agent.r_star,
        "v_star": agent.v_star,
        "p_L": None if math.isnan(agent.z_L) else inv_logit(agent.z_L),
        "p_R": None if math.isnan(agent.z_R) else inv_logit(agent.z_R),
        "v_L": agent.v_L,
        "v_R": agent.v_R,
        "a_peak": agent.a_peak,
        "p_star_star": p_ss,
        "p_H": p_h,
        "coefficients": {
            **raw_coefficients(agent),
            "xi_L": agent.xi_L, "xi_L_prime": agent.xi_L_prime,
            "xi_R": agent.xi_R, "xi_R_prime": agent.xi_R_prime,
            "kappa_L": agent.kappa_L, "kappa_R": agent.kappa_R,
        },
        "diagnostics": eq.diagnostics,
    }
    write_json(out / "equilibrium.json", cfg, payload)
    write_csv(out / "curve_a.csv", cfg, ["p", "a"], zip(pgrid, a_curve))
    write_csv(out / "curve_v.csv", cfg, ["p", "v"], zip(pgrid, v_curve))
    write_csv(out / "curve_W.csv", cfg, ["p", "W"], zip(pgrid, eq.W.values))
    print(f"solve: p* = {eq.p_star:.6f} ({agent.regime}); outputs in {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(params, numerics, cblock, out: Path, args):
    eq = solve_equilibrium(params, num=numerics)
    seed = args.seed if args.seed is not None else cblock.get("seed", numerics.mc_seed)
    sim = SimConfig(
        p0=cblock.get("p0", 0.3),
        n_paths=cblock.get("n_paths", numerics.mc_paths),
        seed=seed,
        dt=cblock.get("dt"),
        horizon=cblock.get("horizon"),
        z_cap=cblock.get("z_cap", 12.0),
        t_probe=cblock.get("t_probe", 1.0),
        batch=numerics.mc_batch,
    ).resolve(params)
    eps = cblock.get("eps", 0.1)
    interval = tuple(cblock.get("interval", (0.05, 0.95)))
    rep = estimate_values(eq, sim, num=numerics, eps=eps, interval=interval)
    cfg = resolved_config(params, numerics, {
        "name": "simulate", "p0": sim.p0, "n_paths": sim.n_paths, "seed": seed,
        "dt": sim.dt, "horizon": sim.horizon, "z_cap": sim.z_cap, "t_probe": sim.t_probe,
        "eps": eps, "interval": list(interval),
    })
    _, v_cf = eval_agent(eq.agent, logit(sim.p0))
    payload = {"report": dataclasses.asdict(rep),
               "closed_form": {"v": float(v_cf), "W": float(eq.W.at(sim.p0)),
                               "p_star": eq.p_star}}
    write_json(out / "sim_report.json", cfg, payload)
    print(f"simulate: agent {rep.agent_value_mean:.5f}+-{rep.agent_value_se:.5f}, "
          f"principal {rep.principal_value_mean:.5f}+-{rep.principal_value_se:.5f}; "
          f"outputs in {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep_psi(params, numerics, cblock, out: Path, args):
    psi_list = cblock.get("psi_list", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    probe_p = cblock.get("probe_p", 0.3)
    rows = sweep_psi(params, psi_list, probe_p=probe_p, num=numerics)
    cfg = resolved_config(params, numerics,
                          {"name": "sweep-psi", "psi_list": list(psi_list), "probe_p": probe_p})
    write_csv(out / "sweep_psi.csv", cfg,
              ["psi", "p_star", "W_probe", "gap_under", "gap_over", "a_at_pstar", "error"],
              [(r.value, r.p_star, r.w_probe, r.gap_under, r.gap_over, r.a_at_pstar,
                r.error or "") for r in rows])
    bad = [r for r in rows if r.error]
    print(f"sweep-psi: {len(rows)} rows, {len(bad)} failed; outputs in {out}", file=sys.stderr)
    return EXIT_SOLVER if len(bad) == len(rows) else EXIT_OK


def _cmd_sweep_patience(params, numerics, cblock, out: Path, args):
    scale_list = cblock.get("scale_list", [1.0, 0.3, 0.1, 0.03])
    chi = cblock.get("chi", 1.0)
    probes = cblock.get("probes")
    rows = sweep_patience(params, scale_list, chi=chi, probes=probes, num=numerics)
    cfg = resolved_config(params, numerics, {
        "name": "sweep-patience", "scale_list": list(scale_list), "chi": chi,
        "probes": list(probes) if probes else None,
    })
    write_csv(out / "sweep_patience.csv", cfg,
              ["scale", "p_star", "sup_dist_stop_value", "v_below", "v_above",
               "a_at_pstar", "warning", "error"],
              [(r.value, r.p_star, r.sup_dist_stop_value, r.v_below, r.v_above,
                r.a_at_pstar, r.warning or "", r.error or "") for r in rows])
    bad = [r for r in rows if r.error]
    print(f"sweep-patience: {len(rows)} rows, {len(bad)} failed; outputs in {out}",
          file=sys.stderr)
    return EXIT_SOLVER if len(bad) == len(rows) else EXIT_OK


def _cmd_ep(params, numerics, cblock, out: Path, args):
    eq = solve_equilibrium(params, num=numerics)
    shape = classify_ep_shape(eq, num=numerics)
    n = cblock.get("ep_grid_n", 2001)
    pgrid = np.linspace(numerics.p_min, 1.0 - numerics.p_min, n)
    ep = expected_performance(eq, pgrid)
    cfg = resolved_config(params, numerics, {"name": "ep", "ep_grid_n": n})
    write_json(out / "ep_shape.json", cfg, {
        "classification": shape.classification,
        "criterion_value": shape.criterion_value,
        "p_underline": shape.p_underline,
        "p_peak": shape.p_peak,
        "p_star": eq.p_star,
    })
    write_csv(out / "ep_curve.csv", cfg, ["p", "EP"], zip(pgrid, ep))
    print(f"ep: {shape.classification}; outputs in {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle_check(params, numerics, cblock, out: Path, args):
    delta = args.delta or cblock.get("delta", 1e-3)
    z_max = cblock.get("z_max", 10.0)
    p_star_tol = cblock.get("p_star_tol", 0.02)
    value_tol = cblock.get("value_tol", 0.02)
    eq = solve_equilibrium(params, num=numerics)
    dg = DiscreteGame(delta=delta, z_max=z_max)
    de = discrete_equilibrium(params, dg)

    keep = np.abs(de.z_grid) <= logit(1.0 - numerics.p_min)
    zk = de.z_grid[keep]
    a_cf, v_cf = eval_agent(eq.agent, zk)
    w_cf = eq.W.at(de.p_grid[keep])
    v_scale = params.u + params.c
    gap_v = float(np.max(np.abs(de.v[keep] - v_cf))) / v_scale
    gap_w = float(np.max(np.abs(de.w[keep] - w_cf))) / params.w_NI
    gap_a = float(np.max(np.abs(de.a[keep] - a_cf)))
    gap_p = abs(de.p_star - eq.p_star)
    ok = gap_p <= p_star_tol and gap_v <= value_tol and gap_w <= value_tol

    cfg = resolved_config(params, numerics, {
        "name": "oracle-check", "delta": delta, "z_max": z_max,
        "p_star_tol": p_star_tol, "value_tol": value_tol,
    })
    write_json(out / "oracle_report.json", cfg, {
        "p_star_closed_form": eq.p_star,
        "p_star_discrete": de.p_star,
        "gap_p_star": gap_p,
        "gap_v_rel": gap_v,
        "gap_w_rel": gap_w,
        "gap_a_sup": gap_a,
        "outer_iters": de.outer_iters,
        "agent_solves": de.agent_solves,
        "principal_solves": de.principal_solves,
        "passed": bool(ok),
    })
    print(f"oracle-check: |dp*|={gap_p:.4f} v-gap={gap_v:.4f} W-gap={gap_w:.4f} "
          f"{'PASS' if ok else 'FAIL'}; outputs in {out}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_SOLVER


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "sweep-psi": _cmd_sweep_psi,
    "sweep-patience": _cmd_sweep_patience,
    "ep": _cmd_ep,
    "oracle-check": _cmd_oracle_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mimicgame",
        description="Equilibrium engine for the manipulable-signal termination game")
    parser.add_argument("--version", action="version", version=f"mimicgame {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (dotted path, repeatable)")
        sp.add_argument("--grid", type=int, default=None)
        if name == "simulate":
            sp.add_argument("--seed", type=int, default=None)
        if name == "oracle-check":
            sp.add_argument("--delta", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params, numerics, cblock = load_config(args.config, args.set, command=args.cmd)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.grid is not None:    # every command solves on, and records, this grid
        numerics = dataclasses.replace(numerics, grid_n=args.grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.cmd](params, numerics, cblock, out, args)
    except (ConvergenceError, OscillationError, SeparatingRegimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
