"""Benchmark of the mimicgame package: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve-ladder --seed 1 --seconds 10 --trace 0

Workloads (perfbench/README.md says why each exists):

    solve-ladder  cli.main for solve and ep on fig1, sweep-psi on both psi
                  configs and sweep-patience, one pass per round
    mc-fig1       estimate_values (no diagnostic), learning_diagnostic and
                  dt_refinement at the fig1 equilibrium, p0 = 0.3
    oracle-fig1   discrete_equilibrium on fig1 at delta = 1e-2

A run sets its inputs up several times, then repeats whole rounds of its
operations until --seconds have passed, checks the outputs, and prints one
JSON object as its last line: correct, attempted, failed and the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1). A traced run
alternates untraced and traced rounds: the per-layer numbers come from the
traced rounds and trace.overhead_pct compares the two kinds. Every run also
prints its environment (commit, machine, nproc, kernel lane) and writes a
record to .perfbench/runs/ for perfbench/compare.py.
"""

import os

# one BLAS/OpenMP thread and the numpy kernel lane, fixed before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["MIMICGAME_NO_NUMBA"] = "1"

import argparse
import contextlib
import csv
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench"

P0 = 0.3
N_PATHS = 4608           # per type: one full default batch of 4096 and a second of 512
ORACLE_DELTA = 1e-2      # coarsest delta in use; oracle-check passes there
IMPORT_SAMPLES = 7       # fresh interpreters timed importing the package
LADDER = (("solve", "fig1.json"), ("ep", "fig1.json"),
          ("sweep-psi", "sweep_psi_highfriction.json"),
          ("sweep-psi", "sweep_psi_lowfriction.json"),
          ("sweep-patience", "sweep_patience.json"))

now = time.perf_counter


class Ladder:
    """solve-ladder: the solver commands through cli.main, one pass per round."""

    setup_repeats = 5
    min_traced = 6       # 17 solves a pass, so the traced p90 rests on at least 100

    def __init__(self, seed, tracer):
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)   # beliefs for the HJB check
        self.solves = []     # [round, seconds, Equilibrium (round 0) or None, iterations, error]
        self.failures = []
        self.round_no = 0
        self.first = None    # (directory, {file: bytes}) of the first pass
        for mod in (cli, analysis):
            self._log_solves(mod)

    def _log_solves(self, mod):
        orig = mod.solve_equilibrium

        def logged(*args, **kwargs):
            t0 = now()
            try:
                eq = orig(*args, **kwargs)
            except Exception as exc:
                self.solves.append([self.round_no, now() - t0, None, 0, exc])
                raise
            self.solves.append([self.round_no, now() - t0, eq if self.round_no == 0 else None,
                                eq.diagnostics["iterations"], None])
            return eq

        mod.solve_equilibrium = logged

    def setup(self):
        loaded = [cli.load_config(str(CONFIGS / name)) for _, name in LADDER]
        self.num = loaded[0][1]    # the ladder's configs all keep the default numerics

    def round(self, k):
        self.round_no = k
        out = OUT / "ladder" / f"{os.getpid()}-{k}"
        n0 = len(self.solves)
        t0 = now()
        with contextlib.redirect_stderr(io.StringIO()):
            codes = [self.tracer.call("cli.main", cli.main,
                                      [cmd, "--config", str(CONFIGS / name), "--out", str(out)])
                     for cmd, name in LADDER]
        seconds = now() - t0
        for (cmd, name), code in zip(LADDER, codes):
            if code != 0:
                self.failures.append(f"ladder: {cmd} {name} exited {code}")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if self.first is None:
            self.first = (out, files)
        else:
            if files != self.first[1]:
                self.failures.append(f"ladder: pass {k} outputs differ from pass 0")
            shutil.rmtree(out)
        new = self.solves[n0:]
        return seconds, len(new), sum(s[4] is not None for s in new)

    def solve_seconds(self, setup_solves):
        return [s[1] for s in self.solves]   # every solve of the rounds

    def checks(self):
        out = list(self.failures)
        solved = [s[2] for s in self.solves if s[0] == 0 and s[2] is not None]
        for i, eq in enumerate(solved):
            label = (f"solve {i} (psi {eq.params.psi}, r1 {eq.params.r1}, "
                     f"grid {eq.W.states.size})")
            out += checks.equilibrium_failures(label, eq, self.num, self.rng)
        d = self.first[0]
        shape = json.loads((d / "ep_shape.json").read_text())
        p_star = json.loads((d / "equilibrium.json").read_text())["p_star"]
        curve = _table(d / "ep_curve.csv")
        out += checks.ep_failures(shape, p_star, np.array([float(r["p"]) for r in curve]),
                                  np.array([float(r["EP"]) for r in curve]))
        rows = [r for r in _table(d / "sweep_patience.csv") if not r["error"]]
        out += checks.patience_failures([float(r["scale"]) for r in rows],
                                        [float(r["sup_dist_stop_value"]) for r in rows])
        shutil.rmtree(d)
        return out

    def layer_counts(self, traced):
        return {"principal.bisections": sum(s[3] for s in self.solves if s[0] in traced)}


class _Fig1Input:
    """A workload whose set-up input is the fig1 equilibrium."""

    setup_repeats = 20
    min_traced = 1

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.results = []    # per round; None where an operation failed
        self.errors = []

    def setup(self):
        self.params, self.num, _ = cli.load_config(str(CONFIGS / "fig1.json"))
        t0 = now()
        self.eq = principal.solve_equilibrium(self.params, num=self.num)
        return now() - t0

    def solve_seconds(self, setup_solves):
        return setup_solves


class MonteCarlo(_Fig1Input):
    """mc-fig1: the three Monte Carlo uses at the fig1 equilibrium."""

    def setup(self):
        seconds = super().setup()
        self.cfg = SimConfig(p0=P0, n_paths=N_PATHS, seed=self.seed, batch=self.num.mc_batch)
        return seconds

    def _calls(self):
        return (("simulate.estimate_values", simulate.estimate_values, {"with_diagnostic": False}),
                ("simulate.learning_diagnostic", simulate.learning_diagnostic,
                 {"eps": 0.1, "interval": (0.05, 0.95)}),
                ("simulate.dt_refinement", simulate.dt_refinement, {}))

    def round(self, k):
        results, seconds = [], 0.0
        for name, fn, kw in self._calls():
            t0 = now()
            try:
                r = self.tracer.call(name, fn, self.eq, self.cfg, num=self.num, **kw)
            except Exception as exc:
                self.errors.append(f"mc: {name}: {type(exc).__name__}: {exc}")
                r = None
            seconds += now() - t0
            results.append(r)
        self.results.append(results)
        return seconds, 3, sum(r is None for r in results)

    def checks(self):
        out = list(self.errors)
        rep, diag, ref = self.results[0]
        if None in (rep, diag, ref):
            return out
        out += checks.mc_failures(self.eq, P0, rep, diag, ref)
        # later rounds repeat every call; after a single round, repeat the two cheaper ones
        repeats = self.results[1:] or [
            [fn(self.eq, self.cfg, num=self.num, **kw) for _, fn, kw in self._calls()[:2]]]
        for i, name in enumerate(("estimate_values", "learning_diagnostic", "dt_refinement")):
            later = [r[i] for r in repeats if i < len(r)]
            out += checks.identical_failures(name, self.results[0][i], later)
        return out

    def layer_counts(self, traced):
        n = self.cfg.n_paths
        reps = [self.results[k][0] for k in traced if self.results[k][0] is not None]
        censored = sum(round(r.censored_frac_ni * n) + round(r.censored_frac_i * n) for r in reps)
        se2 = statistics.mean(r.agent_value_se ** 2 for r in reps) if reps else 0.0
        return {"simulate.censored_paths": censored, "agent_se2": se2, "paths": n}


class Oracle(_Fig1Input):
    """oracle-fig1: the discrete-time oracle at one coarse delta."""

    def round(self, k):
        t0 = now()
        try:
            de = self.tracer.call("oracle.discrete_equilibrium", oracle.discrete_equilibrium,
                                  self.params, oracle.DiscreteGame(delta=ORACLE_DELTA))
        except Exception as exc:
            self.errors.append(f"oracle: {type(exc).__name__}: {exc}")
            de = None
        seconds = now() - t0
        self.results.append(de)
        return seconds, 1, int(de is None)

    def checks(self):
        if self.results[0] is None:
            return list(self.errors)
        return self.errors + checks.oracle_failures(self.eq, self.results[0], self.num)

    def layer_counts(self, traced):
        des = [self.results[k] for k in traced if self.results[k] is not None]
        return {"oracle.outer_rounds": sum(d.outer_iters for d in des),
                "oracle.grid_n": des[0].z_grid.size if des else 0,
                "oracle.outer_residual": des[0].outer_residual if des else 0.0}


WORKLOADS = {"solve-ladder": Ladder, "mc-fig1": MonteCarlo, "oracle-fig1": Oracle}


def _table(path):
    return list(csv.DictReader(l for l in path.read_text().splitlines() if not l.startswith("#")))


def _size(x):
    return int(np.size(x))


def install_trace(tracer):
    """Span every call into a layer's public functions, at the name its caller uses."""
    tracer.patch(cli, "sweep_psi", "analysis.sweep_psi", lambda a, k: len(a[1]))
    tracer.patch(cli, "sweep_patience", "analysis.sweep_patience", lambda a, k: len(a[1]))
    tracer.patch(cli, "classify_ep_shape", "analysis.classify_ep_shape")
    tracer.patch(cli, "expected_performance", "analysis.expected_performance")
    for mod in (cli, analysis):
        tracer.patch(mod, "solve_equilibrium", "principal.solve_equilibrium")
    tracer.patch(principal, "best_reply_cutoff", "principal.best_reply_cutoff")
    tracer.patch(principal, "solve_banded", "principal.solve_banded")
    tracer.patch(principal, "build_agent_solution", "agent.build_agent_solution")
    for mod in (principal, analysis):
        tracer.patch(mod, "solve_r_star", "agent.solve_r_star")
    for mod, name in ((principal, "agent.eval_agent"), (analysis, "agent.eval_agent"),
                      (cli, "agent.eval_agent"), (simulate, "agent.eval_agent@simulate")):
        tracer.patch(mod, "eval_agent", name, lambda a, k: _size(a[1] if len(a) > 1 else k["z"]))
    for fn in GAUSSIAN_IN_AGENT:
        tracer.patch(agent, fn, "gaussian." + fn, lambda a, k: _size(a[0]))
    tracer.patch(_simkernels, "run_main",
                 lambda a, k: "simulate.run_main_ni" if k["tag"] == 0 else "simulate.run_main_i",
                 lambda a, k: -(-k["n_paths"] // k["batch"]))
    tracer.patch(_simkernels, "run_diag", "simulate.run_diag")
    tracer.patch(_simkernels, "run_coupled", "simulate.run_coupled")


def layer_metrics(tracer, rounds, counts):
    """Per-layer metrics per traced round, from the spans and the workload's counts."""
    summary = tracer.summary()
    per = 1.0 / rounds

    def get(name, key):
        """Sum over spans called name, from any caller ("name@caller")."""
        return per * sum(v[key] for n, v in summary.items()
                         if n == name or n.startswith(name + "@"))

    def under(prefix, key):
        return per * sum(v[key] for n, v in summary.items() if n.startswith(prefix))

    counts = {"principal.bisections": 0, "simulate.censored_paths": 0, "oracle.outer_rounds": 0,
              "oracle.grid_n": 0, "oracle.outer_residual": 0.0, "paths": 0, "agent_se2": 0.0,
              **counts}
    solves = [s.end - s.start for s in tracer.spans if s.name == "principal.solve_equilibrium"]
    solve_p90 = statistics.quantiles(solves, n=10)[-1] if len(solves) > 1 else 0.0
    paths, se2 = counts["paths"], counts["agent_se2"]
    est_s = get("simulate.estimate_values", "s")
    diag_s = get("simulate.learning_diagnostic", "s")
    ref_s = get("simulate.dt_refinement", "s")
    oracle_s = get("oracle.discrete_equilibrium", "s")
    outer = counts["oracle.outer_rounds"] * per
    return {
        "cli.main_s": get("cli.main", "s"),
        "cli.self_s": get("cli.main", "self_s"),
        "analysis.sweep_psi_s": get("analysis.sweep_psi", "s"),
        "analysis.sweep_patience_s": get("analysis.sweep_patience", "s"),
        "analysis.classify_ep_s": get("analysis.classify_ep_shape", "s"),
        "analysis.sweep_rows": (get("analysis.sweep_psi", "units")
                                + get("analysis.sweep_patience", "units")),
        "principal.solve_equilibrium_calls": get("principal.solve_equilibrium", "calls"),
        "principal.solve_equilibrium_self_s": get("principal.solve_equilibrium", "self_s"),
        "principal.solve_ms_p90": 1e3 * solve_p90,
        "principal.bisections": counts["principal.bisections"] * per,
        "principal.best_reply_calls": get("principal.best_reply_cutoff", "calls"),
        "principal.best_reply_self_s": get("principal.best_reply_cutoff", "self_s"),
        "principal.banded_solves": get("principal.solve_banded", "calls"),
        "principal.banded_solve_s": get("principal.solve_banded", "s"),
        "agent.build_calls": get("agent.build_agent_solution", "calls"),
        "agent.build_s": get("agent.build_agent_solution", "s"),
        "agent.eval_calls": get("agent.eval_agent", "calls"),
        "agent.eval_points": get("agent.eval_agent", "units"),
        "agent.eval_s": get("agent.eval_agent", "s"),
        "agent.r_star_calls": get("agent.solve_r_star", "calls"),
        "agent.r_star_s": get("agent.solve_r_star", "s"),
        "gaussian.calls": under("gaussian.", "calls"),
        "gaussian.elements": under("gaussian.", "units"),
        "gaussian.s": under("gaussian.", "s"),
        "simulate.run_main_ni_s": get("simulate.run_main_ni", "s"),
        "simulate.run_main_i_s": get("simulate.run_main_i", "s"),
        "simulate.run_main_batches": (get("simulate.run_main_ni", "units")
                                      + get("simulate.run_main_i", "units")),
        "simulate.run_diag_s": get("simulate.run_diag", "s"),
        "simulate.run_coupled_s": get("simulate.run_coupled", "s"),
        "simulate.policy_table_s": get("agent.eval_agent@simulate", "s"),
        "simulate.aggregate_s": get("simulate.estimate_values", "self_s"),
        "simulate.censored_paths": counts["simulate.censored_paths"] * per,
        "simulate.main_paths_per_s": 2 * paths / est_s if est_s else 0.0,
        "simulate.diag_paths_per_s": paths / diag_s if diag_s else 0.0,
        "simulate.coupled_paths_per_s": 2 * paths / ref_s if ref_s else 0.0,
        "simulate.agent_value_efficiency": 1.0 / (se2 * est_s) if est_s and se2 else 0.0,
        "oracle.discrete_equilibrium_s": oracle_s,
        "oracle.outer_rounds": outer,
        "oracle.s_per_round": oracle_s / outer if outer else 0.0,
        "oracle.grid_n": counts["oracle.grid_n"],
        "oracle.outer_residual": counts["oracle.outer_residual"],
    }


def time_imports():
    """Seconds to import the package in fresh interpreters, one sample each."""
    code = ("import time; t = time.perf_counter(); import mimicgame.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(IMPORT_SAMPLES)]


def environment():
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout
            commit = out.strip() or None
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + sorted(CONFIGS.glob("*.json")):
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    u = platform.uname()
    numba_on = getattr(sys.modules.get("mimicgame._numba"), "NUMBA_ENABLED", False)
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "machine": f"{u.system} {u.release} {u.machine}", "host": u.node,
            "nproc": len(os.sched_getaffinity(0)), "lane": "numba" if numba_on else "numpy",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": np.__version__}


def measure(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    wl = WORKLOADS[args.workload](args.seed, tracer)

    imports = time_imports()
    inputs, setup_solves = [], []
    for _ in range(wl.setup_repeats):
        t0 = now()
        solve_s = wl.setup()
        inputs.append(now() - t0)
        if solve_s is not None:
            setup_solves.append(solve_s)

    if args.trace:
        install_trace(tracer)
    rounds = []          # (seconds, traced)
    attempted = failed = 0
    t_start = now()
    while True:
        tracer.enabled = bool(args.trace) and len(rounds) % 2 == 1
        seconds, a, f = wl.round(len(rounds))
        rounds.append((seconds, tracer.enabled))
        tracer.enabled = False
        attempted += a
        failed += f
        n_traced = sum(t for _, t in rounds)
        if now() - t_start >= args.seconds and not (
                args.trace and (len(rounds) % 2 or n_traced < wl.min_traced)):
            break
    tracer.restore()
    failures = wl.checks()

    import_s = statistics.median(imports)
    inputs_s = statistics.median(inputs)
    solves = wl.solve_seconds(setup_solves)
    if args.trace:
        traced = [k for k, (_, t) in enumerate(rounds) if t]
        m = layer_metrics(tracer, len(traced), wl.layer_counts(set(traced)))
        on = statistics.median(s for s, t in rounds if t)
        off = statistics.median(s for s, t in rounds if not t)
        m.update({"setup.import_s": import_s, "setup.inputs_s": inputs_s,
                  "trace.overhead_pct": 100.0 * (on / off - 1.0)})
        listed = spec["per_layer"]
    else:
        m = {"setup_s": import_s + inputs_s,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "round_s": statistics.median(s for s, _ in rounds),
             "solve_ms": 1e3 * statistics.median(solves)}
        listed = spec["end_to_end"]
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {x["name"]: {"value": m[x["name"]], "unit": x["unit"]} for x in listed}}
    record = {"env": environment(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "result": result,
              "failures": failures, "rounds": rounds, "imports_s": imports,
              "inputs_s": inputs, "solves_s": solves,
              "spans": tracer.summary() if args.trace else None}
    return result, record, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stamp = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    result, record, tracer = measure(args)
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (runs / f"{stamp}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "units"], "spans": tracer.dump()}) + "\n")
    for f in record["failures"]:
        print(f"check failed: {f}", file=sys.stderr)
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if not (SRC / "mimicgame" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from mimicgame import _simkernels, agent, analysis, cli, oracle, principal, simulate  # noqa: E402
from mimicgame.simulate import SimConfig  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

# the gaussian functions agent imported, each traced where agent calls it
GAUSSIAN_IN_AGENT = sorted(n for n in vars(agent) if getattr(vars(agent)[n], "__module__", "")
                           == "mimicgame.gaussian")

if __name__ == "__main__":
    sys.exit(main())
