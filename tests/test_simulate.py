"""Monte Carlo machinery: determinism, degenerate cases, closed-form checks."""

import functools
import math
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimicgame as mg
from mimicgame.model import GameParams, logit
from mimicgame.simulate import (
    SimConfig,
    dt_refinement,
    estimate_values,
    learning_diagnostic,
    martingale_check,
    simulate_path,
)

FIG = GameParams(r1=0.5, r2=0.5, lam=2.0, psi=1.5, u=1.0, c=1.0, w_NI=1.0, w_I=-1.0)


@pytest.fixture(scope="module")
def fig_eq():
    return mg.solve_equilibrium(FIG)


@pytest.fixture(scope="module")
def fig_report(fig_eq):
    return estimate_values(fig_eq, SimConfig(p0=0.3, n_paths=20_000, seed=2),
                           with_diagnostic=False)


@pytest.fixture(scope="module")
def fig_refinement(fig_eq):
    return dt_refinement(fig_eq, SimConfig(p0=0.3, n_paths=20_000, seed=2))


def test_config_validation(fig_eq):
    with pytest.raises(ValueError):
        SimConfig(p0=0.3, dt=1.0).resolve(FIG)       # too coarse
    with pytest.raises(ValueError):
        SimConfig(p0=0.3, z_cap=5.0).resolve(FIG)    # cap too small
    with pytest.raises(ValueError):
        SimConfig(p0=1.5).resolve(FIG)
    for batch in (0, -5):
        with pytest.raises(ValueError, match="batch"):
            SimConfig(p0=0.3, batch=batch).resolve(FIG)
    # a step or horizon that is not finite and positive never ends a path
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(p0=0.3, dt=bad).resolve(FIG)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(p0=0.3, horizon=bad).resolve(FIG)
    # counts must be integers, or they fail deep inside the kernels
    for name in ("n_paths", "batch"):
        with pytest.raises(ValueError, match=name):
            SimConfig(p0=0.3, **{name: 2.5}).resolve(FIG)
    # a cap past z = 37, where the belief rounds to 1, asks for a table too
    # large to build or overflows its size
    for bad in (37.5, 1e5, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="z_cap"):
            SimConfig(p0=0.3, z_cap=bad).resolve(FIG)
    # a probe time that is not finite never captures the probe, and one
    # before the start captures p0 itself
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_probe"):
            SimConfig(p0=0.3, t_probe=bad).resolve(FIG)
    # the seed is the first word of every Philox key: -1 overflowed in the
    # kernels, and 2.5 ran seed 2's streams
    for bad in (-1, 2**64, 2.5, math.nan, "7", None):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(p0=0.3, seed=bad).resolve(FIG)
    assert SimConfig(p0=0.3, seed=2**64 - 1).resolve(FIG).seed == 2**64 - 1


def _interp_reference(a_tab, z_lo, inv_dz, zv):
    """The table lookup as first written: clamp, index, blend, then patch the top end."""
    ntab = a_tab.size
    pos = (zv - z_lo) * inv_dz
    pos = np.maximum(pos, 0.0)
    i = pos.astype(np.int64)
    hi = i >= ntab - 1
    i = np.minimum(i, ntab - 2)
    frac = pos - i
    a = a_tab[i] + (a_tab[i + 1] - a_tab[i]) * frac
    return np.where(hi, a_tab[ntab - 1], a)


def test_lookup_matches_reference(fig_eq):
    # the fig1 table (rows z, a and a' over X), and a random two-row one on a
    # dyadic grid whose nodes map to exact table positions; every row read
    # through the shared index must match a lookup of that row alone
    from mimicgame._simkernels import _lookup
    from mimicgame.model import Numerics
    from mimicgame.simulate import _lamperti
    rng = np.random.default_rng(3)
    _, tab, x_cap = _lamperti(fig_eq, SimConfig(p0=0.3).resolve(FIG), Numerics())
    tables = [(tab, x_cap), (rng.random((2, 129)), (-16.0, 16.0))]
    for tab, (x_lo, x_hi) in tables:
        inv_dx = (tab.shape[1] - 1) / (x_hi - x_lo)
        nodes = x_lo + np.arange(tab.shape[1]) / inv_dx
        span = nodes[-1] - x_lo
        points = np.concatenate([
            rng.uniform(x_lo, nodes[-1], 5000),
            nodes, nodes[-1:],                                # on nodes, the last one included
            rng.uniform(x_lo - 2 * span, x_lo, 50),           # below the table
            rng.uniform(nodes[-1], nodes[-1] + 2 * span, 50),  # above the last node
            [x_lo - 1, nodes[-1] + 1]])
        got = _lookup(tab, (x_lo, x_hi))(points)
        assert got.shape == (tab.shape[0], points.size)
        for row, want in zip(got, tab):
            assert row.tobytes() == _interp_reference(want, x_lo, inv_dx, points).tobytes()


@pytest.mark.parametrize("regime", ["hump", "separating"])
def test_lamperti_table(fig_eq, regime):
    # X = int dz / (psi (1 - a)) in closed form, and its table of z, a and a'
    from mimicgame._simkernels import _lookup
    from mimicgame.model import Numerics
    from mimicgame.simulate import _lamperti
    eq = fig_eq if regime == "hump" else mg.solve_equilibrium(FIG.with_(r1=10.0))
    cfg = SimConfig(p0=0.3).resolve(FIG)
    sol = eq.agent
    to_x, tab, x_cap = _lamperti(eq, cfg, Numerics())
    z_tab, a_tab, ap_tab = tab
    nodes = np.linspace(*x_cap, z_tab.size)
    assert nodes[1] - nodes[0] <= Numerics().z_table_step / FIG.psi
    # the cap ends map back to the cap, and every node's z maps to the node
    assert (z_tab[0], z_tab[-1]) == pytest.approx((-cfg.z_cap, cfg.z_cap), abs=1e-12)
    assert tuple(to_x([-cfg.z_cap, cfg.z_cap])) == x_cap
    assert np.max(np.abs(to_x(z_tab) - nodes)) < 1e-12
    assert np.array_equal(a_tab, mg.eval_agent(sol, z_tab)[0])
    # z(X(z)) through the table: exact where z is linear in X, and within
    # the linear-interpolation error inside the mixing region
    rng = np.random.default_rng(11)
    kinks = [k for k in (sol.z_L, sol.z_star, sol.z_R) if math.isfinite(k)]
    z = np.concatenate([rng.uniform(-cfg.z_cap, cfg.z_cap, 4000), [sol.z_star], kinks])
    z_back = _lookup(tab[:1], x_cap)(to_x(z))[0]
    mixes = sol.regime == mg.REGIME_HUMP
    assert np.max(np.abs(z_back - z)) < (1e-6 if mixes else 1e-12)
    # a' against central differences of the policy, away from its kinks
    h = 1e-5
    diff = (mg.eval_agent(sol, z_tab + h)[0] - mg.eval_agent(sol, z_tab - h)[0]) / (2 * h)
    away = np.all([np.abs(z_tab - k) > 1e-4 for k in kinks], axis=0)
    assert np.max(np.abs(ap_tab - diff)[away]) < 1e-7
    if mixes:
        assert np.max(ap_tab) > 0.5 and np.min(ap_tab) < -1.0
    # X against trapezoidal quadrature of 1 / (psi (1 - a))
    zq = np.linspace(-cfg.z_cap, cfg.z_cap, 240_001)
    f = 1.0 / (FIG.psi * (1.0 - mg.eval_agent(sol, zq)[0]))
    quad = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * (zq[1] - zq[0]))])
    assert np.max(np.abs(to_x(zq) - x_cap[0] - quad)) < 1e-6


@pytest.mark.parametrize("pars", [FIG.with_(psi=5.0), FIG.with_(r1=0.15, r2=0.15)],
                         ids=["psi5", "patience0.3"])
def test_lamperti_table_near_full_mimicking(pars):
    # where the peak intensity is within 1e-4 to 1e-6 of 1, X(z) is steep
    # near the cutoff; each node's z must still map back to the node, in
    # order
    from mimicgame.model import Numerics
    from mimicgame.simulate import _lamperti
    eq = mg.solve_equilibrium(pars)
    cfg = SimConfig(p0=0.3).resolve(pars)
    to_x, tab, x_cap = _lamperti(eq, cfg, Numerics())
    nodes = np.linspace(*x_cap, tab.shape[1])
    assert np.all(np.diff(tab[0]) >= 0.0)
    assert np.max(np.abs(to_x(tab[0]) - nodes)) < 1e-9


def test_lamperti_table_unresolvable_peak():
    # at psi = 10, 1 - a_peak is about 3e-23: no double places X near the
    # cutoff, and the table says so rather than fold back on itself
    from mimicgame.model import Numerics
    from mimicgame.principal import ConvergenceError
    from mimicgame.simulate import _lamperti
    pars = FIG.with_(psi=10.0)
    eq = mg.solve_equilibrium(pars)
    with pytest.raises(ConvergenceError, match="1 - a_peak"):
        _lamperti(eq, SimConfig(p0=0.3).resolve(pars), Numerics())


def test_determinism_bit_identical(fig_eq):
    cfg = SimConfig(p0=0.4, n_paths=500, seed=99)
    r1 = estimate_values(fig_eq, cfg)
    r2 = estimate_values(fig_eq, cfg)
    assert r1 == r2
    r3 = estimate_values(fig_eq, replace(cfg, seed=100))
    assert r3.agent_value_mean != r1.agent_value_mean


def test_batch_split_invariance(fig_eq):
    # per-path streams make results independent of the batch partition
    base = SimConfig(p0=0.4, n_paths=700, seed=5, batch=4096)
    split = replace(base, batch=128)
    ra = estimate_values(fig_eq, base)
    rb = estimate_values(fig_eq, split)
    assert ra == rb
    assert dt_refinement(fig_eq, base) == dt_refinement(fig_eq, split)


def test_pool_refill_keeps_path_index(fig_eq):
    # a pool of 8 rows over 40 paths of each type refills rows mid-run; each
    # record must land at its own index and match the path run on its own
    from mimicgame import _simkernels
    from mimicgame.model import Numerics, inv_logit
    from mimicgame.simulate import _kernel_args, _lamperti, _run_types
    cfg = SimConfig(p0=0.4, n_paths=40, seed=5, batch=8).resolve(FIG)
    shared = _run_types(fig_eq, cfg, ("NI", "I"), Numerics())
    for k, agent_type in enumerate(("NI", "I")):
        res = shared[k]
        # a type's rows from the shared pool equal a run of that type alone
        alone = _run_types(fig_eq, cfg, (agent_type,), Numerics())[0]
        assert res.tobytes() == alone.tobytes()
        for i in (0, 7, 8, 39):
            rec = simulate_path(fig_eq, agent_type, cfg, path_index=i)
            t, stopped, pay, d1, d2, zpr = res[i]
            assert (rec.stop_time, rec.stopped, rec.disc_r1, rec.disc_r2, rec.p_probe) == (
                t, bool(stopped), d1, d2, inv_logit(zpr))
            if agent_type == "NI":
                assert rec.agent_payoff == pay
    # the coupled and diagnostic runs give identical arrays at any pool width,
    # and the coupled run gives each type the arrays of that type run alone
    args = _kernel_args(fig_eq, cfg, ("NI", "I"), Numerics())
    to_x = _lamperti(fig_eq, cfg, Numerics())[0]
    x0, x_a, x_b = to_x([logit(0.4), logit(0.05), logit(0.95)])
    diag_args = dict(x0=x0, x_int=(x_a, x_b), psi=FIG.psi, r1=FIG.r1, a_thresh=0.9,
                     dt=cfg.dt, horizon=cfg.horizon, tab=args["tab"], x_cap=args["x_cap"],
                     n_paths=40, seed=5, tag=2)
    coupled, diag = [], []
    for width in (8, 37, 40):
        coupled.append(_simkernels.run_coupled(**dict(args, batch=width), n_paths=40))
        diag.append(_simkernels.run_diag(**diag_args, batch=width))
    for x in coupled[1:]:
        assert x.tobytes() == coupled[0].tobytes()
    for k, agent_type in enumerate(("NI", "I")):
        one = _kernel_args(fig_eq, cfg, (agent_type,), Numerics())
        alone = _simkernels.run_coupled(**dict(one, batch=40), n_paths=40)[0]
        assert alone.tobytes() == coupled[0][k].tobytes()
    for x in diag[1:]:
        assert x.tobytes() == diag[0].tobytes()


def _forced_shares(monkeypatch, shares):
    """Run every kernel call of simulate in the given number of shares."""
    from mimicgame import simulate
    monkeypatch.setattr(simulate, "_in_shares",
                        functools.partial(simulate._in_shares, shares=shares))


def test_shares_bit_identical(fig_eq, monkeypatch):
    # every path draws from its own streams, so running a call's paths in
    # shares, one process each, changes no bit: on an uneven split, and with
    # more shares than paths
    cfg = SimConfig(p0=0.4, n_paths=701, seed=5, horizon=10.0)
    tiny = replace(cfg, n_paths=2)
    runs = {}
    for shares in (1, 2, 3):
        _forced_shares(monkeypatch, shares)
        for c in (cfg, tiny):
            runs[shares, c.n_paths] = (estimate_values(fig_eq, c, with_diagnostic=False),
                                       learning_diagnostic(fig_eq, c, eps=0.1),
                                       dt_refinement(fig_eq, c))
    for shares in (2, 3):
        for n in (701, 2):
            assert runs[shares, n] == runs[1, n]


def test_kernel_path_offset_rows(fig_eq):
    # a kernel run from path_offset k gives rows k: of the run from 0, byte
    # for byte, on the path axis of each kernel's output; so does that run
    # in shares
    from mimicgame import _simkernels
    from mimicgame.model import Numerics
    from mimicgame.simulate import _in_shares, _kernel_args, _lamperti
    cfg = SimConfig(p0=0.4, n_paths=40, seed=5, horizon=10.0, batch=16).resolve(FIG)
    args = _kernel_args(fig_eq, cfg, ("NI", "I"), Numerics())
    to_x = _lamperti(fig_eq, cfg, Numerics())[0]
    x0, x_a, x_b = to_x([logit(0.4), logit(0.05), logit(0.95)])
    diag_args = dict(x0=x0, x_int=(x_a, x_b), psi=FIG.psi, r1=FIG.r1, a_thresh=0.9,
                     dt=cfg.dt, horizon=cfg.horizon, tab=args["tab"], x_cap=args["x_cap"],
                     seed=5, tag=2, batch=16)
    for kernel, axis, kw in (("run_main", 1, dict(args, t_probe=cfg.t_probe)),
                             ("run_coupled", 2, args), ("run_diag", 0, diag_args)):
        run = getattr(_simkernels, kernel)
        full = run(**kw, n_paths=40)
        for k in (1, 17):
            rows = np.take(full, np.arange(k, 40), axis=axis).tobytes()
            assert run(**kw, n_paths=40 - k, path_offset=k).tobytes() == rows
            shared = _in_shares(kernel, axis, **kw, n_paths=40 - k, path_offset=k, shares=3)
            assert shared.tobytes() == rows


def test_block_length_changes_no_bit(fig_eq, monkeypatch):
    # every live row draws a block of normals at the block's first pass and
    # a row admitted mid-block draws the rest of it; a pool of 8 rows over
    # 40 paths of each type admits rows mid-block, and each kernel gives the
    # same bytes at any block length, alone and, at a block of 3 passes, in
    # 3 shares
    from mimicgame import _simkernels
    from mimicgame.model import Numerics
    from mimicgame.simulate import _in_shares, _kernel_args, _lamperti
    cfg = SimConfig(p0=0.4, n_paths=40, seed=5, horizon=3.0, batch=8).resolve(FIG)
    args = _kernel_args(fig_eq, cfg, ("NI", "I"), Numerics())
    to_x = _lamperti(fig_eq, cfg, Numerics())[0]
    x0, x_a, x_b = to_x([logit(0.4), logit(0.05), logit(0.95)])
    diag_args = dict(x0=x0, x_int=(x_a, x_b), psi=FIG.psi, r1=FIG.r1, a_thresh=0.9,
                     dt=cfg.dt, horizon=cfg.horizon, tab=args["tab"], x_cap=args["x_cap"],
                     seed=5, tag=2, batch=8)
    calls = (("run_main", 1, dict(args, t_probe=cfg.t_probe)), ("run_coupled", 2, args),
             ("run_diag", 0, diag_args))
    runs = {}
    for block in (1, 3, _simkernels._BLOCK):
        monkeypatch.setattr(_simkernels, "_BLOCK", block)
        for kernel, axis, kw in calls:
            alone = getattr(_simkernels, kernel)(**kw, n_paths=40).tobytes()
            if block == 3:
                assert _in_shares(kernel, axis, **kw, n_paths=40, shares=3).tobytes() == alone
            runs.setdefault(kernel, []).append(alone)
    for kernel, arrays in runs.items():
        assert arrays[0] == arrays[1] == arrays[2], kernel


def _steps(t, dt):
    """Clocks from t by full steps of dt, added one at a time as the kernels add them."""
    while True:
        yield t
        t = t + dt


@settings(max_examples=400, deadline=None, derandomize=True)
@given(dt=st.one_of(st.sampled_from([0.01 / 2.25, 1e-3, 2.0**-8, 3.3e-3]), st.floats(1e-4, 0.1)),
       t0=st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e9)),
       arr_steps=st.integers(0, 200), arr_frac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       on_clock=st.booleans(), horizon_steps=st.floats(0.0, 220.0),
       probe_steps=st.one_of(st.none(), st.floats(-5.0, 220.0)))
def test_stop_schedule_never_late(dt, t0, arr_steps, arr_frac, on_clock, horizon_steps,
                                  probe_steps):
    # a row whose clock t0 steps by dt is due for its stop checks no later
    # than the first pass at which the exact rule cuts its coarse step or
    # either fine half-step, or captures the probe: arrivals a whole number
    # of steps away (on the row's own clock when on_clock) included, and
    # probe_steps None for a probe already captured
    from mimicgame._simkernels import _scheduler, _stepper
    clocks = _steps(t0, dt)
    arr = [next(clocks) for _ in range(arr_steps + 1)][-1] if on_clock else t0 + arr_steps * dt
    arr = arr + arr_frac * dt
    horizon = t0 + horizon_steps * dt
    t_probe = None if probe_steps is None else t0 + probe_steps * dt
    stop = min(arr, horizon) if t_probe is None else min(arr, horizon, t_probe)
    due = int(_scheduler(dt, horizon)(0, np.array([t0]), np.array([stop]))[0])
    coarse, fine = _stepper(dt, 0.5, 0.5)[2], _stepper(0.5 * dt, 0.5, 0.5)[2]
    for p, t in enumerate(_steps(t0, dt)):
        tv, stops = np.array([t]), (np.array([arr]), horizon)
        h1, lim1 = fine(tv, stops)
        event = (coarse(tv, stops)[1][0] > 0 or lim1[0] > 0 or fine(tv + h1, stops)[1][0] > 0
                 or (t_probe is not None and t >= t_probe))
        if event:
            break
    # never late, and no more than a few passes early
    assert due <= p <= due + 8


def test_diagnostic_arguments_checked_before_paths(fig_eq, monkeypatch):
    # estimate_values checked eps and interval only in learning_diagnostic,
    # after its main pool had run; now neither call runs a kernel first
    from mimicgame import simulate

    def no_kernel(*args, **kwargs):
        raise AssertionError("a Monte Carlo kernel ran")

    monkeypatch.setattr(simulate, "_in_shares", no_kernel)
    cfg = SimConfig(p0=0.3, n_paths=2000, seed=1)
    for bad, match in ((dict(eps=0.0), "eps"), (dict(eps=math.nan), "eps"),
                       (dict(interval=(0.5, 0.95)), "interval")):
        with pytest.raises(ValueError, match=match):
            estimate_values(fig_eq, cfg, **bad)
        with pytest.raises(ValueError, match=match):
            learning_diagnostic(fig_eq, cfg, **{"eps": 0.1, **bad})


def test_shares_leave_no_process(fig_eq, monkeypatch):
    # the children of a call in shares are joined when it returns, when a
    # kernel raises in the parent or in a child, and when a child dies
    from mimicgame import _simkernels
    from mimicgame.simulate import ShareError
    _forced_shares(monkeypatch, 2)
    cfg = SimConfig(p0=0.4, n_paths=20, seed=5, horizon=5.0)
    diag = functools.partial(learning_diagnostic, fig_eq, cfg, eps=0.1)
    ok = diag()
    assert multiprocessing.active_children() == []
    run_diag = _simkernels.run_diag

    def fails(**kw):
        raise ValueError("kernel failed")

    def fails_in_child(**kw):
        if kw["path_offset"] > 0:
            raise ValueError("child failed")
        return run_diag(**kw)

    def fails_while_child_hangs(**kw):
        if kw["path_offset"] > 0:
            time.sleep(60)
        raise ValueError("parent failed")

    def child_dies(**kw):
        if kw["path_offset"] > 0:
            os._exit(3)
        return run_diag(**kw)

    def hung(signum, frame):
        raise TimeoutError("a call in shares did not return")

    # a call that waits on a child it failed to end fails here instead of hanging
    old_handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        for kernel, error, match in ((fails, ValueError, "kernel failed"),
                                     (fails_in_child, ValueError, "child failed"),
                                     (fails_while_child_hangs, ValueError, "parent failed"),
                                     (child_dies, ShareError, "code 3")):
            monkeypatch.setattr(_simkernels, "run_diag", kernel)
            with pytest.raises(error, match=match):
                diag()
            assert multiprocessing.active_children() == []
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)
    monkeypatch.setattr(_simkernels, "run_diag", run_diag)
    assert diag() == ok


def test_share_count():
    # one share per core, each of at least _MIN_SHARE paths, and one share in
    # a process with other threads, which a forked child would not have
    from mimicgame.simulate import _MIN_SHARE, _share_count
    assert _share_count(_MIN_SHARE - 1) == 1
    assert _share_count(1000 * _MIN_SHARE) == len(os.sched_getaffinity(0))
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _share_count(1000 * _MIN_SHARE) == 1
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_frozen_belief_degenerate_case():
    # with a vanishing signal-to-noise ratio the belief never moves: the game
    # stops at the first opportunity iff the start is above the cutoff
    pars = FIG.with_(psi=1e-6)
    eq = mg.solve_equilibrium(pars)
    assert eq.agent.regime == mg.REGIME_SEPARATING
    cfg = SimConfig(p0=0.7, n_paths=64, seed=7, dt=0.005, horizon=80.0)
    recs = [simulate_path(eq, "NI", cfg, path_index=i) for i in range(20)]
    assert all(r.stopped for r in recs)
    for r in recs:
        # payoff accrues the full flow until the stop time
        expect = (pars.u + pars.c) * (1.0 - math.exp(-pars.r1 * r.stop_time))
        assert r.agent_payoff == pytest.approx(expect, rel=1e-6)
    # below the cutoff nothing ever stops and the annuity converges to u+c
    cfg_lo = replace(cfg, p0=0.3)
    recs = [simulate_path(eq, "NI", cfg_lo, path_index=i) for i in range(10)]
    assert not any(r.stopped for r in recs)
    for r in recs:
        assert r.agent_payoff == pytest.approx(pars.u + pars.c, rel=1e-6)


def test_mc_matches_closed_form(fig_eq, fig_report):
    rep = fig_report
    _, v_cf = mg.eval_agent(fig_eq.agent, logit(0.3))
    w_cf = float(fig_eq.W.at(0.3))
    assert abs(rep.agent_value_mean - v_cf) < 4 * rep.agent_value_se
    assert abs(rep.principal_value_mean - w_cf) < 4 * rep.principal_value_se
    assert rep.martingale_gap < 4 * rep.martingale_se
    assert rep.censored_frac_ni < 0.01


def test_se_scaling_with_paths(fig_eq):
    r1 = estimate_values(fig_eq, SimConfig(p0=0.3, n_paths=4000, seed=8))
    r2 = estimate_values(fig_eq, SimConfig(p0=0.3, n_paths=8000, seed=8))
    shrink = r2.agent_value_se / r1.agent_value_se
    assert shrink == pytest.approx(1.0 / math.sqrt(2.0), abs=0.1)


def test_martingale_probe(fig_eq):
    res = martingale_check(fig_eq, SimConfig(p0=0.5, n_paths=20_000, seed=4), t_probe=1.0)
    assert res.gap < 3 * res.se
    with pytest.raises(ValueError):
        martingale_check(fig_eq, SimConfig(p0=0.5, n_paths=100, seed=1), t_probe=1e9)


def test_conditional_belief_drifts(fig_eq):
    # the noninvestible side drives the belief up on average, the investible
    # side down: compare the probe means directly
    from mimicgame.simulate import _run_types
    from mimicgame.model import Numerics, inv_logit
    cfg = SimConfig(p0=0.5, n_paths=8000, seed=6, t_probe=1.0).resolve(FIG)
    res_ni, res_i = _run_types(fig_eq, cfg, ("NI", "I"), Numerics())
    mean_ni = float(np.mean(inv_logit(res_ni[:, 5])))
    mean_i = float(np.mean(inv_logit(res_i[:, 5])))
    assert mean_ni > 0.5 + 0.01
    assert mean_i < 0.5 - 0.01


def test_discount_factor_ordering():
    # on the same stopped paths, discounting at a smaller rate sits between
    # the base factor and its power transform
    pars = FIG.with_(r2=0.25)
    eq = mg.solve_equilibrium(pars)
    from mimicgame.simulate import _run_types
    from mimicgame.model import Numerics
    cfg = SimConfig(p0=0.4, n_paths=4000, seed=13).resolve(pars)
    res = _run_types(eq, cfg, ("NI",), Numerics())[0]
    d1 = res[:, 3]  # e^{-r1 T}
    d2 = res[:, 4]  # e^{-r2 T}, r2 = r1/2
    xi = float(np.mean(d1))
    mid = float(np.mean(d2))
    assert xi <= mid <= xi ** (pars.r2 / pars.r1)
    # pathwise consistency of the two discounts
    assert np.allclose(d2, d1 ** (pars.r2 / pars.r1), rtol=1e-9)


def test_dt_refinement_within_one_se(fig_refinement):
    # the dt and dt/2 legs share one Brownian path per path index, so the
    # paired difference carries the step-size bias without the payoff noise;
    # adding 4 se(d) makes this stricter than |coarse - fine| < se + se
    ref = fig_refinement
    for est in (ref.agent, ref.principal):
        assert abs(est.diff_mean) + 4 * est.diff_se < est.coarse_se + est.fine_se


def test_dt_refinement_legs_match_closed_form(fig_eq, fig_refinement):
    # the paired difference cannot see a bias that both legs share; each leg
    # against the closed-form values can
    _, v_cf = mg.eval_agent(fig_eq.agent, logit(0.3))
    w_cf = float(fig_eq.W.at(0.3))
    for est, closed_form in ((fig_refinement.agent, v_cf), (fig_refinement.principal, w_cf)):
        assert abs(est.coarse_mean - closed_form) < 4 * est.coarse_se
        assert abs(est.fine_mean - closed_form) < 4 * est.fine_se


def test_dt_refinement_exact_when_coefficients_constant():
    # with no mimicking the drift and volatility are constant and each step is
    # exact in distribution, so on a shared Brownian path both legs reach the
    # same belief at every arrival and agree up to rounding
    eq = mg.solve_equilibrium(FIG.with_(r1=10.0))
    assert eq.agent.regime == mg.REGIME_SEPARATING
    ref = dt_refinement(eq, SimConfig(p0=0.5, n_paths=300, seed=21))
    for est in (ref.agent, ref.principal):
        assert est.coarse_se > 0.0
        assert abs(est.diff_mean) < 1e-12
        assert abs(est.richardson_mean - est.coarse_mean) < 1e-12


def test_censoring_negligible(fig_report):
    # discounted mass beyond the default horizon is tiny by construction
    horizon = 20.0 / min(FIG.r1, FIG.r2)
    assert math.exp(-FIG.r1 * horizon) < 1e-8
    assert fig_report.censored_frac_ni * math.exp(-FIG.r1 * horizon) < 1e-4


def test_learning_diagnostic_separating_identity():
    # with no mimicking the indicator is always on, so the diagnostic equals
    # one minus the expected exit discount
    pars = FIG.with_(r1=10.0)
    eq = mg.solve_equilibrium(pars)
    cfg = SimConfig(p0=0.5, n_paths=3000, seed=21)
    diag = learning_diagnostic(eq, cfg, eps=0.1, interval=(0.2, 0.8))
    assert diag.value == pytest.approx(1.0 - diag.mean_disc_exit, abs=1e-12)


def test_learning_diagnostic_separating_closed_form():
    # with no mimicking X = z / psi is a Brownian motion with drift psi/2, and
    # the diagnostic is 1 - E[e^{-r1 tau}] for its exit time from the interval:
    # f = A e^{k1 x} + B e^{k2 x}, f = 1 at both ends, k = -mu +- sqrt(mu^2 + 2 r1)
    pars = FIG.with_(r1=2.0)
    eq = mg.solve_equilibrium(pars)
    assert eq.agent.regime == mg.REGIME_SEPARATING
    mu, root = 0.5 * pars.psi, math.sqrt(0.25 * pars.psi**2 + 2.0 * pars.r1)
    ends = np.array([logit(0.2), logit(0.8)]) / pars.psi
    coef = np.linalg.solve(np.exp(np.outer(ends, [-mu + root, -mu - root])), [1.0, 1.0])
    closed_form = 1.0 - coef.sum()
    assert closed_form == pytest.approx(0.659350, abs=1e-6)
    diag = learning_diagnostic(eq, SimConfig(p0=0.5, n_paths=20_000, seed=21), eps=0.1,
                               interval=(0.2, 0.8))
    assert abs(diag.value - closed_form) < 3 * diag.se


def test_learning_diagnostic_matches_ode(fig_eq):
    # the diagnostic solves mu f' + sigma^2 f''/2 - r1 f + r1 1{a <= 1 - eps} = 0
    # in z on the interval, with f = 0 at both ends; one tridiagonal solve
    from scipy.linalg import solve_banded
    z = np.linspace(logit(0.05), logit(0.95), 16_001)
    h = z[1] - z[0]
    a, _ = mg.eval_agent(fig_eq.agent, z)
    half_var = 0.5 * (FIG.psi * (1.0 - a)) ** 2      # sigma^2 / 2, also the drift mu
    lower, upper = half_var / h**2 - half_var / (2 * h), half_var / h**2 + half_var / (2 * h)
    ab = np.zeros((3, z.size - 2))
    ab[0, 1:] = upper[1:-2]
    ab[1] = -2.0 * half_var[1:-1] / h**2 - FIG.r1
    ab[2, :-1] = lower[2:-1]
    f = np.zeros(z.size)
    f[1:-1] = solve_banded((1, 1), ab, -FIG.r1 * (a[1:-1] <= 0.9))
    reference = float(np.interp(logit(0.3), z, f))
    assert reference == pytest.approx(0.873832, abs=1e-5)
    diag = learning_diagnostic(fig_eq, SimConfig(p0=0.3, n_paths=20_000, seed=21), eps=0.1,
                               interval=(0.05, 0.95))
    assert abs(diag.value - reference) < 3 * diag.se


def test_learning_diagnostic_threshold_edge(fig_eq):
    # eps = 1 demands a <= 0; inside the mixing region the intensity is
    # positive, so the indicator never fires
    p_l = mg.inv_logit(fig_eq.agent.z_L)
    p_r = mg.inv_logit(fig_eq.agent.z_R)
    interval = (p_l + 0.02, p_r - 0.02)
    cfg = SimConfig(p0=0.5, n_paths=500, seed=3)
    diag = learning_diagnostic(fig_eq, cfg, eps=1.0, interval=interval)
    assert diag.value == 0.0


def test_learning_diagnostic_validation(fig_eq):
    cfg = SimConfig(p0=0.5, n_paths=10, seed=1)
    with pytest.raises(ValueError):
        learning_diagnostic(fig_eq, cfg, eps=0.0)
    with pytest.raises(ValueError):
        learning_diagnostic(fig_eq, cfg, eps=0.1, interval=(0.6, 0.9))


def test_simulate_path_types(fig_eq):
    cfg = SimConfig(p0=0.4, n_paths=1, seed=17)
    rec_ni = simulate_path(fig_eq, "NI", cfg, path_index=3)
    rec_i = simulate_path(fig_eq, "I", cfg, path_index=3)
    assert math.isnan(rec_i.agent_payoff)
    assert rec_ni.agent_payoff > 0
    assert 0 < rec_ni.p_probe < 1
    with pytest.raises(ValueError):
        simulate_path(fig_eq, "X", cfg)


def test_simulate_path_index_validation(fig_eq):
    # the stream key (tag << 48) + 2 idx + stream holds indices below 2**47:
    # -1 overflowed, 2.5 ran, and 2**47 replayed investible path 0
    cfg = SimConfig(p0=0.4, n_paths=1, seed=17)
    for bad in (-1, 2.5, 2**47, "3"):
        with pytest.raises(ValueError, match="path_index"):
            simulate_path(fig_eq, "NI", cfg, path_index=bad)
    assert simulate_path(fig_eq, "NI", cfg, path_index=2**47 - 1).stop_time > 0.0
