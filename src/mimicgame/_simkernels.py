"""Path-stepping kernels for the belief simulator.

The kernels step the belief in its Lamperti coordinate X, the integral of
dz / (psi (1 - a(z))) over the logit belief z, in which it diffuses at unit
volatility:

    dX = psi/2 (s (1 - a) + a') dt + dW,    a' = da/dz,

with s = +1 for the noninvestible type and -1 for the investible type.
Each step is Euler at the nominal step dt; at unit volatility the Euler and
Milstein steps are the same step, so no probe of the volatility is needed
and no part of the state space needs a shorter step. A table on a uniform X
grid (built by simulate) holds z, a and a'; a step reads a and a' at its
end in one lookup with a shared index, and the row carries them into the
next step's drift and the trapezoidal payoff flow. The cutoff, the
truncation cap and the diagnostic interval arrive mapped through X; the
belief is read back through the table's z row only where a run reports it.

Each run steps its paths in one pool of numpy arrays, one row per path in
flight and at most `batch` rows wide. run_main and run_coupled take both
agent types in one pool: the queue holds the first type's paths, then the
second's, and each row carries its type's drift sign and Philox tag. A row
whose path finishes writes the outcome to the path's slot of the output.
_Pool holds the queue, the rows' state and the one rule that all three
kernels follow for finished rows: they take the next paths from the queue
while it lasts, and once it is empty they are dropped whenever they make
up half the pool, so a run pays one drain tail however many types it
holds. A path's draw buffers stay in the buffer row it was admitted to,
so dropping rows copies only the per-path state. All randomness comes
from per-path counter-based Philox streams keyed by (seed, type tag, path
index), consumed one normal per diffusion step (per fine step in the
coupled run) and one exponential per opportunity arrival, so a path's
trajectory depends neither on the row it runs in, nor on the width of the
pool, nor on the types that share it.

Paths freeze once X reaches either end of the table, the images of -z_cap
and z_cap, after which their fate is deterministic and closed in one shot.
Steps are clipped to the next opportunity arrival and to the horizon, so
stopping happens exactly at arrival times and discounting integrates
exactly over each step. A full step takes its discount factors from
constants; only a step cut short by an arrival or the horizon evaluates
exp.

The step-size refinement run (run_coupled) simulates each path at dt and
at dt/2 on one shared Brownian path. Independent runs at the two step
sizes differ by sampling noise of the size of their standard errors
(their payoffs correlate only about 0.7 path by path when they merely
share streams, because the normals land at different times), which hides
a bias smaller than that noise. Here the two legs move in lockstep on the
row's clock, so that the coarse increment is the sum of two fine ones
(Giles, Oper. Res. 2008). Each pass draws two normals xi1 and xi2 per row
and takes two fine steps over h1 and h2, driven by sqrt(h1) xi1 and
sqrt(h2) xi2, and one coarse step over h = h1 + h2, driven by their sum.
Each step length is the leg's nominal step, clipped at the next arrival or
the horizon, so both legs reach every arrival together and each decides
there whether it stops. Arrival times come from the same exponential
stream as the main run, and both legs step through the same _advance.

The learning diagnostic (run_diag) runs the noninvestible type until the
belief leaves an interval. Between step ends a path may leave and come
back unseen; at unit volatility the chance of that for a step from X to X'
over h is exp(-2 (b - X)(b - X') / h) at each barrier b (the Brownian
bridge; Glasserman 2004, section 6.4). Each path carries the probability
that it is still inside, and the mass a step loses exits at the step's
start.
"""

import numpy as np
from numpy.random import Generator, Philox

_CHUNK_N = 2048       # normals drawn per path per refill
_CHUNK_E = 64         # exponentials drawn per path per refill

_BRIDGE_CUT = 20.0     # a step whose barrier products both exceed this many h crosses
                       # with chance below 2 exp(-40) < 2^-54, so 1 - q rounds to 1.0


def _gen(seed, tag, idx, stream):
    return Generator(Philox(key=np.array([seed, (tag << 48) + 2 * idx + stream],
                                         dtype=np.uint64)))


def _lookup(tab, span):
    """Table lookup, linear between nodes and clamped at both ends.

    tab holds one row per quantity over uniform nodes from span[0] to
    span[1]. A lookup locates the points once and returns every row at
    them, with shape (rows, *points.shape). The slope table ends in a
    zero, so a point clipped to the last node reads that node's value on
    the same path as every other point.
    """
    top = float(tab.shape[-1] - 1)
    x_lo, inv_dx = span[0], top / (span[1] - span[0])
    slope = np.diff(tab, axis=-1, append=tab[..., -1:])

    def interp(xv):
        pos = xv - x_lo
        pos *= inv_dx
        np.clip(pos, 0.0, top, out=pos)
        node = np.floor(pos)
        i = node.astype(np.intp)
        pos -= node
        return tab.take(i, axis=-1) + slope.take(i, axis=-1) * pos

    return interp


def _advance(x, a, ap, pay, d1, d2, h, dw, e1, em1, e2, sgn, half_psi, u, c, interp):
    """One payoff-accruing Euler step of X from x over h, driven by the Brownian increment dw.

    a and ap are the intensity and its slope da/dz at x. Returns (x, a, ap,
    pay, d1, d2) after the step, so the caller carries the policy at the
    new state into the next step.
    """
    x_new = x + (half_psi * (sgn * (1.0 - a) + ap)) * h + dw
    a_end, ap_end = interp(x_new)
    # trapezoidal intensity along the step keeps the payoff quadrature
    # honest where the policy is steep
    flow = u + (1.0 - 0.5 * (a + a_end)) * c
    return x_new, a_end, ap_end, pay + flow * (d1 * em1), d1 * e1, d2 * e2


def _close_frozen(frozen, x, a, t, arr, pay, d1, d2, x_star, r1, r2, u, c, horizon):
    """Close the frozen entries in one shot: the belief no longer moves.

    Updates pay, d1 and d2 in place and returns (T, stopped) of the frozen
    entries, in the order of frozen.nonzero().
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        will_stop = frozen & (x >= x_star) & (arr < horizon)
        T = np.where(will_stop, arr, horizon)
        flow = u + (1.0 - a) * c
        h = np.where(frozen, T - t, 0.0)
        pay[frozen] = (pay + flow * (d1 * (-np.expm1(-r1 * h))))[frozen]
        d1[frozen] = (d1 * np.exp(-r1 * h))[frozen]
        d2[frozen] = (d2 * np.exp(-r2 * h))[frozen]
    return T[frozen], np.where(will_stop, 1.0, 0.0)[frozen]


class _Pool:
    """The rows of one run's paths in flight, fed from a queue of total paths.

    Row state lives in attributes holding arrays with the row on the last
    axis: path (the queue position of the path each row holds), slot (the
    row of the draw buffers it reads) and those a kernel adds with hold.
    settle drops rows from all of them at once. Draw buffers are not row
    state: they stay in place, and rows address them by slot.
    """

    def __init__(self, total, batch):
        n = min(batch, total)
        self.total = total
        self.started = 0                     # paths taken from the queue
        self.path = np.zeros(n, dtype=np.int64)
        self.slot = np.arange(n)
        self._names = ["path", "slot"]

    def hold(self, names, dtype=float, legs=None):
        """Add an uninitialised row-state array per name, with a leading axis of legs if given."""
        shape = (self.slot.size,) if legs is None else (legs, self.slot.size)
        for name in names.split():
            setattr(self, name, np.empty(shape, dtype=dtype))
            self._names.append(name)

    def take(self, free):
        """Give queued paths to the rows free, in queue order.

        Returns the rows that took a path and the paths' queue positions.
        """
        rows = free[:self.total - self.started]
        q = np.arange(self.started, self.started + rows.size)
        self.started += rows.size
        self.path[rows] = q
        return rows, q

    def settle(self, live, admit):
        """Refill the rows that are not live, or drop them.

        While the queue lasts, admit(rows) gives them the next paths; once
        it is empty, they are dropped when they make up half the pool.
        """
        n_live = np.count_nonzero(live)
        if self.started < self.total:
            if n_live < live.size:
                admit(np.flatnonzero(~live))
        elif 2 * n_live <= live.size:
            keep = np.flatnonzero(live)
            for name in self._names:
                setattr(self, name, getattr(self, name)[..., keep])


def _queue_rows(q, n_paths, drift_sign):
    """Type, path index within the type and drift sign of queue positions q."""
    kind, j = np.divmod(q, n_paths)
    return kind, j, np.asarray(drift_sign, dtype=float)[kind]


def _policy_at(interp, x):
    """(a, a') at the single point x."""
    a, ap = interp(np.array([x], dtype=float))[:, 0]
    return float(a), float(ap)


def _next_arrivals(pool, rows, start, echunk, scale):
    """Set the rows' next arrival to start plus their next exponential draw.

    A row whose chunk of draws is spent draws the next chunk first; an
    admitted row starts with epos at _CHUNK_E, so it draws its first here.
    """
    for i in rows[pool.epos[rows] >= _CHUNK_E]:
        echunk[pool.slot[i]] = pool.gens_e[i].exponential(scale=scale, size=_CHUNK_E)
        pool.epos[i] = 0
    pool.arr[rows] = start + echunk[pool.slot[rows], pool.epos[rows]]
    pool.epos[rows] += 1


def _normals(pool, nchunk):
    """Each row's next standard normal; live rows whose chunk is spent draw the next chunk.

    An admitted row starts with npos at _CHUNK_N, so its first step draws
    its first chunk.
    """
    spent = pool.npos >= _CHUNK_N
    for i in np.flatnonzero(spent & pool.alive):
        nchunk[pool.slot[i]] = pool.gens_n[i].standard_normal(_CHUNK_N)
    pool.npos[spent] = 0
    nrm = nchunk[pool.slot, pool.npos]
    pool.npos += 1
    return nrm


def _stepper(dt, r1, r2):
    """Step lengths clipped at stopping times, with their Brownian scale and discount factors.

    The returned steps(t, stops, live) gives (h, lim, (sqrt(h), e^{-r1 h},
    1 - e^{-r1 h}, e^{-r2 h})) for steps from t. stops holds the times a
    step may not pass, the later ones taking precedence where both cut it;
    lim is 0 for a full step, else the number of the stop that cut it.
    Full steps take constants; only the live rows' cut steps evaluate sqrt
    and exp.
    """
    funcs = (np.sqrt, lambda h: np.exp(-r1 * h), lambda h: -np.expm1(-r1 * h),
             lambda h: np.exp(-r2 * h))
    full = [float(f(dt)) for f in funcs]

    def steps(t, stops, live):
        h = np.full(t.size, dt)
        lim = np.zeros(t.size, dtype=np.int8)
        for k, stop in enumerate(stops, 1):
            left = stop - t
            m = left < h
            h[m] = left[m]
            lim[m] = k
        np.maximum(h, 0.0, out=h)
        consts = [np.full(t.size, x) for x in full]
        short = np.flatnonzero(live & (lim > 0))
        if short.size:
            hs = h[short]
            with np.errstate(under="ignore", over="ignore"):
                for x, f in zip(consts, funcs):
                    x[short] = f(hs)
        return h, lim, consts

    return steps


def run_main(x0, x_star, drift_sign, psi, r1, r2, u, c, lam, dt, horizon, x_cap,
             t_probe, tab, n_paths, seed, tag, batch, path_offset):
    """Simulate n_paths of each agent type in one pool.

    drift_sign and tag hold one entry per type: +1.0 for the noninvestible
    type's upward drift or -1.0 for the investible type's, and the type's
    Philox tag. tab holds the rows z, a and a' on uniform X nodes from
    x_cap[0] to x_cap[1], the ends where paths freeze. Returns shape
    (types, n_paths, 6), columns (T, stopped, pay, e^{-r1 T}, e^{-r2 T},
    z_probe), with z_probe read back through the table (so a frozen path
    reads the cap); row j of type k is the path with stream index
    path_offset + j under tag[k]. At most batch paths are in flight at
    once, over all types; no result depends on batch or on the types that
    share the pool.
    """
    exp_scale = 1.0 / lam
    half_psi = 0.5 * psi
    steps = _stepper(dt, r1, r2)
    interp = _lookup(tab[1:], x_cap)
    to_z = _lookup(tab[:1], x_cap)
    a0, ap0 = _policy_at(interp, x0)
    total = len(tag) * n_paths
    out = np.empty((total, 6))

    # Rows of finished paths keep stepping on stale state until they are
    # refilled or dropped: their steps shrink to zero at the arrival or the
    # horizon, and nothing reads them but the masks below, which skip them.
    # sgn is the row's type's drift sign, a and ap the policy at x, xpr the
    # state at the probe time once prdone.
    pool = _Pool(total, batch)
    pool.hold("sgn t x a ap d1 d2 pay xpr arr")
    pool.hold("alive prdone", bool)
    pool.hold("epos npos", np.int64)
    pool.hold("gens_n gens_e", object)
    n = pool.slot.size
    echunk = np.empty((n, _CHUNK_E)); nchunk = np.empty((n, _CHUNK_N))

    def admit(free):
        r, q = pool.take(free)
        kind, j, pool.sgn[r] = _queue_rows(q, n_paths, drift_sign)
        for i, k, jj in zip(r, kind, j):
            pool.gens_n[i] = _gen(seed, tag[k], path_offset + int(jj), 0)
            pool.gens_e[i] = _gen(seed, tag[k], path_offset + int(jj), 1)
        pool.t[r] = 0.0; pool.x[r] = x0; pool.d1[r] = 1.0; pool.d2[r] = 1.0; pool.pay[r] = 0.0
        pool.a[r] = a0; pool.ap[r] = ap0
        pool.prdone[r] = False; pool.npos[r] = _CHUNK_N; pool.epos[r] = _CHUNK_E
        _next_arrivals(pool, r, 0.0, echunk, exp_scale)
        pool.alive[r] = True

    def finish(mask, T, stopped):
        # a path that ends before the probe time records its final belief
        j = pool.path[mask]
        out[j, 0] = T; out[j, 1] = stopped
        out[j, 2] = pool.pay[mask]; out[j, 3] = pool.d1[mask]; out[j, 4] = pool.d2[mask]
        out[j, 5] = to_z(np.where(pool.prdone[mask], pool.xpr[mask], pool.x[mask]))[0]
        pool.alive[mask] = False

    admit(np.arange(n))
    while pool.alive.any():
        # probe capture at step boundaries
        cap = pool.alive & ~pool.prdone & (pool.t >= t_probe)
        pool.xpr[cap] = pool.x[cap]; pool.prdone[cap] = True

        frozen = pool.alive & ((pool.x <= x_cap[0]) | (pool.x >= x_cap[1]))
        if frozen.any():
            finish(frozen, *_close_frozen(frozen, pool.x, pool.a, pool.t, pool.arr, pool.pay,
                                          pool.d1, pool.d2, x_star, r1, r2, u, c, horizon))

        h, lim, (sh, e1, em1, e2) = steps(pool.t, (pool.arr, horizon), pool.alive)
        dw = sh * _normals(pool, nchunk)
        pool.x, pool.a, pool.ap, pool.pay, pool.d1, pool.d2 = _advance(
            pool.x, pool.a, pool.ap, pool.pay, pool.d1, pool.d2, h, dw, e1, em1, e2,
            pool.sgn, half_psi, u, c, interp)
        pool.t = pool.t + h

        hit = pool.alive & (lim == 1)
        if hit.any():
            stop_now = hit & (pool.x >= x_star)
            finish(stop_now, pool.t[stop_now], 1.0)
            cont = np.flatnonzero(hit & pool.alive)
            if cont.size:
                _next_arrivals(pool, cont, pool.t[cont], echunk, exp_scale)

        hz = pool.alive & (lim == 2)
        if hz.any():
            finish(hz, horizon, 0.0)
        pool.settle(pool.alive, admit)
    return out.reshape(len(tag), n_paths, 6)


def run_coupled(x0, x_star, drift_sign, psi, r1, r2, u, c, lam, dt, horizon, x_cap,
                tab, n_paths, seed, tag, batch):
    """Simulate n_paths of each agent type at dt and at dt/2 on shared Brownian paths.

    drift_sign, tag, tab and x_cap are as in run_main. Returns shape
    (types, 2, n_paths, 5): leg 0 at dt, leg 1 at dt/2, columns (T,
    stopped, pay, e^{-r1 T}, e^{-r2 T}). The legs move in lockstep on the
    row's clock: each pass draws two normals per row, then takes one coarse
    step over h and two fine steps over h1 and h2, with h1 + h2 = h, all
    clipped at the next arrival or the horizon. Each fine step is driven by
    its own normal and the coarse step by their sum. A row stays in the
    pool while either leg is alive. At most batch paths are in flight at
    once, over all types; no result depends on batch or on the types that
    share the pool.
    """
    exp_scale = 1.0 / lam
    half_psi = 0.5 * psi
    coarse = _stepper(dt, r1, r2)
    fine = _stepper(0.5 * dt, r1, r2)
    interp = _lookup(tab[1:], x_cap)
    a0, ap0 = _policy_at(interp, x0)
    total = len(tag) * n_paths
    out = np.empty((len(tag), 2, n_paths, 5))

    # Per path: the clock and arrivals the legs share, and alive while
    # either leg is live. Per leg (leg 0 at dt, leg 1 at dt/2) and path:
    # the state, and live until the leg's outcome is in out. A dead leg of
    # a live path keeps stepping on stale state that only the masks read.
    pool = _Pool(total, batch)
    pool.hold("sgn t arr")
    pool.hold("alive", bool)
    pool.hold("epos npos", np.int64)
    pool.hold("gens_n gens_e", object)
    pool.hold("x a ap pay d1 d2", legs=2)
    pool.hold("live", bool, legs=2)
    n = pool.slot.size
    echunk = np.empty((n, _CHUNK_E)); nchunk = np.empty((n, _CHUNK_N))

    def admit(free):
        r, q = pool.take(free)
        kind, j, pool.sgn[r] = _queue_rows(q, n_paths, drift_sign)
        for i, k, jj in zip(r, kind, j):
            pool.gens_n[i] = _gen(seed, tag[k], int(jj), 0)
            pool.gens_e[i] = _gen(seed, tag[k], int(jj), 1)
        pool.t[r] = 0.0; pool.npos[r] = _CHUNK_N; pool.epos[r] = _CHUNK_E
        _next_arrivals(pool, r, 0.0, echunk, exp_scale)
        pool.x[:, r] = x0; pool.d1[:, r] = 1.0; pool.d2[:, r] = 1.0; pool.pay[:, r] = 0.0
        pool.a[:, r] = a0; pool.ap[:, r] = ap0
        pool.live[:, r] = True; pool.alive[r] = True

    def finish(mask, T, stopped):
        leg, col = np.nonzero(mask)
        kind, j = np.divmod(pool.path[col], n_paths)
        out[kind, leg, j] = np.stack(np.broadcast_arrays(
            T, stopped, pool.pay[mask], pool.d1[mask], pool.d2[mask]), axis=-1)
        pool.live[mask] = False
        pool.alive = pool.live[0] | pool.live[1]

    def advance(state, h, dw, disc):
        return _advance(*state, h, dw, *disc, pool.sgn, half_psi, u, c, interp)

    admit(np.arange(n))
    while pool.alive.any():
        frozen = pool.live & ((pool.x <= x_cap[0]) | (pool.x >= x_cap[1]))
        if frozen.any():
            finish(frozen, *_close_frozen(frozen, pool.x, pool.a, pool.t, pool.arr, pool.pay,
                                          pool.d1, pool.d2, x_star, r1, r2, u, c, horizon))

        stops = (pool.arr, horizon)
        h, lim, (_, *disc) = coarse(pool.t, stops, pool.alive)
        h1, _, (sh1, *disc1) = fine(pool.t, stops, pool.alive)
        h2, _, (sh2, *disc2) = fine(pool.t + h1, stops, pool.alive)
        dw1 = sh1 * _normals(pool, nchunk)
        dw2 = sh2 * _normals(pool, nchunk)
        state = (pool.x, pool.a, pool.ap, pool.pay, pool.d1, pool.d2)
        at_dt = advance([x[0] for x in state], h, dw1 + dw2, disc)
        at_half = advance(advance([x[1] for x in state], h1, dw1, disc1), h2, dw2, disc2)
        for x, x_dt, x_half in zip(state, at_dt, at_half):
            x[0] = x_dt; x[1] = x_half
        pool.t = pool.t + h

        hit = pool.alive & (lim == 1)
        if hit.any():
            stop_now = pool.live & hit & (pool.x >= x_star)
            finish(stop_now, np.broadcast_to(pool.t, stop_now.shape)[stop_now], 1.0)
            cont = np.flatnonzero(hit & pool.alive)
            if cont.size:
                _next_arrivals(pool, cont, pool.t[cont], echunk, exp_scale)

        hz = pool.live & (lim == 2)
        if hz.any():
            finish(hz, horizon, 0.0)
        pool.settle(pool.alive, admit)
    return out


def run_diag(x0, x_int, psi, r1, a_thresh, dt, horizon, tab, x_cap, n_paths, seed, tag,
             batch):
    """Noninvestible run stopped at interval exit; columns (T, exited, e^{-r1 tau}, low-mimic integral).

    x_int = (lo, hi) is the interval in X, and tab and x_cap are as in
    run_main. Each path carries the probability w that it is still
    inside, which every step multiplies by its Brownian-bridge survival
    chance; the mass a step loses exits at the step's start. T is the end
    of the path's run: its first step end outside the interval, or the
    horizon. exited is the probability that the path left by T, e^{-r1 tau}
    the expected discount at its exit, the horizon counting as the exit of
    the mass still inside there, and each step adds its low-mimic gain
    weighted by the w that survives it. At most batch paths are in flight
    at once.
    """
    half_psi = 0.5 * psi
    lo, hi = x_int
    steps = _stepper(dt, r1, 0.0)
    interp = _lookup(tab[1:], x_cap)
    a0, ap0 = _policy_at(interp, x0)
    out = np.empty((n_paths, 4))

    # w is the chance that the path is still inside, disc the discount
    # already credited to the mass that left between step ends
    pool = _Pool(n_paths, batch)
    pool.hold("t x a ap d1 low w disc")
    pool.hold("alive", bool)
    pool.hold("npos", np.int64)
    pool.hold("gens_n", object)
    n = pool.slot.size
    nchunk = np.empty((n, _CHUNK_N))

    def admit(free):
        r, j = pool.take(free)
        for i, jj in zip(r, j):
            pool.gens_n[i] = _gen(seed, tag, int(jj), 0)
        pool.t[r] = 0.0; pool.x[r] = x0; pool.a[r] = a0; pool.ap[r] = ap0
        pool.d1[r] = 1.0; pool.low[r] = 0.0; pool.w[r] = 1.0; pool.disc[r] = 0.0
        pool.npos[r] = _CHUNK_N
        pool.alive[r] = True

    def finish(mask, T, exited):
        j = pool.path[mask]
        w = pool.w[mask]
        out[j, 0] = T; out[j, 1] = 1.0 if exited else 1.0 - w
        out[j, 2] = pool.disc[mask] + w * pool.d1[mask]; out[j, 3] = pool.low[mask]
        pool.alive[mask] = False

    admit(np.arange(n))
    while pool.alive.any():
        alive, t, x = pool.alive, pool.t, pool.x
        exit_now = alive & ((x <= lo) | (x >= hi))
        if exit_now.any():
            finish(exit_now, t[exit_now], True)
        tz = alive & (t >= horizon)
        if tz.any():
            finish(tz, horizon, False)

        h, _, (sh, e1, em1, _) = steps(t, (horizon,), alive)
        x_new = x + (half_psi * ((1.0 - pool.a) + pool.ap)) * h + sh * _normals(pool, nchunk)

        # Brownian-bridge survival of the steps that end inside; the others
        # exit at their end. Rows far from both barriers keep 1 - q == 1.0
        # without evaluating exp.
        p_hi = (hi - x) * (hi - x_new)
        p_lo = (x - lo) * (x_new - lo)
        surv = np.ones(alive.size)
        near = np.flatnonzero(alive & (p_hi > 0.0) & (p_lo > 0.0)
                              & (np.minimum(p_hi, p_lo) < _BRIDGE_CUT * h))
        if near.size:
            hn = h[near]
            q = np.exp(-2.0 * p_hi[near] / hn) + np.exp(-2.0 * p_lo[near] / hn)
            surv[near] = np.maximum(1.0 - q, 0.0)
        w_new = pool.w * surv
        gain = np.where(pool.a <= a_thresh, w_new * (pool.d1 * em1), 0.0)
        a_new, ap_new = interp(x_new)
        for arr, new in ((pool.disc, pool.disc + (pool.w - w_new) * pool.d1),
                         (pool.low, pool.low + gain), (pool.w, w_new), (pool.x, x_new),
                         (pool.a, a_new), (pool.ap, ap_new), (pool.d1, pool.d1 * e1),
                         (pool.t, t + h)):
            np.copyto(arr, new, where=alive)
        pool.settle(alive, admit)
    return out
