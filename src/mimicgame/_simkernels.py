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
holds. All randomness comes from per-path counter-based Philox streams
keyed by (seed, type tag, path index), consumed one normal per diffusion
step (per fine step in the coupled run) and one exponential per
opportunity arrival, so a path's trajectory depends neither on the row it
runs in, nor on the width of the pool, nor on the types that share it.
Each row keeps its generators and re-keys them for every path it
takes. Normals come in blocks aligned to the passes: at the first pass of
every block of _BLOCK passes each live row draws the normals of the whole
block into its row of the draw buffer, and a row that takes a path
mid-block draws only the rest of the block; a pass reads one column.
Since a stream split into pieces is the same stream, the block length
changes no bit. Each kernel runs the contiguous range of path indices from
path_offset, so a run split into ranges gives the rows of the whole run
bit for bit. simulate splits each call into such shares, one per usable
core: the first runs in the calling process and the others in forked
children, or all of the call runs in process where fork is unavailable.
The kernels themselves know nothing of processes.

Only the Euler step and the checks that depend on the state (the frozen
caps, the diagnostic's barriers) run over the whole pool; everything else
runs on the index subsets it concerns. Paths freeze once X reaches either
end of the table, the images of -z_cap and z_cap, after which their fate
is deterministic and closed in one shot. Steps are clipped to the next
opportunity arrival and to the horizon, so stopping happens exactly at
arrival times and discounting integrates exactly over each step. Each row
carries the first pass at which an arrival, the horizon or the probe time
could cut or capture its step, set from the time left with whole steps to
spare (_scheduler); only the rows whose pass has come go through the
exact rule. The step lengths and their discount factors are kept at the
full step's constants and written only at the rows a stop cuts, where
exp is evaluated.

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
from numpy.random import Generator, Philox, SeedSequence

_BLOCK = 256          # passes per block of normals
_CHUNK_E = 64         # exponentials drawn per path per refill
_NEVER = np.iinfo(np.int64).max     # the due pass of a row without a path

_BRIDGE_CUT = 20.0     # a step whose barrier products both exceed this many h crosses
                       # with chance below 2 exp(-40) < 2^-54, so 1 - q rounds to 1.0

_ZERO4 = np.zeros(4, dtype=np.uint64)


def _rekey(gen, seed, tag, idx, stream):
    """Set gen to the start of the Philox stream of (seed, tag, path index, stream)."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4,
                  "key": np.array([seed, (tag << 48) + 2 * idx + stream], dtype=np.uint64)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _scheduler(dt, horizon):
    """due(p, t, stop): the first pass at which a row may meet a stop, counting from pass p.

    The row steps from clock t at pass p, and stop is at most horizon. A
    row whose passes from p on all take full steps reaches its clock t' at
    each by adding dt, with a rounding error of at most 2^-53 |t'| per
    addition. Before the pass due returns, t' stays more than a whole step
    below stop even with those errors and the rounding of due itself, so
    no exact rule cuts or captures there: stop - t' < h for the coarse
    step and both fine half-steps, t' >= stop for the probe. The margin is
    four whole steps and a share of the steps left that bounds the
    accumulated rounding.
    """
    shrink = 1.0 - (horizon + dt) / dt * 2.0**-50

    def due(p, t, stop):
        n = (stop - t) / dt * shrink - 4.0
        return p + np.minimum(np.maximum(n, 0.0), 2.0**40).astype(np.int64)

    return due


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
        np.minimum(np.maximum(pos, 0.0, out=pos), top, out=pos)
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


def _close_frozen(x, a, t, arr, pay, d1, d2, x_star, r1, r2, u, c, horizon):
    """Close frozen paths in one shot: the belief no longer moves.

    Takes the frozen entries' state and returns their (T, stopped, pay,
    d1, d2) at the end T of their run.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        will_stop = (x >= x_star) & (arr < horizon)
        T = np.where(will_stop, arr, horizon)
        flow = u + (1.0 - a) * c
        h = T - t
        return (T, np.where(will_stop, 1.0, 0.0), pay + flow * (d1 * (-np.expm1(-r1 * h))),
                d1 * np.exp(-r1 * h), d2 * np.exp(-r2 * h))


def _outside(x, lo, hi, live):
    """Flat indices of the live entries of x at or beyond lo or hi."""
    i = ((x <= lo) | (x >= hi)).ravel().nonzero()[0]
    return i[live.ravel()[i]]


class _Pool:
    """The rows of one run's paths in flight, fed from a queue of total paths.

    Row state lives in attributes holding arrays with the row on the last
    axis: path (the queue position of the path each row holds), alive,
    due (the first pass at which the row's stop checks run, _NEVER while
    it holds no path), gens (the row's generators: normals, then
    exponentials where the run has arrivals), epos (the next exponential
    in the row of echunk) and those a kernel adds with hold. The draw
    buffers hold a row per pool row: nbuf the normals of the current
    block of passes, per_pass of them per pass, and echunk the
    exponentials. settle drops rows from all of them at once.
    """

    def __init__(self, total, batch, per_pass, streams, key):
        n = min(batch, total)
        self.total = total
        self.started = 0                     # paths taken from the queue
        self.n_live = 0
        self.block, self.per_pass = _BLOCK, per_pass
        self.key = key                       # (seed, tags, paths per type, path_offset)
        self.nbuf = np.zeros((n, per_pass * self.block))
        self.echunk = np.empty((n, _CHUNK_E))
        self._names = []
        self.hold("path due epos", np.int64)
        self.hold("alive", bool)
        self.hold("gens", object, lead=(streams,))
        seeded = SeedSequence(0)             # any start does: each path re-keys its row
        for k in np.ndindex(self.gens.shape):
            self.gens[k] = Generator(Philox(seeded))
        self.alive[:] = False
        self.due[:] = _NEVER
        self._freed = [np.arange(n)]         # rows whose paths finished in this pass

    def hold(self, names, dtype=float, lead=()):
        """Add an uninitialised row-state array per name, of shape (*lead, rows)."""
        for name in names.split():
            setattr(self, name, np.empty((*lead, self.nbuf.shape[0]), dtype=dtype))
            self._names.append(name)

    def checks(self, p):
        """The rows whose stop checks are due at pass p, in ascending order."""
        return (self.due <= p).nonzero()[0]

    def normals(self, p):
        """The rows' normals for pass p, one array per normal a pass takes.

        At the first pass of a block every live row draws the block.
        """
        o = p % self.block
        if o == 0:
            for i in self.alive.nonzero()[0]:
                self.gens[0, i].standard_normal(out=self.nbuf[i])
        k = self.per_pass
        return [self.nbuf[:, k * o + j] for j in range(k)]

    def release(self, rows):
        """Free the rows, whose paths have finished."""
        self.alive[rows] = False
        self.due[rows] = _NEVER
        self.n_live -= rows.size
        self._freed.append(rows)

    def settle(self, p, admit):
        """At the end of pass p, refill the free rows or drop them.

        While the queue lasts, the rows freed in this pass take the next
        paths: they re-key their generators, draw the rest of the block
        and reset epos, and admit(rows, kind, p + 1) sets the kernel's
        state of the rows, where kind is the type index of their paths and
        p + 1 the first pass they step in. Once the queue is empty, the
        rows without a path are dropped when they make up half the pool.
        """
        freed, self._freed = self._freed, []
        if self.started < self.total:
            if not freed:
                return
            rows = np.concatenate(freed)[:self.total - self.started]
            q = np.arange(self.started, self.started + rows.size)
            self.started += rows.size
            self.path[rows] = q
            seed, tag, n_paths, offset = self.key
            kind, j = np.divmod(q, n_paths)
            o = self.per_pass * ((p + 1) % self.block)
            for i, k, jj in zip(rows, kind, j):
                for stream, gen in enumerate(self.gens[:, i]):
                    _rekey(gen, seed, tag[k], offset + int(jj), stream)
                if o:
                    self.gens[0, i].standard_normal(out=self.nbuf[i, o:])
            self.alive[rows] = True
            self.n_live += rows.size
            self.epos[rows] = _CHUNK_E
            admit(rows, kind, p + 1)
        elif 2 * self.n_live <= self.path.size:
            keep = self.alive.nonzero()[0]
            for name in self._names:
                setattr(self, name, getattr(self, name)[..., keep])
            self.nbuf, self.echunk = self.nbuf[keep], self.echunk[keep]


def _policy_at(interp, x):
    """(a, a') at the single point x."""
    a, ap = interp(np.array([x], dtype=float))[:, 0]
    return float(a), float(ap)


def _next_arrivals(pool, rows, start, scale):
    """Set the rows' next arrival to start plus their next exponential draw.

    A row whose chunk of draws is spent draws the next chunk first; an
    admitted row starts with epos at _CHUNK_E, so it draws its first here.
    """
    pos = pool.epos[rows]
    spent = pos >= _CHUNK_E
    for i in rows[spent]:
        pool.echunk[i] = pool.gens[1, i].exponential(scale=scale, size=_CHUNK_E)
    pos[spent] = 0
    pool.arr[rows] = start + pool.echunk[rows, pos]
    pool.epos[rows] = pos + 1


def _stepper(dt, r1, r2):
    """Step lengths clipped at stopping times, with their Brownian scale and discount factors.

    Returns (full, values, clip). values(h) stacks the rows (h, sqrt(h),
    e^{-r1 h}, 1 - e^{-r1 h}, e^{-r2 h}) over the step lengths h; full is
    that column at the full step h = dt. A kernel keeps these rows over the
    pool at full-step values and writes values only at the rows a stop
    cuts. clip(t, stops) applies the exact rule to steps from the clocks
    t: stops holds the times a step may not pass, the later ones taking
    precedence where both cut it. It returns (h, lim): the step lengths,
    and lim 0 for a full step or else the number of the stop that cut it.
    """
    def values(h):
        with np.errstate(under="ignore", over="ignore"):
            return np.stack([h, np.sqrt(h), np.exp(-r1 * h), -np.expm1(-r1 * h),
                             np.exp(-r2 * h)])

    def clip(t, stops):
        h = np.full(t.size, dt)
        lim = np.zeros(t.size, dtype=np.int8)
        for k, stop in enumerate(stops, 1):
            left = stop - t
            m = left < h
            h[m] = left[m]
            lim[m] = k
        return np.maximum(h, 0.0, out=h), lim

    return values(np.array([dt])), values, clip


def run_main(x0, x_star, drift_sign, psi, r1, r2, u, c, lam, dt, horizon, x_cap,
             t_probe, tab, n_paths, seed, tag, batch, path_offset=0):
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
    full, values, clip = _stepper(dt, r1, r2)
    interp = _lookup(tab[1:], x_cap)
    to_z = _lookup(tab[:1], x_cap)
    a0, ap0 = _policy_at(interp, x0)
    total = len(tag) * n_paths
    out = np.empty((total, 6))
    signs = np.asarray(drift_sign, dtype=float)

    # Rows without a path keep stepping on stale state until they are
    # refilled or dropped; nothing reads them. sgn is the row's type's
    # drift sign, a and ap the policy at x, xpr the state at the probe
    # time once prdone, step the rows of _stepper's full.
    pool = _Pool(total, batch, per_pass=1, streams=2, key=(seed, tag, n_paths, path_offset))
    pool.hold("sgn t x a ap d1 d2 pay xpr arr")
    pool.hold("prdone", bool)
    pool.hold("step", lead=(5,))
    pool.step[...] = full
    due = _scheduler(dt, horizon)

    def reschedule(rows, p):
        # the nearest stop: the arrival, the horizon, or the probe time until captured
        stop = np.minimum(pool.arr[rows], horizon)
        stop = np.where(pool.prdone[rows], stop, np.minimum(stop, t_probe))
        pool.due[rows] = due(p, pool.t[rows], stop)

    def admit(rows, kind, first):
        pool.sgn[rows] = signs[kind]
        pool.t[rows] = 0.0; pool.x[rows] = x0; pool.d1[rows] = 1.0; pool.d2[rows] = 1.0
        pool.pay[rows] = 0.0; pool.a[rows] = a0; pool.ap[rows] = ap0; pool.prdone[rows] = False
        _next_arrivals(pool, rows, 0.0, exp_scale)
        reschedule(rows, first)

    def finish(rows, T, stopped):
        # a path that ends before the probe time records its final belief
        j = pool.path[rows]
        out[j, 0] = T; out[j, 1] = stopped
        out[j, 2] = pool.pay[rows]; out[j, 3] = pool.d1[rows]; out[j, 4] = pool.d2[rows]
        out[j, 5] = to_z(np.where(pool.prdone[rows], pool.xpr[rows], pool.x[rows]))[0]
        pool.release(rows)

    p = -1
    pool.settle(p, admit)
    while pool.n_live:
        p += 1
        checked = pool.checks(p)
        # probe capture at step boundaries
        cap = checked[~pool.prdone[checked] & (pool.t[checked] >= t_probe)]
        pool.xpr[cap] = pool.x[cap]; pool.prdone[cap] = True

        frozen = _outside(pool.x, *x_cap, pool.alive)
        if frozen.size:
            T, stopped, pool.pay[frozen], pool.d1[frozen], pool.d2[frozen] = _close_frozen(
                pool.x[frozen], pool.a[frozen], pool.t[frozen], pool.arr[frozen],
                pool.pay[frozen], pool.d1[frozen], pool.d2[frozen], x_star, r1, r2, u, c, horizon)
            finish(frozen, T, stopped)
            checked = checked[pool.alive[checked]]

        (nrm,) = pool.normals(p)
        hc, lim = clip(pool.t[checked], (pool.arr[checked], horizon))
        short = lim > 0
        cut = checked[short]
        if cut.size:
            pool.step[:, cut] = values(hc[short])
        h, sh, e1, em1, e2 = pool.step
        pool.x, pool.a, pool.ap, pool.pay, pool.d1, pool.d2 = _advance(
            pool.x, pool.a, pool.ap, pool.pay, pool.d1, pool.d2, h, sh * nrm, e1, em1, e2,
            pool.sgn, half_psi, u, c, interp)
        pool.t = pool.t + h

        if cut.size:
            pool.step[:, cut] = full
            hit = checked[lim == 1]
            stop_now = hit[pool.x[hit] >= x_star]
            if stop_now.size:
                finish(stop_now, pool.t[stop_now], 1.0)
                hit = hit[pool.alive[hit]]
            if hit.size:
                _next_arrivals(pool, hit, pool.t[hit], exp_scale)
            hz = checked[lim == 2]
            if hz.size:
                finish(hz, horizon, 0.0)
            checked = checked[pool.alive[checked]]
        if checked.size:
            reschedule(checked, p + 1)
        pool.settle(p, admit)
    return out.reshape(len(tag), n_paths, 6)


def run_coupled(x0, x_star, drift_sign, psi, r1, r2, u, c, lam, dt, horizon, x_cap,
                tab, n_paths, seed, tag, batch, path_offset=0):
    """Simulate n_paths of each agent type at dt and at dt/2 on shared Brownian paths.

    drift_sign, tag, tab and x_cap are as in run_main. Returns shape
    (types, 2, n_paths, 5): leg 0 at dt, leg 1 at dt/2, columns (T,
    stopped, pay, e^{-r1 T}, e^{-r2 T}); path j is the one with stream
    index path_offset + j, as in run_main. The legs move in lockstep on the
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
    full, values, coarse = _stepper(dt, r1, r2)
    full_half, _, fine = _stepper(0.5 * dt, r1, r2)
    fulls = np.stack([full[:, 0], full_half[:, 0], full_half[:, 0]])
    interp = _lookup(tab[1:], x_cap)
    a0, ap0 = _policy_at(interp, x0)
    total = len(tag) * n_paths
    out = np.empty((len(tag), 2, n_paths, 5))
    signs = np.asarray(drift_sign, dtype=float)

    # Per path: the clock and arrivals the legs share. Per leg (leg 0 at
    # dt, leg 1 at dt/2) and path: the state, and live until the leg's
    # outcome is in out; the path is done once neither leg is live. A dead
    # leg of a live path keeps stepping on stale state that nothing reads.
    # step holds _stepper's rows for the coarse step, then the two fine ones.
    pool = _Pool(total, batch, per_pass=2, streams=2, key=(seed, tag, n_paths, path_offset))
    pool.hold("sgn t arr")
    pool.hold("x a ap pay d1 d2", lead=(2,))
    pool.hold("live", bool, lead=(2,))
    pool.hold("step", lead=(3, 5))
    pool.step[...] = fulls[..., None]
    due = _scheduler(dt, horizon)

    def reschedule(rows, p):
        pool.due[rows] = due(p, pool.t[rows], np.minimum(pool.arr[rows], horizon))

    def admit(rows, kind, first):
        pool.sgn[rows] = signs[kind]
        pool.t[rows] = 0.0
        _next_arrivals(pool, rows, 0.0, exp_scale)
        pool.x[:, rows] = x0; pool.d1[:, rows] = 1.0; pool.d2[:, rows] = 1.0
        pool.pay[:, rows] = 0.0; pool.a[:, rows] = a0; pool.ap[:, rows] = ap0
        pool.live[:, rows] = True
        reschedule(rows, first)

    def finish(leg, row, T, stopped):
        kind, j = np.divmod(pool.path[row], n_paths)
        rec = np.empty((row.size, 5))
        rec[:, 0] = T; rec[:, 1] = stopped; rec[:, 2] = pool.pay[leg, row]
        rec[:, 3] = pool.d1[leg, row]; rec[:, 4] = pool.d2[leg, row]
        out[kind, leg, j] = rec
        pool.live[leg, row] = False
        done = row[~(pool.live[0, row] | pool.live[1, row])]
        if done.size:
            pool.release(np.unique(done))

    def finish_live(rows, T, stopped, where=True):
        # finish the live legs of rows at which where holds
        leg, k = (pool.live[:, rows] & where).nonzero()
        if k.size:
            finish(leg, rows[k], T if np.ndim(T) == 0 else T[k], stopped)

    def advance(state, h, dw, disc):
        return _advance(*state, h, dw, *disc, pool.sgn, half_psi, u, c, interp)

    p = -1
    pool.settle(p, admit)
    while pool.n_live:
        p += 1
        checked = pool.checks(p)
        frozen = _outside(pool.x, *x_cap, pool.live)
        if frozen.size:
            leg, row = np.divmod(frozen, pool.path.size)
            T, stopped, pool.pay[leg, row], pool.d1[leg, row], pool.d2[leg, row] = _close_frozen(
                pool.x[leg, row], pool.a[leg, row], pool.t[row], pool.arr[row],
                pool.pay[leg, row], pool.d1[leg, row], pool.d2[leg, row],
                x_star, r1, r2, u, c, horizon)
            finish(leg, row, T, stopped)
            checked = checked[pool.alive[checked]]

        xi1, xi2 = pool.normals(p)
        t, stops = pool.t[checked], (pool.arr[checked], horizon)
        hc, lim = coarse(t, stops)
        hc1, lim1 = fine(t, stops)
        hc2, lim2 = fine(t + hc1, stops)
        # the cut (step, row) pairs of the coarse step and the two fine ones
        short = np.concatenate([lim, lim1, lim2]) > 0
        leg, k = np.divmod(short.nonzero()[0], max(checked.size, 1))
        cut = checked[k]
        if cut.size:
            pool.step[leg, :, cut] = values(np.concatenate([hc, hc1, hc2])[short]).T
        # the coarse step of leg 0 and the first fine step of leg 1 in one
        # call, driven by xi1 + xi2 and xi1 scaled to their steps
        dw = np.empty((2, pool.t.size))
        np.multiply(pool.step[1, 1], xi1, out=dw[1])
        dw2 = pool.step[2, 1] * xi2
        np.add(dw[1], dw2, out=dw[0])
        h, _, *disc = pool.step[:2].swapaxes(0, 1)
        state = advance((pool.x, pool.a, pool.ap, pool.pay, pool.d1, pool.d2), h, dw, disc)
        h2, _, *disc2 = pool.step[2]
        for x, x_half in zip(state, advance([x[1] for x in state], h2, dw2, disc2)):
            x[1] = x_half
        pool.x, pool.a, pool.ap, pool.pay, pool.d1, pool.d2 = state
        pool.t = pool.t + h[0]

        if cut.size:
            pool.step[leg, :, cut] = fulls[leg]
            hit = checked[lim == 1]
            finish_live(hit, pool.t[hit], 1.0, pool.x[:, hit] >= x_star)
            hit = hit[pool.alive[hit]]
            if hit.size:
                _next_arrivals(pool, hit, pool.t[hit], exp_scale)
            finish_live(checked[lim == 2], horizon, 0.0)
            checked = checked[pool.alive[checked]]
        if checked.size:
            reschedule(checked, p + 1)
        pool.settle(p, admit)
    return out


def run_diag(x0, x_int, psi, r1, a_thresh, dt, horizon, tab, x_cap, n_paths, seed, tag,
             batch, path_offset=0):
    """Noninvestible run stopped at interval exit; columns (T, exited, e^{-r1 tau}, low-mimic integral).

    x_int = (lo, hi) is the interval in X, and tab and x_cap are as in
    run_main. Each path carries the probability w that it is still
    inside, which every step multiplies by its Brownian-bridge survival
    chance; the mass a step loses exits at the step's start. T is the end
    of the path's run: its first step end outside the interval, or the
    horizon. exited is the probability that the path left by T, e^{-r1 tau}
    the expected discount at its exit, the horizon counting as the exit of
    the mass still inside there, and each step adds its low-mimic gain
    weighted by the w that survives it. Row j is the path with stream index
    path_offset + j. At most batch paths are in flight at once.
    """
    half_psi = 0.5 * psi
    lo, hi = x_int
    full, values, clip = _stepper(dt, r1, 0.0)
    interp = _lookup(tab[1:], x_cap)
    a0, ap0 = _policy_at(interp, x0)
    out = np.empty((n_paths, 4))

    # w is the chance that the path is still inside, disc the discount
    # already credited to the mass that left between step ends. Rows
    # without a path keep stepping on stale state that nothing reads.
    pool = _Pool(n_paths, batch, per_pass=1, streams=1, key=(seed, (tag,), n_paths, path_offset))
    pool.hold("t x a ap d1 low w disc")
    pool.hold("step", lead=(5,))
    pool.step[...] = full
    due = _scheduler(dt, horizon)

    def admit(rows, kind, first):
        pool.t[rows] = 0.0; pool.x[rows] = x0; pool.a[rows] = a0; pool.ap[rows] = ap0
        pool.d1[rows] = 1.0; pool.low[rows] = 0.0; pool.w[rows] = 1.0; pool.disc[rows] = 0.0
        pool.due[rows] = due(first, pool.t[rows], horizon)

    def finish(rows, T, exited):
        j = pool.path[rows]
        w = pool.w[rows]
        out[j, 0] = T; out[j, 1] = 1.0 if exited else 1.0 - w
        out[j, 2] = pool.disc[rows] + w * pool.d1[rows]; out[j, 3] = pool.low[rows]
        pool.release(rows)

    p = -1
    pool.settle(p, admit)
    while pool.n_live:
        p += 1
        checked = pool.checks(p)
        exit_now = _outside(pool.x, lo, hi, pool.alive)
        if exit_now.size:
            finish(exit_now, pool.t[exit_now], True)
            checked = checked[pool.alive[checked]]
        if checked.size:
            ended = checked[pool.t[checked] >= horizon]
            if ended.size:
                finish(ended, horizon, False)
                checked = checked[pool.alive[checked]]

        (nrm,) = pool.normals(p)
        if checked.size:
            hc, lim = clip(pool.t[checked], (horizon,))
            cut = checked[lim > 0]
            pool.step[:, cut] = values(hc[lim > 0])
        h, sh, e1, em1, _ = pool.step
        x = pool.x
        x_new = x + (half_psi * ((1.0 - pool.a) + pool.ap)) * h + sh * nrm

        # Brownian-bridge survival of the steps that end inside; the others
        # exit at their end. Rows far from both barriers keep 1 - q == 1.0
        # without evaluating exp.
        p_hi = (hi - x) * (hi - x_new)
        p_lo = (x - lo) * (x_new - lo)
        surv = np.ones(x.size)
        near = ((p_hi > 0.0) & (p_lo > 0.0)
                & (np.minimum(p_hi, p_lo) < _BRIDGE_CUT * h)).nonzero()[0]
        if near.size:
            hn = h[near]
            q = np.exp(-2.0 * p_hi[near] / hn) + np.exp(-2.0 * p_lo[near] / hn)
            surv[near] = np.maximum(1.0 - q, 0.0)
        w_new = pool.w * surv
        pool.low = pool.low + np.where(pool.a <= a_thresh, w_new * (pool.d1 * em1), 0.0)
        pool.disc = pool.disc + (pool.w - w_new) * pool.d1
        pool.w = w_new
        pool.x = x_new
        pool.a, pool.ap = interp(x_new)
        pool.d1 = pool.d1 * e1
        pool.t = pool.t + h
        if checked.size:
            pool.step[:, cut] = full
            pool.due[checked] = due(p + 1, pool.t[checked], horizon)
        pool.settle(p, admit)
    return out
