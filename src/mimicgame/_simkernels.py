"""Path-stepping kernels for the belief simulator.

Each run steps its paths in one pool of numpy arrays, one row per path in
flight and at most `batch` rows wide. run_main and run_coupled take both
agent types in one pool: the queue holds the first type's paths, then the
second's, and each row carries its type's drift sign and Philox tag. A row
whose path finishes writes the outcome to the path's slot of the output
and takes the next path from the queue; once the queue is empty, finished
rows are dropped whenever they make up half the pool, so a run pays one
drain tail however many types it holds. A path's draw buffers stay in the
buffer row it was admitted to, so dropping rows copies only the per-path
state. All randomness comes from per-path counter-based Philox streams
keyed by (seed, type tag, path index), consumed one normal per diffusion
step and one exponential per opportunity arrival, so a path's trajectory
depends neither on the row it runs in, nor on the width of the pool, nor
on the types that share it.

Paths freeze once |z| reaches the truncation cap, after which their fate
is deterministic and closed in one shot. Steps are clipped to the next
opportunity arrival and to the horizon, so stopping happens exactly at
arrival times and discounting integrates exactly over each step. The
diffusion advances by a derivative-free Milstein step (one probe lookup
of the volatility at the drifted state, no extra draws), and the step
shrinks by band_refine inside the mixing band where the coefficients
vary: plain Euler at the nominal step leaves an O(dt) payoff bias with a
large constant there, visible at 1e5 paths. Outside the band the
coefficients are constant and the step is exact in distribution. Each
row carries the mimicking intensity at its current state, which the
previous step's end-of-step lookup already gave, so a step makes two
table lookups: the probe and the step's end. A full step takes its
discount factors from constants; only a step cut short by an arrival or
the horizon evaluates exp.

The step-size refinement run (run_coupled) simulates each
path at dt and at dt/2 on one shared Brownian path. Independent runs at
the two step sizes differ by sampling noise of the size of their standard
errors (their payoffs correlate only about 0.7 path by path when they merely
share streams, because the normals land at different times), which hides a
bias smaller than that noise. Here the unit normals live on a grid of
dt/(2 band_refine), restarted at every opportunity arrival, so each step of
either leg spans whole units and takes the scaled sum of their normals;
one extra draw covers the partial unit before an arrival or the horizon.
Arrival times come from the same exponential stream as the main run. Each
pass of the loop takes a joint step of every leg that is level with or
behind its partner, then lets the fine leg, whose step is half the coarse
one, catch up where it is still behind: from level positions the pair
covers one coarse step in three leg-steps, none of them discarded. The
legs so stay within one coarse step of each other, one short window of
drawn units serves both, and each leg carries the running sum at its
unit, so a full step reads one new sum. Only the step that ends a segment
reads the partial unit and evaluates exp. Both legs step through the same
_advance as the main run.
"""

import math

import numpy as np
from numpy.random import Generator, Philox

_CHUNK_N = 2048       # normals drawn per path per refill
_CHUNK_E = 64         # exponentials drawn per path per refill

_DEAD = 1 << 62        # unit position of a finished leg in the coupled run


def _gen(seed, tag, idx, stream):
    return Generator(Philox(key=np.array([seed, (tag << 48) + 2 * idx + stream],
                                         dtype=np.uint64)))


def _queued(free, n_started, n_paths):
    """Rows of free that take queued paths, and the paths' indices, in queue order."""
    rows = free[:n_paths - n_started]
    return rows, np.arange(n_started, n_started + rows.size)


def _lookup(a_tab, z_lo, inv_dz):
    """Policy table lookup, linear between nodes and clamped at both ends.

    The slope table ends in a zero, so a point clipped to the last node
    reads that node's value on the same path as every other point.
    """
    top = float(a_tab.size - 1)
    slope = np.append(np.diff(a_tab), 0.0)

    def interp(zv):
        pos = zv - z_lo
        pos *= inv_dz
        np.clip(pos, 0.0, top, out=pos)
        node = np.floor(pos)
        i = node.astype(np.intp)
        pos -= node
        return a_tab.take(i) + slope.take(i) * pos

    return interp


def _milstein(z, a, h, xi, drift_c, psi, interp):
    """Derivative-free Milstein step of length h driven by the standard normal xi.

    a is the mimicking intensity at z; returns the new state.
    """
    onema = 1.0 - a
    sh = np.sqrt(h)
    mu_h = (drift_c * (onema * onema)) * h
    sg = psi * onema
    zm = z + mu_h
    sg2 = psi * (1.0 - interp(zm + sg * sh))
    return zm + sg * (sh * xi) + (0.5 * (sg2 - sg)) * (sh * (xi * xi - 1.0))


def _advance(z, a, pay, d1, d2, h, xi, e1, em1, e2, drift_c, psi, u, c, interp):
    """One payoff-accruing step from z, where the intensity is a.

    Returns (z, a, pay, d1, d2) after the step, so the caller carries the
    intensity at the new state into the next step.
    """
    z_new = _milstein(z, a, h, xi, drift_c, psi, interp)
    # trapezoidal intensity along the step keeps the payoff quadrature
    # honest where the policy is steep
    a_end = interp(z_new)
    flow = u + (1.0 - 0.5 * (a + a_end)) * c
    return z_new, a_end, pay + flow * (d1 * em1), d1 * e1, d2 * e2


def _close_frozen(frozen, z, a, t, arr, pay, d1, d2, z_star, r1, r2, u, c, horizon):
    """Close the frozen entries in one shot: the belief no longer moves.

    Updates pay, d1 and d2 in place and returns (T, stopped) of the frozen
    entries, in the order of frozen.nonzero().
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        will_stop = frozen & (z >= z_star) & (arr < horizon)
        T = np.where(will_stop, arr, horizon)
        flow = u + (1.0 - a) * c
        h = np.where(frozen, T - t, 0.0)
        pay[frozen] = (pay + flow * (d1 * (-np.expm1(-r1 * h))))[frozen]
        d1[frozen] = (d1 * np.exp(-r1 * h))[frozen]
        d2[frozen] = (d2 * np.exp(-r2 * h))[frozen]
    return T[frozen], np.where(will_stop, 1.0, 0.0)[frozen]


def _queue_rows(q, n_paths, drift_sign, psi):
    """Type, path index within the type and drift constant of queue positions q."""
    kind, j = np.divmod(q, n_paths)
    drift_c = np.array([s * 0.5 * psi * psi for s in drift_sign])[kind]
    return kind, j, drift_c


def run_main(z0, z_star, drift_sign, psi, r1, r2, u, c, lam, dt, horizon, z_cap,
             t_probe, a_tab, z_lo, inv_dz, n_paths, seed, tag,
             batch=4096, path_offset=0,
             dt_band=None, band_lo=np.inf, band_hi=-np.inf):
    """Simulate n_paths of each agent type in one pool.

    drift_sign and tag hold one entry per type: +1.0 for the noninvestible
    type's upward drift or -1.0 for the investible type's, and the type's
    Philox tag. Returns shape (types, n_paths, 6), columns (T, stopped, pay,
    e^{-r1 T}, e^{-r2 T}, z_probe); row j of type k is the path with stream
    index path_offset + j under tag[k]. At most batch paths are in flight
    at once, over all types; no result depends on batch or on the types
    that share the pool.
    """
    exp_scale = 1.0 / lam
    if dt_band is None:
        dt_band = dt
    e1dt = math.exp(-r1 * dt); em1dt = -math.expm1(-r1 * dt); e2dt = math.exp(-r2 * dt)
    e1db = math.exp(-r1 * dt_band); em1db = -math.expm1(-r1 * dt_band)
    e2db = math.exp(-r2 * dt_band)
    interp = _lookup(a_tab, z_lo, inv_dz)
    total = len(tag) * n_paths
    out = np.empty((total, 6))

    # Rows of finished paths keep stepping on stale state until they are
    # refilled or dropped: their steps shrink to zero at the arrival or the
    # horizon, and nothing reads them but the masks below, which skip them.
    n = min(batch, total)
    path = np.zeros(n, dtype=np.int64)       # queue position of the path held by each row
    slot = np.arange(n)                      # row of the draw buffers it reads
    alive = np.zeros(n, dtype=bool)
    drift_c = np.empty(n)                    # the row's type's drift constant
    gens_n = np.empty(n, dtype=object); gens_e = np.empty(n, dtype=object)
    t = np.empty(n); z = np.empty(n); d1 = np.empty(n); d2 = np.empty(n); pay = np.empty(n)
    a = np.empty(n)                          # mimicking intensity at z
    zpr = np.empty(n); prdone = np.empty(n, dtype=bool)
    echunk = np.empty((n, _CHUNK_E)); epos = np.empty(n, dtype=np.int64); arr = np.empty(n)
    nchunk = np.empty((n, _CHUNK_N)); npos = np.empty(n, dtype=np.int64)
    started = 0

    def admit(free):
        nonlocal started
        r, q = _queued(free, started, total)
        started += r.size
        path[r] = q
        kind, j, drift_c[r] = _queue_rows(q, n_paths, drift_sign, psi)
        for i, k, jj in zip(r, kind, j):
            gens_n[i] = _gen(seed, tag[k], path_offset + int(jj), 0)
            gens_e[i] = _gen(seed, tag[k], path_offset + int(jj), 1)
            echunk[slot[i]] = gens_e[i].exponential(scale=exp_scale, size=_CHUNK_E)
            nchunk[slot[i]] = gens_n[i].standard_normal(_CHUNK_N)
        t[r] = 0.0; z[r] = z0; d1[r] = 1.0; d2[r] = 1.0; pay[r] = 0.0
        a[r] = interp(z[r])
        prdone[r] = False; epos[r] = 1; arr[r] = echunk[slot[r], 0]; npos[r] = 0
        alive[r] = True

    def finish(mask, T, stopped):
        j = path[mask]
        out[j, 0] = T; out[j, 1] = stopped
        out[j, 2] = pay[mask]; out[j, 3] = d1[mask]; out[j, 4] = d2[mask]; out[j, 5] = zpr[mask]
        alive[mask] = False

    admit(np.arange(n))
    while alive.any():
        # probe capture at step boundaries
        cap = alive & ~prdone & (t >= t_probe)
        zpr[cap] = z[cap]; prdone[cap] = True

        frozen = alive & (np.abs(z) >= z_cap)
        if frozen.any():
            T, stopped = _close_frozen(frozen, z, a, t, arr, pay, d1, d2, z_star,
                                       r1, r2, u, c, horizon)
            late = frozen & ~prdone
            zpr[late] = z[late]; prdone[late] = True
            finish(frozen, T, stopped)

        # full steps take the precomputed factors; only steps cut short by
        # an arrival or the horizon pay for exp
        in_band = (band_lo < z) & (z < band_hi)
        h = np.where(in_band, dt_band, dt)
        e1 = np.where(in_band, e1db, e1dt)
        em1 = np.where(in_band, em1db, em1dt)
        e2 = np.where(in_band, e2db, e2dt)
        lim = np.zeros(alive.size, dtype=np.int8)
        to_arr = arr - t
        m1 = to_arr < h
        h[m1] = to_arr[m1]; lim[m1] = 1
        to_hz = horizon - t
        m2 = to_hz < h
        h[m2] = to_hz[m2]; lim[m2] = 2
        np.maximum(h, 0.0, out=h)
        short = np.flatnonzero(alive & (lim > 0))
        if short.size:
            hs = h[short]
            with np.errstate(under="ignore", over="ignore"):
                e1[short] = np.exp(-r1 * hs)
                em1[short] = -np.expm1(-r1 * hs)
                e2[short] = np.exp(-r2 * hs)

        spent = npos >= _CHUNK_N
        for i in np.nonzero(spent & alive)[0]:
            nchunk[slot[i]] = gens_n[i].standard_normal(_CHUNK_N)
        npos[spent] = 0
        nrm = nchunk[slot, npos]; npos += 1

        z, a, pay, d1, d2 = _advance(z, a, pay, d1, d2, h, nrm, e1, em1, e2,
                                     drift_c, psi, u, c, interp)
        t = t + h

        hit = alive & (lim == 1)
        if hit.any():
            stop_now = hit & (z >= z_star)
            late = stop_now & ~prdone
            zpr[late] = z[late]; prdone[late] = True
            finish(stop_now, t[stop_now], 1.0)
            cont = hit & alive
            if cont.any():
                idxs = np.nonzero(cont)[0]
                for i in idxs[epos[idxs] >= _CHUNK_E]:
                    echunk[slot[i]] = gens_e[i].exponential(scale=exp_scale, size=_CHUNK_E)
                    epos[i] = 0
                arr[idxs] = t[idxs] + echunk[slot[idxs], epos[idxs]]
                epos[idxs] += 1

        hz = alive & (lim == 2)
        if hz.any():
            late = hz & ~prdone
            zpr[late] = z[late]; prdone[late] = True
            finish(hz, horizon, 0.0)

        # refill finished rows from the queue; once it is empty, drop
        # finished rows when they make up half the pool (the draw buffers
        # stay in place)
        live = np.count_nonzero(alive)
        if started < total:
            if live < alive.size:
                admit(np.nonzero(~alive)[0])
        elif 2 * live <= alive.size:
            keep = np.nonzero(alive)[0]
            (path, slot, alive, drift_c, gens_n, gens_e, t, z, a, d1, d2, pay, zpr, prdone,
             epos, arr, npos) = (x[keep] for x in (path, slot, alive, drift_c, gens_n, gens_e,
                                                   t, z, a, d1, d2, pay, zpr, prdone, epos,
                                                   arr, npos))
    return out.reshape(len(tag), n_paths, 6)


def run_coupled(z0, z_star, drift_sign, psi, r1, r2, u, c, lam, dt, refine, horizon,
                z_cap, a_tab, z_lo, inv_dz, n_paths, seed, tag, band_lo, band_hi,
                batch=4096):
    """Simulate n_paths of each agent type at dt and at dt/2 on shared Brownian paths.

    drift_sign and tag hold one entry per type, as in run_main. Returns
    shape (types, 2, n_paths, 5): leg 0 at dt, leg 1 at dt/2, columns (T,
    stopped, pay, e^{-r1 T}, e^{-r2 T}). Each pass of the loop takes a
    joint step of every leg that is level with or behind its partner, then
    a catch-up step of the fine leg where it is still behind. At most batch
    paths are in flight at once, over all types; no result depends on
    batch or on the types that share the pool.
    """
    exp_scale = 1.0 / lam
    # leg 0 steps at dt (dt/refine in the band), leg 1 at dt/2 (dt/(2 refine));
    # every step spans a whole number of units of length du. Per leg (row)
    # and side of the band (column: outside, inside): units per step, their
    # square root, step length and discount factors over a full step
    du = dt / (2 * refine)
    k_tab = np.array([[2 * refine, 2], [refine, 1]])
    h_tab = np.array([[dt, dt / refine], [dt / 2, dt / 2 / refine]])
    with np.errstate(under="ignore"):
        tabs = (k_tab, np.sqrt(k_tab), h_tab, np.exp(-r1 * h_tab), -np.expm1(-r1 * h_tab),
                np.exp(-r2 * h_tab))
    joint = [(x[:, :1], x[:, 1:]) for x in tabs]
    fine = [(x[1, 0], x[1, 1]) for x in tabs]
    kmax = 2 * refine
    # the window of drawn units must cover two steps of either leg past the
    # lagging one; a power of two so that ring positions are a bit mask
    chunk = max(_CHUNK_N, 1 << (2 * kmax + 1).bit_length())
    ring_len = 2 * chunk
    wrap = ring_len - 1
    interp = _lookup(a_tab, z_lo, inv_dz)
    total = len(tag) * n_paths
    out = np.empty((len(tag), 2, n_paths, 5))

    # Per path: the shared arrival clock and Brownian path. ring holds the
    # running sums C[q] of the path's unit normals for q in
    # [filled - ring_len, filled), at slot q % ring_len; the units of the
    # current segment are normals base, base + 1, ... Differencing running
    # sums costs only rounding at their scale, far below what the check resolves.
    n = min(batch, total)
    path = np.zeros(n, dtype=np.int64)       # queue position of the path held by each row
    slot = np.arange(n)                      # row of the draw buffers it reads
    drift_c = np.empty(n)                    # the row's type's drift constant
    gens_n = np.empty(n, dtype=object); gens_e = np.empty(n, dtype=object)
    ring = np.zeros((n, ring_len))
    flat = ring.reshape(-1)
    echunk = np.empty((n, _CHUNK_E))
    filled = np.empty(n, dtype=np.int64); base = np.empty(n, dtype=np.int64)
    epos = np.empty(n, dtype=np.int64)
    anchor = np.empty(n); arr = np.empty(n)
    seg_end = np.empty(n); n_full = np.empty(n, dtype=np.int64)
    n_end = np.empty(n, dtype=np.int64); sfrac = np.empty(n)

    # Per leg and path: m counts the units walked in the current segment;
    # a leg with m >= n_end waits at the segment's end, and m == _DEAD marks
    # a finished leg, whose outcome is already in out.
    shape = (2, n)
    z = np.empty(shape); d1 = np.empty(shape); d2 = np.empty(shape); pay = np.empty(shape)
    a = np.empty(shape)                      # mimicking intensity at z
    cm = np.empty(shape)                     # running sum C at the leg's unit
    m = np.full(shape, _DEAD, dtype=np.int64)
    off = slot * ring_len
    started = 0

    def open_segment(r):
        # a segment runs from the last arrival to the next one or the horizon:
        # n_full whole units, then a partial unit of length frac
        seg_end[r] = np.minimum(arr[r], horizon)
        length = seg_end[r] - anchor[r]
        units = np.floor(length / du)
        frac = np.maximum(length - units * du, 0.0)
        n_full[r] = units
        n_end[r] = units + (frac > 0.0)
        sfrac[r] = np.sqrt(frac)

    def admit(free):
        nonlocal started
        r, q = _queued(free, started, total)
        started += r.size
        path[r] = q
        kind, j, drift_c[r] = _queue_rows(q, n_paths, drift_sign, psi)
        for i, k, jj in zip(r, kind, j):
            gens_n[i] = _gen(seed, tag[k], int(jj), 0)
            gens_e[i] = _gen(seed, tag[k], int(jj), 1)
            ring[slot[i], 0] = 0.0
            ring[slot[i], 1:chunk] = np.cumsum(gens_n[i].standard_normal(chunk - 1))
            echunk[slot[i]] = gens_e[i].exponential(scale=exp_scale, size=_CHUNK_E)
        filled[r] = chunk; base[r] = 0; epos[r] = 1
        anchor[r] = 0.0; arr[r] = echunk[slot[r], 0]
        open_segment(r)
        z[:, r] = z0; d1[:, r] = 1.0; d2[:, r] = 1.0; pay[:, r] = 0.0; m[:, r] = 0
        cm[:, r] = 0.0
        a[:, r] = interp(z[:, r])

    def finish(mask, T, stopped):
        leg, col = np.nonzero(mask)
        kind, j = np.divmod(path[col], n_paths)
        out[kind, leg, j] = np.stack([T, stopped, pay[mask], d1[mask], d2[mask]], axis=-1)
        m[mask] = _DEAD

    def step(legs, consts, go):
        """Step the legs picked by legs (both, or the fine one) where go.

        Returns the mask of the steps that end the segment.
        """
        (k_out, k_in), (sk_out, sk_in), (h_out, h_in), (e1_out, e1_in), \
            (em1_out, em1_in), (e2_out, e2_in) = consts
        zl = z[legs]; ml = m[legs]; c0 = cm[legs]
        in_band = (band_lo < zl) & (zl < band_hi)
        k = np.where(in_band, k_in, k_out)
        c1 = flat[off + ((base + ml + k) & wrap)]
        xi = (c1 - c0) / np.where(in_band, sk_in, sk_out)
        h = np.where(in_band, h_in, h_out)
        e1 = np.where(in_band, e1_in, e1_out)
        em1 = np.where(in_band, em1_in, em1_out)
        e2 = np.where(in_band, e2_in, e2_out)
        # the step that reaches the arrival or the horizon runs to the
        # segment's end: its whole units, plus the partial unit
        last = go & (ml + k >= n_end)
        if last.any():
            idx = np.nonzero(last)
            col = idx[-1]
            hl = np.maximum(seg_end[col] - (anchor[col] + ml[idx] * du), 0.0)
            pe = base[col] + n_full[col]
            c1l = flat[off[col] + (pe & wrap)]
            c2l = flat[off[col] + ((pe + 1) & wrap)]
            shl = np.sqrt(hl)
            xi[idx] = ((math.sqrt(du) * (c1l - c0[idx]) + sfrac[col] * (c2l - c1l))
                       / np.where(shl > 0.0, shl, 1.0))
            c1[idx] = c2l                    # the next segment starts here
            h[idx] = hl
            with np.errstate(under="ignore", over="ignore"):
                e1[idx] = np.exp(-r1 * hl)
                em1[idx] = -np.expm1(-r1 * hl)
                e2[idx] = np.exp(-r2 * hl)
        new = _advance(zl, a[legs], pay[legs], d1[legs], d2[legs], h, xi, e1, em1, e2,
                       drift_c, psi, u, c, interp)
        for x, x_new in zip((zl, a[legs], pay[legs], d1[legs], d2[legs], c0), (*new, c1)):
            np.copyto(x, x_new, where=go)
        np.add(ml, k, out=ml, where=go)
        return last

    admit(np.arange(n))
    while path.size:
        changed = False
        act = m < n_end
        frozen = act & (np.abs(z) >= z_cap)
        if frozen.any():
            t = anchor + m * du
            finish(frozen, *_close_frozen(frozen, z, a, t, arr, pay, d1, d2, z_star,
                                          r1, r2, u, c, horizon))
            act &= ~frozen
            changed = True

        # keep the units of two steps past the lagging leg in the window
        lag = np.minimum(m[0], m[1])
        need = (lag < n_end) & (base + lag + (2 * kmax + 1) >= filled)
        if need.any():
            for i in np.nonzero(need)[0]:
                q = filled[i] & wrap
                row = ring[slot[i]]
                row[q:q + chunk] = row[q - 1] + np.cumsum(gens_n[i].standard_normal(chunk))
                filled[i] += chunk

        # joint step of the legs level with or behind their partner, then
        # the fine leg's catch-up where it is still behind and not frozen
        hit = step(slice(None), joint, act & (m <= m[::-1]))
        hit[1] |= step(1, fine, (m[1] < n_end) & (m[1] < m[0]) & (np.abs(z[1]) < z_cap))
        if hit.any():
            at_arr = arr <= horizon
            stop = hit & at_arr & (z >= z_star)
            done = stop | (hit & ~at_arr)
            if done.any():
                finish(done, np.broadcast_to(seg_end, z.shape)[done],
                       np.where(stop, 1.0, 0.0)[done])
            changed = True
        if not changed:
            continue

        # open the next segment once every live leg of a path waits at its end
        lag = np.minimum(m[0], m[1])
        ready = (lag >= n_end) & (lag < _DEAD)
        if ready.any():
            r = np.nonzero(ready)[0]
            base[r] += n_full[r] + 1        # whole units plus the partial-unit draw
            for i in r[epos[r] >= _CHUNK_E]:
                echunk[slot[i]] = gens_e[i].exponential(scale=exp_scale, size=_CHUNK_E)
                epos[i] = 0
            anchor[r] = arr[r]
            arr[r] = anchor[r] + echunk[slot[r], epos[r]]
            epos[r] += 1
            open_segment(r)
            m[:, r] = np.where(m[:, r] < _DEAD, 0, _DEAD)

        # refill finished paths' rows from the queue; once it is empty, drop
        # them when they make up half the pool (the draw buffers stay in place)
        live = lag < _DEAD
        if started < total:
            if not live.all():
                admit(np.nonzero(~live)[0])
        elif 2 * np.count_nonzero(live) <= live.size:
            keep = np.nonzero(live)[0]
            (path, slot, off, drift_c, gens_n, gens_e, filled, base, epos, anchor, arr,
             seg_end, n_full, n_end, sfrac) = (x[keep] for x in (
                 path, slot, off, drift_c, gens_n, gens_e, filled, base, epos, anchor, arr,
                 seg_end, n_full, n_end, sfrac))
            z, a, cm, d1, d2, pay, m = (x[:, keep] for x in (z, a, cm, d1, d2, pay, m))

    return out


def run_diag(z0, z_int_lo, z_int_hi, psi, r1, u, c, a_thresh, dt, horizon,
             a_tab, z_lo, inv_dz, n_paths, seed, tag, batch=4096):
    """Noninvestible run stopped at interval exit; columns (T, exited, e^{-r1 T}, low-mimic integral).

    At most batch paths are in flight at once.
    """
    drift_c = 0.5 * psi * psi
    e1dt = math.exp(-r1 * dt); em1dt = -math.expm1(-r1 * dt)
    interp = _lookup(a_tab, z_lo, inv_dz)
    out = np.empty((n_paths, 4))

    n = min(batch, n_paths)
    path = np.zeros(n, dtype=np.int64)       # path held by each row
    slot = np.arange(n)                      # row of the draw buffer it reads
    alive = np.zeros(n, dtype=bool)
    gens_n = np.empty(n, dtype=object)
    t = np.empty(n); z = np.empty(n); d1 = np.empty(n); low = np.empty(n)
    nchunk = np.empty((n, _CHUNK_N)); npos = np.empty(n, dtype=np.int64)
    started = 0

    def admit(free):
        nonlocal started
        r, j = _queued(free, started, n_paths)
        started += r.size
        path[r] = j
        for i in r:
            gens_n[i] = _gen(seed, tag, int(path[i]), 0)
            nchunk[slot[i]] = gens_n[i].standard_normal(_CHUNK_N)
        t[r] = 0.0; z[r] = z0; d1[r] = 1.0; low[r] = 0.0; npos[r] = 0
        alive[r] = True

    def finish(mask, T, exited):
        j = path[mask]
        out[j, 0] = T; out[j, 1] = exited; out[j, 2] = d1[mask]; out[j, 3] = low[mask]
        alive[mask] = False

    admit(np.arange(n))
    while alive.any():
        exit_now = alive & ((z <= z_int_lo) | (z >= z_int_hi))
        if exit_now.any():
            finish(exit_now, t[exit_now], 1.0)
        tz = alive & (t >= horizon)
        if tz.any():
            finish(tz, horizon, 0.0)

        h = np.full(alive.size, dt)
        lim = np.zeros(alive.size, dtype=np.int8)
        m2 = (horizon - t) < h
        h[m2] = (horizon - t)[m2]; lim[m2] = 2
        np.maximum(h, 0.0, out=h)
        full = lim == 0
        with np.errstate(under="ignore", over="ignore"):
            e1 = np.where(full, e1dt, np.exp(-r1 * h))
            em1 = np.where(full, em1dt, -np.expm1(-r1 * h))
        spent = npos >= _CHUNK_N
        for i in np.nonzero(spent & alive)[0]:
            nchunk[slot[i]] = gens_n[i].standard_normal(_CHUNK_N)
        npos[spent] = 0
        nrm = nchunk[slot, npos]; npos += 1
        a = interp(z)
        z_new = _milstein(z, a, h, nrm, drift_c, psi, interp)
        gain = np.where(a <= a_thresh, d1 * em1, 0.0)
        np.copyto(low, low + gain, where=alive)
        np.copyto(z, z_new, where=alive)
        np.copyto(d1, d1 * e1, where=alive)
        np.copyto(t, t + h, where=alive)

        # refill finished rows from the queue; once it is empty, drop
        # finished rows when they make up half the pool (the draw buffer
        # stays in place)
        live = np.count_nonzero(alive)
        if started < n_paths:
            if live < alive.size:
                admit(np.nonzero(~alive)[0])
        elif 2 * live <= alive.size:
            keep = np.nonzero(alive)[0]
            path, slot, alive, gens_n, t, z, d1, low, npos = (
                x[keep] for x in (path, slot, alive, gens_n, t, z, d1, low, npos))
    return out
