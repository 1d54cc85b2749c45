"""Path-stepping kernels for the belief simulator.

Each run steps its paths in one pool of numpy arrays, one row per path in
flight and at most `batch` rows wide. A row whose path finishes writes the
outcome to the path's slot of the output and takes the next path from the
queue; once the queue is empty, finished rows are dropped whenever they
make up half the pool. A path's draw buffers stay in the buffer row it was
admitted to, so dropping rows copies only the per-path state. All
randomness comes from per-path counter-based Philox streams keyed by
(seed, run tag, path index), consumed one normal per diffusion step and
one exponential per opportunity arrival, so a path's trajectory depends
neither on the row it runs in nor on the width of the pool.

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
table lookups: the probe and the step's end.

The step-size refinement run (run_coupled) simulates each
path at dt and at dt/2 on one shared Brownian path. Independent runs at
the two step sizes differ by sampling noise of the size of their standard
errors (their payoffs correlate only about 0.7 path by path when they merely
share streams, because the normals land at different times), which hides a
bias smaller than that noise. Here the unit normals live on a grid of
dt/(2 band_refine), restarted at every opportunity arrival, so each step of
either leg spans whole units and takes the scaled sum of their normals;
one extra draw covers the partial unit before an arrival or the horizon.
Arrival times come from the same exponential stream as the main run. The
legs advance in lockstep, whichever lags stepping next, so one short window
of drawn units serves both, and both step through the same _advance as the
main run.
"""

import math
from functools import partial

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


def _interp(a_tab, z_lo, inv_dz, zv):
    """Policy table lookup, linear between nodes and clamped at both ends."""
    ntab = a_tab.size
    pos = (zv - z_lo) * inv_dz
    pos = np.maximum(pos, 0.0)
    i = pos.astype(np.int64)
    hi = i >= ntab - 1
    i = np.minimum(i, ntab - 2)
    frac = pos - i
    a = a_tab[i] + (a_tab[i + 1] - a_tab[i]) * frac
    return np.where(hi, a_tab[ntab - 1], a)


def _milstein(z, a, h, xi, drift_c, psi, interp):
    """Derivative-free Milstein step of length h driven by the standard normal xi.

    a is the mimicking intensity at z; returns the new state.
    """
    onema = 1.0 - a
    sh = np.sqrt(h)
    mu_h = (drift_c * (onema * onema)) * h
    sg = psi * onema
    probe = z + mu_h + sg * sh
    sg2 = psi * (1.0 - interp(probe))
    return z + mu_h + sg * (sh * xi) + (0.5 * (sg2 - sg)) * (sh * (xi * xi - 1.0))


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


def run_main(z0, z_star, drift_sign, psi, r1, r2, u, c, lam, dt, horizon, z_cap,
             t_probe, a_tab, z_lo, inv_dz, n_paths, seed, tag,
             batch=4096, path_offset=0,
             dt_band=None, band_lo=np.inf, band_hi=-np.inf):
    """Simulate n_paths of the game; columns (T, stopped, pay, e^{-r1 T}, e^{-r2 T}, z_probe).

    Row j of the result is the path with stream index path_offset + j; at
    most batch paths are in flight at once.
    """
    drift_c = drift_sign * 0.5 * psi * psi
    exp_scale = 1.0 / lam
    if dt_band is None:
        dt_band = dt
    e1dt = math.exp(-r1 * dt); em1dt = -math.expm1(-r1 * dt); e2dt = math.exp(-r2 * dt)
    e1db = math.exp(-r1 * dt_band); em1db = -math.expm1(-r1 * dt_band)
    e2db = math.exp(-r2 * dt_band)
    interp = partial(_interp, a_tab, z_lo, inv_dz)
    out = np.empty((n_paths, 6))

    n = min(batch, n_paths)
    path = np.zeros(n, dtype=np.int64)       # path held by each row
    slot = np.arange(n)                      # row of the draw buffers it reads
    alive = np.zeros(n, dtype=bool)
    gens_n = np.empty(n, dtype=object); gens_e = np.empty(n, dtype=object)
    t = np.empty(n); z = np.empty(n); d1 = np.empty(n); d2 = np.empty(n); pay = np.empty(n)
    a = np.empty(n)                          # mimicking intensity at z
    zpr = np.empty(n); prdone = np.empty(n, dtype=bool)
    echunk = np.empty((n, _CHUNK_E)); epos = np.empty(n, dtype=np.int64); arr = np.empty(n)
    nchunk = np.empty((n, _CHUNK_N)); npos = np.empty(n, dtype=np.int64)
    started = 0

    def admit(free):
        nonlocal started
        r, j = _queued(free, started, n_paths)
        started += r.size
        path[r] = j
        for i in r:
            gens_n[i] = _gen(seed, tag, path_offset + int(path[i]), 0)
            gens_e[i] = _gen(seed, tag, path_offset + int(path[i]), 1)
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

        in_band = (band_lo < z) & (z < band_hi)
        h = np.where(in_band, dt_band, dt)
        lim = np.zeros(alive.size, dtype=np.int8)
        m1 = (arr - t) < h
        h[m1] = (arr - t)[m1]; lim[m1] = 1
        m2 = (horizon - t) < h
        h[m2] = (horizon - t)[m2]; lim[m2] = 2
        np.maximum(h, 0.0, out=h)

        full = lim == 0
        with np.errstate(under="ignore", over="ignore"):
            e1 = np.where(full, np.where(in_band, e1db, e1dt), np.exp(-r1 * h))
            em1 = np.where(full, np.where(in_band, em1db, em1dt), -np.expm1(-r1 * h))
            e2 = np.where(full, np.where(in_band, e2db, e2dt), np.exp(-r2 * h))

        spent = npos >= _CHUNK_N
        for i in np.nonzero(spent & alive)[0]:
            nchunk[slot[i]] = gens_n[i].standard_normal(_CHUNK_N)
        npos[spent] = 0
        nrm = nchunk[slot, npos]; npos += 1

        z_new, a_new, pay_new, d1_new, d2_new = _advance(z, a, pay, d1, d2, h, nrm, e1, em1,
                                                         e2, drift_c, psi, u, c, interp)
        np.copyto(pay, pay_new, where=alive); np.copyto(z, z_new, where=alive)
        np.copyto(a, a_new, where=alive)
        np.copyto(d1, d1_new, where=alive); np.copyto(d2, d2_new, where=alive)
        np.copyto(t, t + h, where=alive)

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
        if started < n_paths:
            if live < alive.size:
                admit(np.nonzero(~alive)[0])
        elif 2 * live <= alive.size:
            keep = np.nonzero(alive)[0]
            (path, slot, alive, gens_n, gens_e, t, z, a, d1, d2, pay, zpr, prdone, epos, arr,
             npos) = (x[keep] for x in (path, slot, alive, gens_n, gens_e, t, z, a, d1, d2,
                                        pay, zpr, prdone, epos, arr, npos))
    return out


def run_coupled(z0, z_star, drift_sign, psi, r1, r2, u, c, lam, dt, refine, horizon,
                z_cap, a_tab, z_lo, inv_dz, n_paths, seed, tag, band_lo, band_hi,
                batch=4096):
    """Simulate n_paths at dt and at dt/2 on shared Brownian paths.

    Returns shape (2, n_paths, 5): leg 0 at dt, leg 1 at dt/2, columns
    (T, stopped, pay, e^{-r1 T}, e^{-r2 T}). At most batch paths are in
    flight at once.
    """
    drift_c = drift_sign * 0.5 * psi * psi
    exp_scale = 1.0 / lam
    # leg 0 steps at dt (dt/refine in the band), leg 1 at dt/2 (dt/(2 refine));
    # every step spans a whole number of units of length du
    du = dt / (2 * refine)
    k_out = np.array([[2 * refine], [refine]]); k_in = np.array([[2], [1]])
    sk_out = np.sqrt(k_out); sk_in = np.sqrt(k_in)
    h_out = np.array([[dt], [dt / 2]]); h_in = h_out / refine
    kmax = 2 * refine
    chunk = max(_CHUNK_N, 2 * kmax + 2)
    ring_len = 2 * chunk
    interp = partial(_interp, a_tab, z_lo, inv_dz)
    out = np.empty((2, n_paths, 5))

    # Per path: the shared arrival clock and Brownian path. ring holds the
    # running sums C[q] of the path's unit normals for q in
    # [filled - ring_len, filled), at slot q % ring_len; the units of the
    # current segment are normals base, base + 1, ... Differencing running
    # sums costs only rounding at their scale, far below what the check resolves.
    n = min(batch, n_paths)
    path = np.zeros(n, dtype=np.int64)       # path held by each row
    slot = np.arange(n)                      # row of the draw buffers it reads
    gens_n = np.empty(n, dtype=object); gens_e = np.empty(n, dtype=object)
    ring = np.zeros((n, ring_len))
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
        r, j = _queued(free, started, n_paths)
        started += r.size
        path[r] = j
        for i in r:
            gens_n[i] = _gen(seed, tag, int(path[i]), 0)
            gens_e[i] = _gen(seed, tag, int(path[i]), 1)
            ring[slot[i], 0] = 0.0
            ring[slot[i], 1:chunk] = np.cumsum(gens_n[i].standard_normal(chunk - 1))
            echunk[slot[i]] = gens_e[i].exponential(scale=exp_scale, size=_CHUNK_E)
        filled[r] = chunk; base[r] = 0; epos[r] = 1
        anchor[r] = 0.0; arr[r] = echunk[slot[r], 0]
        open_segment(r)
        z[:, r] = z0; d1[:, r] = 1.0; d2[:, r] = 1.0; pay[:, r] = 0.0; m[:, r] = 0
        a[:, r] = interp(z[:, r])

    def finish(mask, T, stopped):
        leg, col = np.nonzero(mask)
        out[leg, path[col]] = np.stack([T, stopped, pay[mask], d1[mask], d2[mask]], axis=-1)
        m[mask] = _DEAD

    admit(np.arange(n))
    while path.size:
        changed = False
        act = m < n_end
        t = anchor + m * du
        frozen = act & (np.abs(z) >= z_cap)
        if frozen.any():
            finish(frozen, *_close_frozen(frozen, z, a, t, arr, pay, d1, d2, z_star,
                                          r1, r2, u, c, horizon))
            act &= ~frozen
            changed = True

        # advance whichever leg lags, so the two stay within kmax units and
        # share one window of drawn units
        go = act & (m <= m[::-1])
        need = go & (base + m + (kmax + 1) >= filled)
        if need.any():
            for i in np.nonzero(need.any(axis=0))[0]:
                q = filled[i] % ring_len
                row = ring[slot[i]]
                row[q:q + chunk] = row[q - 1] + np.cumsum(gens_n[i].standard_normal(chunk))
                filled[i] += chunk

        in_band = (band_lo < z) & (z < band_hi)
        k = np.where(in_band, k_in, k_out)
        last = m + k >= n_end            # the step ends at the arrival or the horizon
        p0 = base + m
        p1 = np.where(last, base + n_full, p0 + k)
        flat = ring.reshape(-1)
        c0 = flat[off + p0 % ring_len]
        c1 = flat[off + p1 % ring_len]
        c2 = flat[off + (p1 + 1) % ring_len]
        h = np.where(last, seg_end - t, np.where(in_band, h_in, h_out))
        np.maximum(h, 0.0, out=h)
        # Brownian increment over the step: whole units, plus the partial
        # unit on the last step of a segment
        sh = np.sqrt(h)
        xi_last = (math.sqrt(du) * (c1 - c0) + sfrac * (c2 - c1)) / np.where(sh > 0.0, sh, 1.0)
        xi = np.where(last, xi_last, (c1 - c0) / np.where(in_band, sk_in, sk_out))
        with np.errstate(under="ignore", over="ignore"):
            e1 = np.exp(-r1 * h); em1 = -np.expm1(-r1 * h); e2 = np.exp(-r2 * h)

        z_new, a_new, pay_new, d1_new, d2_new = _advance(z, a, pay, d1, d2, h, xi, e1, em1,
                                                         e2, drift_c, psi, u, c, interp)
        np.copyto(z, z_new, where=go); np.copyto(a, a_new, where=go)
        np.copyto(pay, pay_new, where=go)
        np.copyto(d1, d1_new, where=go); np.copyto(d2, d2_new, where=go)
        m += np.where(go, k, 0)

        hit = go & last
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
        lag = m.min(axis=0)
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
        if started < n_paths:
            if not live.all():
                admit(np.nonzero(~live)[0])
        elif 2 * np.count_nonzero(live) <= live.size:
            keep = np.nonzero(live)[0]
            (path, slot, off, gens_n, gens_e, filled, base, epos, anchor, arr, seg_end,
             n_full, n_end, sfrac) = (x[keep] for x in (path, slot, off, gens_n, gens_e,
                                                        filled, base, epos, anchor, arr,
                                                        seg_end, n_full, n_end, sfrac))
            z, a, d1, d2, pay, m = (x[:, keep] for x in (z, a, d1, d2, pay, m))

    return out


def run_diag(z0, z_int_lo, z_int_hi, psi, r1, u, c, a_thresh, dt, horizon,
             a_tab, z_lo, inv_dz, n_paths, seed, tag, batch=4096):
    """Noninvestible run stopped at interval exit; columns (T, exited, e^{-r1 T}, low-mimic integral).

    At most batch paths are in flight at once.
    """
    drift_c = 0.5 * psi * psi
    e1dt = math.exp(-r1 * dt); em1dt = -math.expm1(-r1 * dt)
    interp = partial(_interp, a_tab, z_lo, inv_dz)
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
