"""The parity channel: linear solves whose steps act on rows by parity.

With graded-scalar step operators, a scalar start and scalar sources, a
step scales each row by a factor of its parity alone and moves it to a
new row of the other parity, while the sources touch only the empty row
and {k}. So the pairings and vacua of such solves (walk, vacua) and the
vacua of the first adjoint along one (adjoint_vacua, the transpose)
follow from a few numbers per step and parity, nothing pruned; README
(Layout) writes the recursions out. Here are the one gate that decides
whether a problem is a channel, the coefficient table, the lane rule
(Lanes, the table's only reader, which forms those numbers once), the
source-table rule, the walk, its vacua, its transpose, the spike-window
source layout and the exact control routes on them: ladder, oracle and
max_principle.

The gate hands the weights (q, r, s) of J = sum_k dt (q ||x_k||^2 + r
||u_k||^2) + s ||x_n||^2 to its cost rule, _NormCost, which alone reads
them: oracle sums J, adjoint_vacua and duality take the first adjoint's
drives -2q dt and -2s, second_adjoint P's Hessians -2q and -2s, scan r.
"""

from __future__ import annotations

from operator import is_

import numpy as np

from .operators import GradedScalarOp, _as_scalar_amp, _second_adjoint_step

# Which control-increment sources (rows sD, sF, sG) drive xi, y and z
# (columns) on the spike window of declared-linear coefficients: xi takes
# all three, y the noise ones and z the drift one (the derivative
# differences and second derivatives vanish).
SPIKE_SOURCES = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])

# Coefficients of (xi, y, z) in each series of the variation ladder.
LADDER_SERIES = {
    "xi_sq": (1.0, 0.0, 0.0),
    "y_sq": (0.0, 1.0, 0.0),
    "z_sq": (0.0, 0.0, 1.0),
    "eta_sq": (1.0, -1.0, 0.0),
    "zeta_sq": (1.0, -1.0, -1.0),
}

NEEDS_P = (
    "candidate changes the noise coefficients; supply the second adjoint "
    "P or request first_order_only"
)

# Pairing entries one chunk of walk's steps may hold; a walk whose
# pairings per step reach it takes one step per chunk.
_CHUNK_ENTRIES = 1 << 16

# The row parity p of each lane column: even rows (+1), odd rows (-1).
_PARITY = np.array([1.0, -1.0])


class Channel:
    """A problem on a grid that the exact routes take (see gate).

    ops holds each step's (A, B, C, uD, uF, uG) in graded-scalar form
    and lanes their Lanes; x0 is the start amplitude, cost the _NormCost
    of its declared norm costs (None when L or h declares none) and
    tables the source tables of the gate's requests, in order.
    """

    __slots__ = ("ops", "lanes", "x0", "cost", "tables")

    def __init__(self, ops, lanes, x0, cost, tables):
        self.ops = ops
        self.lanes = lanes
        self.x0 = x0
        self.cost = cost
        self.tables = tables

    def spike_layout(self, base, steps, alt, windows, paths, lead=1):
        """Source table and start amplitudes of a base path and spiked
        paths, for one walk.

        Column 0 carries base, the (n_steps, 3) sources of the base path
        under ubar, started at x0; lead - 1 idle columns follow. Each
        window (k0, k1) adds a block of the paths SPIKE_SOURCES[:, paths]
        selects from (xi, y, z), started at 0 and driven inside the
        window only by the sources under u (alt, given at steps) less
        those under ubar.
        """
        delta = np.zeros_like(base)
        delta[steps] = alt - base[steps]
        cols = SPIKE_SOURCES[:, paths]
        width = cols.shape[1]
        table = np.zeros(
            (len(base), 3, lead + width * len(windows)), dtype=np.complex128
        )
        table[:, :, 0] = base
        for i, (k0, k1) in enumerate(windows):
            at = lead + width * i
            table[k0:k1, :, at:at + width] = delta[k0:k1, :, None] * cols
        starts = np.zeros(table.shape[2], dtype=np.complex128)
        starts[0] = self.x0
        return table, starts


class Lanes:
    """The lane rule: per step (row) and row parity p (column 0 for p =
    +1, 1 for p = -1), the factors of a (n_steps, m, 2) coefficient
    table of (A, B, C[, uD, uF, uG]) that the walk and its transpose
    take on steps dt (README, Layout), formed once.

    A row of parity p stays, scaled by stay m_p = 1 + dt a(p), and
    spawns a row of parity -p, scaled by feed f_p = sqrt(dt) spawn with
    spawn b(p) + p c(p) (right mult by g_k keeps the row's sign, left
    mult takes its parity); stay_sq and feed_sq are |m_p|^2 and |f_p|^2
    as the scalar abs(.) ** 2 (np.hypot gives the scalar abs, while
    NumPy's array abs of complex and array square round some last bits
    differently). The transpose divides by divisor 1 - dt conj(a(p))
    and spawns by back n_p = conj(p b(p) + c(p)) and cross_spawn b(p) +
    p c(p), their p b and p c complex products, so cross_spawn can
    differ from spawn in the sign of a zero. inject is the injections'
    (uD, uF, uG) (n_steps, m - 3, 2) table. Overflow gives inf or NaN.
    """

    __slots__ = ("stay", "spawn", "feed", "stay_sq", "feed_sq", "divisor",
                 "back", "cross_spawn", "inject")

    def __init__(self, coefs, dt):
        a, b, c = coefs[:, 0], coefs[:, 1], coefs[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):
            self.stay = 1.0 + dt * a
            self.spawn = np.stack((b[:, 0] + c[:, 0], b[:, 1] - c[:, 1]), -1)
            self.feed = np.sqrt(dt) * self.spawn
            self.stay_sq, self.feed_sq = (
                np.reshape([x**2 for x in np.hypot(f.real, f.imag).flat],
                           f.shape)
                for f in (self.stay, self.feed)
            )
            self.divisor = 1.0 - dt * a.conj()
            self.back = (_PARITY * b + c).conj()
            self.cross_spawn = b + _PARITY * c
        self.inject = coefs[:, 3:]


class _NormCost:
    """The cost rule (module docstring) on steps dt: total sums J, and
    drive (-2q dt, -2s) and hess (-2q, -2s) are (running, terminal)."""

    __slots__ = ("weights", "dt", "r", "drive", "hess")

    def __init__(self, weights, dt):
        self.weights, self.dt = weights, dt
        q, self.r, s = weights
        self.drive = (-2.0 * q * dt, -2.0 * s)
        self.hess = (-2.0 * q, -2.0 * s)

    def total(self, x_sq, u_sq):
        """J of paths from their ||x_k||^2, k = 0..n, and ||u_k||^2, k < n
        (iterables of arrays), summed in step order."""
        q, r, s = self.weights
        x_sq, total = iter(x_sq), 0.0
        # u_sq leads, so zip ends on its end without taking x_n.
        for u, x in zip(u_sq, x_sq):
            total += (q * x + r * u) * self.dt
        return total + s * next(x_sq)


def gate(problem, grid, *requests, costs=False):
    """The Channel of problem on grid, None when no exact route takes it.

    Takes declared linear coefficients whose six step operators (A, B,
    C and the injections uD, uF, uG) reduce to graded-scalar form at
    every step and a start state that is a multiple of I; with costs
    set, L and h must also declare norm-cost weights (RunningNormCost
    and TerminalNormCost do). Each request (steps, at) asks for a source
    table (see sources) of the control values at(k). The operators are
    reduced and tabulated once, in one (n_steps, 6, 2) table, and read
    once, into the Channel's Lanes.
    """
    lin = problem.coeffs.linear
    if lin is None:
        return None
    x0 = _as_scalar_amp(problem.x0)
    try:
        weights = (*problem.L._running_weights, problem.h._terminal_weight)
    except AttributeError:
        weights = None
    if x0 is None or (costs and weights is None):
        return None
    ops = reduced(
        (lin.A(k), lin.B(k), lin.C(k), lin.uD(k), lin.uF(k), lin.uG(k))
        for k in range(grid.n_steps)
    )
    if ops is None:
        return None
    lanes = Lanes(coefficients(ops), grid.dt)
    tables = [sources(lanes.inject, steps, at) for steps, at in requests]
    if any(srcs is None for srcs in tables):
        return None
    cost = None if weights is None else _NormCost(weights, grid.dt)
    return Channel(ops, lanes, x0, cost, tables)


def sources(inject, steps, at):
    """(len(steps), 3, V) source amplitudes of the injections (uD, uF,
    uG) at each step k in steps under each of the V control values
    at(k); inject is their (n_steps, 3, 2) coefficient table, a Lanes'
    inject.

    A source is the value's amplitude times c(+1), in apply's operand
    order, so it is the amplitude of apply(value) bit for bit; an exact
    0 is 0j, as apply drops it. None when a value that is not a multiple
    of I meets a nonzero injection.
    """
    steps = list(steps)
    values = [value for k in steps for value in at(k)]
    # Each distinct value object is read once: a constant control
    # repeats one.
    read = {id(value): value for value in values}
    read = {key: _as_scalar_amp(value) for key, value in read.items()}
    amps = [read[id(value)] for value in values]
    scalar = np.array([amp is not None for amp in amps], dtype=bool)
    scalar = scalar.reshape(len(steps), -1)
    amps = np.array(
        [0j if amp is None else amp for amp in amps], dtype=np.complex128
    ).reshape(scalar.shape)
    coef = inject[steps]
    if (coef.any(axis=2)[:, :, None] & ~scalar[:, None, :]).any():
        return None
    table = amps[:, None, :] * coef[:, :, :1]
    table[table == 0] = 0
    return table


def reduced(steps):
    """Each step's operators in graded-scalar form, None as soon as one
    does not reduce. A step whose operators are the previous step's
    objects shares its reduction, one tuple."""
    ops = []
    raw = graded = None
    for step in steps:
        if raw is None or not all(map(is_, step, raw)):
            raw = step
            graded = tuple(op.as_graded_scalar() for op in step)
            if any(g is None for g in graded):
                return None
        ops.append(graded)
    return ops


def coefficients(ops):
    """(n_steps, m, 2) coefficients (c(+1), c(-1)) of each step's m
    reduced operators.

    c(p) = alpha + beta p, and alpha itself when beta is 0, as in
    forward._Frame.coef. A step sharing the previous step's tuple shares
    its row. Read back as NumPy scalars, an overflow gives inf (caught
    by gram's finite check) instead of raising from Python float
    arithmetic.
    """
    distinct, rows = [], []
    for step in ops:
        if not distinct or step is not distinct[-1]:
            distinct.append(step)
        rows.append(len(distinct) - 1)
    pairs = np.array(
        [[(g.alpha, g.beta) for g in step] for step in distinct],
        dtype=np.complex128,
    )
    alpha, beta = pairs[..., 0], pairs[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.stack(
            (np.where(beta == 0, alpha, alpha + beta), alpha - beta), axis=-1
        )
    return table[rows]


def walk(grid, lanes, srcs, x0_amps, pair):
    """Yield pair-form pairings of K linear solves at steps 0..n_steps,
    one (steps, ...) array per chunk of consecutive steps.

    The bilinear form of forward._Frame.step, unpruned (README, Layout).
    lanes is the shared operators' lane table; srcs yields each
    step's (3, K) source amplitudes (an array or a lazy iterable).
    pair(v) forms the pairings of the amplitude vectors in v's last
    axis: their outer products, the outer products of consecutive runs
    of them or |v|^2. Step 0 comes alone; later chunks hold as many
    steps as keep pair's entries within _CHUNK_ENTRIES (at least one).
    Every update is entrywise in the path indices, so batching groups of
    paths into one walk gives each group's pairings bit for bit.
    Overflow is passed on (NaN and inf persist), so consumers run the
    walk under np.errstate(over="ignore", invalid="ignore") and check
    what they keep. The errstate sits around the consumer's loop, not
    in here: a generator's errstate would leak across its yields.
    """
    root = np.sqrt(grid.dt)
    keep_even, keep_odd = lanes.stay_sq.T.tolist()
    feed_even, feed_odd = lanes.feed_sq.T.tolist()
    e0 = np.asarray(x0_amps, dtype=np.complex128)
    first = pair(e0)
    yield first[None]
    g_even = g_odd = np.zeros_like(first)
    n = len(lanes.stay)
    size = max(1, _CHUNK_ENTRIES // max(1, first.size))
    srcs = iter(srcs)
    for k0 in range(0, n, size):
        k1 = min(k0 + size, n)
        chunk = np.array([next(srcs) for _ in range(k0, k1)])
        vac = vacua(grid, lanes.stay[k0:k1], chunk, e0)
        e0 = vac[-1]
        _, s_f, s_g = np.moveaxis(chunk, 1, 0)
        feed = pair(lanes.feed[k0:k1, :1] * vac[:-1] + root * (s_f + s_g))
        # The two-lane recursion, each step's lanes stored in the chunk.
        evens, odds = np.empty_like(feed), np.empty_like(feed)
        for i, k in enumerate(range(k0, k1)):
            g_even, g_odd = (
                keep_even[k] * g_even + feed_odd[k] * g_odd,
                keep_odd[k] * g_odd + feed_even[k] * g_even + feed[i],
            )
            evens[i], odds[i] = g_even, g_odd
        yield pair(vac[1:]) + evens + odds


def gram(grid, lanes, srcs, x0_amps, block):
    """The (n_steps + 1, K // b, b, b) Gram matrices <x_i(k), x_j(k)> of
    walk within each run of block=b consecutive paths (K a multiple of
    b), in O(n_steps K b) memory; block=K gives every pairing. Raises on
    overflow.
    """
    x0_amps = np.asarray(x0_amps, dtype=np.complex128)
    if len(x0_amps) % block:
        raise ValueError(
            f"{len(x0_amps)} paths do not split into blocks of {block}"
        )
    shape = (len(x0_amps) // block, block, block)

    def pair(v):
        w = v.reshape(v.shape[:-1] + shape[:2])
        return w.conj()[..., :, None] * w[..., None, :]

    out = np.empty((grid.n_steps + 1,) + shape, dtype=np.complex128)
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in walk(grid, lanes, srcs, x0_amps, pair):
            out[k:k + len(chunk)] = chunk
            k += len(chunk)
    bad = ~np.isfinite(out.reshape(grid.n_steps + 1, -1)).all(axis=1)
    if bad.any():
        raise FloatingPointError(
            f"state became non-finite at step {int(np.argmax(bad))}"
        )
    return out


def norms_sq(grid, lanes, srcs, x0_amps):
    """Yield ||x_i(k)||^2 of walk's K solves, one length-K real array
    per step, as the values are taken; NaN and inf persist unchecked."""
    for chunk in walk(
        grid, lanes, srcs, x0_amps, lambda v: v.real**2 + v.imag**2
    ):
        yield from chunk


def vacua(grid, stay, srcs, x0_amps):
    """Vacua e0_0..e0_m of the solves with (m, 3[, K]) sources srcs over
    m steps of a Lanes' stay from start amplitudes x0_amps (a scalar or
    K), by walk's e0' = m+ e0 + dt s_D."""
    e0 = np.empty((len(srcs) + 1,) + np.shape(x0_amps), dtype=np.complex128)
    e0[0] = x0_amps
    lifts = grid.dt * srcs[:, 0]
    for k, m in enumerate(stay[:, 0]):
        e0[k + 1] = m * e0[k] + lifts[k]
    return e0


def require_adjoint_step(grid, lanes):
    """Refuse lanes on which adjoint_vacua's implicit step k divides by
    1 - dt conj(a) = 0, that is dt a = 1, with a ValueError."""
    singular = ~lanes.divisor.all(axis=1)
    if singular.any():
        raise ValueError(
            f"max-principle's adjoint step {int(np.argmax(singular))} "
            f"divides by 1 - dt conj(a) = 0 (dt a = 1 at dt={grid.dt:g}); "
            "choose another n_steps"
        )


def adjoint_vacua(grid, ch, srcs):
    """(vacuum(phi_k) for k <= n_steps, vacuum(Phi_k) for k < n_steps).

    The transpose of walk (README, Layout): the adjoint pair that
    control.first_adjoint solves by the implicit backward step driven by
    ch.cost.drive, along the solve x of ch with (n_steps, 3) sources
    srcs. O(n_steps) time and memory, nothing pruned; overflow, and the
    division by zero of a step with dt a = 1, are passed on as in walk.
    """
    run, end = ch.cost.drive
    n = grid.n_steps
    dt = grid.dt
    root = np.sqrt(dt)
    lanes = ch.lanes
    e0 = vacua(grid, lanes.stay, srcs, ch.x0)
    v = root * (lanes.spawn[:, 0] * e0[:n] + srcs[:, 1] + srcs[:, 2])
    solve = 1.0 / lanes.divisor
    own = (solve * lanes.stay).tolist()
    cross = (dt * _PARITY * solve * lanes.cross_spawn * lanes.back).tolist()
    drive = (run * solve).tolist()
    # r_odd[k] = R_{k+1}(-1), the weight of x's row {k} at step k + 1.
    r_odd = [0j] * n
    even = odd = complex(end)
    for k in range(n - 1, -1, -1):
        r_odd[k] = odd
        (oe, oo), (ce, co), (de, do) = own[k], cross[k], drive[k]
        even, odd = oe * even + ce * odd + de, oo * odd + co * even + do
    Phi = v * np.array(r_odd, dtype=np.complex128) / root
    feed = (dt * lanes.back[:, 0] * Phi + run * e0[:n]).tolist()
    step = solve[:, 0].tolist()
    phi = [0j] * (n + 1)
    phi[n] = complex(end * e0[n])
    for k in range(n - 1, -1, -1):
        phi[k] = step[k] * (phi[k + 1] + feed[k])
    return np.array(phi, dtype=np.complex128), Phi


def ladder(grid, windows, ch, steps):
    """floor and per-window sup series of control.variation_ladder from
    one gram walk; nothing is pruned.

    ch holds the source tables under ubar at every step and under u at
    steps. The walk runs 3 + 3R paths in blocks of three and pairs only
    within a block, so memory grows as n_steps R. Block 0 is x under
    ubar from x0 and two idle paths; block 1 + r is rung r's (xi, y, z),
    started at 0 and driven inside its spike window only.
    """
    base, alt = (table[:, :, 0] for table in ch.tables)
    table, starts = ch.spike_layout(
        base, steps, alt, windows, slice(None), lead=3
    )
    pairs = gram(grid, ch.lanes, table, starts, block=3)
    floor = 1e-8 * (1.0 + float(pairs[:, 0, 0, 0].real.max()))
    sups = []
    for r in range(len(windows)):
        # A contiguous copy, so the reduction runs as on a rung's own walk.
        block = np.ascontiguousarray(pairs[:, 1 + r])
        sups.append({
            name: max(
                float(np.einsum("i,kij,j->k", c, block, c).real.max()), 0.0
            )
            for name, c in LADDER_SERIES.items()
        })
    return floor, sups


def oracle(grid, ch, bounds, values):
    """The cheapest candidate's block picks, its J and the values'
    ||u||^2, every candidate costed by one diagonal walk.

    ch.tables[0] holds the (n_steps, 3, V) sources of the V distinct
    block values; candidate c takes value i_b on block b, where (i_0,
    i_1, ...) unravels c in itertools.product order, and ties keep the
    earliest. Memory is O(K blocks + n_steps V) for K candidates.
    """
    table = ch.tables[0]
    n = grid.n_steps
    blocks = len(bounds) - 1
    shape = (len(values),) * blocks
    count = len(values) ** blocks
    picks = np.unravel_index(np.arange(count), shape)
    # Per step, the value index of every candidate (its block's pick).
    step_picks = [picks[b] for b in np.repeat(range(blocks), np.diff(bounds))]
    norms = norms_sq(
        grid, ch.lanes,
        (table[k][:, step_picks[k]] for k in range(n)),
        np.full(count, ch.x0),
    )
    # The walk runs lazily inside total; an overflowing candidate turns
    # into inf or NaN there and is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        u_sq = np.array([value.norm2_sq() for value in values])
        total = ch.cost.total(norms, (u_sq[p] for p in step_picks))
    if not np.isfinite(total).all():
        raise FloatingPointError(
            f"state or cost became non-finite for "
            f"{int(np.sum(~np.isfinite(total)))} of {count} candidates"
        )
    best = int(np.argmin(total))
    return np.unravel_index(best, shape), float(total[best]), u_sq


def second_adjoint(grid, ch):
    """alpha + beta of P_0..P_{n-1}: control.second_adjoint_deterministic's
    recursion on ch's operators, with Hessians ch.cost.hess."""
    hxx_op, p_next = (GradedScalarOp(w, 0) for w in ch.cost.hess)
    p_next = p_next.symmetrized()
    out = np.empty(grid.n_steps, dtype=np.complex128)
    for k in range(grid.n_steps - 1, -1, -1):
        p_next = _second_adjoint_step(p_next, *ch.ops[k][:3], hxx_op, grid.dt)
        out[k] = p_next.alpha + p_next.beta
    return out


def scan(grid, ch, base, base_sq, cands, cand_sq, phi, Phi, pab=None):
    """(V, n_steps) control.mp_lhs values of V candidates.

    base is ubar's (n_steps, 3) source amplitudes and base_sq its
    ||ubar_k||^2, cands the candidates' (n_steps, 3, V) source table and
    cand_sq their ||w||^2; phi and Phi are the adjoint vacua. The
    differences dD, dF, dG are multiples of I, so the Hamiltonians'
    difference pairs them with the vacua alone (and r with the ||u||^2
    difference) and the quadratic term with pab, the alpha + beta of
    P_k (None without P).
    """
    n = grid.n_steps
    delta = (cands - base[:, :, None]).transpose(1, 2, 0)
    noise = delta[1] + delta[2]
    lhs = (
        -(phi[:n].conj() * delta[0]).real
        - (Phi.conj() * noise).real
        + ch.cost.r * (cand_sq[:, None] - base_sq[None, :])
    )
    moved = (delta[1] != 0) | (delta[2] != 0)
    if moved.any():
        if pab is None:
            raise ValueError(NEEDS_P)
        quad = 0.5 * (pab.conj() * (noise.real**2 + noise.imag**2)).real
        lhs = lhs - np.where(moved, quad, 0.0)
    return lhs


def duality(grid, ch, base, alt, window, phi, Phi, order):
    """control.duality_check from one gram walk over (xbar, y[, z]).

    base is ubar's (n_steps, 3) source amplitudes and alt u's on the
    spike window (k0, k1): y takes the noise differences, z (order 2)
    the drift one. The paths pair with xbar by ch.cost.drive and the
    spike sources with the vacua.
    """
    run, end = ch.cost.drive
    n = grid.n_steps
    dt = grid.dt
    k0, k1 = window
    table, starts = ch.spike_layout(
        base, range(k0, k1), alt, [window], slice(1, 1 + order)
    )
    pairs = gram(grid, ch.lanes, table, starts, block=len(starts))
    cross = pairs[:, 0, 0, 1:].sum(axis=1)
    delta = alt - base[k0:k1]
    lhs = end * cross[n]
    rhs = -run * cross[:n].sum() + dt * np.sum(
        Phi[k0:k1].conj() * (delta[:, 1] + delta[:, 2])
    )
    if order == 2:
        rhs += dt * np.sum(phi[k0:k1].conj() * delta[:, 0])
    return float(abs(lhs - rhs))


def max_principle(grid, ch, step_picks, u_sq, window, order, second):
    """(lhs, duality) of control._max_principle at the oracle's winner
    (value index step_picks per step): scan's array, with P when second
    is set, and the order 1 or 2 duality defect with u on window."""
    require_adjoint_step(grid, ch.lanes)
    table, alt = ch.tables
    base = table[np.arange(grid.n_steps), :, step_picks]
    # Overflow gives inf or NaN, refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        phi, Phi = adjoint_vacua(grid, ch, base)
    if not (np.isfinite(phi).all() and np.isfinite(Phi).all()):
        raise FloatingPointError("adjoint became non-finite")
    lhs = scan(
        grid, ch, base, u_sq[step_picks], table, u_sq, phi, Phi,
        second_adjoint(grid, ch) if second else None,
    )
    return lhs, duality(grid, ch, base, alt[:, :, 0], window, phi, Phi, order)
