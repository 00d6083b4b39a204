"""The parity channel: linear solves whose steps act on rows by parity.

With graded-scalar step operators, a scalar start and scalar sources, a
step scales each row by a factor of its parity alone and moves it to a
new row of the other parity, while the sources touch only the empty row
and {k}. So the pairings and vacua of such solves (walk, vacua) and the
vacua of the first adjoint along one (adjoint_vacua, the transpose)
follow from a few numbers per step, nothing pruned; README (Layout)
writes the recursions out. Here are the one gate that decides whether a
problem is a channel, the coefficient table, the source-table rule, the
walk, its vacua, its transpose and the spike-window source layout.
"""

from __future__ import annotations

import numpy as np

from .operators import _as_scalar_amp

# Which control-increment sources (rows sD, sF, sG) drive xi, y and z
# (columns) on the spike window of declared-linear coefficients: xi takes
# all three, y the noise ones and z the drift one (the derivative
# differences and second derivatives vanish).
SPIKE_SOURCES = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])


class Channel:
    """A problem on a grid that the exact routes take (see gate).

    ops holds each step's (A, B, C) in graded-scalar form and coefs
    their coefficient table; x0 is the start amplitude, weights the
    (q, r, s) of declared norm costs (None when L or h declares none)
    and tables the source tables of the gate's requests, in order.
    """

    __slots__ = ("ops", "coefs", "x0", "weights", "tables")

    def __init__(self, ops, x0, weights, tables):
        self.ops = ops
        self.coefs = coefficients(ops)
        self.x0 = x0
        self.weights = weights
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


def gate(problem, grid, *requests, costs=False):
    """The Channel of problem on grid, None when no exact route takes it.

    Takes declared linear coefficients whose operators reduce to
    graded-scalar form at every step and a start state that is a
    multiple of I; with costs set, L and h must also declare norm-cost
    weights (RunningNormCost and TerminalNormCost do). Each request
    (steps, at) asks for a source table (see sources), and every source
    it reads must be a multiple of I. Each step operator is reduced to
    graded-scalar form once and the coefficient table built once.
    """
    lin = problem.coeffs.linear
    if lin is None:
        return None
    x0 = _as_scalar_amp(problem.x0)
    try:
        (q, r), s = problem.L._running_weights, problem.h._terminal_weight
        weights = q, r, s
    except AttributeError:
        weights = None
    if x0 is None or (costs and weights is None):
        return None
    ops = reduced(
        (lin.A(k), lin.B(k), lin.C(k)) for k in range(grid.n_steps)
    )
    if ops is None:
        return None
    tables = []
    for steps, at in requests:
        table = sources(lin, steps, at)
        if table is None:
            return None
        tables.append(table)
    return Channel(ops, x0, weights, tables)


def sources(lin, steps, at):
    """(len(steps), 3, V) amplitudes of lin's (uD, uF, uG) at each step
    k in steps under each of the V control values at(k), None unless
    every source is a multiple of I."""
    rules = (lin.uD, lin.uF, lin.uG)
    rows = []
    for k in steps:
        row = [[_as_scalar_amp(rule(k, value)) for value in at(k)]
               for rule in rules]
        if any(amp is None for amps in row for amp in amps):
            return None
        rows.append(row)
    return np.array(rows, dtype=np.complex128)


def reduced(triples):
    """Each step's operator triple in graded-scalar form, each operator
    reduced once; None as soon as one does not reduce."""
    ops = []
    for triple in triples:
        step = tuple(op.as_graded_scalar() for op in triple)
        if any(g is None for g in step):
            return None
        ops.append(step)
    return ops


def coefficients(ops):
    """(n_steps, 3, 2) coefficients (c(+1), c(-1)) of reduced triples.

    c(p) = alpha + beta p, as in forward._Frame.coef. Read back as NumPy
    scalars, an overflow gives inf (caught by gram's finite check)
    instead of raising from Python float arithmetic.
    """
    table = np.empty((len(ops), 3, 2), dtype=np.complex128)
    for k, step in enumerate(ops):
        for j, g in enumerate(step):
            table[k, j] = g.alpha + g.beta, g.alpha - g.beta
    return table


def walk(grid, coefs, srcs, x0_amps, pair):
    """Yield pair-form pairings of K linear solves at steps 0..n_steps.

    The bilinear form of forward._Frame.step, unpruned (README, Layout).
    coefs is the shared operators' coefficient table; srcs yields each
    step's (3, K) source amplitudes (an array or a lazy iterable).
    pair(v) forms the pairings of the amplitude vector v: its outer
    product, the outer products of consecutive runs of v or |v|^2.
    Every update is entrywise in the path indices, so batching groups of
    paths into one walk gives each group's pairings bit for bit.
    Overflow is passed on (NaN and inf persist), so consumers check
    what they keep.
    """
    dt = grid.dt
    root = np.sqrt(dt)
    e0 = np.asarray(x0_amps, dtype=np.complex128)
    g_even = np.zeros_like(pair(e0))
    g_odd = np.zeros_like(g_even)
    yield pair(e0)
    for coef, (s_d, s_f, s_g) in zip(coefs, srcs):
        (a_e, a_o), (b_e, b_o), (c_e, c_o) = coef
        m_even = 1.0 + dt * a_e
        m_odd = 1.0 + dt * a_o
        # Right mult by g_k keeps the row's sign, left mult takes the
        # row's parity.
        f_even = root * (b_e + c_e)
        f_odd = root * (b_o - c_o)
        v = f_even * e0 + root * (s_f + s_g)
        g_even, g_odd = (
            abs(m_even) ** 2 * g_even + abs(f_odd) ** 2 * g_odd,
            abs(m_odd) ** 2 * g_odd + abs(f_even) ** 2 * g_even + pair(v),
        )
        e0 = m_even * e0 + dt * s_d
        yield pair(e0) + g_even + g_odd


def gram(grid, coefs, srcs, x0_amps, block):
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
        w = v.reshape(shape[:2])
        return w.conj()[:, :, None] * w[:, None, :]

    out = np.empty((grid.n_steps + 1,) + shape, dtype=np.complex128)
    for k, pairs in enumerate(walk(grid, coefs, srcs, x0_amps, pair)):
        out[k] = pairs
    bad = ~np.isfinite(out.reshape(grid.n_steps + 1, -1)).all(axis=1)
    if bad.any():
        raise FloatingPointError(
            f"state became non-finite at step {int(np.argmax(bad))}"
        )
    return out


def norms_sq(grid, coefs, srcs, x0_amps):
    """Yield ||x_i(k)||^2 of walk's K solves, one length-K real array
    per step, as the values are taken; NaN and inf persist unchecked."""
    return walk(
        grid, coefs, srcs, x0_amps, lambda v: v.real**2 + v.imag**2
    )


def vacua(grid, coefs, srcs, x0_amp):
    """Vacua e0_k, k = 0..n_steps, of the solve with (n_steps, 3) sources
    srcs from start amplitude x0_amp: walk's e0' = m+ e0 + dt s_D."""
    dt = grid.dt
    grow = 1.0 + dt * coefs[:, 0, 0]
    e0 = np.empty(grid.n_steps + 1, dtype=np.complex128)
    e0[0] = x0_amp
    for k in range(grid.n_steps):
        e0[k + 1] = grow[k] * e0[k] + dt * srcs[k, 0]
    return e0


def adjoint_vacua(grid, coefs, srcs, x0_amp, q, s):
    """(vacuum(phi_k) for k <= n_steps, vacuum(Phi_k) for k < n_steps).

    The transpose of walk (README, Layout): the adjoint pair that
    control.first_adjoint solves by the implicit backward step from
    phi_n = -2s x_n, with running-cost gradient 2q x, along the solve x
    with (n_steps, 3) sources srcs and start amplitude x0_amp. O(n_steps)
    time and memory, nothing pruned; overflow is passed on as in walk.
    """
    n = grid.n_steps
    dt = grid.dt
    root = np.sqrt(dt)
    parity = np.array([1.0, -1.0])
    a, b, c = coefs[:, 0], coefs[:, 1], coefs[:, 2]
    grow = 1.0 + dt * a
    e0 = vacua(grid, coefs, srcs, x0_amp)
    v = root * ((b[:, 0] + c[:, 0]) * e0[:n] + srcs[:, 1] + srcs[:, 2])
    solve = 1.0 / (1.0 - dt * a.conj())
    back = (parity * b + c).conj()
    own = (solve * grow).tolist()
    cross = (dt * parity * solve * (b + parity * c) * back).tolist()
    drive = (-2.0 * q * dt * solve).tolist()
    # r_odd[k] = R_{k+1}(-1), the weight of x's row {k} at step k + 1.
    r_odd = [0j] * n
    even = odd = complex(-2.0 * s)
    for k in range(n - 1, -1, -1):
        r_odd[k] = odd
        (oe, oo), (ce, co), (de, do) = own[k], cross[k], drive[k]
        even, odd = oe * even + ce * odd + de, oo * odd + co * even + do
    Phi = v * np.array(r_odd, dtype=np.complex128) / root
    feed = (dt * back[:, 0] * Phi - 2.0 * q * dt * e0[:n]).tolist()
    step = solve[:, 0].tolist()
    phi = [0j] * (n + 1)
    phi[n] = complex(-2.0 * s * e0[n])
    for k in range(n - 1, -1, -1):
        phi[k] = step[k] * (phi[k + 1] + feed[k])
    return np.array(phi, dtype=np.complex128), Phi
