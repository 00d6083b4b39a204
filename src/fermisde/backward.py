"""Backward equations: terminal value plus a driver, solved two ways.

The discrete backward equation for a terminal value yT and driver f is

    y_k = y_{k+1} - f(k, y_k, Y_k) dt - Y_k dW_k,

with both y_k and the integrand Y_k adapted. The martingale part is
pinned by conditioning: Y_k = E[y_{k+1} dW_k | C_k] / dt, after which the
drift equation is scalar-free and can be stepped (explicitly or as a
per-step fixed point) or iterated globally in Picard fashion. When the
whole-interval Picard map is not a contraction, the interval is split
into windows small enough that it is, and the windows are solved from
the right.

Y_k is the martingale representation of y_{k+1}, read by the one rule
that ito.mrep_extract uses too, _Stack.representing (its one-element
form on the step-by-step route): the rows of y_{k+1} dW_k inside C_k,
which for adapted data are the rows with top bit k with that bit
cleared, over sqrt(dt). The other rows are E[y_{k+1} | C_k].

A driver given as an f is evaluated step by step on elements. A driver
declared linear in y, Driver(linear_y=...) with no f, whose every L_k
is a graded scalar (a ScalarOp or GradedScalarOp), is solved on rows
instead: the implicit
stepwise solve walks the terminal's canonical rows once, Picard keeps
its iterate as stacks and evaluates the driver on them, and the
residual reads f off the stacked path. Elements are built once, for the
returned path, and every value equals the step-by-step route's bit for
bit. Explicit mode and pruning take the step-by-step route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Optional

import numpy as np

from . import _sparse as sp
from .algebra import CliffordElement, _Stack, cond_expect, norm2
from .ito import AdaptedProcess
from .operators import GradedScalarOp, ScalarOp

__all__ = [
    "Driver",
    "BackwardPath",
    "solve_stepwise",
    "solve_picard",
    "residual",
    "apriori_backward_check",
]

INNER_TOL = 1e-12
INNER_CAP = 100
# solve_picard's sweep budget per window and its settling tolerance.
PICARD_MAX_ITER = 200
PICARD_TOL = 1e-10


@dataclass
class Driver:
    """Driver rule f(step k, y, Y) -> element, with Lipschitz constants.

    g1 bounds the sensitivity in y, g2 the one in Y; both feed the
    contraction bookkeeping of the Picard route. linear_y, when set, maps
    a step index to the exact linear part of f in y (an operator L_k with
    f(k, y, Y) - f(k, 0, Y) = L_k(y)); graded-scalar L_k lets the
    implicit step solve its fixed point in closed form. With f omitted
    the driver is declared linear in y: f(k, y, Y) = L_k(y).
    """

    f: Optional[Callable] = None
    g1: float = 0.0
    g2: float = 0.0
    linear_y: Optional[Callable] = None

    def __post_init__(self):
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError("Lipschitz constants must be nonnegative")
        self.declared = self.f is None
        if self.declared:
            if self.linear_y is None:
                raise ValueError("a driver needs f or linear_y")
            self.f = lambda k, y, Y: self.linear_y(k).apply(y)


# The maps whose apply is their graded scalar's row map; a sum or a
# composition that reduces to one rounds its parts apart.
_ROW_MAPS = (ScalarOp, GradedScalarOp)


def _graded_steps(driver, steps):
    """The graded scalars L_0..L_{steps-1} of a driver declared linear in
    y, or None when it was given an f or some L_k is not a ScalarOp or
    GradedScalarOp. A step whose L_k is the previous step's object
    shares its graded scalar, so a run of such steps is one object."""
    if not driver.declared:
        return None
    out = []
    op = graded = None
    for k in range(steps):
        step_op = driver.linear_y(k)
        if step_op is not op:
            op = step_op
            if not isinstance(op, _ROW_MAPS):
                return None
            graded = op.as_graded_scalar()
        out.append(graded)
    return out


def _solve_op(lin, dt):
    """(1 + L dt)^(-1) for a graded scalar L: the implicit step's map."""
    return (GradedScalarOp(1.0, 0.0) + lin.scale(dt)).inverse()


def _graded_images(stack, ops):
    """Each step k of a canonical stack under ops[k], as a canonical stack
    whose every step equals ops[k].apply of its value bit for bit. A run
    of steps sharing one op object takes one multiplication."""
    bounds = stack._bounds(0, len(ops))
    odd = stack.parity()
    amps = np.empty_like(stack.amps)
    keep = np.ones(amps.shape[0], dtype=bool)
    start = 0
    for k in range(1, len(ops) + 1):
        if k < len(ops) and ops[k] is ops[start]:
            continue
        a, b = bounds[start], bounds[k]
        amps[a:b], kept = ops[start].apply_rows(stack.amps[a:b], odd[a:b])
        if kept is not None:
            keep[a:b] = kept
        start = k
    return stack._like(stack.seg, stack.masks, amps).select(keep)


class BackwardPath:
    """Solution pair: y_0..y_n and integrand Y_0..Y_{n-1}, both adapted."""

    def __init__(self, grid, y, Y, diagnostics=None, check=True):
        y = list(y)
        Y = list(Y)
        if len(y) != grid.n_steps + 1 or len(Y) != grid.n_steps:
            raise ValueError("backward path length does not match the grid")
        if check:
            for name, values in (("y", y), ("Y", Y)):
                for k, v in enumerate(values):
                    if not sp.rows_within(v.masks, k).all():
                        raise ValueError(f"{name} is not adapted at step {k}")
        self.grid = grid
        self.y = y
        self.Y = Y
        self.diagnostics = diagnostics or {}

    @property
    def terminal(self):
        return self.y[-1]

    def Y_process(self):
        return AdaptedProcess(self.grid, self.Y, check=False)


def _implicit_value(driver, k, cond, integ, dt):
    """Solve y = cond - f(k, y, integ) dt; returns (y, inner_iterations)."""
    if driver.linear_y is not None:
        lin = driver.linear_y(k).as_graded_scalar()
        if lin is not None:
            rest = driver.f(k, CliffordElement.zero(cond.n), integ)
            rhs = cond - rest.scale(dt)
            return _solve_op(lin, dt).apply(rhs), 0
    y = cond
    for it in range(1, INNER_CAP + 1):
        y_new = cond - driver.f(k, y, integ).scale(dt)
        if not y_new.isfinite():
            break
        d = norm2(y_new - y)
        # a diverging iterate can push norms to inf before the amplitudes
        # overflow; an inf distance must read as "not converged"
        if np.isfinite(d) and d <= INNER_TOL * (1.0 + norm2(y_new)):
            return y_new, it
        y = y_new
    raise RuntimeError(
        f"inner fixed point at step {k} did not converge in {INNER_CAP} "
        f"iterations (dt*g1 = {dt * driver.g1:.3g}; refine the grid)"
    )


def solve_stepwise(driver, grid, yT, mode="implicit", validate=True,
                   prune=None):
    """Backward recursion from yT, one conditional-expectation per step.

    implicit mode solves the per-step fixed point
    y_k = E[y_{k+1}|C_k] - f(k, y_k, Y_k) dt (closed form when the driver
    declares a graded-scalar linear part, inner iteration otherwise);
    explicit mode evaluates f at the conditional expectation instead.
    prune drops a relative ell^2 mass budget from y after each step. An
    implicit, unpruned solve of a driver declared linear in y with
    graded-scalar steps walks yT's rows instead (_stepwise_rows).
    """
    if mode not in ("explicit", "implicit"):
        raise ValueError("mode must be 'explicit' or 'implicit'")
    if yT.n != grid.n:
        raise ValueError("terminal value and grid sizes differ")
    if not sp.rows_within(yT.masks, grid.n_steps).all():
        raise ValueError("terminal value is not adapted to the grid")
    dt = grid.dt
    inv_root = 1.0 / np.sqrt(dt)
    n = grid.n_steps
    lins = None if mode == "explicit" or prune else _graded_steps(driver, n)
    if lins is not None:
        y, Y = _stepwise_rows(grid, yT, lins)
        diagnostics = {"mode": mode, "max_inner_iterations": 0,
                       "pruned_mass": 0.0}
        return BackwardPath(grid, y, Y, diagnostics=diagnostics, check=False)
    y = [None] * (n + 1)
    Y = [None] * n
    y[n] = yT
    worst_inner = 0
    dropped_sq = 0.0
    for k in range(n - 1, -1, -1):
        cond = cond_expect(y[k + 1], k)
        Y[k] = cond_expect(y[k + 1].mul_generator(k, "right"), k).scale(
            inv_root
        )
        if mode == "explicit":
            y[k] = cond - driver.f(k, cond, Y[k]).scale(dt)
        else:
            y[k], inner = _implicit_value(driver, k, cond, Y[k], dt)
            worst_inner = max(worst_inner, inner)
        if prune:
            y[k], d = y[k].prune(prune)
            dropped_sq += d
        if validate and not sp.rows_within(y[k].masks, k).all():
            raise ValueError(
                f"driver produced a non-adapted value at step {k}"
            )
    return BackwardPath(
        grid,
        y,
        Y,
        diagnostics={
            "mode": mode,
            "max_inner_iterations": worst_inner,
            "pruned_mass": float(np.sqrt(dropped_sq)),
        },
        check=False,
    )


def _stepwise_rows(grid, yT, lins):
    """The implicit stepwise solution for f(k, y, Y) = lins[k](y), off
    one walk down yT's canonical rows; returns (y_0..y_n, Y_0..Y_{n-1}).

    For adapted data y_{k+1} holds rows whose top bit is at most k, in
    canonical order: those with top bit k are a tail, Y_k dW_k, read by
    _Stack.representing, and the rest a prefix, E[y_{k+1} | C_k]. The
    step's solution y_k is that prefix under (1 + lins[k] dt)^(-1), row
    by row as GradedScalarOp.apply_rows gives it, so every value equals
    the step-by-step route's bit for bit.
    """
    n = grid.n_steps
    masks, amps = yT.masks, yT.amps
    top = sp.top_bit(masks)
    odd = sp.popcount_rows(masks) & 1
    zero = CliffordElement.zero(grid.n)
    y = [None] * n + [yT]
    tails = []
    lin = solve = None
    for k in range(n - 1, -1, -1):
        if lins[k] is not lin:
            lin = lins[k]
            solve = _solve_op(lin, grid.dt)
        cut = int(np.searchsorted(top, k))
        tails.append((masks[cut:], amps[cut:]))
        masks, top, odd = masks[:cut], top[:cut], odd[:cut]
        amps, keep = solve.apply_rows(amps[:cut], odd)
        if keep is not None:
            masks, amps = masks[keep], amps[keep]
            top, odd = top[keep], odd[keep]
        y[k] = zero if amps.size == 0 else CliffordElement._wrap(
            grid.n, masks, amps
        )
    tails.reverse()
    step = np.repeat(np.arange(n), [m.shape[0] for m, _ in tails])
    Y = _Stack(grid.n, step, *map(np.concatenate, zip(*tails)))
    return y, Y.representing(np.sqrt(grid.dt)).values(0, n)


# The additive identity of complex addition: x + (-0-0j) == x bit for bit,
# signed zeros included.
_NEG_ZERO = complex(-0.0, -0.0)


def _project_sweep(grid, yT, fs, lo, hi):
    """One Picard projection on steps [lo, hi) with terminal yT.

    fs is a canonical stack of the frozen driver values on those steps,
    step lo + i as its step i, each adapted to its step (a ValueError
    names the first step that is not). Forms the closed martingale
    Z = yT - sum fs dt and reads the sweep off its canonical rows;
    returns canonical stacks of y on lo..hi-1 and of Y on lo..hi-1, each
    step lo + i as step i.

    A row of Z whose highest bit t lies in [lo, hi) is a term of
    Y_t dW_t, which _Stack.representing turns into a row of Y_t. The
    martingale at step k keeps the rows with t < k, which for adapted
    data are the masks below 2^k: a prefix of Z's rows. So every Y_t is
    one contiguous block and every martingale value a prefix view, as
    stepping the split down from hi would give them.

    The prefix sums of fs dt come from _running_sums, equal bit for bit
    to the fold acc = acc + fs[j] dt; y_k = mart_k + prefix_k is then
    formed for all steps in one stacked sum.
    """
    n = grid.n
    count = hi - lo
    terms = fs.scale(grid.dt)
    outside = ~sp.rows_within(terms.masks, terms.seg + lo)
    if outside.any():
        bad = lo + int(terms.seg[outside][0])
        raise ValueError(f"driver produced a non-adapted value at step {bad}")
    prefix, acc = _running_sums(n, terms, count)
    mart = yT - acc
    top = sp.top_bit(mart.masks)
    bounds = np.searchsorted(top, np.arange(lo, hi + 1))
    # Y: the rows topping out in [lo, hi), at their top bit's step
    rows = slice(bounds[0], bounds[-1])
    integrands = _Stack(n, top[rows], mart.masks[rows], mart.amps[rows])
    integrands = integrands.representing(np.sqrt(grid.dt)).window(lo, hi)
    # the martingale at step lo + i: the first bounds[i] rows of Z
    sizes = bounds[:-1]
    index = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    marts = _Stack(
        n,
        np.repeat(np.arange(count), sizes),
        mart.masks[index],
        mart.amps[index],
    )
    return marts + prefix, integrands


def _running_sums(n, terms, count):
    """The fold acc_{j+1} = acc_j + terms_j over the steps of a canonical
    stack, in one accumulation per mask; returns (stack of acc_1 ..
    acc_{count-1}, unordered within a step, and the element acc_count).

    Sorted stably by mask, the rows of each mask are its terms in step
    order. Each mask gets a row of an array whose column c holds its term
    of step c, or -0-0j where it has none, and a cumsum along it gives
    the fold's values: -0-0j is the exact additive identity, so an absent
    term changes nothing and a first term comes out as itself. The fold
    drops a sum that cancels to exactly zero, so its next term enters
    alone; the cumsum would add it to that zero, which can flip a -0.0
    part, so each such row is summed again from there (_restart_zeros).
    A mask's row only spans the steps from its first term on, and masks
    share an array with those whose span is at most twice as long, so
    the arrays hold at most about twice the rows of the prefix sums.

    The one input that tells this from the fold is an amplitude of
    terms_j that underflows to exactly zero: the fold can carry such a
    zero row for a step, and so differ in the sign of a zero part.
    """
    w = terms.masks.shape[1]
    order = sp.lexsort_rows(terms.masks)
    masks = terms.masks[order]
    seg = terms.seg[order]
    amps = terms.amps[order]
    new = np.ones(seg.size, dtype=bool)
    new[1:] = np.any(masks[1:] != masks[:-1], axis=1)
    starts = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    span = count - seg[starts]
    bucket = np.ceil(np.log2(span)).astype(np.int64)
    finals = np.zeros(starts.size, dtype=np.complex128)
    pieces = []
    # (np.unique would import numpy.ma, a megabyte, on its first call)
    for b in np.flatnonzero(np.bincount(bucket)):
        members = np.flatnonzero(bucket == b)
        width = int(span[members].max())
        first = count - width
        inside = bucket[group] == b
        sums = np.full((members.size, width), _NEG_ZERO)
        sums[np.searchsorted(members, group[inside]), seg[inside] - first] = (
            amps[inside]
        )
        terms_b = sums.copy()
        np.cumsum(terms_b, axis=1, out=sums)
        _restart_zeros(terms_b, sums)
        finals[members] = sums[:, -1]
        local, col = np.nonzero(sums[:, :-1] != 0)
        pieces.append(
            (first + 1 + col, masks[starts[members[local]]], sums[local, col])
        )
    empty = (np.zeros(0, np.int64), sp.empty_masks(w), np.zeros(0, complex))
    seg_p, masks_p, amps_p = map(np.concatenate, zip(empty, *pieces))
    live = finals != 0
    acc = CliffordElement._wrap(n, masks[starts[live]], finals[live])
    return _Stack(n, seg_p, masks_p, amps_p), acc


def _restart_zeros(terms, sums):
    """Sum again, in place, every row of sums = cumsum(terms) from each
    point where it is exactly zero, starting from -0-0j as the fold's
    empty sum does. A zero that already is -0-0j needs no restart, and
    a restart changes only the signs of zero parts, so it finds the
    same zeros further on."""
    cols = np.arange(sums.shape[1] - 1)

    def restarts(block):
        head = block[:, :-1]
        return (head == 0) & ~(np.signbit(head.real) & np.signbit(head.imag))

    flags = restarts(sums)
    rows = np.flatnonzero(flags.any(axis=1))
    flags = flags[rows]
    while rows.size:
        at = flags.argmax(axis=1)[:, None]
        later = np.arange(sums.shape[1]) > at
        tail = np.cumsum(np.where(later, terms[rows], _NEG_ZERO), axis=1)
        sums[rows] = np.where(later, tail, sums[rows])
        flags = restarts(sums[rows]) & (cols > at)
        again = flags.any(axis=1)
        rows, flags = rows[again], flags[again]


def _pair_distance(grid, y_a, Y_a, y_b, Y_b):
    """sup_k ||dy_k||_2 plus the dt-weighted ell^2 aggregate of dY, for
    canonical stacks of y_0..y_n and Y_0..Y_{n-1}."""
    n = grid.n_steps
    sup = max((y_a - y_b).norms(0, n + 1))
    agg = reduce(add, (d**2 * grid.dt for d in (Y_a - Y_b).norms(0, n)), 0.0)
    return sup + np.sqrt(agg)


def _one_step_window_sweeps(a, n_steps, T, scale, tol=PICARD_TOL):
    """Sweeps a one-step Picard window takes to settle under a scalar
    driver a, on a grid of n_steps steps over horizon T, for terminal
    data of 2-norm scale; inf when one step does not contract
    (|a| dt >= 1).

    Frozen on y_k, a sweep of a one-step window sets
    y_k = E[y_{k+1} | C_k] - a dt y_k, so each move of y_k is |a| dt
    times the one before, and the window settles at the first sweep J
    with |a| T (|a| dt)^(J - 1) D_1 <= tol (solve_picard's test on the
    driver values), D_1 its first move. D_1 is taken to be the bound on
    the solution: scale when |1 + a dt| >= 1, as for Re a >= 0, and
    scale |1 + a dt|^-n_steps when the implicit step's division by
    |1 + a dt| < 1 grows it.
    """
    rate = abs(a)
    dt = T / n_steps
    first = rate * T * scale
    if first == 0.0:
        return 1
    shrink = abs(1 + a * dt)
    grow = n_steps * max(0.0, -math.log(shrink)) if shrink else math.inf
    if math.log(first) + grow <= math.log(tol):
        return 1
    q = rate * dt
    if q >= 1.0:
        return math.inf
    return 1 + math.ceil((math.log(tol / first) - grow) / math.log(q))


def solve_picard(driver, grid, yT, max_iter=PICARD_MAX_ITER, tol=PICARD_TOL,
                 init=None):
    """Global Picard iteration for the backward equation, with windowing.

    Each sweep freezes the driver on the current iterate, forms the
    closed martingale of the remaining terminal data, and projects it
    down the grid. Two probe sweeps estimate the contraction factor; if
    it exceeds one half, the interval is split into windows whose
    estimated factor stays below one quarter and the windows are solved
    backward, each warm-started from the current iterate. Each window,
    the whole interval of the probes included, may take max_iter sweeps
    (_one_step_window_sweeps predicts a one-step window's count). Returns
    (path, total_sweeps); sweep counts, window layout and contraction
    estimates land in the path diagnostics. A non-adapted initial
    iterate or driver value is refused with a ValueError naming the step.

    The iterate is a pair of canonical stacks, y_0..y_n and Y_0..Y_{n-1},
    into which each sweep splices its window. A driver declared linear in
    y with graded-scalar steps is evaluated on the y stack; any other is
    called step by step on element views of it.
    """
    if yT.n != grid.n:
        raise ValueError("terminal value and grid sizes differ")
    n = grid.n_steps
    dt = grid.dt
    if init is None:
        ys = _Stack(grid.n, np.full(yT.n_terms, n), yT.masks, yT.amps)
        Ys = _Stack.of(grid.n, [])
    else:
        y0 = list(init[0])
        Y0 = list(init[1])
        if len(y0) != n + 1 or len(Y0) != n:
            raise ValueError("initial iterate length does not match grid")
        # a non-adapted start would surface as a non-adapted driver value
        BackwardPath(grid, y0, Y0)
        ys = _Stack.of(grid.n, y0[:n] + [yT])
        Ys = _Stack.of(grid.n, Y0)
    lins = _graded_steps(driver, n)
    sweeps = 0
    diagnostics = {"kappa_measured": None}

    def fvals(lo, hi):
        if lins is not None:
            return _graded_images(ys.window(lo, hi), lins[lo:hi])
        y_w, Y_w = ys.values(lo, hi), Ys.values(lo, hi)
        return _Stack.of(grid.n, [
            driver.f(j, y_w[j - lo], Y_w[j - lo]) for j in range(lo, hi)
        ])

    def settled(fs, fs_prev, count):
        if fs_prev is None:
            return False
        change = max((fs - fs_prev).norms(0, count), default=0.0)
        return change * grid.T <= tol

    def sweep(fs, lo, hi, used):
        """One counted projection of [lo, hi), its window's used + 1st;
        the iterate it gives."""
        nonlocal sweeps
        if used >= max_iter:
            raise RuntimeError(
                f"Picard iteration exceeded {max_iter} sweeps on the "
                f"window of steps {lo}..{hi - 1}"
            )
        sweeps += 1
        top = ys.values(hi, hi + 1)[0] if hi < n else yT
        y_w, Y_w = _project_sweep(grid, top, fs, lo, hi)
        return ys.splice(lo, hi, y_w), Ys.splice(lo, hi, Y_w)

    def run_window(lo, hi, fs_prev=None, used=0):
        """Sweep [lo, hi) until the frozen driver values stop moving,
        used sweeps of the window already made; the sweeps made here."""
        nonlocal ys, Ys
        start = used
        while True:
            fs = fvals(lo, hi)
            if settled(fs, fs_prev, hi - lo):
                return used - start
            ys, Ys = sweep(fs, lo, hi, used)
            used += 1
            fs_prev = fs

    def finish():
        path = BackwardPath(grid, ys.values(0, n) + [yT], Ys.values(0, n),
                            diagnostics=diagnostics, check=False)
        return path, sweeps

    # The first two whole-interval sweeps double as contraction probes;
    # a driver that ignores the iterate settles after the first one.
    fs_prev = None
    dist_prev = None
    kappa = None
    while kappa is None:
        fs = fvals(0, n)
        if settled(fs, fs_prev, n):
            diagnostics["windows"] = 1
            diagnostics["window_sweeps"] = [sweeps]
            return finish()
        y_new, Y_new = sweep(fs, 0, n, sweeps)
        d = _pair_distance(grid, y_new, Y_new, ys, Ys)
        ys, Ys = y_new, Y_new
        fs_prev = fs
        if dist_prev is None:
            dist_prev = d
        else:
            kappa = d / dist_prev if dist_prev > 0 else 0.0
    diagnostics["kappa_measured"] = kappa

    if kappa <= 0.5:
        used = run_window(0, n, fs_prev=fs_prev, used=sweeps)
        diagnostics["windows"] = 1
        diagnostics["window_sweeps"] = [sweeps - used, used]
        return finish()

    # kappa ~ C ((g1 T)^2 + g2^2 T); pick a window length w with
    # C ((g1 w)^2 + g2^2 w) <= 1/4 and solve the windows from the right,
    # warm-starting each from the current iterate.
    drive = (driver.g1 * grid.T) ** 2 + driver.g2**2 * grid.T
    if drive <= 0:
        raise RuntimeError(
            "contraction factor above 1/2 but declared Lipschitz "
            "constants are zero; cannot window"
        )
    c_est = kappa / drive
    quad = c_est * driver.g1**2
    lin = c_est * driver.g2**2
    if quad > 0:
        w_len = (-lin + np.sqrt(lin * lin + quad)) / (2 * quad)
    else:
        w_len = 0.25 / lin
    steps = max(1, int(np.floor(w_len / dt)))
    windows = []
    hi = n
    while hi > 0:
        lo = max(0, hi - steps)
        windows.append((lo, hi))
        hi = lo
    diagnostics["window_steps"] = steps
    diagnostics["c_estimate"] = c_est
    diagnostics["windows"] = len(windows)
    diagnostics["window_sweeps"] = [
        run_window(lo, hi) for lo, hi in windows
    ]
    return finish()


def residual(path, driver, yT):
    """Worst 2-norm defect of the discrete backward equation.

    max over k of ||y_k - y_{k+1} + f(k, y_k, Y_k) dt + Y_k dW_k||_2,
    together with the terminal mismatch ||y_n - yT||_2. Zero up to
    rounding for implicit stepwise output. A driver declared linear in y
    with graded-scalar steps is evaluated on the stacked path.
    """
    grid = path.grid
    n, steps = grid.n, grid.n_steps
    worst = norm2(path.y[-1] - yT)
    ys = _Stack.of(n, path.y[:steps])
    lins = _graded_steps(driver, steps)
    if lins is None:
        fs = _Stack.of(n, [
            driver.f(k, path.y[k], path.Y[k]) for k in range(steps)
        ])
    else:
        fs = _graded_images(ys, lins)
    # One stacked sum per + of the per-step expression, in its order, so
    # that every step rounds as its own fold would.
    defect = ys - _Stack.of(n, path.y[1:])
    defect = defect + fs.scale(grid.dt)
    dw = _Stack.of(n, path.Y).mul_generator("right").scale(np.sqrt(grid.dt))
    for d in (defect + dw).norms(0, steps):
        worst = max(worst, d)
    return worst


def apriori_backward_check(path, driver, yT):
    """Solution size against the data size, as a ratio.

    Numerator: sup_k ||y_k||_2 plus (sum_k dt ||Y_k||_2^2)^(1/2).
    Denominator: ||yT||_2 plus sum_k ||f(k, 0, 0)||_2 dt. A zero-over-
    zero ratio is flagged vacuous rather than divided.
    """
    grid = path.grid
    dt = grid.dt
    zero = CliffordElement.zero(grid.n)
    y_sup = max(norm2(v) for v in path.y)
    y_agg = np.sqrt(reduce(add, (dt * norm2(v) ** 2 for v in path.Y), 0.0))
    numerator = y_sup + float(y_agg)
    data = norm2(yT) + reduce(add, (
        norm2(driver.f(k, zero, zero)) * dt for k in range(grid.n_steps)
    ), 0.0)
    if not np.isfinite(numerator):
        raise FloatingPointError("backward path norm is not finite")
    vacuous = numerator <= 1e-14 and data <= 1e-14
    return {
        "numerator": numerator,
        "denominator": data,
        "vacuous": vacuous,
        "ratio": 0.0 if vacuous else numerator / max(data, 1e-300),
    }
