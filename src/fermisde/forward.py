"""Euler scheme for controlled forward equations driven by fermion noise.

The state equation

    x_{k+1} = x_k + D(k, x_k, u_k) dt + F(k, x_k, u_k) dW_k
                  + dW_k G(k, x_k, u_k)

uses left-endpoint (Ito) coefficient evaluation, which keeps every
integrand adapted. Controls are piecewise constant on the grid; spike
perturbations replace the control on a window of whole steps.

Solvers optionally prune per step by a relative ell^2 mass budget; the
dropped mass is accumulated and reported. The default is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _sparse as sp
from .algebra import CliffordElement, norm2
from .ito import AdaptedProcess
from .operators import (
    BilinearMap,
    GradedScalarOp,
    ScalarOp,
    _as_scalar_amp,
)

__all__ = [
    "Coefficients",
    "LinearStructure",
    "ControlSpace",
    "StatePath",
    "euler_forward",
    "euler_forward_difference",
    "linear_euler_forward",
    "apriori_check",
    "spike",
    "numeric_frechet",
    "numeric_second_frechet",
]


def _zero_rule(k, x, u):
    return x.scale(0.0)


def _zero_op_rule(k, x, u):
    return ScalarOp(0.0)


_ZERO_OP = GradedScalarOp(0.0, 0.0)


def _zero_op_rule_k(k):
    return _ZERO_OP


def _zero_bilinear_rule(k, x, u):
    return BilinearMap.zero()


@dataclass
class LinearStructure:
    """Exact affine decomposition of the coefficients.

    Declares D(k, x, u) = A(k)(x) + uD(k)(u), F = B(k)(x) + uF(k)(u) and
    G = C(k)(x) + uG(k)(u). All six map a step k to an operator: A, B, C
    act on the state and uD, uF, uG inject the control. Graded-scalar
    ones unlock the sort-free solver path, and when all six reduce to
    graded-scalar form at every step the exact parity channel
    (_channel.gate) takes the problem; a rule that returns the previous
    step's object lets the gate reduce it once. The declaration is a
    promise of exactness, not an approximation, and is cross-checked
    against the full rules in the tests.
    """

    A: Callable = _zero_op_rule_k
    B: Callable = _zero_op_rule_k
    C: Callable = _zero_op_rule_k
    uD: Callable = _zero_op_rule_k
    uF: Callable = _zero_op_rule_k
    uG: Callable = _zero_op_rule_k


@dataclass
class Coefficients:
    """Coefficient rules and their derivatives.

    D, F, G map (step, state, control) to elements; Dx, Fx, Gx give the
    state derivative as an operator at that point; Dxx, Fxx, Gxx the second
    derivative as a bilinear map. Omitted entries default to zero.
    lipschitz_bound is the declared Lipschitz constant in the state;
    `linear`, when set, enables the structured solver path.
    """

    D: Callable = _zero_rule
    F: Callable = _zero_rule
    G: Callable = _zero_rule
    Dx: Callable = _zero_op_rule
    Fx: Callable = _zero_op_rule
    Gx: Callable = _zero_op_rule
    Dxx: Callable = _zero_bilinear_rule
    Fxx: Callable = _zero_bilinear_rule
    Gxx: Callable = _zero_bilinear_rule
    lipschitz_bound: float = 0.0
    linear: Optional[LinearStructure] = None

    def rule(self, which):
        try:
            return {"D": self.D, "F": self.F, "G": self.G}[which]
        except KeyError:
            raise ValueError("which must be one of 'D', 'F', 'G'") from None


@dataclass
class ControlSpace:
    """Span of basis elements with a grid of admissible scalar weights.

    Controls take values sum_i c_i basis_i with each c_i drawn from
    value_grid (used by the brute-force search and the optimality lattice).
    """

    basis: list
    value_grid: list = field(default_factory=lambda: [0.0])

    def constant_control(self, grid, weights):
        return AdaptedProcess.constant(grid, self.element(weights))

    def element(self, weights):
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if weights.shape[0] != len(self.basis):
            raise ValueError("one weight per basis element required")
        value = CliffordElement.zero(self.basis[0].n)
        for w, b in zip(weights, self.basis):
            value = value + b.scale(w)
        return value


class StatePath(AdaptedProcess):
    """Forward solution: values x_0..x_n, plus solver diagnostics."""

    def __init__(self, grid, values, check=True, diagnostics=None):
        if len(values) != grid.n_steps + 1:
            raise ValueError("state path must hold n_steps + 1 values")
        super().__init__(grid, values, check=check)
        self.diagnostics = diagnostics or {}

    @property
    def terminal(self):
        return self.values[-1]


def _require_scalar_start(x0):
    if _as_scalar_amp(x0) is None:
        raise ValueError("initial state must be a scalar multiple of I")


def _euler_step(x, k, dt, d, f, g):
    """x + d dt + f dW_k + dW_k g with dW_k = g_k sqrt(dt), merged exactly."""
    root = np.sqrt(dt)
    parts = [(x.masks, x.amps)]
    for el in (
        d.scale(dt),
        f.mul_generator(k, "right").scale(root),
        g.mul_generator(k, "left").scale(root),
    ):
        if el.n_terms:
            parts.append((el.masks, el.amps))
    masks, amps = sp.merge_sum(parts, sp.words_for(x.n))
    return CliffordElement._wrap(x.n, masks, amps)


def _euler_loop(grid, x0, increments, prune, validate):
    """Euler recursion with increments(k, x) giving (D, F, G) at step k.

    Accumulates pruned mass, raises on NaN or overflow and, when validate
    is set, on states that leave the algebra of steps up to k + 1.
    """
    x = x0
    values = [x0]
    dropped_sq = 0.0
    # an overflow shows as a non-finite state, reported with its step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            x = _euler_step(x, k, grid.dt, *increments(k, x))
            if prune:
                x, d = x.prune(prune)
                dropped_sq += d
            if not x.isfinite():
                raise FloatingPointError(
                    f"state became non-finite at step {k + 1}"
                )
            if validate and not sp.rows_within(x.masks, k + 1).all():
                raise ValueError(
                    "coefficients produced a non-adapted state at step "
                    f"{k + 1}"
                )
            values.append(x)
    return StatePath(
        grid,
        values,
        check=False,
        diagnostics={"pruned_mass": float(np.sqrt(dropped_sq))},
    )


def _declared_linear_solve(lin, grid, source, x0, prune):
    """linear_euler_forward on a LinearStructure.

    source(op, k) turns step k's injection operator into its source
    element.
    """
    return linear_euler_forward(
        grid,
        lambda k: (lin.A(k), lin.B(k), lin.C(k)),
        lambda k: tuple(
            source(rule(k), k) for rule in (lin.uD, lin.uF, lin.uG)
        ),
        x0,
        prune=prune,
    )


def euler_forward(coeffs, x0, u, prune=None, validate=True):
    """Explicit Euler solve of the controlled forward equation.

    u is an adapted control process (its grid fixes the time discretization
    and the algebra size). Raises on non-adapted controls and on NaN or
    overflow in the coefficients.
    """
    grid = u.grid
    if x0.n != grid.n:
        raise ValueError("initial state and grid sizes differ")
    _require_scalar_start(x0)
    if validate:
        bad = u.first_non_adapted()
        if bad is not None:
            raise ValueError(f"control is not adapted at step {bad}")
    if coeffs.linear is not None:
        return _declared_linear_solve(
            coeffs.linear, grid, lambda op, k: op.apply(u[k]), x0, prune
        )

    def increments(k, x):
        uk = u[k]
        return coeffs.D(k, x, uk), coeffs.F(k, x, uk), coeffs.G(k, x, uk)

    return _euler_loop(grid, x0, increments, prune, validate)


def euler_forward_difference(coeffs, base, ubar, u, prune=None):
    """Euler solve of xi = x(u) - x(ubar) as its own recursion.

    Algebraically identical to subtracting two euler_forward solves, but
    the state stays at the size of the difference, so pruning error scales
    with ||xi|| instead of ||x||. `base` is the path for ubar. Raises on
    NaN or overflow like euler_forward.
    """
    grid = base.grid
    zero = CliffordElement.zero(grid.n)
    if coeffs.linear is not None:
        # For declared-affine coefficients the difference obeys the same
        # homogeneous equation with control-increment sources; the base
        # path drops out entirely.
        return _declared_linear_solve(
            coeffs.linear,
            grid,
            lambda op, k: op.apply(u[k]) - op.apply(ubar[k]),
            zero,
            prune,
        )

    def increments(k, xi):
        xb = base[k]
        xp = xb + xi
        return tuple(
            rule(k, xp, u[k]) - rule(k, xb, ubar[k])
            for rule in (coeffs.D, coeffs.F, coeffs.G)
        )

    return _euler_loop(grid, zero, increments, prune, validate=False)


class _Frame:
    """Sorted mask frame with an amplitude vector and a parity cache.

    The first row is always the empty mask so scalar sources have a slot.
    Rows may carry exact zeros; materialized elements drop them.
    """

    __slots__ = ("n", "w", "masks", "amps", "par")

    def __init__(self, n, masks, amps):
        self.n = n
        self.w = sp.words_for(n)
        if masks.shape[0] == 0 or masks[0].any():
            masks = np.concatenate(
                (np.zeros((1, self.w), np.uint64), masks)
            )
            amps = np.concatenate((np.zeros(1, np.complex128), amps))
        self.masks = masks
        self.amps = amps
        pc = sp.popcount_rows(masks)
        self.par = np.where(pc & 1, -1.0, 1.0)

    @classmethod
    def from_element(cls, el):
        return cls(el.n, el.masks, el.amps.astype(np.complex128))

    def element(self):
        # Rows are sorted and distinct by construction, and the frame
        # never writes its arrays in place, so only exact zeros go.
        keep = self.amps != 0
        if keep.all():
            return CliffordElement._wrap(self.n, self.masks, self.amps)
        return CliffordElement._wrap(
            self.n, self.masks[keep], self.amps[keep]
        )

    def coef(self, op):
        """Per-row multiplier of a graded-scalar operator, None if zero."""
        g = op.as_graded_scalar()
        if g.beta == 0:
            return g.alpha if g.alpha != 0 else None
        return g.alpha + g.beta * self.par

    def step(self, k, dt, a_op, b_op, c_op, s_d, s_f, s_g):
        """One Euler step with graded-scalar operators and scalar sources."""
        ca = self.coef(a_op)
        if ca is None:
            new_old = self.amps.copy() if s_d else self.amps
        else:
            new_old = self.amps + dt * (ca * self.amps)
        if s_d:
            new_old[0] += dt * s_d
        # Right mult by g_k is sign-free below bit k; left mult picks up
        # the parity of the mask.
        cb = self.coef(b_op)
        cc = self.coef(c_op)
        block = None
        if cb is not None:
            block = cb * self.amps
        if cc is not None:
            signed = self.par * (cc * self.amps)
            block = signed if block is None else block + signed
        if s_f or s_g:
            if block is None:
                block = np.zeros_like(self.amps)
            block[0] += s_f + s_g * self.par[0]
        if block is not None and np.any(block):
            rows = 2 * self.masks.shape[0]
            if rows > sp.MAX_ROWS:
                raise ValueError(
                    f"step {k} refused: the frame would grow to {rows} "
                    f"rows (> {sp.MAX_ROWS})"
                )
            block *= np.sqrt(dt)
            wk, b = divmod(k, 64)
            shifted = self.masks.copy()
            shifted[:, wk] ^= np.uint64(1) << np.uint64(b)
            self.masks = np.concatenate((self.masks, shifted))
            self.amps = np.concatenate((new_old, block))
            self.par = np.concatenate((self.par, -self.par))
        else:
            self.amps = new_old

    def prune(self, budget):
        keep, dropped = sp.prune_keep(self.amps, budget, force_first=True)
        if keep is not None:
            self.masks = self.masks[keep]
            self.amps = self.amps[keep]
            self.par = self.par[keep]
        return dropped


def linear_euler_forward(grid, ops, srcs, x0, prune=None):
    """Euler solve of dx = (A x + sD)dt + (B x + sF)dW + dW (C x + sG).

    ops(k) returns the operator triple (A, B, C); srcs(k) the source
    elements (sD, sF, sG). Steps where all operators reduce to
    graded-scalar form and all sources are scalar run sort-free on a
    shared mask frame; other steps fall back to general products.
    """
    frame = _Frame.from_element(x0)
    values = [frame.element()]
    dt = grid.dt
    dropped_sq = 0.0
    # an overflow shows as a non-finite state, reported with its step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            a_op, b_op, c_op = ops(k)
            s_d, s_f, s_g = srcs(k)
            fast = (
                a_op.as_graded_scalar() is not None
                and b_op.as_graded_scalar() is not None
                and c_op.as_graded_scalar() is not None
            )
            if fast:
                sd = _as_scalar_amp(s_d)
                sf = _as_scalar_amp(s_f)
                sg = _as_scalar_amp(s_g)
                fast = sd is not None and sf is not None and sg is not None
            if fast:
                frame.step(k, dt, a_op, b_op, c_op, sd, sf, sg)
            else:
                x = frame.element()
                x = _euler_step(
                    x,
                    k,
                    dt,
                    a_op.apply(x) + s_d,
                    b_op.apply(x) + s_f,
                    c_op.apply(x) + s_g,
                )
                frame = _Frame.from_element(x)
            if prune:
                dropped_sq += frame.prune(prune)
            if not np.isfinite(frame.amps).all():
                raise FloatingPointError(
                    f"state became non-finite at step {k + 1}"
                )
            values.append(frame.element())
    return StatePath(
        grid,
        values,
        check=False,
        diagnostics={"pruned_mass": float(np.sqrt(dropped_sq))},
    )


def apriori_check(path, x0):
    """Growth ratio sup_k ||x_k||_2^2 / (1 + ||x0||_2^2).

    Raises if the path is non-finite; the ratio itself is reported, not
    asserted, so families of runs can compare their constants.
    """
    norms = []
    for k, x in enumerate(path):
        if not x.isfinite():
            raise FloatingPointError(f"non-finite state at step {k}")
        norms.append(norm2(x) ** 2)
    return _growth(norms, norm2(x0) ** 2)


def _growth(norms_sq, x0_sq):
    """apriori_check's report from the squared norms of x_0..x_n and
    ||x0||_2^2."""
    sup = max(norms_sq)
    return {
        "sup_norm_sq": sup,
        "argmax_step": int(np.argmax(norms_sq)),
        "ratio": sup / (1.0 + x0_sq),
    }


def spike(ubar, u, eps, offset=0.0):
    """Replace ubar by u on the window [offset, offset + eps).

    The window is the one of `spike_window` and must span at least one
    step; narrower spikes are invisible on the grid and raise instead of
    being silently dropped (refine the grid to resolve them).
    """
    grid = ubar.grid
    if not 0 < eps or _past_horizon(grid, eps):
        raise ValueError("spike width must lie in (0, T]")
    _require_step(grid, eps)
    k0, k1 = spike_window(grid, eps, offset)
    values = list(ubar.values[: grid.n_steps])
    for k in range(k0, k1):
        values[k] = u[k]
    return AdaptedProcess(grid, values, check=False)


def _require_step(grid, eps):
    """Refuse a spike width below one grid step: the grid cannot resolve
    it (the tolerance admits a full step with rounding slack)."""
    if eps < grid.dt * (1 - 1e-9):
        raise ValueError(
            f"eps {eps:g} is below one grid step dt={grid.dt:g}; "
            "refine the grid to resolve it"
        )


def _past_horizon(grid, t):
    """Whether time t lies past the horizon T, with a relative slack for
    widths and window ends that round onto T."""
    return t > grid.T * (1 + 1e-9)


def spike_window(grid, eps, offset=0.0):
    """Step indices [k0, k1) of the window [offset, offset + eps).

    Both ends are rounded to whole steps (a width below one step to one
    step) and the window is clipped at T; a window that starts before 0
    or at or past T raises.
    """
    dt = grid.dt
    if offset < 0:
        raise ValueError(f"spike window at offset {offset:g} starts before 0")
    k0 = int(round(offset / dt))
    if k0 >= grid.n_steps:
        raise ValueError(
            f"spike window at offset {offset:g} starts at or past "
            f"T={grid.T:g}"
        )
    count = max(1, int(round(eps / dt)))
    return k0, min(grid.n_steps, k0 + count)


def numeric_frechet(coeffs, which, k, x, u, direction):
    """Central-difference directional derivative of D, F or G in the state.

    Exact for linear coefficients up to rounding; used to cross-check
    supplied Dx, Fx, Gx.
    """
    phi = coeffs.rule(which)
    h = 1e-5 * (1.0 + norm2(x))
    plus = phi(k, x + direction.scale(h), u)
    minus = phi(k, x - direction.scale(h), u)
    return (plus - minus).scale(1.0 / (2.0 * h))


def numeric_second_frechet(coeffs, which, k, x, u, v, w):
    """Four-point second difference; cross-checks supplied Dxx, Fxx, Gxx."""
    phi = coeffs.rule(which)
    h = 1e-4 * (1.0 + norm2(x))
    pp = phi(k, x + v.scale(h) + w.scale(h), u)
    pm = phi(k, x + v.scale(h) - w.scale(h), u)
    mp = phi(k, x - v.scale(h) + w.scale(h), u)
    mm = phi(k, x - v.scale(h) - w.scale(h), u)
    return (pp - pm - mp + mm).scale(1.0 / (4.0 * h * h))
