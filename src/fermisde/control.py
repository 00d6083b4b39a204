"""Optimal-control layer: cost, spike variations, adjoints, optimality.

A control problem bundles the state equation coefficients with a running
cost L, a terminal cost h, an admissible control space and a start
state. The necessary-condition machinery built here follows one chain:

  spike a control on a small window -> first and second variational
  equations for the state change -> first adjoint pair (phi, Phi) by a
  backward solve -> Hamiltonian comparison plus a second-order term from
  the operator-valued second adjoint P -> pointwise inequality checked
  on a lattice of (step, candidate) pairs against a brute-force
  enumeration oracle.

This is the element route, the tests' reference; on a parity channel
the ladder, oracle and max-principle take _channel's exact routes,
whose cost rule alone reads the norm-cost weights. Derivative rules
are supplied, not differenced; numeric_frechet cross-checks them in
the tests. Checks report numbers (residuals, slopes, minima), not
asserts: the calling test or report decides at its own tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

import numpy as np

from . import _channel
from .algebra import CliffordElement, norm2, pairing
from .backward import Driver, solve_stepwise
from .forward import (
    Coefficients,
    ControlSpace,
    _past_horizon,
    _require_step,
    euler_forward,
    euler_forward_difference,
    linear_euler_forward,
    spike,
    spike_window,
)
from .ito import AdaptedProcess
from .operators import (
    BilinearMap,
    GradedScalarOp,
    SumOp,
    _grade_compose,
    _second_adjoint_step,
)

__all__ = [
    "ControlProblem",
    "RunningNormCost",
    "TerminalNormCost",
    "AdjointPair",
    "SecondAdjointPath",
    "MPReport",
    "solve_state",
    "cost",
    "solve_var_y",
    "solve_var_z",
    "variation_ladder",
    "first_adjoint",
    "hamiltonian",
    "second_adjoint_deterministic",
    "mp_lhs",
    "mp_scan",
    "duality_check",
    "cost_expansion_check",
    "brute_force_optimum",
]

ORACLE_BUDGET = 100_000


def _norm_hess(weight):
    """Hessian of weight ||x||^2: the zero map at weight 0."""
    if weight == 0:
        return BilinearMap.zero()
    return BilinearMap(operator=GradedScalarOp(2.0 * weight, 0.0))


@dataclass(frozen=True)
class RunningNormCost:
    """Running cost L(k, x, u) = q ||x||^2 + r ||u||^2 with its weights.

    grad and hess are the state derivatives Lx and Lxx. The weights
    declare the cost's structure to _channel.gate, whose cost rule
    alone reads them.
    """

    q: float
    r: float

    def __call__(self, k, x, u):
        return self.q * x.norm2_sq() + self.r * u.norm2_sq()

    def grad(self, k, x, u):
        return x.scale(2.0 * self.q)

    def hess(self, k, x, u):
        return _norm_hess(self.q)

    # The declaration _channel.gate reads.
    _running_weights = property(lambda self: (self.q, self.r))


@dataclass(frozen=True)
class TerminalNormCost:
    """Terminal cost h(x) = s ||x||^2 with its weight (see RunningNormCost)."""

    s: float

    def __call__(self, x):
        return self.s * x.norm2_sq()

    def grad(self, x):
        return x.scale(2.0 * self.s)

    def hess(self, x):
        return _norm_hess(self.s)

    _terminal_weight = property(lambda self: self.s)


@dataclass
class ControlProblem:
    """State equation, costs and admissible controls in one bundle.

    L(k, x, u) and h(x) are real-valued and carry their state
    derivatives: grad returns an element and hess a bilinear map (h.hess
    must carry an operator form for the second adjoint). Any object with
    those three rules serves; RunningNormCost and TerminalNormCost also
    declare their weights to the exact routes. prune is the solver mass
    budget used by default for forward and backward solves of this
    problem; None means exact.
    """

    coeffs: Coefficients
    control_space: ControlSpace
    x0: CliffordElement
    L: Callable = RunningNormCost(0.0, 0.0)
    h: Callable = TerminalNormCost(0.0)
    prune: Optional[float] = None

    def budget(self, prune):
        return self.prune if prune is None else prune


@dataclass
class AdjointPair:
    """First adjoint solution: phi_0..phi_n and integrand Phi_0..Phi_{n-1}."""

    phi: list
    Phi: list
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SecondAdjointPath:
    """Second adjoint operators P_0..P_n (graded-scalar, symmetrized)."""

    P: list
    diagnostics: dict = field(default_factory=dict)


@dataclass
class MPReport:
    """Lattice of pointwise optimality values with its minimum."""

    entries: list
    minimum: float
    argmin: dict
    tol: float
    passed: bool

    def to_dict(self):
        return {
            "entries": self.entries,
            "minimum": self.minimum,
            "argmin": self.argmin,
            "tol": self.tol,
            "passed": self.passed,
        }


def solve_state(problem, u, prune=None):
    """Forward path of the problem's state equation under control u."""
    return euler_forward(
        problem.coeffs, problem.x0, u, prune=problem.budget(prune)
    )


def cost(problem, u, prune=None, path=None):
    """J(u) = sum_k L(k, x_k, u_k) dt + h(x_n), x from the forward solve."""
    if path is None:
        path = solve_state(problem, u, prune=prune)
    grid = u.grid
    total = 0.0
    for k in range(grid.n_steps):
        total += problem.L(k, path[k], u[k]) * grid.dt
    return float(total + problem.h(path.terminal))


def _frozen_ops(problem, xbar, ubar):
    """ops(k) for the variational equations: derivatives along (xbar, ubar)."""
    co = problem.coeffs

    def ops(k):
        xb, ub = xbar[k], ubar[k]
        return (
            co.Dx(k, xb, ub),
            co.Fx(k, xb, ub),
            co.Gx(k, xb, ub),
        )

    return ops


def _half_quad(bm, y, n):
    """(1/2) bm(y, y) as an element; zero map gives the zero element."""
    if bm.is_zero:
        return CliffordElement.zero(n)
    return bm(y, y).scale(0.5)


def _var_sources(problem, xbar, ubar, u, k0, k1, ypath=None):
    """Source triple rule for the variational equations.

    Without ypath: the first-order sources, noise differences delta F and
    delta G on the spike window only. With ypath: the second-order
    sources, the drift difference delta D plus the derivative differences
    applied to y on the window, and the half second-derivative terms at
    (xbar, ubar) on every step.
    """
    co = problem.coeffs
    n = problem.x0.n
    zero = CliffordElement.zero(n)

    def first_order(k):
        if not k0 <= k < k1:
            return zero, zero, zero
        xb, ub, uk = xbar[k], ubar[k], u[k]
        dF = co.F(k, xb, uk) - co.F(k, xb, ub)
        dG = co.G(k, xb, uk) - co.G(k, xb, ub)
        return zero, dF, dG

    def second_order(k):
        xb, ub = xbar[k], ubar[k]
        y = ypath[k]
        sD = _half_quad(co.Dxx(k, xb, ub), y, n)
        sF = _half_quad(co.Fxx(k, xb, ub), y, n)
        sG = _half_quad(co.Gxx(k, xb, ub), y, n)
        if k0 <= k < k1:
            uk = u[k]
            sD = sD + (co.D(k, xb, uk) - co.D(k, xb, ub))
            dDx = co.Dx(k, xb, uk) + co.Dx(k, xb, ub).scale(-1.0)
            sD = sD + dDx.apply(y)
            dFx = co.Fx(k, xb, uk) + co.Fx(k, xb, ub).scale(-1.0)
            sF = sF + dFx.apply(y)
            dGx = co.Gx(k, xb, uk) + co.Gx(k, xb, ub).scale(-1.0)
            sG = sG + dGx.apply(y)
        return sD, sF, sG

    return first_order if ypath is None else second_order


def _solve_var(problem, xbar, ubar, u, eps, offset, prune, ypath=None):
    """Variational path on the spike window; ypath selects the order."""
    grid = ubar.grid
    k0, k1 = spike_window(grid, eps, offset)
    return linear_euler_forward(
        grid,
        _frozen_ops(problem, xbar, ubar),
        _var_sources(problem, xbar, ubar, u, k0, k1, ypath=ypath),
        CliffordElement.zero(grid.n),
        prune=problem.budget(prune),
    )


def solve_var_y(problem, xbar, ubar, u, eps, offset=0.0, prune=None):
    """First variational path: derivative flow with spike noise sources."""
    return _solve_var(problem, xbar, ubar, u, eps, offset, prune)


def solve_var_z(problem, xbar, ubar, u, ypath, eps, offset=0.0, prune=None):
    """Second variational path: drift spike plus curvature sources."""
    return _solve_var(problem, xbar, ubar, u, eps, offset, prune, ypath)


def _diff_sq_norms(parts):
    """Squared 2-norm of a signed sum of elements via pairwise pairings.

    parts is a list of (sign, element); avoids materializing the sum, so
    no merge of large term sets happens.
    """
    total = 0.0
    for i, (si, a) in enumerate(parts):
        total += si * si * a.norm2_sq()
        for sj, b in parts[i + 1 :]:
            total += 2.0 * si * sj * pairing(a, b).real
    return max(total, 0.0)


def _sup_sq(paths_signs, length):
    """sup over steps of the squared 2-norm of a signed element sum."""
    return max(
        _diff_sq_norms([(s, path[k]) for s, path in paths_signs])
        for k in range(length)
    )


def _fit_slope(eps_list, values):
    """Least-squares slope of log(value) against log(eps)."""
    x = np.log(np.asarray(eps_list, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _window_refusals(grid, eps_list, offsets):
    """(eps index, why) of each refusal of the spike windows of eps_list
    at each of offsets; the index is None where the offset is at fault.

    The ladder's rules, so that slopes are fitted against the widths the
    solves use: every width spans a whole step (forward._require_step)
    and fits in [0, T], every window starts inside [0, T) (spike_window)
    and ends by T, and no two eps run on one window at the same offset.
    A width wider than T is refused at its own index, since no offset
    could hold it.
    """
    refusals = []
    for i, eps in enumerate(eps_list):
        try:
            _require_step(grid, eps)
        except ValueError as exc:
            refusals.append((i, str(exc)))
            continue
        if _past_horizon(grid, eps):
            refusals.append((i, (
                f"eps {eps:g} is wider than the horizon T={grid.T:g}"
            )))
    if refusals:
        return refusals
    widest = max(eps_list)
    for offset in offsets:
        try:
            spike_window(grid, widest, offset)
        except ValueError as exc:
            refusals.append((None, str(exc)))
            continue
        if _past_horizon(grid, offset + widest):
            # A window clipped at T would be fitted against the nominal eps.
            refusals.append((None, (
                f"spike window [{offset:g}, {offset + widest:g}) passes the "
                f"horizon T={grid.T:g}"
            )))
            continue
        first = {}
        for i, eps in enumerate(eps_list):
            k0, k1 = spike_window(grid, eps, offset)
            j = first.setdefault(k1 - k0, i)
            if j != i:
                refusals.append((i, (
                    f"eps {eps:g} runs on the same {k1 - k0}-step window "
                    f"as eps {eps_list[j]:g} at offset {offset:g}"
                )))
    return refusals


def _require_windows(grid, eps_list, offset):
    """The spike windows of eps_list at offset and their widths, raising
    the first of _window_refusals; a slope needs at least two eps."""
    if len(eps_list) < 2:
        raise ValueError("need at least two eps values to fit slopes")
    refusals = _window_refusals(grid, eps_list, [offset])
    if refusals:
        raise ValueError(refusals[0][1])
    windows = [spike_window(grid, eps, offset) for eps in eps_list]
    return windows, [(k1 - k0) * grid.dt for k0, k1 in windows]


def _sparse_ladder(problem, ubar, u, eps_list, offset, prune):
    """floor, per-eps sup series and pruned mass from element solves."""
    grid = ubar.grid
    xbar = solve_state(problem, ubar, prune=prune)
    sup_x_sq = max(norm2(v) ** 2 for v in xbar)
    floor = 1e-8 * (1.0 + sup_x_sq)
    length = grid.n_steps + 1
    dropped_sq = xbar.diagnostics["pruned_mass"] ** 2
    sups = []
    for eps in eps_list:
        u_eps = spike(ubar, u, eps, offset)
        xi = euler_forward_difference(
            problem.coeffs, xbar, ubar, u_eps,
            prune=problem.budget(prune),
        )
        y = solve_var_y(problem, xbar, ubar, u, eps, offset, prune)
        z = solve_var_z(problem, xbar, ubar, u, y, eps, offset, prune)
        paths = (xi, y, z)
        for path in paths:
            dropped_sq += path.diagnostics["pruned_mass"] ** 2
        sups.append({
            name: _sup_sq(
                [(c, path) for c, path in zip(combo, paths) if c], length
            )
            for name, combo in _channel.LADDER_SERIES.items()
        })
    return floor, sups, float(np.sqrt(dropped_sq))


def variation_ladder(problem, ubar, u, eps_list, offset=0.0, prune=None):
    """Order-of-magnitude sweep for the spike-variation expansions.

    For each eps, solves the spiked state difference xi, the first and
    second variational paths y and z, and the remainders eta = xi - y,
    zeta = eta - z; reports sup-step squared 2-norms and log-log slopes
    fitted against the window widths the solves use (each eps rounded to
    whole steps by spike_window; "eps" lists them). Every window must end
    by T. A series whose values stay below a resolution floor is flagged
    vacuous and gets no slope; a ladder with every series vacuous does
    not pass. Slope targets are lower bounds: remainders may decay faster
    than their guarantee (and do whenever a variational term vanishes
    identically).

    On a parity channel (see _channel.gate; ubar and u must be multiples
    of I wherever a nonzero injection reads them), the norms and
    pairings come exactly from one walk and prune is unused; any other
    problem takes element solves pruned at the problem's budget.
    pruned_mass is the root-sum-square of the mass those solves dropped
    (0 on the exact route).
    """
    grid = ubar.grid
    windows, widths = _require_windows(grid, eps_list, offset)
    # u is read only on the windows; elsewhere it does not differ from ubar.
    steps = sorted(set().union(*(range(k0, k1) for k0, k1 in windows)))
    ch = _channel.gate(
        problem, grid, (range(grid.n_steps), lambda k: (ubar[k],)),
        (steps, lambda k: (u[k],)),
    )
    if ch is None:
        floor, sups, pruned = _sparse_ladder(
            problem, ubar, u, eps_list, offset, prune
        )
    else:
        floor, sups = _channel.ladder(grid, windows, ch, steps)
        pruned = 0.0
    targets = {"xi_sq": 1.0, "y_sq": 1.0, "z_sq": 2.0,
               "eta_sq": 2.0, "zeta_sq": 2.0}
    series = {name: [sup[name] for sup in sups] for name in targets}
    dominated = not any(
        sup["zeta_sq"] > sup["eta_sq"] + floor for sup in sups
    )
    slopes = {}
    vacuous = {}
    passed = True
    for name in targets:
        vals = series[name]
        if max(vals) < floor:
            vacuous[name] = True
            slopes[name] = None
            continue
        vacuous[name] = False
        slopes[name] = _fit_slope(widths, vals)
        if slopes[name] < targets[name] - 0.25:
            passed = False
    return {
        "eps": widths,
        "offset": offset,
        "series": series,
        "slopes": slopes,
        "targets": targets,
        "vacuous": vacuous,
        "zeta_dominated_by_eta": dominated,
        "floor": floor,
        "pruned_mass": pruned,
        "pass": passed and not all(vacuous.values()),
    }


def _adjoint_ingredients(problem, xbar, ubar):
    """Per-step operator and gradient data for the first adjoint driver."""
    co = problem.coeffs
    grid = ubar.grid
    lin = []
    noise_star = []
    lx = []
    for k in range(grid.n_steps):
        xb, ub = xbar[k], ubar[k]
        dx = co.Dx(k, xb, ub)
        lin.append(dx.adjoint().scale(-1.0))
        mixed = SumOp([_grade_compose(co.Fx(k, xb, ub)), co.Gx(k, xb, ub)])
        reduced = mixed.as_graded_scalar()
        noise_star.append(
            (reduced if reduced is not None else mixed).adjoint()
        )
        lx.append(problem.L.grad(k, xb, ub))
    return lin, noise_star, lx


def first_adjoint(problem, xbar, ubar, prune=None):
    """Adjoint pair (phi, Phi) by a backward solve from -h.grad at the end.

    The driver couples phi through the adjoint of the frozen drift
    derivative, Phi through the adjoint of the grading-twisted noise
    derivatives, and carries the running-cost gradient as its source.
    """
    grid = ubar.grid
    lin, noise_star, lx = _adjoint_ingredients(problem, xbar, ubar)

    def f(k, phi, Phi):
        out = lin[k].apply(phi) + lx[k]
        if Phi.n_terms:
            out = out - noise_star[k].apply(Phi.grading())
        return out

    lip = problem.coeffs.lipschitz_bound
    driver = Driver(
        f=f, g1=lip, g2=lip, linear_y=lambda k: lin[k]
    )
    terminal = problem.h.grad(xbar[grid.n_steps]).scale(-1.0)
    path = solve_stepwise(
        driver, grid, terminal, prune=problem.budget(prune)
    )
    return AdjointPair(
        phi=path.y, Phi=path.Y, diagnostics=dict(path.diagnostics)
    )


def hamiltonian(problem, k, x, u, phi, Phi):
    """<phi, D> + <grading(Phi), grading(F) + G> - L at (k, x, u).

    The grading twist on the noise slot mirrors how increments commute
    past adapted elements; the real part is the quantity compared by the
    pointwise optimality test.
    """
    co = problem.coeffs
    d = co.D(k, x, u)
    f = co.F(k, x, u)
    g = co.G(k, x, u)
    val = 0.0 + 0.0j
    if phi.n_terms and d.n_terms:
        val += pairing(phi, d)
    if Phi.n_terms:
        mixed = f.grading() + g
        if mixed.n_terms:
            val += pairing(Phi.grading(), mixed)
    return val - problem.L(k, x, u)


def _require_graded_scalar(op, what):
    g = op.as_graded_scalar()
    if g is None:
        raise ValueError(
            f"second adjoint needs deterministic graded-scalar "
            f"coefficient operators; {what} does not reduce"
        )
    return g


def _negated_hess_op(hess, cost_name, what):
    """-hess as a graded-scalar operator; the zero map gives zero."""
    if hess.is_zero:
        return GradedScalarOp(0.0, 0.0)
    if hess.operator is None:
        raise ValueError(f"{cost_name} Hessian must carry an operator form")
    return _require_graded_scalar(hess.operator, what).scale(-1.0)


def second_adjoint_deterministic(problem, xbar, ubar, adjoints):
    """Backward operator recursion for P with vanishing martingale part.

    Valid when the frozen coefficient derivatives are graded-scalar (a
    deterministic, state-independent family) and the second derivatives
    of D, F, G vanish; anything else is refused with a diagnostic, not
    approximated. Each step symmetrizes, and the terminal operator is
    the negated terminal-cost Hessian.
    """
    co = problem.coeffs
    grid = ubar.grid
    n = grid.n_steps
    dt = grid.dt
    terminal = _negated_hess_op(
        problem.h.hess(xbar[n]), "terminal-cost", "terminal Hessian"
    )
    out = [None] * (n + 1)
    out[n] = terminal.symmetrized()
    for k in range(n - 1, -1, -1):
        xb, ub = xbar[k], ubar[k]
        for name in ("Dxx", "Fxx", "Gxx"):
            if not getattr(co, name)(k, xb, ub).is_zero:
                raise ValueError(
                    f"second adjoint refused: coefficient {name} is "
                    f"nonzero at step {k}; only curvature-free state "
                    f"equations propagate operator-valued P here"
                )
        dx = _require_graded_scalar(co.Dx(k, xb, ub), f"Dx at step {k}")
        fx = _require_graded_scalar(co.Fx(k, xb, ub), f"Fx at step {k}")
        gx = _require_graded_scalar(co.Gx(k, xb, ub), f"Gx at step {k}")
        hxx_op = _negated_hess_op(
            problem.L.hess(k, xb, ub), "running-cost", f"Lxx at step {k}"
        )
        out[k] = _second_adjoint_step(out[k + 1], dx, fx, gx, hxx_op, dt)
    return SecondAdjointPath(
        P=out, diagnostics={"terminal_alpha": terminal.alpha.real}
    )


def mp_lhs(problem, k, u_cand, xbar, ubar, adjoints, P=None,
           first_order_only=False):
    """Pointwise optimality value at (step k, candidate control value).

    Hamiltonian at the reference control minus at the candidate, minus
    half the second-adjoint quadratic term in the noise-coefficient
    changes. Nonnegative (up to discretization error) at an optimum.
    Candidates that change F or G need P; omitting it is an error unless
    first_order_only explicitly waives the quadratic term.
    """
    reference = _mp_reference(problem, k, xbar, ubar, adjoints, P)
    return _mp_value(problem, k, u_cand, xbar, adjoints, reference,
                     first_order_only)


def _mp_reference(problem, k, xbar, ubar, adjoints, P):
    """The side of mp_lhs at step k that no candidate changes: the
    Hamiltonian's real part, F and G at ubar, and P_k twisted by the
    grading (None without P)."""
    co = problem.coeffs
    xb, ub = xbar[k], ubar[k]
    base = hamiltonian(
        problem, k, xb, ub, adjoints.phi[k], adjoints.Phi[k]
    ).real
    twisted = None if P is None else P.P[k].conjugate_by_grading()
    return base, co.F(k, xb, ub), co.G(k, xb, ub), twisted


def _mp_value(problem, k, u_cand, xbar, adjoints, reference,
              first_order_only=False):
    """mp_lhs at step k for a candidate, given _mp_reference at k."""
    base, f_ref, g_ref, twisted = reference
    co = problem.coeffs
    xb = xbar[k]
    cand = hamiltonian(
        problem, k, xb, u_cand, adjoints.phi[k], adjoints.Phi[k]
    ).real
    value = base - cand
    dF = co.F(k, xb, u_cand) - f_ref
    dG = co.G(k, xb, u_cand) - g_ref
    if dF.n_terms == 0 and dG.n_terms == 0:
        return float(value)
    if twisted is None:
        if not first_order_only:
            raise ValueError(_channel.NEEDS_P)
        return float(value)
    left = twisted.apply(dF + dG.grading())
    right = dF.grading() + dG
    value -= 0.5 * pairing(left, right).real
    return float(value)


def mp_scan(problem, xbar, ubar, adjoints, P=None, candidates=None,
            tol=1e-6):
    """Optimality values over all steps times a candidate-weight lattice.

    candidates is a list of weight vectors for the control basis
    (defaults to the single-basis value grid). Returns an MPReport with
    the minimum, its location and the pass verdict at tolerance tol.
    Entries run over candidates, then steps; each step's reference side
    (see _mp_reference) is evaluated once for all candidates.
    """
    grid = ubar.grid
    space = problem.control_space
    if candidates is None:
        candidates = [[v] for v in space.value_grid]
    references = [
        _mp_reference(problem, k, xbar, ubar, adjoints, P)
        for k in range(grid.n_steps)
    ]
    entries = []
    for weights in candidates:
        u_el = space.element(weights)
        for k, reference in enumerate(references):
            val = _mp_value(problem, k, u_el, xbar, adjoints, reference)
            entries.append(_mp_entry(grid, k, weights, val))
    at, minimum = _first_minimum([entry["lhs"] for entry in entries])
    return MPReport(
        entries=entries,
        minimum=minimum,
        argmin={} if at is None else dict(entries[at]),
        tol=tol,
        passed=bool(minimum >= -tol),
    )


def _mp_entry(grid, k, weights, val):
    """One lattice entry of the scan: step, time, candidate and value."""
    return {
        "step": k,
        "t": k * grid.dt,
        "weights": list(np.atleast_1d(weights).astype(float)),
        "lhs": val,
    }


def _first_minimum(values):
    """(index, value) of the first strict minimum of values in flat order,
    NaN and inf never winning; (None, inf) when nothing is below inf."""
    flat = np.asarray(values, dtype=float).ravel()
    live = flat < np.inf
    if not live.any():
        return None, float(np.inf)
    at = int(np.argmin(np.where(live, flat, np.inf)))
    return at, float(flat[at])


def duality_check(problem, xbar, ubar, u, eps, adjoints, order=1,
                  offset=0.0, prune=None):
    """Defect of the adjoint-variation pairing identity.

    Pairs the terminal adjoint against the variational terminal value
    and compares with the accumulated running terms: the cost gradient
    against the variation, and the adjoint pair against the spike
    sources. order 1 uses y alone; order 2 uses y + z and the
    second-order sources. Returns |LHS - RHS|, which shrinks at first
    order in dt (exactly zero when the adjoint driver vanishes).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    grid = ubar.grid
    dt = grid.dt
    k0, k1 = spike_window(grid, eps, offset)
    y = solve_var_y(problem, xbar, ubar, u, eps, offset, prune)
    paths = [y]
    srcs_rules = [_var_sources(problem, xbar, ubar, u, k0, k1)]
    if order == 2:
        z = solve_var_z(problem, xbar, ubar, u, y, eps, offset, prune)
        paths.append(z)
        srcs_rules.append(
            _var_sources(problem, xbar, ubar, u, k0, k1, ypath=y)
        )
    n = grid.n_steps
    phi, Phi = adjoints.phi, adjoints.Phi
    lhs = sum(pairing(phi[n], path[n]) for path in paths)
    rhs = 0.0 + 0.0j
    for k in range(n):
        lx = problem.L.grad(k, xbar[k], ubar[k])
        for path in paths:
            if lx.n_terms and path[k].n_terms:
                rhs += dt * pairing(lx, path[k])
        for rule in srcs_rules:
            s_d, s_f, s_g = rule(k)
            if s_d.n_terms:
                rhs += dt * pairing(phi[k], s_d)
            if s_f.n_terms:
                rhs += dt * pairing(Phi[k], s_f)
            if s_g.n_terms:
                rhs += dt * pairing(Phi[k].grading(), s_g)
    return float(abs(lhs - rhs))


def cost_expansion_check(problem, ubar, u, eps_list, offset=0.0,
                         prune=None):
    """Second-order cost expansion against the true spiked cost.

    For each eps, compares J(u_eps) with J(ubar) plus the first-order
    terms in y + z, the running-cost spike difference, and the quadratic
    terms in y; reports residuals and their fitted slope (above 1 when
    the expansion captures everything up to o(eps)). Widths and windows
    are those of variation_ladder.
    """
    grid = ubar.grid
    dt = grid.dt
    _, widths = _require_windows(grid, eps_list, offset)
    xbar = solve_state(problem, ubar, prune=prune)
    j_base = cost(problem, ubar, prune=prune, path=xbar)
    n = grid.n_steps
    hx = problem.h.grad(xbar[n])
    hxx = problem.h.hess(xbar[n])
    residuals = []
    for eps in eps_list:
        u_eps = spike(ubar, u, eps, offset)
        j_true = cost(problem, u_eps, prune=prune)
        y = solve_var_y(problem, xbar, ubar, u, eps, offset, prune)
        z = solve_var_z(problem, xbar, ubar, u, y, eps, offset, prune)
        expansion = j_base
        for k in range(n):
            xb, ub = xbar[k], ubar[k]
            lx = problem.L.grad(k, xb, ub)
            if lx.n_terms:
                expansion += dt * (
                    pairing(lx, y[k]).real + pairing(lx, z[k]).real
                )
            lxx = problem.L.hess(k, xb, ub)
            if not lxx.is_zero and y[k].n_terms:
                expansion += 0.5 * dt * lxx(y[k], y[k])
            expansion += dt * (
                problem.L(k, xb, u_eps[k]) - problem.L(k, xb, ub)
            )
        if hx.n_terms:
            expansion += pairing(hx, y[n]).real + pairing(hx, z[n]).real
        if not hxx.is_zero and y[n].n_terms:
            expansion += 0.5 * hxx(y[n], y[n])
        residuals.append(abs(j_true - expansion))
    floor = 1e-10 * (1.0 + abs(j_base))
    vacuous = max(residuals) < floor
    slope = None if vacuous else _fit_slope(widths, residuals)
    return {
        "eps": widths,
        "residuals": residuals,
        "slope": slope,
        "vacuous": vacuous,
        "pass": bool(vacuous or slope > 1.0),
    }


def _require_oracle_budget(problem, steps_coarse, value_grid):
    """Refuse an enumeration of more than ORACLE_BUDGET candidates: one
    weight vector over value_grid on each of steps_coarse blocks."""
    slots = steps_coarse * len(problem.control_space.basis)
    if (combos := len(value_grid) ** slots) > ORACLE_BUDGET:
        raise ValueError(
            f"enumeration of {combos} candidates exceeds the budget "
            f"of {ORACLE_BUDGET}"
        )


def _oracle(problem, grid, steps_coarse, value_grid, *requests, prune=None):
    """brute_force_optimum, with what the max-principle scan reuses.

    Returns (u_opt, j_opt, weights, exact): weights are the block weight
    vectors (itertools.product order), the scan's lattice. On the channel
    route exact is the gate's Channel (source tables of the weights'
    values at every step, then of requests), the winner's value index
    per step and the values' ||u||^2; None off the channel.
    """
    if steps_coarse < 1 or steps_coarse > 4:
        raise ValueError("coarse steps must lie in 1..4")
    _require_oracle_budget(problem, steps_coarse, value_grid)
    space = problem.control_space
    n = grid.n_steps
    bounds = [round(i * n / steps_coarse) for i in range(steps_coarse + 1)]
    weights = list(product(value_grid, repeat=len(space.basis)))
    values = [space.element(list(w)) for w in weights]
    ch = _channel.gate(
        problem, grid, (range(grid.n_steps), lambda k: values), *requests,
        costs=True,
    )
    if ch is None:
        best, best_cost = None, np.inf
        for picks in product(range(len(values)), repeat=steps_coarse):
            u = _block_control(grid, bounds, values, picks)
            if (j := cost(problem, u, prune=prune)) < best_cost:
                best, best_cost = u, j
        return best, float(best_cost), weights, None
    picks, j, u_sq = _channel.oracle(grid, ch, bounds, values)
    exact = (ch, np.repeat(picks, np.diff(bounds)), u_sq)
    return _block_control(grid, bounds, values, picks), j, weights, exact


def brute_force_optimum(problem, grid, steps_coarse, value_grid,
                        prune=None):
    """Exhaustive cost minimum over coarse piecewise-constant controls.

    Each of steps_coarse blocks gets one weight vector with every entry
    drawn from value_grid; the block layout is mapped onto the fine
    grid. Refuses when the enumeration exceeds the budget. Ties keep the
    earliest candidate in itertools.product order, which makes the
    result deterministic.

    On a parity channel with declared norm costs (see _channel.gate)
    every candidate is costed exactly by one walk and prune is unused;
    otherwise each takes a forward solve pruned at the problem's budget.
    """
    u_opt, j_opt, _, _ = _oracle(
        problem, grid, steps_coarse, value_grid, prune=prune
    )
    return u_opt, j_opt


def _block_control(grid, bounds, values, picks):
    """The control that takes values[picks[b]] on block b."""
    steps = []
    for b, i in enumerate(picks):
        steps.extend([values[i]] * (bounds[b + 1] - bounds[b]))
    return AdaptedProcess(grid, steps, check=False)


def _max_principle(problem, grid, steps_coarse, value_grid, u, order=1,
                   second=True):
    """(u_opt, j_opt, minimum, argmin, duality) of max-principle.

    The oracle enumerates steps_coarse blocks of value_grid, the scan
    runs over the same lattice at its winner (with P when second is
    set) and the duality defect of order 1 or 2 puts u on the spike
    window [0, T/4): by _channel.max_principle when the gate takes the
    problem with its costs, the oracle's values and u on the window,
    else by first_adjoint, second_adjoint_deterministic, mp_scan and
    duality_check.
    """
    eps = grid.T / 4.0
    window = spike_window(grid, eps)
    u_opt, j_opt, weights, exact = _oracle(
        problem, grid, steps_coarse, value_grid,
        (range(*window), lambda k: (u[k],)),
    )
    if exact is None:
        xbar = solve_state(problem, u_opt)
        adjoints = first_adjoint(problem, xbar, u_opt)
        P = (second_adjoint_deterministic(problem, xbar, u_opt, adjoints)
             if second else None)
        scan = mp_scan(problem, xbar, u_opt, adjoints, P=P,
                       candidates=weights)
        dual = duality_check(
            problem, xbar, u_opt, u, eps, adjoints, order=order
        )
        return u_opt, j_opt, scan.minimum, scan.argmin, dual
    lhs, duality = _channel.max_principle(
        grid, *exact, window, order, second
    )
    at, minimum = _first_minimum(lhs)
    argmin = {}
    if at is not None:
        c, k = divmod(at, grid.n_steps)
        argmin = _mp_entry(grid, k, weights[c], minimum)
    return u_opt, j_opt, minimum, argmin, duality
