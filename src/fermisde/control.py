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

Derivative rules are supplied, not differenced; numeric_frechet
cross-checks them in the tests. Every check here reports numbers
(residuals, slopes, minima) rather than asserting, so the calling test
or report decides pass/fail at its own tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import CliffordElement, lp_norm, norm2, pairing
from .backward import Driver, solve_stepwise
from .forward import (
    Coefficients,
    ControlSpace,
    StatePath,
    euler_forward,
    euler_forward_difference,
    linear_euler_forward,
    linear_gram,
    linear_norms_sq,
    spike,
    spike_window,
)
from .ito import AdaptedProcess, TimeGrid
from .operators import (
    BilinearMap,
    ComposeOp,
    GradingOp,
    GradedScalarOp,
    SumOp,
    _as_scalar_amp,
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


def _zero_cost(k, x, u):
    return 0.0


def _zero_cost_grad(k, x, u):
    return CliffordElement.zero(x.n)


def _zero_cost_hess(k, x, u):
    return BilinearMap.zero()


def _zero_terminal(x):
    return 0.0


def _zero_terminal_grad(x):
    return CliffordElement.zero(x.n)


def _zero_terminal_hess(x):
    return BilinearMap.zero()


@dataclass(frozen=True)
class RunningNormCost:
    """Running cost L(k, x, u) = q ||x||^2 + r ||u||^2 with its weights.

    The weights declare the cost's structure: brute_force_optimum reads
    them to cost every candidate exactly by the parity-Gram recursion.
    """

    q: float
    r: float

    def __call__(self, k, x, u):
        return self.q * x.norm2_sq() + self.r * u.norm2_sq()


@dataclass(frozen=True)
class TerminalNormCost:
    """Terminal cost h(x) = s ||x||^2 with its weight (see RunningNormCost)."""

    s: float

    def __call__(self, x):
        return self.s * x.norm2_sq()


@dataclass
class ControlProblem:
    """State equation, costs and admissible controls in one bundle.

    L(k, x, u) and h(x) are real-valued; Lx, hx return elements and Lxx,
    hxx bilinear maps (hxx must carry an operator form for the second
    adjoint). p is the norm exponent for estimates (2 keeps everything
    exact at any size). prune is the solver mass budget used by default
    for forward and backward solves of this problem; None means exact.
    """

    coeffs: Coefficients
    control_space: ControlSpace
    x0: CliffordElement
    L: Callable = _zero_cost
    Lx: Callable = _zero_cost_grad
    Lxx: Callable = _zero_cost_hess
    h: Callable = _zero_terminal
    hx: Callable = _zero_terminal_grad
    hxx: Callable = _zero_terminal_hess
    p: float = 2.0
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


def _sup_sq(paths_signs, p, length):
    """sup over steps of the squared p-norm of a signed element sum."""
    out = 0.0
    for k in range(length):
        parts = [(s, path[k]) for s, path in paths_signs]
        if p == 2.0:
            val = _diff_sq_norms(parts)
        else:
            acc = parts[0][1].scale(parts[0][0])
            for s, el in parts[1:]:
                acc = acc + el.scale(s)
            val = lp_norm(acc, p) ** 2
        out = max(out, val)
    return out


def _fit_slope(eps_list, values):
    """Least-squares slope of log(value) against log(eps)."""
    x = np.log(np.asarray(eps_list, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _require_windows(grid, eps_list, offset):
    """Widths of the spike windows that spike_window gives for eps_list.

    Refuses widths below one step, windows that pass T and two eps that
    round to the same window, so that slopes are fitted against the
    widths the solves use.
    """
    widths = []
    for eps in eps_list:
        if eps < grid.dt * (1 - 1e-9):
            raise ValueError(
                f"eps {eps:g} below grid resolution dt={grid.dt:g}"
            )
        if offset + eps > grid.T * (1 + 1e-9):
            # A window clipped at T would be fitted against the nominal eps.
            raise ValueError(
                f"spike window [{offset:g}, {offset + eps:g}) passes the "
                f"horizon T={grid.T:g}"
            )
        k0, k1 = spike_window(grid, eps, offset)
        width = (k1 - k0) * grid.dt
        if width in widths:
            raise ValueError(
                f"eps {eps:g} runs on the same {k1 - k0}-step window as "
                f"an earlier eps"
            )
        widths.append(width)
    return widths


# Coefficients of (xi, y, z) in each ladder series.
_LADDER_SERIES = {
    "xi_sq": (1.0, 0.0, 0.0),
    "y_sq": (0.0, 1.0, 0.0),
    "z_sq": (0.0, 0.0, 1.0),
    "eta_sq": (1.0, -1.0, 0.0),
    "zeta_sq": (1.0, -1.0, -1.0),
}

# Which control-increment sources (rows sD, sF, sG) drive xi, y and z
# (columns) on the spike window of declared-linear coefficients: xi takes
# all three, y the noise ones and z the drift one (the derivative
# differences and second derivatives vanish).
_GRAM_SOURCES = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])


def _gram_ops(problem, grid):
    """Per-step (A, B, C) of the parity-Gram routes, None if they cannot run.

    The routes need declared linear coefficients whose operators reduce
    to graded-scalar form at every step and a start state that is a
    multiple of I; each consumer also checks its control sources with
    _source_amps.
    """
    lin = problem.coeffs.linear
    if lin is None or _as_scalar_amp(problem.x0) is None:
        return None
    ops = [(lin.A(k), lin.B(k), lin.C(k)) for k in range(grid.n_steps)]
    if any(op.as_graded_scalar() is None for step in ops for op in step):
        return None
    return ops


def _source_amps(problem, k, value):
    """Scalar amplitudes of (uD, uF, uG) under control value value at
    step k, None unless every source is a multiple of I."""
    lin = problem.coeffs.linear
    amps = [
        _as_scalar_amp(rule(k, value)) for rule in (lin.uD, lin.uF, lin.uG)
    ]
    return None if any(a is None for a in amps) else amps


def _gram_amps(problem, ubar, u):
    """The (2, n_steps, 3) amplitudes of (sD, sF, sG) under ubar and
    under u, None if any source is not a multiple of I."""
    amps = np.empty((2, ubar.grid.n_steps, 3), dtype=np.complex128)
    for k in range(ubar.grid.n_steps):
        for i, control in enumerate((ubar, u)):
            step = _source_amps(problem, k, control[k])
            if step is None:
                return None
            amps[i, k] = step
    return amps


def _gram_ladder(problem, grid, eps_list, offset, ops, amps):
    """floor and per-eps sup series from linear_gram; nothing is pruned."""
    base, alt = amps
    x_gram = linear_gram(
        grid, ops.__getitem__, lambda k: base[k][:, None],
        [_as_scalar_amp(problem.x0)],
    )
    floor = 1e-8 * (1.0 + float(x_gram[:, 0, 0].real.max()))
    delta = alt - base
    idle = np.zeros_like(_GRAM_SOURCES)
    sups = []
    for eps in eps_list:
        k0, k1 = spike_window(grid, eps, offset)

        def srcs(k):
            if k0 <= k < k1:
                return delta[k][:, None] * _GRAM_SOURCES
            return idle

        gram = linear_gram(grid, ops.__getitem__, srcs, np.zeros(3))
        sups.append({
            name: max(
                float(np.einsum("i,kij,j->k", c, gram, c).real.max()), 0.0
            )
            for name, c in _LADDER_SERIES.items()
        })
    return floor, sups


def _sparse_ladder(problem, ubar, u, eps_list, offset, prune):
    """floor, per-eps sup series and pruned mass from element solves."""
    grid = ubar.grid
    p = problem.p
    xbar = solve_state(problem, ubar, prune=prune)
    sup_x_sq = max(lp_norm(v, p) ** 2 for v in xbar)
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
                [(c, path) for c, path in zip(combo, paths) if c], p, length
            )
            for name, combo in _LADDER_SERIES.items()
        })
    return floor, sups, float(np.sqrt(dropped_sq))


def variation_ladder(problem, ubar, u, eps_list, offset=0.0, prune=None):
    """Order-of-magnitude sweep for the spike-variation expansions.

    For each eps, solves the spiked state difference xi, the first and
    second variational paths y and z, and the remainders eta = xi - y,
    zeta = eta - z; reports sup-step squared p-norms and log-log slopes
    fitted against the window widths the solves use (each eps rounded to
    whole steps by spike_window; "eps" lists them). Every window must end
    by T. A series whose values stay below a resolution floor is flagged
    vacuous and gets no slope; a ladder with every series vacuous does
    not pass. Slope targets are lower bounds: remainders may decay faster
    than their guarantee (and do whenever a variational term vanishes
    identically).

    With p = 2, declared linear graded-scalar coefficients and scalar
    start state and sources, the norms and pairings come exactly from
    linear_gram and prune is unused; any other problem takes element
    solves pruned at the problem's budget. pruned_mass is the
    root-sum-square of the mass those solves dropped (0 on the exact
    route).
    """
    if len(eps_list) < 2:
        raise ValueError("need at least two eps values to fit slopes")
    grid = ubar.grid
    widths = _require_windows(grid, eps_list, offset)
    ops = _gram_ops(problem, grid) if problem.p == 2 else None
    amps = None if ops is None else _gram_amps(problem, ubar, u)
    if amps is None:
        floor, sups, pruned = _sparse_ladder(
            problem, ubar, u, eps_list, offset, prune
        )
    else:
        floor, sups = _gram_ladder(
            problem, grid, eps_list, offset, ops, amps
        )
        pruned = 0.0
    targets = {"xi_sq": 1.0, "y_sq": 1.0, "z_sq": 2.0,
               "eta_sq": 2.0, "zeta_sq": 2.0}
    series = {name: [sup[name] for sup in sups] for name in _LADDER_SERIES}
    dominated = not any(
        sup["zeta_sq"] > sup["eta_sq"] + floor for sup in sups
    )
    slopes = {}
    vacuous = {}
    passed = True
    for name in _LADDER_SERIES:
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
        "p": problem.p,
        "series": series,
        "slopes": slopes,
        "targets": targets,
        "vacuous": vacuous,
        "zeta_dominated_by_eta": dominated,
        "floor": floor,
        "pruned_mass": pruned,
        "pass": passed and not all(vacuous.values()),
    }


def _grade_compose(op):
    """Grading composed after op; graded-scalar inputs stay closed."""
    g = op.as_graded_scalar()
    if g is not None:
        return GradedScalarOp(g.beta, g.alpha)
    return ComposeOp([GradingOp(), op])


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
        lx.append(problem.Lx(k, xb, ub))
    return lin, noise_star, lx


def first_adjoint(problem, xbar, ubar, prune=None, mode="implicit"):
    """Adjoint pair (phi, Phi) by a backward solve from -hx at the end.

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
    terminal = problem.hx(xbar[grid.n_steps]).scale(-1.0)
    path = solve_stepwise(
        driver, grid, terminal, mode=mode,
        prune=problem.budget(prune),
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
    hxx = problem.hxx(xbar[n])
    if hxx.is_zero:
        terminal = GradedScalarOp(0.0, 0.0)
    else:
        if hxx.operator is None:
            raise ValueError(
                "terminal-cost Hessian must carry an operator form"
            )
        terminal = _require_graded_scalar(
            hxx.operator, "terminal Hessian"
        ).scale(-1.0)
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
        lxx = problem.Lxx(k, xb, ub)
        if lxx.is_zero:
            hxx_op = GradedScalarOp(0.0, 0.0)
        else:
            if lxx.operator is None:
                raise ValueError(
                    "running-cost Hessian must carry an operator form"
                )
            hxx_op = _require_graded_scalar(
                lxx.operator, f"Lxx at step {k}"
            ).scale(-1.0)
        p_next = out[k + 1]
        drift = (
            (dx.adjoint() @ p_next)
            + (p_next @ dx)
            + (
                (_grade_compose(fx) + gx).adjoint()
                @ p_next
                @ (fx + _grade_compose(gx))
            )
            + hxx_op
        )
        out[k] = (p_next + drift.scale(dt)).symmetrized()
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
    co = problem.coeffs
    xb, ub = xbar[k], ubar[k]
    phi, Phi = adjoints.phi[k], adjoints.Phi[k]
    base = hamiltonian(problem, k, xb, ub, phi, Phi).real
    cand = hamiltonian(problem, k, xb, u_cand, phi, Phi).real
    value = base - cand
    dF = co.F(k, xb, u_cand) - co.F(k, xb, ub)
    dG = co.G(k, xb, u_cand) - co.G(k, xb, ub)
    if dF.n_terms == 0 and dG.n_terms == 0:
        return float(value)
    if P is None:
        if not first_order_only:
            raise ValueError(
                "candidate changes the noise coefficients; supply the "
                "second adjoint P or request first_order_only"
            )
        return float(value)
    p_op = P.P[k]
    twisted = p_op.conjugate_by_grading()
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
    """
    grid = ubar.grid
    space = problem.control_space
    if candidates is None:
        candidates = [[v] for v in space.value_grid]
    entries = []
    minimum = np.inf
    argmin = {}
    for weights in candidates:
        u_el = space.element(weights)
        for k in range(grid.n_steps):
            val = mp_lhs(problem, k, u_el, xbar, ubar, adjoints, P=P)
            entry = {
                "step": k,
                "t": k * grid.dt,
                "weights": list(np.atleast_1d(weights).astype(float)),
                "lhs": val,
            }
            entries.append(entry)
            if val < minimum:
                minimum = val
                argmin = dict(entry)
    return MPReport(
        entries=entries,
        minimum=float(minimum),
        argmin=argmin,
        tol=tol,
        passed=bool(minimum >= -tol),
    )


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
        lx = problem.Lx(k, xbar[k], ubar[k])
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
    widths = _require_windows(grid, eps_list, offset)
    xbar = solve_state(problem, ubar, prune=prune)
    j_base = cost(problem, ubar, prune=prune, path=xbar)
    n = grid.n_steps
    hx = problem.hx(xbar[n])
    hxx = problem.hxx(xbar[n])
    residuals = []
    for eps in eps_list:
        u_eps = spike(ubar, u, eps, offset)
        j_true = cost(problem, u_eps, prune=prune)
        y = solve_var_y(problem, xbar, ubar, u, eps, offset, prune)
        z = solve_var_z(problem, xbar, ubar, u, y, eps, offset, prune)
        expansion = j_base
        for k in range(n):
            xb, ub = xbar[k], ubar[k]
            lx = problem.Lx(k, xb, ub)
            if lx.n_terms:
                expansion += dt * (
                    pairing(lx, y[k]).real + pairing(lx, z[k]).real
                )
            lxx = problem.Lxx(k, xb, ub)
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


def _norm_cost_weights(problem):
    """(q, r, s) of a cost declared by RunningNormCost and
    TerminalNormCost, the zero defaults counting as zero weights; None
    for any other cost rule."""
    L, h = problem.L, problem.h
    if L is _zero_cost:
        q = r = 0.0
    elif isinstance(L, RunningNormCost):
        q, r = L.q, L.r
    else:
        return None
    if h is _zero_terminal:
        s = 0.0
    elif isinstance(h, TerminalNormCost):
        s = h.s
    else:
        return None
    return q, r, s


def _gram_costs(problem, grid, bounds, values):
    """J of every candidate from one diagonal parity-Gram recursion.

    values are the distinct block control values; candidate c takes
    values[i_b] on block b, where (i_0, i_1, ...) unravels c in
    itertools.product order. Returns the costs in that order, None when
    the cost is not a declared norm cost or the problem is not
    eligible for the Gram route (_gram_ops, _source_amps). Memory is
    O(K blocks + n_steps len(values)) for K candidates.
    """
    weights = _norm_cost_weights(problem)
    ops = None if weights is None else _gram_ops(problem, grid)
    if ops is None:
        return None
    n = grid.n_steps
    table = np.empty((n, 3, len(values)), dtype=np.complex128)
    for k in range(n):
        for i, value in enumerate(values):
            amps = _source_amps(problem, k, value)
            if amps is None:
                return None
            table[k, :, i] = amps
    blocks = len(bounds) - 1
    count = len(values) ** blocks
    picks = np.unravel_index(np.arange(count), (len(values),) * blocks)
    # Per step, the value index of every candidate (its block's pick).
    step_picks = [picks[b] for b in np.repeat(range(blocks), np.diff(bounds))]
    q, r, s = weights
    u_sq = np.array([value.norm2_sq() for value in values])
    norms = linear_norms_sq(
        grid,
        ops.__getitem__,
        lambda k: table[k][:, step_picks[k]],
        np.full(count, _as_scalar_amp(problem.x0)),
    )
    total = np.zeros(count)
    # The walk runs lazily inside this loop; an overflowing candidate
    # turns into inf or NaN there and is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x_sq in enumerate(norms):
            if k < n:
                total += (q * x_sq + r * u_sq[step_picks[k]]) * grid.dt
            else:
                total = total + s * x_sq
    if not np.isfinite(total).all():
        raise FloatingPointError(
            f"state or cost became non-finite for "
            f"{int(np.sum(~np.isfinite(total)))} of {count} candidates"
        )
    return total


def brute_force_optimum(problem, grid, steps_coarse, value_grid,
                        prune=None):
    """Exhaustive cost minimum over coarse piecewise-constant controls.

    Each of steps_coarse blocks gets one weight vector with every entry
    drawn from value_grid; the block layout is mapped onto the fine
    grid. Refuses when the enumeration exceeds the budget. Ties keep the
    earliest candidate in itertools.product order, which makes the
    result deterministic.

    When the cost is declared by RunningNormCost and TerminalNormCost
    (or the zero defaults) and the problem is eligible for the
    parity-Gram route, every candidate is costed exactly by one array
    recursion and prune is unused; otherwise each candidate is costed
    by a forward solve pruned at the problem's budget.
    """
    from itertools import product

    if steps_coarse < 1 or steps_coarse > 4:
        raise ValueError("coarse steps must lie in 1..4")
    basis_size = len(problem.control_space.basis)
    slots = steps_coarse * basis_size
    combos = len(value_grid) ** slots
    if combos > ORACLE_BUDGET:
        raise ValueError(
            f"enumeration of {combos} candidates exceeds the budget "
            f"of {ORACLE_BUDGET}"
        )
    n = grid.n_steps
    bounds = [round(i * n / steps_coarse) for i in range(steps_coarse + 1)]
    space = problem.control_space
    values = [
        space.element(list(weights))
        for weights in product(value_grid, repeat=basis_size)
    ]

    def candidate(picks):
        steps = []
        for b, i in enumerate(picks):
            steps.extend([values[i]] * (bounds[b + 1] - bounds[b]))
        return AdaptedProcess(grid, steps, check=False)

    costs = _gram_costs(problem, grid, bounds, values)
    if costs is not None:
        best = int(np.argmin(costs))
        shape = (len(values),) * steps_coarse
        return candidate(np.unravel_index(best, shape)), float(costs[best])
    best = None
    best_cost = np.inf
    for picks in product(range(len(values)), repeat=steps_coarse):
        u = candidate(picks)
        j = cost(problem, u, prune=prune)
        if j < best_cost:
            best_cost = j
            best = u
    return best, float(best_cost)
