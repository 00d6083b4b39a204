"""Control layer: adjoints, Hamiltonian comparisons, the operator second
adjoint, spike-variation ladders, duality defects, cost expansion, and
the brute-force enumeration oracle.

Problems here are built inline with explicit parameters so every closed
form in the assertions is self-contained. Quadratic costs with affine
dynamics admit scalar recursions that serve as independent oracles.
"""

import numpy as np
import pytest

from fermisde.algebra import CliffordElement, norm2, pairing, vacuum
from fermisde.control import (
    ORACLE_BUDGET,
    ControlProblem,
    brute_force_optimum,
    cost,
    cost_expansion_check,
    duality_check,
    first_adjoint,
    hamiltonian,
    mp_lhs,
    mp_scan,
    second_adjoint_deterministic,
    solve_state,
    solve_var_y,
    solve_var_z,
    variation_ladder,
)
from fermisde.forward import (
    Coefficients,
    ControlSpace,
    LinearStructure,
    linear_euler_forward,
    spike_window,
)
from fermisde.ito import AdaptedProcess, TimeGrid
from fermisde.operators import (
    BilinearMap,
    GradedScalarOp,
    LeftMulOp,
    ScalarOp,
)

GRID7 = [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]


def quad_problem(n_steps, T=1.0, a=0.25, b=1.0, cf=0.1, sf=0.0,
                 q=0.5, r=1.0, s=0.5, x0=0.0, prune=1e-5, vgrid=None):
    """dx = (a x + b u) dt + (cf x + sf u) dW with quadratic costs."""
    grid = TimeGrid(T, n_steps)
    n = grid.n
    co = Coefficients(
        D=lambda k, x, u: x.scale(a) + u.scale(b),
        F=lambda k, x, u: x.scale(cf) + u.scale(sf),
        Dx=lambda k, x, u: ScalarOp(a),
        Fx=lambda k, x, u: ScalarOp(cf),
        lipschitz_bound=abs(a) + abs(cf),
        linear=LinearStructure(
            A=lambda k: GradedScalarOp(a, 0.0),
            B=lambda k: GradedScalarOp(cf, 0.0),
            uD=lambda k, u: u.scale(b),
            uF=lambda k, u: u.scale(sf),
        ),
    )
    problem = ControlProblem(
        coeffs=co,
        control_space=ControlSpace(
            [CliffordElement.identity(n)], value_grid=vgrid or GRID7
        ),
        x0=CliffordElement.scalar(n, x0),
        L=lambda k, x, u: q * x.norm2_sq() + r * u.norm2_sq(),
        Lx=lambda k, x, u: x.scale(2 * q),
        Lxx=lambda k, x, u: BilinearMap(operator=GradedScalarOp(2 * q, 0.0)),
        h=lambda x: s * x.norm2_sq(),
        hx=lambda x: x.scale(2 * s),
        hxx=lambda x: BilinearMap(operator=GradedScalarOp(2 * s, 0.0)),
        prune=prune,
    )
    return problem, grid


def const_u(grid, w):
    return AdaptedProcess.constant_scalar(grid, w)


# -- cost and adjoints ----------------------------------------------------

def test_cost_of_zero_control_from_zero_start_is_zero():
    pb, grid = quad_problem(8)
    assert cost(pb, const_u(grid, 0.0)) == 0.0
    assert cost(pb, const_u(grid, 0.5)) > 0.0


def test_adjoint_vanishes_along_the_trivial_path():
    pb, grid = quad_problem(12)
    ubar = const_u(grid, 0.0)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    assert all(norm2(v) == 0.0 for v in adj.phi)
    assert all(norm2(v) == 0.0 for v in adj.Phi)


def test_adjoint_reproduces_the_cost_gradient():
    """For a constant scalar control the cost derivative in the weight
    must match the accumulated Hamiltonian derivative with the opposite
    sign, up to the O(dt) discretization gap, which halves with dt."""
    gaps = []
    for n in (8, 16):
        pb, grid = quad_problem(n, x0=0.8, sf=0.5, prune=None)
        w, h = 0.2, 1e-6
        dj = (
            cost(pb, const_u(grid, w + h)) - cost(pb, const_u(grid, w - h))
        ) / (2 * h)
        u = const_u(grid, w)
        xbar = solve_state(pb, u)
        adj = first_adjoint(pb, xbar, u)
        tot = 0.0
        for k in range(n):
            hp = hamiltonian(
                pb, k, xbar[k], CliffordElement.scalar(grid.n, w + h),
                adj.phi[k], adj.Phi[k],
            ).real
            hm = hamiltonian(
                pb, k, xbar[k], CliffordElement.scalar(grid.n, w - h),
                adj.phi[k], adj.Phi[k],
            ).real
            tot += grid.dt * (hp - hm) / (2 * h)
        gaps.append(abs(dj + tot))
    assert gaps[0] < 0.3
    assert 1.5 < gaps[0] / gaps[1] < 2.5


def test_hamiltonian_terms_enter_with_their_signs():
    pb, grid = quad_problem(4, prune=None)
    n = grid.n
    x = CliffordElement.scalar(n, 0.5)
    u = CliffordElement.scalar(n, 0.3)
    phi = CliffordElement.scalar(n, 2.0)
    Phi = CliffordElement.scalar(n, -1.0)
    # D = 0.25*0.5 + 1.0*0.3, F = 0.1*0.5, L = 0.5*0.25 + 1.0*0.09
    want = 2.0 * (0.25 * 0.5 + 0.3) + (-1.0) * (0.1 * 0.5) - (
        0.5 * 0.25 + 0.09
    )
    got = hamiltonian(pb, 0, x, u, phi, Phi)
    assert abs(got - want) < 1e-14


# -- pointwise optimality -------------------------------------------------

def test_mp_lhs_closed_form_at_the_trivial_optimum():
    pb, grid = quad_problem(10, r=1.3)
    ubar = const_u(grid, 0.0)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    for k in (0, 4, 9):
        for v in (-0.9, -0.3, 0.6):
            got = mp_lhs(
                pb, k, CliffordElement.scalar(grid.n, v), xbar, ubar, adj
            )
            assert abs(got - 1.3 * v * v) < 1e-13
        assert mp_lhs(pb, k, ubar[k], xbar, ubar, adj) == 0.0


def test_mp_scan_shape_and_verdict():
    pb, grid = quad_problem(6)
    ubar = const_u(grid, 0.0)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    rep = mp_scan(pb, xbar, ubar, adj, tol=1e-9)
    assert len(rep.entries) == 6 * len(GRID7)
    assert rep.minimum == 0.0
    assert rep.argmin["weights"] == [0.0] or rep.argmin["weights"] == [-0.9]
    assert rep.passed
    d = rep.to_dict()
    assert set(d) == {"entries", "minimum", "argmin", "tol", "passed"}


def test_mp_lhs_noise_candidates_need_P():
    pb, grid = quad_problem(8, sf=1.0)
    ubar = const_u(grid, 0.0)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    cand = CliffordElement.scalar(grid.n, 0.5)
    with pytest.raises(ValueError, match="second adjoint"):
        mp_lhs(pb, 2, cand, xbar, ubar, adj)
    bare = mp_lhs(pb, 2, cand, xbar, ubar, adj, first_order_only=True)
    assert abs(bare - 0.25) < 1e-13  # r v^2 with r = 1


def test_mp_lhs_quadratic_noise_term_matches_scalar_coefficients():
    """With control in the noise the optimality value picks up
    -(alpha_k + beta_k)/2 * sf^2 v^2 from the second adjoint, read off
    its graded-scalar coefficients directly."""
    r, sf = 0.05, 1.0
    pb, grid = quad_problem(12, sf=sf, r=r)
    ubar = const_u(grid, 0.0)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    P = second_adjoint_deterministic(pb, xbar, ubar, adj)
    for k in (0, 5, 11):
        alpha = P.P[k].alpha.real
        beta = P.P[k].beta.real
        assert alpha + beta < 0.0
        for v in (-0.6, 0.3, 0.9):
            got = mp_lhs(
                pb, k, CliffordElement.scalar(grid.n, v), xbar, ubar, adj,
                P=P,
            )
            want = r * v * v - 0.5 * (alpha + beta) * sf * sf * v * v
            assert abs(got - want) < 1e-12
            assert got > 0.0


# -- second adjoint -------------------------------------------------------

def test_second_adjoint_matches_scalar_recursion():
    a, cf, q, s = 0.25, 0.1, 0.5, 0.5
    pb, grid = quad_problem(20, a=a, cf=cf, q=q, s=s, x0=0.7)
    ubar = const_u(grid, 0.2)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    P = second_adjoint_deterministic(pb, xbar, ubar, adj)
    # independent scalar recursion for alpha, beta: the x-coefficients of
    # drift (a) and noise (cf) couple the graded components
    dt = grid.dt
    alpha, beta = -2.0 * s, 0.0
    for k in range(grid.n_steps, -1, -1):
        got = P.P[k]
        assert abs(got.alpha - alpha) < 1e-14
        assert abs(got.beta - beta) < 1e-14
        alpha, beta = (
            alpha + dt * (2 * a * alpha + cf * cf * beta - 2 * q),
            beta + dt * (2 * a * beta + cf * cf * alpha),
        )
    assert P.diagnostics["terminal_alpha"] == -2.0 * s


def test_second_adjoint_quadratic_form_tracks_variation_cost():
    """-Re<P_0 v, v> approximates the quadratic cost accumulated by the
    homogeneous variation started at v, with an O(dt) gap."""
    gaps = []
    for n in (8, 16):
        pb, grid = quad_problem(n, x0=0.8, prune=None)
        ubar = const_u(grid, 0.2)
        xbar = solve_state(pb, ubar)
        adj = first_adjoint(pb, xbar, ubar)
        P = second_adjoint_deterministic(pb, xbar, ubar, adj)
        v0 = CliffordElement.scalar(grid.n, 1.0)
        lin = pb.coeffs.linear
        vpath = linear_euler_forward(
            grid,
            lambda k: (lin.A(k), lin.B(k), lin.C(k)),
            lambda k: (CliffordElement.zero(grid.n),) * 3,
            v0,
        )
        run = sum(
            2 * 0.5 * grid.dt * norm2(vpath[k]) ** 2 for k in range(n)
        )
        run += 2 * 0.5 * norm2(vpath[n]) ** 2
        q0 = -pairing(P.P[0].apply(v0), v0).real
        gaps.append(abs(q0 - run))
        assert abs(q0 - run) < 0.5 * grid.dt
    assert 1.4 < gaps[0] / gaps[1] < 2.6


def test_second_adjoint_refusals_name_the_offender():
    pb, grid = quad_problem(6)
    ubar = const_u(grid, 0.0)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)

    curved, _ = quad_problem(6)
    curved.coeffs.Dxx = lambda k, x, u: BilinearMap(fn=lambda v, w: v + w)
    with pytest.raises(ValueError, match="Dxx is nonzero at step 5"):
        second_adjoint_deterministic(curved, xbar, ubar, adj)

    stochastic, _ = quad_problem(6)
    g = CliffordElement.generator(grid.n, 0)
    stochastic.coeffs.Dx = lambda k, x, u: LeftMulOp(g)
    with pytest.raises(ValueError, match="Dx at step 5 does not reduce"):
        second_adjoint_deterministic(stochastic, xbar, ubar, adj)

    bad_hess, _ = quad_problem(6)
    bad_hess.hxx = lambda x: BilinearMap(fn=lambda v, w: 0.0)
    with pytest.raises(ValueError, match="operator form"):
        second_adjoint_deterministic(bad_hess, xbar, ubar, adj)

    bad_lxx, _ = quad_problem(6)
    bad_lxx.Lxx = lambda k, x, u: BilinearMap(fn=lambda v, w: 0.0)
    with pytest.raises(ValueError, match="operator form"):
        second_adjoint_deterministic(bad_lxx, xbar, ubar, adj)


# -- variational paths and ladders ----------------------------------------

def test_variation_starts_inside_the_spike_window():
    pb, grid = quad_problem(16, sf=1.0)
    ubar = const_u(grid, 0.1)
    alt = const_u(grid, -0.8)
    xbar = solve_state(pb, ubar)
    eps, offset = 0.25, 0.5
    k0, k1 = spike_window(grid, eps, offset)
    y = solve_var_y(pb, xbar, ubar, alt, eps, offset)
    for k in range(k0 + 1):
        assert norm2(y[k]) == 0.0
    assert norm2(y[k0 + 1]) > 0.0
    z = solve_var_z(pb, xbar, ubar, alt, y, eps, offset)
    for k in range(k0 + 1):
        assert norm2(z[k]) == 0.0


def test_ladder_drift_control_problem():
    """Control only in the drift: first-order noise response y vanishes
    identically, xi collapses onto z, and the remainders inherit the
    second-order slope."""
    pb, grid = quad_problem(48, x0=1.0)
    lad = variation_ladder(
        pb, const_u(grid, 0.3), const_u(grid, -0.9), [0.25, 0.125, 0.0625]
    )
    assert lad["pass"]
    assert lad["vacuous"] == {
        "xi_sq": False, "y_sq": True, "z_sq": False,
        "eta_sq": False, "zeta_sq": True,
    }
    for name in ("xi_sq", "z_sq", "eta_sq"):
        assert lad["slopes"][name] > 1.7
    assert lad["zeta_dominated_by_eta"]


def test_ladder_noise_control_problem():
    pb, grid = quad_problem(48, x0=1.0, sf=1.0, r=0.05)
    lad = variation_ladder(
        pb, const_u(grid, 0.3), const_u(grid, -0.9), [0.25, 0.125, 0.0625]
    )
    assert lad["pass"]
    assert not lad["vacuous"]["y_sq"]
    assert lad["slopes"]["xi_sq"] > 0.75
    assert lad["slopes"]["y_sq"] > 0.75
    assert lad["slopes"]["z_sq"] > 1.75
    assert lad["slopes"]["eta_sq"] > 1.75
    assert lad["vacuous"]["zeta_sq"]


def test_ladder_input_validation():
    pb, grid = quad_problem(16)
    u = const_u(grid, 0.3)
    alt = const_u(grid, -0.9)
    with pytest.raises(ValueError, match="at least two eps"):
        variation_ladder(pb, u, alt, [0.25])
    with pytest.raises(ValueError, match="below grid resolution"):
        variation_ladder(pb, u, alt, [0.25, grid.dt / 4])


def test_ladder_refuses_windows_past_the_horizon():
    pb, grid = quad_problem(16)
    u = const_u(grid, 0.3)
    alt = const_u(grid, -0.9)
    with pytest.raises(ValueError, match="passes the horizon"):
        variation_ladder(pb, u, alt, [0.25, 0.125], offset=0.875)


def test_ladder_with_every_series_vacuous_fails():
    pb, grid = quad_problem(16, x0=1.0)
    u = const_u(grid, 0.3)
    lad = variation_ladder(pb, u, u, [0.25, 0.125, 0.0625])
    assert all(lad["vacuous"].values())
    assert not lad["pass"]


# -- duality and cost expansion -------------------------------------------

def test_duality_defect_is_zero_without_cost_gradients():
    pb, grid = quad_problem(16, q=0.0, s=0.0, sf=1.0)
    ubar = const_u(grid, 0.2)
    alt = const_u(grid, -0.7)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    for order in (1, 2):
        assert duality_check(pb, xbar, ubar, alt, 0.25, adj, order=order) == 0.0


def test_duality_defect_shrinks_at_first_order_in_dt():
    first, second = [], []
    for n in (16, 32, 64):
        pbn, gn = quad_problem(n, x0=1.0, sf=1.0, r=0.05)
        ub, al = const_u(gn, 0.3), const_u(gn, -0.9)
        xb = solve_state(pbn, ub)
        adj = first_adjoint(pbn, xb, ub)
        first.append(duality_check(pbn, xb, ub, al, 0.25, adj, order=1))
        pbl, gl = quad_problem(n, x0=1.0)
        ub2, al2 = const_u(gl, 0.3), const_u(gl, -0.9)
        xb2 = solve_state(pbl, ub2)
        adj2 = first_adjoint(pbl, xb2, ub2)
        second.append(duality_check(pbl, xb2, ub2, al2, 0.25, adj2, order=2))
    for seq in (first, second):
        assert 1.5 < seq[0] / seq[1] < 2.5
        assert 1.5 < seq[1] / seq[2] < 2.5


def test_duality_rejects_unknown_order():
    pb, grid = quad_problem(8)
    ubar = const_u(grid, 0.0)
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    with pytest.raises(ValueError, match="order"):
        duality_check(pb, xbar, ubar, ubar, 0.25, adj, order=3)


def test_cost_expansion_slope_and_vacuous_branch():
    pb, grid = quad_problem(48, x0=1.0)
    rep = cost_expansion_check(
        pb, const_u(grid, 0.3), const_u(grid, -0.9),
        [0.25, 0.125, 0.0625, 0.03125],
    )
    assert rep["pass"] and rep["slope"] > 1.2
    assert rep["residuals"] == sorted(rep["residuals"], reverse=True)
    same = cost_expansion_check(
        pb, const_u(grid, 0.3), const_u(grid, 0.3), [0.25, 0.125]
    )
    assert same["vacuous"] and same["pass"] and same["slope"] is None


# -- brute-force oracle ---------------------------------------------------

def test_brute_force_finds_the_trivial_optimum():
    pb, grid = quad_problem(12)
    u_opt, j_opt = brute_force_optimum(pb, grid, 3, GRID7)
    assert j_opt == 0.0
    assert all(vacuum(v) == 0.0 for v in u_opt)


def test_brute_force_budget_and_bounds():
    pb, grid = quad_problem(4)
    with pytest.raises(ValueError, match="exceeds the budget"):
        brute_force_optimum(pb, grid, 3, list(np.linspace(-1, 1, 50)))
    assert len(np.linspace(-1, 1, 50)) ** 3 > ORACLE_BUDGET
    with pytest.raises(ValueError, match="1..4"):
        brute_force_optimum(pb, grid, 0, GRID7)
    with pytest.raises(ValueError, match="1..4"):
        brute_force_optimum(pb, grid, 5, GRID7)


def test_brute_force_argmin_survives_joint_cost_scaling():
    pb, grid = quad_problem(12, x0=1.0, cf=0.0, prune=None)
    scaled, _ = quad_problem(12, x0=1.0, cf=0.0, prune=None)
    base_L, base_h = scaled.L, scaled.h
    scaled.L = lambda k, x, u: 3.0 * base_L(k, x, u)
    scaled.h = lambda x: 3.0 * base_h(x)
    u_a, j_a = brute_force_optimum(pb, grid, 3, GRID7)
    u_b, j_b = brute_force_optimum(scaled, grid, 3, GRID7)
    for va, vb in zip(u_a, u_b):
        assert vacuum(va) == vacuum(vb)
    assert abs(j_b - 3.0 * j_a) < 1e-12


def test_brute_force_winner_sits_within_one_cell_of_refined_optimum():
    """Coordinate-wise parabolic refinement (exact for a quadratic cost)
    must land within one grid cell of the enumerated winner."""
    pb, grid = quad_problem(12, x0=1.0, cf=0.0, prune=None)
    blocks = 3
    u_opt, j_opt = brute_force_optimum(pb, grid, blocks, GRID7)
    n = grid.n_steps
    bounds = [round(i * n / blocks) for i in range(blocks + 1)]
    w = [vacuum(u_opt[bounds[b]]).real for b in range(blocks)]

    def j_of(weights):
        values = []
        for b in range(blocks):
            el = CliffordElement.scalar(grid.n, weights[b])
            values.extend([el] * (bounds[b + 1] - bounds[b]))
        return cost(pb, AdaptedProcess(grid, values, check=False))

    cell = GRID7[1] - GRID7[0]
    refined = list(w)
    for _ in range(3):
        for b in range(blocks):
            lo = list(refined)
            hi = list(refined)
            lo[b] -= cell
            hi[b] += cell
            f0, f1, f2 = j_of(lo), j_of(refined), j_of(hi)
            denom = f0 - 2 * f1 + f2
            if denom > 1e-15:
                refined[b] += 0.5 * cell * (f0 - f2) / denom
    assert j_of(refined) <= j_opt + 1e-12
    for b in range(blocks):
        assert abs(refined[b] - w[b]) <= cell + 1e-9
