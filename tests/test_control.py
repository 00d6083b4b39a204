"""Control layer: adjoints, Hamiltonian comparisons, the operator second
adjoint, spike-variation ladders, duality defects, cost expansion, and
the brute-force enumeration oracle.

Problems here are built inline with explicit parameters so every closed
form in the assertions is self-contained. Quadratic costs with affine
dynamics admit scalar recursions that serve as independent oracles.
"""

import dataclasses
import functools

import numpy as np
import pytest

from fermisde import _channel, control, forward, operators
from fermisde.algebra import (
    CliffordElement,
    norm2,
    pairing,
    random_element,
    vacuum,
)
from fermisde.catalog import build, catalog
from fermisde.control import (
    ORACLE_BUDGET,
    ControlProblem,
    RunningNormCost,
    TerminalNormCost,
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
    _as_scalar_amp,
)

GRID7 = [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]


class Undeclared:
    """A cost's value, grad and hess rules without its declared weights,
    so the exact routes leave the problem to the element solves."""

    def __init__(self, declared):
        self._declared = declared
        self.grad = declared.grad
        self.hess = declared.hess

    def __call__(self, *args):
        return self._declared(*args)


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
            uD=lambda k: GradedScalarOp(b, 0.0),
            uF=lambda k: GradedScalarOp(sf, 0.0),
        ),
    )
    problem = ControlProblem(
        coeffs=co,
        control_space=ControlSpace(
            [CliffordElement.identity(n)], value_grid=vgrid or GRID7
        ),
        x0=CliffordElement.scalar(n, x0),
        L=Undeclared(RunningNormCost(q, r)),
        h=Undeclared(TerminalNormCost(s)),
        prune=prune,
    )
    return problem, grid


def const_u(grid, w):
    return AdaptedProcess.constant_scalar(grid, w)


# -- cost objects ---------------------------------------------------------

def _state_rules(which, u):
    """(value, grad, hess) of a norm cost as functions of the state."""
    if which == "terminal":
        c = TerminalNormCost(0.4)
        return c, c.grad, c.hess
    c = RunningNormCost(0.7, 1.3)
    return tuple(
        functools.partial(rule, 2, u=u) for rule in (c, c.grad, c.hess)
    )


@pytest.mark.parametrize("which", ["running", "terminal"])
def test_cost_derivatives_match_finite_differences(which):
    rng = np.random.default_rng(41)
    n, h = 6, 1e-3
    f, grad, hess = _state_rules(which, random_element(rng, n, n_terms=3))
    for _ in range(3):
        x, v, w = (random_element(rng, n, n_terms=5) for _ in range(3))
        central = (f(x + v.scale(h)) - f(x + v.scale(-h))) / (2 * h)
        slope = pairing(grad(x), v).real
        assert central == pytest.approx(slope, rel=1e-6)

        def at(i, j):
            return f(x + v.scale(i * h) + w.scale(j * h))

        mixed = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)
        assert mixed == pytest.approx(hess(x)(v, w), rel=1e-6)


def test_zero_weight_costs_vanish_with_their_derivatives():
    rng = np.random.default_rng(43)
    x, u = random_element(rng, 5), random_element(rng, 5)
    running, terminal = RunningNormCost(0.0, 0.0), TerminalNormCost(0.0)
    for value, grad, hess in (
        (running(1, x, u), running.grad(1, x, u), running.hess(1, x, u)),
        (terminal(x), terminal.grad(x), terminal.hess(x)),
    ):
        assert value == 0.0
        assert grad.n == x.n and grad.n_terms == 0
        assert hess.is_zero


def test_default_costs_are_declared_zero_weights():
    pb, grid = build("lq_scalar", n_steps=4)
    bare = ControlProblem(pb.coeffs, pb.control_space, pb.x0)
    assert bare.L == RunningNormCost(0.0, 0.0)
    assert bare.h == TerminalNormCost(0.0)
    assert _channel.gate(bare, grid).cost.weights == (0.0, 0.0, 0.0)
    assert _channel.gate(_plain_costs(pb), grid).cost is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        pb.L.grad = lambda k, x, u: x


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


@pytest.mark.parametrize("pid", list(catalog()))
def test_mp_scan_equals_a_loop_of_mp_lhs_bit_for_bit(pid):
    entry = catalog()[pid]
    pb, grid = build(pid, n_steps=8, x0_scale=1.0)
    ubar = AdaptedProcess(grid, [
        CliffordElement.scalar(grid.n, GRID7[k % len(GRID7)])
        for k in range(grid.n_steps)
    ])
    xbar = solve_state(pb, ubar)
    adj = first_adjoint(pb, xbar, ubar)
    P = None
    if entry.second_adjoint_ok:
        P = second_adjoint_deterministic(pb, xbar, ubar, adj)
    rep = mp_scan(pb, xbar, ubar, adj, P=P)
    space = pb.control_space
    want = []
    for v in space.value_grid:
        u_el = space.element([v])
        for k in range(grid.n_steps):
            val = mp_lhs(pb, k, u_el, xbar, ubar, adj, P=P)
            want.append((k, [v], val))
    got = [(e["step"], e["weights"], e["lhs"]) for e in rep.entries]
    assert [g[:2] for g in got] == [w[:2] for w in want]
    assert (
        np.array([g[2] for g in got]).tobytes()
        == np.array([w[2] for w in want]).tobytes()
    )
    assert any(w[2] != 0.0 for w in want)


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
    bad_hess.h.hess = lambda x: BilinearMap(fn=lambda v, w: 0.0)
    with pytest.raises(ValueError, match="operator form"):
        second_adjoint_deterministic(bad_hess, xbar, ubar, adj)

    bad_lxx, _ = quad_problem(6)
    bad_lxx.L.hess = lambda k, x, u: BilinearMap(fn=lambda v, w: 0.0)
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
    for check in (variation_ladder, cost_expansion_check):
        with pytest.raises(ValueError, match="at least two eps"):
            check(pb, u, alt, [0.25])
    with pytest.raises(ValueError, match="below one grid step"):
        variation_ladder(pb, u, alt, [0.25, grid.dt / 4])


def test_ladder_refuses_windows_past_the_horizon():
    pb, grid = quad_problem(16)
    u = const_u(grid, 0.3)
    alt = const_u(grid, -0.9)
    with pytest.raises(ValueError, match="passes the horizon"):
        variation_ladder(pb, u, alt, [0.25, 0.125], offset=0.875)


def test_window_refusals_name_an_eps_wider_than_the_horizon():
    pb, grid = quad_problem(16)
    refusals = control._window_refusals(grid, [1.5, 0.5, 0.25], [0.0, 0.5])
    assert refusals == [(0, "eps 1.5 is wider than the horizon T=1")]
    with pytest.raises(ValueError, match="eps 1.5 is wider than the horizon"):
        variation_ladder(
            pb, const_u(grid, 0.3), const_u(grid, -0.9), [1.5, 0.5, 0.25]
        )


def test_ladder_with_every_series_vacuous_fails():
    pb, grid = quad_problem(16, x0=1.0)
    u = const_u(grid, 0.3)
    lad = variation_ladder(pb, u, u, [0.25, 0.125, 0.0625])
    assert all(lad["vacuous"].values())
    assert not lad["pass"]


def test_ladder_refuses_two_eps_on_one_window():
    # At n=24, 0.07 and 0.0625 both round to a 2-step window.
    pb, grid = quad_problem(24)
    u = const_u(grid, 0.3)
    alt = const_u(grid, -0.9)
    with pytest.raises(ValueError, match="same 2-step window"):
        variation_ladder(pb, u, alt, [0.25, 0.07, 0.0625])


def _ladder_inputs(pid, n_steps, T=1.0):
    entry = catalog()[pid]
    pb, grid = build(pid, n_steps=n_steps, T=T, x0_scale=entry.ladder_x0)
    return (
        pb, const_u(grid, entry.ladder_ubar), const_u(grid, entry.alt_weight)
    )


def _sparse_twin(pb):
    """The same problem without its linear declaration: full-rule solves."""
    return dataclasses.replace(
        pb, coeffs=dataclasses.replace(pb.coeffs, linear=None)
    )


def _forbid(monkeypatch, *names):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact ladder route made an element solve")

    for name in names:
        monkeypatch.setattr(control, name, refuse)


ELIGIBLE = [
    pid for pid in catalog()
    if build(pid, n_steps=4)[0].coeffs.linear is not None
]


@pytest.mark.parametrize(
    "pid,T,eps,offset",
    [(pid, 1.0, [0.5, 0.25, 0.125], 0.0) for pid in ELIGIBLE]
    + [("control_in_noise", 2.0, [1.0, 0.5, 0.25], 0.6),
       ("odd_drift", 1.0, [0.5, 0.25, 0.125], 0.25)],
)
def test_exact_ladder_matches_the_unpruned_sparse_ladder(
    monkeypatch, pid, T, eps, offset
):
    pb, ubar, alt = _ladder_inputs(pid, 12, T)
    pb = dataclasses.replace(pb, prune=None)
    sparse = variation_ladder(_sparse_twin(pb), ubar, alt, eps, offset)
    _forbid(monkeypatch, "solve_state", "euler_forward_difference",
            "linear_euler_forward", "pairing")
    exact = variation_ladder(pb, ubar, alt, eps, offset)
    assert exact["vacuous"] == sparse["vacuous"]
    assert not all(exact["vacuous"].values())
    assert exact["pass"] == sparse["pass"]
    assert exact["pruned_mass"] == 0.0
    for name, vacuous in exact["vacuous"].items():
        if vacuous:
            continue
        np.testing.assert_allclose(
            exact["series"][name], sparse["series"][name], rtol=1e-12, atol=0
        )
        assert abs(exact["slopes"][name] - sparse["slopes"][name]) < 1e-9


def test_quadratic_drift_ladder_keeps_the_sparse_route(monkeypatch):
    pb, ubar, alt = _ladder_inputs("quadratic_drift", 8)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return linear_euler_forward(*args, **kwargs)

    monkeypatch.setattr(control, "linear_euler_forward", counted)
    lad = variation_ladder(pb, ubar, alt, [0.5, 0.25, 0.125])
    assert len(calls) == 6
    assert not lad["vacuous"]["zeta_sq"]
    assert lad["pruned_mass"] == 0.0


def test_sparse_ladder_reports_the_mass_its_solves_pruned(monkeypatch):
    pb, ubar, alt = _ladder_inputs("lq_scalar", 12)
    pb = _sparse_twin(pb)
    masses = []
    for name in ("solve_state", "euler_forward_difference",
                 "linear_euler_forward"):
        def recorded(*args, _solve=getattr(control, name), **kwargs):
            path = _solve(*args, **kwargs)
            masses.append(path.diagnostics["pruned_mass"])
            return path

        monkeypatch.setattr(control, name, recorded)
    lad = variation_ladder(pb, ubar, alt, [0.5, 0.25, 0.125])
    assert len(masses) == 1 + 3 * 3
    assert lad["pruned_mass"] > 0.0
    assert lad["pruned_mass"] == pytest.approx(
        np.sqrt(np.sum(np.square(masses))), rel=1e-12
    )


def _per_rung_gram_ladder(grid, windows, ch, steps):
    """Reference for _channel.ladder: one _channel.gram walk for the
    base path and one more per eps, each rung on its own (xi, y, z)."""
    base, alt = (table[:, :, 0] for table in ch.tables)
    delta = np.zeros_like(base)
    delta[steps] = alt - base[steps]
    lanes = _channel.Lanes(
        _channel.coefficients(_channel.reduced(ch.ops)), grid.dt
    )
    x_gram = _channel.gram(grid, lanes, base[:, :, None], [ch.x0], block=1)
    floor = 1e-8 * (1.0 + float(x_gram[:, 0, 0, 0].real.max()))
    sups = []
    for k0, k1 in windows:
        srcs = np.zeros((grid.n_steps, 3, 3), dtype=np.complex128)
        srcs[k0:k1] = delta[k0:k1, :, None] * _channel.SPIKE_SOURCES
        gram = _channel.gram(grid, lanes, srcs, np.zeros(3), block=3)[:, 0]
        sups.append({
            name: max(
                float(np.einsum("i,kij,j->k", c, gram, c).real.max()), 0.0
            )
            for name, c in _channel.LADDER_SERIES.items()
        })
    return floor, sups


def _halvings(grid):
    """The CLI's default eps: T/4 halved while at least one step wide."""
    halvings = (grid.T / 4.0 / 2**i for i in range(5))
    return [e for e in halvings if e >= grid.dt * (1 - 1e-9)]


@pytest.mark.parametrize("offset", [0.0, 0.25])
@pytest.mark.parametrize("n_steps", [24, 32, 128])
@pytest.mark.parametrize("pid", ["lq_scalar", "control_in_noise",
                                 "driverless"])
def test_gram_ladder_equals_the_per_rung_walks_bit_for_bit(
    monkeypatch, pid, n_steps, offset
):
    """At n=24 the 0.0625 rung rounds to a 2-step window."""
    pb, ubar, alt = _ladder_inputs(pid, n_steps)
    eps = _halvings(ubar.grid)
    _forbid(monkeypatch, "solve_state", "euler_forward_difference",
            "linear_euler_forward")
    got = variation_ladder(pb, ubar, alt, eps, offset)
    monkeypatch.setattr(_channel, "ladder", _per_rung_gram_ladder)
    want = variation_ladder(pb, ubar, alt, eps, offset)
    assert got == want
    assert not all(got["vacuous"].values())


def _count_lanes(monkeypatch):
    """The list that gains an entry per lane table built from now on."""
    builds = []

    def counted(coefs, dt, lanes=_channel.Lanes):
        builds.append(1)
        return lanes(coefs, dt)

    monkeypatch.setattr(_channel, "Lanes", counted)
    return builds


def test_gram_ladder_walks_once_and_reduces_each_operator_once(monkeypatch):
    """n=128 with five rungs: one walk on one lane table, and
    as_graded_scalar once per distinct operator. lq_scalar declares six,
    and each step's rules return the same objects, so the gate reduces
    each once and shares the reductions."""
    pb, ubar, alt = _ladder_inputs("lq_scalar", 128)
    eps = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    walks = []

    def counted_gram(*args, gram=_channel.gram, **kwargs):
        walks.append(1)
        return gram(*args, **kwargs)

    reductions = []
    for cls in vars(operators).values():
        if isinstance(cls, type) and "as_graded_scalar" in vars(cls):
            def counted(self, _reduce=cls.as_graded_scalar):
                reductions.append(1)
                return _reduce(self)

            monkeypatch.setattr(cls, "as_graded_scalar", counted)
    monkeypatch.setattr(_channel, "gram", counted_gram)
    lanes = _count_lanes(monkeypatch)
    lad = variation_ladder(pb, ubar, alt, eps)
    assert lad["pass"]
    assert len(walks) == 1
    assert len(lanes) == 1
    assert len(reductions) == 6


def test_gram_ladder_memory_grows_linearly_in_the_rungs(monkeypatch):
    """64 one-step rungs at n=4096: the walk keeps each rung's 3x3 block
    and the base block only, not the (1 + 3R)^2 cross-rung pairings."""
    n_steps, n_rungs = 4096, 64
    pb, ubar, alt = _ladder_inputs("lq_scalar", n_steps)
    eps = [j / n_steps for j in range(1, n_rungs + 1)]
    outs = []

    def kept_gram(*args, gram=_channel.gram, **kwargs):
        outs.append(gram(*args, **kwargs))
        return outs[-1]

    monkeypatch.setattr(_channel, "gram", kept_gram)
    lad = variation_ladder(pb, ubar, alt, eps)
    assert lad["pass"]
    [gram] = outs
    assert gram.shape == (n_steps + 1, 1 + n_rungs, 3, 3)
    assert gram.nbytes == (n_steps + 1) * (1 + n_rungs) * 9 * 16


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


def test_cost_expansion_fits_the_widths_its_windows_use():
    # At n=24, eps 0.0625 is 1.5 steps and runs as 2 steps.
    pb, grid = quad_problem(24, x0=1.0)
    rep = cost_expansion_check(
        pb, const_u(grid, 0.3), const_u(grid, -0.9), [0.25, 0.125, 0.0625]
    )
    widths = [6 * grid.dt, 3 * grid.dt, 2 * grid.dt]
    assert rep["eps"] == widths
    assert rep["slope"] == control._fit_slope(widths, rep["residuals"])


def test_cost_expansion_refuses_windows_past_the_horizon():
    # Both windows would be clipped to the last step and fitted against
    # their nominal widths.
    pb, grid = quad_problem(16, x0=1.0, sf=1.0)
    with pytest.raises(ValueError, match="passes the horizon"):
        cost_expansion_check(
            pb, const_u(grid, 0.3), const_u(grid, -0.9),
            [0.25, 0.125, 0.0625], offset=0.875,
        )


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


def _plain_costs(pb):
    """The same problem with undeclared costs: sparse oracle."""
    return dataclasses.replace(pb, L=Undeclared(pb.L), h=Undeclared(pb.h))


def _refuse(*args, **kwargs):
    raise AssertionError("the exact oracle made an element solve")


@pytest.mark.parametrize("x0", [0.0, 1.0])
@pytest.mark.parametrize("pid", ELIGIBLE)
def test_exact_oracle_matches_the_unpruned_sparse_enumeration(
    monkeypatch, pid, x0
):
    pb, grid = build(pid, n_steps=10, x0_scale=x0)
    pb = dataclasses.replace(pb, prune=None)
    u_s, j_s = brute_force_optimum(_plain_costs(pb), grid, 2, GRID7)
    monkeypatch.setattr(forward, "linear_euler_forward", _refuse)
    monkeypatch.setattr(control, "cost", _refuse)
    u_e, j_e = brute_force_optimum(pb, grid, 2, GRID7)
    assert type(j_e) is float
    assert [vacuum(v) for v in u_e] == [vacuum(v) for v in u_s]
    assert abs(j_e - j_s) <= 1e-12 * abs(j_s)
    assert (j_s == 0.0) == (x0 == 0.0)


def test_exact_oracle_keeps_the_earliest_of_tied_candidates():
    # From x0 = 0, negating the control negates the state, so every
    # candidate ties exactly with its mirror image.
    pb, grid = build("lq_scalar", n_steps=8)
    u_e, j_e = brute_force_optimum(pb, grid, 2, [-0.3, 0.3])
    u_s, j_s = brute_force_optimum(_plain_costs(pb), grid, 2, [-0.3, 0.3])
    assert vacuum(u_e[0]) == -0.3
    assert [vacuum(v) for v in u_e] == [vacuum(v) for v in u_s]
    mirror = AdaptedProcess(grid, [v.scale(-1.0) for v in u_e], check=False)
    assert cost(pb, mirror) == cost(pb, u_e)


def _undeclared_lq(n_steps):
    pb, grid = build("lq_scalar", n_steps=n_steps)
    return _sparse_twin(pb), grid


@pytest.mark.parametrize("make", [
    lambda: build("quadratic_drift", n_steps=4),
    lambda: quad_problem(4),
    lambda: _undeclared_lq(4),
], ids=["quadratic_drift", "lambda_cost", "undeclared_linear"])
def test_oracle_keeps_the_sparse_route(monkeypatch, make):
    pb, grid = make()
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cost(*args, **kwargs)

    monkeypatch.setattr(control, "cost", counted)
    brute_force_optimum(pb, grid, 2, [-0.3, 0.0, 0.3])
    assert len(calls) == 9


def test_exact_oracle_raises_on_an_overflowing_candidate():
    pb, grid = build("lq_scalar", n_steps=4)
    with pytest.raises(FloatingPointError, match="non-finite"):
        brute_force_optimum(pb, grid, 2, [0.0, 1e200])


# -- the exact max-principle route ----------------------------------------

def channel_problem(n_steps, seed, x0=1.0):
    """Random step-dependent complex alpha + beta G operators (beta != 0)
    and complex control sources, with declared norm costs."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, n_steps)
    coefs = 0.5 * (rng.normal(size=(n_steps, 3, 2))
                   + 1j * rng.normal(size=(n_steps, 3, 2)))
    ops = [[GradedScalarOp(*coefs[k, j]) for j in range(3)]
           for k in range(n_steps)]
    amp = rng.normal(size=3) + 1j * rng.normal(size=3)
    inject = [GradedScalarOp(a, 0.0) for a in amp]

    def rule(j):
        return lambda k, x, u: ops[k][j].apply(x) + u.scale(amp[j])

    def derivative(j):
        return lambda k, x, u: ops[k][j]

    co = Coefficients(
        D=rule(0), F=rule(1), G=rule(2),
        Dx=derivative(0), Fx=derivative(1), Gx=derivative(2),
        lipschitz_bound=2.0,
        linear=LinearStructure(
            A=lambda k: ops[k][0], B=lambda k: ops[k][1],
            C=lambda k: ops[k][2],
            uD=lambda k: inject[0],
            uF=lambda k: inject[1],
            uG=lambda k: inject[2],
        ),
    )
    problem = ControlProblem(
        coeffs=co,
        control_space=ControlSpace([CliffordElement.identity(grid.n)], GRID7),
        x0=CliffordElement.scalar(grid.n, x0),
        L=RunningNormCost(0.6, 0.3),
        h=TerminalNormCost(0.4),
    )
    return problem, grid


CHANNEL_CASES = ELIGIBLE + ["random0", "random1"]


def _channel_case(pid, n_steps, x0):
    """Problem, grid and a random per-step control ubar."""
    if pid.startswith("random"):
        pb, grid = channel_problem(n_steps, int(pid[-1]), x0)
    else:
        pb, grid = build(pid, n_steps=n_steps, x0_scale=x0)
    rng = np.random.default_rng(n_steps)
    ubar = AdaptedProcess(grid, [
        CliffordElement.scalar(grid.n, w)
        for w in rng.uniform(-1.0, 1.0, n_steps)
    ], check=False)
    return pb, grid, ubar


def _channel_inputs(pb, grid, ubar):
    """(channel, ubar's source amplitudes, vacuum phi, vacuum Phi)."""
    n = grid.n_steps
    ch = _channel.gate(pb, grid, (range(n), lambda k: (ubar[k],)), costs=True)
    base = ch.tables[0][:, :, 0]
    phi, Phi = _channel.adjoint_vacua(grid, ch, base)
    return ch, base, phi, Phi


def _unpruned_adjoints(pb, ubar):
    xbar = solve_state(pb, ubar, prune=0.0)
    return xbar, first_adjoint(pb, xbar, ubar, prune=0.0)


@pytest.mark.parametrize("x0", [0.0, 1.0])
@pytest.mark.parametrize("n_steps", [4, 8, 12])
@pytest.mark.parametrize("pid", CHANNEL_CASES)
def test_channel_vacua_match_the_unpruned_adjoint(pid, n_steps, x0):
    pb, grid, ubar = _channel_case(pid, n_steps, x0)
    *_, phi, Phi = _channel_inputs(pb, grid, ubar)
    _, adj = _unpruned_adjoints(pb, ubar)
    want_phi = np.array([vacuum(v) for v in adj.phi])
    want_Phi = np.array([vacuum(v) for v in adj.Phi])
    scale = max(np.abs(want_phi).max(), np.abs(want_Phi).max())
    assert scale > 0.0
    np.testing.assert_allclose(phi, want_phi, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(Phi, want_Phi, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("x0", [0.0, 1.0])
@pytest.mark.parametrize("pid", CHANNEL_CASES)
def test_channel_scan_matches_mp_scan_over_unpruned_adjoints(pid, x0):
    pb, grid, ubar = _channel_case(pid, 10, x0)
    n = grid.n_steps
    ch, base, phi, Phi = _channel_inputs(pb, grid, ubar)
    space = pb.control_space
    cands = [space.element([v]) for v in space.value_grid]
    pab = _channel.second_adjoint(grid, ch)
    lhs = _channel.scan(
        grid, ch, base,
        np.array([ubar[k].norm2_sq() for k in range(n)]),
        _channel.gate(pb, grid, (range(n), lambda k: cands)).tables[0],
        np.array([c.norm2_sq() for c in cands]), phi, Phi, pab,
    )
    xbar, adj = _unpruned_adjoints(pb, ubar)
    P = second_adjoint_deterministic(pb, xbar, ubar, adj)
    # One step body for both routes: P agrees bit for bit.
    assert pab.tolist() == [P.P[k].alpha + P.P[k].beta for k in range(n)]
    rep = mp_scan(pb, xbar, ubar, adj, P=P)
    want = np.array([e["lhs"] for e in rep.entries]).reshape(lhs.shape)
    np.testing.assert_allclose(
        lhs, want, rtol=0, atol=1e-12 * np.abs(want).max()
    )
    at, minimum = control._first_minimum(lhs)
    assert divmod(at, n) == (
        GRID7.index(rep.argmin["weights"][0]), rep.argmin["step"]
    )
    assert abs(minimum - rep.minimum) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("pid", CHANNEL_CASES)
def test_channel_duality_matches_the_unpruned_check(pid, order):
    pb, grid, ubar = _channel_case(pid, 16, 1.0)
    ch, base, phi, Phi = _channel_inputs(pb, grid, ubar)
    alt = const_u(grid, -0.9)
    window = spike_window(grid, 0.25, 0.25)
    alt_amps = _channel.gate(
        pb, grid, (range(*window), lambda k: (alt[k],))
    ).tables[0][:, :, 0]
    got = _channel.duality(
        grid, ch, base, alt_amps, window, phi, Phi, order
    )
    xbar, adj = _unpruned_adjoints(pb, ubar)
    want = duality_check(
        pb, xbar, ubar, alt, 0.25, adj, order=order, offset=0.25, prune=0.0
    )
    # driverless has no cost gradient, and at first order lq_scalar and
    # odd_drift have no control in the noise: their defects vanish.
    idle = pid == "driverless" or (order == 1 and pid in ("lq_scalar",
                                                          "odd_drift"))
    assert (want == 0.0) == idle
    assert abs(got - want) <= 1e-13


@pytest.mark.parametrize("x0", [0.0, 1.0])
@pytest.mark.parametrize("pid", ELIGIBLE)
def test_channel_max_principle_equals_the_unpruned_element_chain(
    monkeypatch, pid, x0
):
    """The oracle bit for bit, the scan's minimum and argmin and the
    duality defect against the element route without pruning."""
    entry = catalog()[pid]
    pb, grid = build(pid, n_steps=12, x0_scale=x0)
    pb = dataclasses.replace(pb, prune=None)
    alt = const_u(grid, entry.alt_weight)
    order = 1 if entry.p_term_active else 2
    u_s, j_s = brute_force_optimum(pb, grid, 2, GRID7)
    xbar = solve_state(pb, u_s)
    adj = first_adjoint(pb, xbar, u_s)
    P = second_adjoint_deterministic(pb, xbar, u_s, adj)
    scan = mp_scan(pb, xbar, u_s, adj, P=P)
    dual = duality_check(pb, xbar, u_s, alt, 0.25, adj, order=order)
    for name in ("solve_state", "first_adjoint", "linear_euler_forward",
                 "solve_stepwise", "pairing", "mp_scan", "duality_check"):
        monkeypatch.setattr(control, name, _refuse)
    u_e, j_e, minimum, argmin, dual_e = control._max_principle(
        pb, grid, 2, GRID7, alt, order=order
    )
    assert j_e == j_s
    assert [vacuum(v) for v in u_e] == [vacuum(v) for v in u_s]
    assert {k: v for k, v in argmin.items() if k != "lhs"} == {
        k: v for k, v in scan.argmin.items() if k != "lhs"
    }
    assert abs(minimum - scan.minimum) <= 1e-12
    assert argmin["lhs"] == minimum
    assert (minimum == 0.0) == (scan.minimum == 0.0)
    assert abs(dual_e - dual) <= 1e-13


def test_channel_scan_refuses_noise_candidates_without_P():
    pb, grid = build("control_in_noise", n_steps=8)
    alt = const_u(grid, -0.9)
    with pytest.raises(ValueError, match="second adjoint"):
        control._max_principle(pb, grid, 2, GRID7, alt, second=False)
    pb, grid = build("lq_scalar", n_steps=8)
    found = control._max_principle(
        pb, grid, 2, GRID7, alt, order=2, second=False
    )
    assert found[2] == 0.0


class _Routed(Exception):
    """Raised by a patched element solve: the element route was taken."""


def _raise_routed(*args, **kwargs):
    raise _Routed


def _gate_refusal(cause):
    """lq_scalar at n=8 with one cause for the gate to refuse it, or
    quadratic_drift, which declares no linear structure."""
    if cause == "undeclared":
        return build("quadratic_drift", n_steps=8)
    pb, grid = build("lq_scalar", n_steps=8)
    g0 = CliffordElement.generator(grid.n, 0)
    declared = pb.coeffs.linear
    if cause == "costs":
        return _plain_costs(pb), grid
    if cause == "x0":
        return dataclasses.replace(pb, x0=g0), grid
    if cause == "last_operator":
        def A(k):
            return LeftMulOp(g0) if k == grid.n_steps - 1 else declared.A(k)

        lin = dataclasses.replace(declared, A=A)
    else:
        def uG(k):
            return LeftMulOp(g0) if k == grid.n_steps - 1 else declared.uG(k)

        lin = dataclasses.replace(declared, uG=uG)
    coeffs = dataclasses.replace(pb.coeffs, linear=lin)
    return dataclasses.replace(pb, coeffs=coeffs), grid


@pytest.mark.parametrize(
    "cause", ["undeclared", "last_operator", "x0", "costs", "source"]
)
def test_each_gate_refusal_sends_every_consumer_to_its_element_route(
    monkeypatch, cause
):
    """The ladder, the oracle and max-principle start their element
    routes (whose first solve raises here) when the gate refuses; the
    ladder needs no declared costs, so undeclared ones leave it exact."""
    pb, grid = _gate_refusal(cause)
    ubar, u = const_u(grid, 0.3), const_u(grid, -0.9)
    eps = [0.5, 0.25, 0.125]
    monkeypatch.setattr(control, "solve_state", _raise_routed)
    monkeypatch.setattr(control, "cost", _raise_routed)
    if cause == "costs":
        assert variation_ladder(pb, ubar, u, eps)["pruned_mass"] == 0.0
    else:
        with pytest.raises(_Routed):
            variation_ladder(pb, ubar, u, eps)
    with pytest.raises(_Routed):
        brute_force_optimum(pb, grid, 2, GRID7)
    with pytest.raises(_Routed):
        control._max_principle(pb, grid, 2, GRID7, u)


def test_channel_max_principle_tabulates_the_operators_once(monkeypatch):
    """The benchmark's max-principle call at n=32: one coefficient table
    and one lane table serve the oracle, the adjoint vacua and the
    duality walk."""
    pb, grid = build("lq_scalar", n_steps=32)
    tables = []

    def counted(ops, coefficients=_channel.coefficients):
        tables.append(1)
        return coefficients(ops)

    monkeypatch.setattr(_channel, "coefficients", counted)
    monkeypatch.setattr(control, "first_adjoint", _refuse)
    lanes = _count_lanes(monkeypatch)
    found = control._max_principle(pb, grid, 3, GRID7, const_u(grid, -0.9))
    assert found[2] == 0.0
    assert len(tables) == 1
    assert len(lanes) == 1


class _CountedReads(AdaptedProcess):
    """An adapted process that records each step it is read at."""

    def __init__(self, process):
        super().__init__(process.grid, process.values, check=False)
        self.reads = []

    def __getitem__(self, k):
        self.reads.append(k)
        return super().__getitem__(k)


def test_gram_ladder_reads_u_only_on_its_spike_windows():
    """The benchmark's n=128 ladder: u is read once at each of the 32
    steps of the widest window and nowhere else, and each injection rule
    is called with the step alone, once per step."""
    pb, ubar, alt = _ladder_inputs("lq_scalar", 128)
    eps = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    want = variation_ladder(pb, ubar, alt, eps)
    calls = []

    def counted(rule):
        def wrapped(k):
            calls.append(k)
            return rule(k)
        return wrapped

    lin = pb.coeffs.linear
    lin = dataclasses.replace(
        lin, uD=counted(lin.uD), uF=counted(lin.uF), uG=counted(lin.uG)
    )
    pb = dataclasses.replace(
        pb, coeffs=dataclasses.replace(pb.coeffs, linear=lin)
    )
    u = _CountedReads(alt)
    assert variation_ladder(pb, ubar, u, eps) == want
    assert u.reads == list(range(32))
    assert sorted(calls) == sorted(3 * list(range(128)))


def test_gram_ladder_gate_builds_no_element(monkeypatch):
    """The benchmark's n=128 ladder scales no element: its sources are
    the injections' coefficients times the control amplitudes."""
    pb, ubar, alt = _ladder_inputs("lq_scalar", 128)
    eps = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    scales = []

    def counted(self, c, _scale=CliffordElement.scale):
        scales.append(c)
        return _scale(self, c)

    monkeypatch.setattr(CliffordElement, "scale", counted)
    assert variation_ladder(pb, ubar, alt, eps)["pass"]
    assert scales == []


def _with_injections(pb, injections):
    """pb with step k's injections (uD, uF, uG) = injections[k]."""
    lin = dataclasses.replace(
        pb.coeffs.linear,
        uD=lambda k: injections[k][0],
        uF=lambda k: injections[k][1],
        uG=lambda k: injections[k][2],
    )
    return dataclasses.replace(
        pb, coeffs=dataclasses.replace(pb.coeffs, linear=lin)
    )


def test_gate_source_tables_are_the_injections_applied_bit_for_bit():
    """Each source is the amplitude of apply(value) to the last bit:
    complex injections with a grading part, zero ones (signed zeros
    too), c(+1) = 0 with c(-1) != 0, and a real part -0.0 without a
    grading part, under negative, zero and complex values. Step 2's
    injections are all zero, so a value that is not a multiple of I
    gives 0j there and refuses the gate at any other step."""
    rng = np.random.default_rng(11)
    pb, grid = build("lq_scalar", n_steps=6)
    n = grid.n

    def rand():
        return complex(rng.normal(), rng.normal())

    special = [
        GradedScalarOp(0.0, 0.0), GradedScalarOp(-0.0, -0.0),
        GradedScalarOp(-0.0, 0.0), GradedScalarOp(0.5, -0.5),
        GradedScalarOp(complex(-0.0, 1.5), 0.0), GradedScalarOp(-2.5, 0.0),
    ]
    injections = [
        [GradedScalarOp(rand(), rand()) for _ in range(3)]
        for _ in range(grid.n_steps)
    ]
    injections[2] = special[:3]
    injections[4] = special[3:]
    values = [
        CliffordElement.scalar(n, v)
        for v in (-0.9, 0.0, 2.0, complex(-0.7, 0.4), -3e-5j)
    ]
    g0 = CliffordElement.generator(n, 0)
    pb = _with_injections(pb, injections)
    ch = _channel.gate(
        pb, grid, (range(grid.n_steps), lambda k: values),
        ([2], lambda k: values + [g0]),
    )
    for steps, at, table in zip(
        (range(grid.n_steps), [2]), (values, values + [g0]), ch.tables
    ):
        want = np.array([
            [[_as_scalar_amp(op.apply(v)) for v in at] for op in step]
            for step in (injections[k] for k in steps)
        ], dtype=np.complex128)
        assert table.shape == want.shape
        assert table.tobytes() == want.tobytes()
    assert not ch.tables[1][:, :, -1].any()
    for k in (0, 4, 5):
        assert _channel.gate(pb, grid, ([k], lambda k: [g0])) is None


def test_lane_table_injection_columns_follow_the_grading():
    """An injection uG = GradedScalarOp(alpha, beta) with beta != 0 has
    two distinct parity columns in the lane table, and each is the
    coefficient op.apply puts on an element of its parity, bit for
    bit."""
    pb, grid = build("lq_scalar", n_steps=6)
    op = GradedScalarOp(complex(0.3, -0.2), complex(-0.7, 0.4))
    zero = GradedScalarOp(0.0, 0.0)
    pb = _with_injections(
        pb, [(GradedScalarOp(1.0, 0.0), zero, op)] * grid.n_steps
    )
    inject = _channel.gate(pb, grid).lanes.inject[:, 2]
    assert (inject[:, 0] != inject[:, 1]).all()
    even = CliffordElement.from_terms(grid.n, {0: 0.5, 0b11: 1.5 - 2j})
    odd = CliffordElement.from_terms(grid.n, {0b100: -1.25, 0b111: 0.75j})
    for p, x in enumerate((even, odd)):
        got = op.apply(x)
        assert got.masks.tobytes() == x.masks.tobytes()
        for k in range(grid.n_steps):
            assert got.amps.tobytes() == (x.amps * inject[k, p]).tobytes()


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
