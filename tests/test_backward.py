"""Backward solver: conditioning, closed forms, the two solution routes,
contraction windowing, and the defect/growth reports."""

import numpy as np
import pytest

from fermisde import _sparse as sp
from fermisde.algebra import (
    CliffordElement,
    _Stack,
    cond_expect,
    norm2,
    random_element,
    vacuum,
)
from fermisde.backward import (
    PICARD_MAX_ITER,
    BackwardPath,
    Driver,
    _one_step_window_sweeps,
    _project_sweep,
    apriori_backward_check,
    residual,
    solve_picard,
    solve_stepwise,
)
from fermisde.cli import parse_problem, run
from fermisde.ito import TimeGrid, right_integral
from fermisde.operators import (
    ElementOperator,
    GradedScalarOp,
    LeftMulOp,
    ScalarOp,
    SumOp,
)


def scalar_driver(a, declare=True):
    d = Driver(f=lambda k, y, Y: y.scale(a), g1=abs(a))
    if declare:
        d.linear_y = lambda k: GradedScalarOp(a, 0.0)
    return d


def random_terminal(rng, n, terms=10):
    return random_element(rng, n, n_terms=terms)


# -- driverless case: pure conditioning -----------------------------------

def test_zero_driver_projects_the_terminal():
    grid = TimeGrid(1.0, 10)
    rng = np.random.default_rng(70)
    yT = random_terminal(rng, grid.n)
    path = solve_stepwise(Driver(f=lambda k, y, Y: y.scale(0.0)), grid, yT)
    for k in range(grid.n_steps + 1):
        assert norm2(path.y[k] - cond_expect(yT, k)) < 1e-13
    # y_0 is the vacuum amplitude and the integrand reassembles yT
    assert norm2(path.y[0] - CliffordElement.scalar(grid.n, vacuum(yT))) < 1e-13
    recon = path.y[0] + right_integral(grid, path.Y_process())
    assert norm2(recon - yT) < 1e-12


def test_zero_driver_picard_settles_in_one_sweep():
    grid = TimeGrid(1.0, 8)
    rng = np.random.default_rng(71)
    yT = random_terminal(rng, grid.n)
    path, sweeps = solve_picard(
        Driver(f=lambda k, y, Y: y.scale(0.0)), grid, yT
    )
    assert sweeps == 1
    assert path.diagnostics["windows"] == 1
    assert residual(path, Driver(f=lambda k, y, Y: y.scale(0.0)), yT) < 1e-13


# -- a two-step case against a hand recursion -----------------------------

def tiny_reference(yT_terms, a, dt):
    """Backward recursion on two steps with f = a y, done on dicts."""
    y = dict(yT_terms)
    integs = []
    for k in (1, 0):
        bit = 1 << k
        cond = {m: v for m, v in y.items() if not m & bit}
        integs.append(
            {m ^ bit: v / np.sqrt(dt) for m, v in y.items() if m & bit}
        )
        y = {m: v / (1.0 + a * dt) for m, v in cond.items()}
    return y, integs[::-1]


def test_two_step_solution_matches_hand_recursion():
    grid = TimeGrid(0.5, 2)
    a = 0.8
    terms = {0: 1.5 + 0.5j, 1: -0.75, 2: 2.0j, 3: 0.3 - 0.2j}
    yT = CliffordElement.from_terms(2, terms)
    path = solve_stepwise(scalar_driver(a), grid, yT)
    want_y0, want_Y = tiny_reference(terms, a, grid.dt)
    assert path.y[0].terms() == pytest.approx(want_y0)
    for k in range(2):
        got = path.Y[k].terms()
        assert set(got) == set(want_Y[k])
        for m, v in want_Y[k].items():
            assert got[m] == pytest.approx(v)


# -- scalar closed form and continuum limit -------------------------------

def test_scalar_terminal_gives_discrete_resolvent_power():
    a = 1.0
    grid = TimeGrid(1.0, 64)
    yT = CliffordElement.identity(grid.n)
    path = solve_stepwise(scalar_driver(a), grid, yT)
    want = (1.0 + a * grid.dt) ** (-grid.n_steps)
    assert abs(vacuum(path.y[0]) - want) < 1e-14
    assert abs(vacuum(path.y[0]) - np.exp(-a)) < 1e-2


def test_scalar_case_converges_to_exponential_at_first_order():
    a = 1.0
    errs = []
    for n in (16, 32, 64):
        grid = TimeGrid(1.0, n)
        path = solve_stepwise(
            scalar_driver(a), grid, CliffordElement.identity(n)
        )
        errs.append(abs(vacuum(path.y[0]) - np.exp(-a)))
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


# -- implicit routes ------------------------------------------------------

def test_closed_form_implicit_equals_inner_iteration():
    grid = TimeGrid(1.0, 16)
    rng = np.random.default_rng(72)
    yT = random_terminal(rng, grid.n)
    fast = solve_stepwise(scalar_driver(0.9), grid, yT)
    slow = solve_stepwise(scalar_driver(0.9, declare=False), grid, yT)
    assert fast.diagnostics["max_inner_iterations"] == 0
    assert slow.diagnostics["max_inner_iterations"] > 0
    for a, b in zip(fast.y, slow.y):
        assert norm2(a - b) < 1e-10


def test_explicit_mode_defect_shrinks_quadratically():
    a = 0.7
    rng = np.random.default_rng(73)
    defects = []
    for n in (16, 32):
        grid = TimeGrid(1.0, n)
        yT = CliffordElement.identity(grid.n).scale(2.0)
        path = solve_stepwise(scalar_driver(a), grid, yT, mode="explicit")
        defects.append(residual(path, scalar_driver(a), yT))
    assert defects[1] < defects[0]
    assert 3.0 < defects[0] / defects[1] < 5.0
    del rng


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_inner_iteration_diverges_with_loud_message():
    grid = TimeGrid(1.0, 2)  # dt = 1/2, contraction factor 50
    yT = CliffordElement.identity(grid.n)
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_stepwise(scalar_driver(100.0, declare=False), grid, yT)


# -- stepwise against Picard ----------------------------------------------

def test_stepwise_and_picard_agree_exactly():
    grid = TimeGrid(1.0, 24)
    rng = np.random.default_rng(74)
    yT = random_terminal(rng, grid.n, terms=14)
    drv = scalar_driver(1.2)
    a = solve_stepwise(drv, grid, yT)
    b, sweeps = solve_picard(drv, grid, yT)
    gap = max(norm2(x - y) for x, y in zip(a.y, b.y))
    gap = max(gap, max(norm2(x - y) for x, y in zip(a.Y, b.Y)))
    assert gap < 1e-10 * (1.0 + norm2(yT))
    assert sweeps < 60
    assert residual(b, drv, yT) < 1e-10


def test_driver_in_the_integrand_slot():
    grid = TimeGrid(1.0, 12)
    rng = np.random.default_rng(75)
    yT = random_terminal(rng, grid.n)
    drv = Driver(f=lambda k, y, Y: Y.scale(0.4), g2=0.4)
    a = solve_stepwise(drv, grid, yT)
    b, _ = solve_picard(drv, grid, yT)
    assert residual(a, drv, yT) < 1e-12
    assert max(norm2(x - y) for x, y in zip(a.y, b.y)) < 1e-10


def test_picard_solution_is_independent_of_the_start():
    grid = TimeGrid(1.0, 10)
    rng = np.random.default_rng(76)
    yT = random_terminal(rng, grid.n)
    drv = scalar_driver(0.8)
    cold, _ = solve_picard(drv, grid, yT)
    warm_init = (
        [random_element(rng, grid.n, n_terms=3, max_generator=k) for k in range(11)],
        [random_element(rng, grid.n, n_terms=3, max_generator=k) for k in range(10)],
    )
    warm, _ = solve_picard(drv, grid, yT, init=warm_init)
    assert max(norm2(x - y) for x, y in zip(cold.y, warm.y)) < 1e-8


# -- contraction windowing ------------------------------------------------

def test_strong_driver_triggers_windowing_and_still_converges():
    grid = TimeGrid(1.0, 48)
    rng = np.random.default_rng(77)
    yT = CliffordElement.identity(grid.n) + random_element(
        rng, grid.n, n_terms=8
    ).scale(0.3)
    drv = scalar_driver(6.0)
    path, sweeps = solve_picard(drv, grid, yT)
    dx = path.diagnostics
    assert dx["kappa_measured"] > 0.5
    assert dx["windows"] > 1
    assert dx["window_steps"] * dx["windows"] >= grid.n_steps
    assert sweeps <= 200
    assert residual(path, drv, yT) < 1e-8 * (1.0 + norm2(yT))
    ref = solve_stepwise(drv, grid, yT)
    assert max(norm2(a - b) for a, b in zip(ref.y, path.y)) < 1e-8


def test_windowing_without_declared_constants_is_refused():
    grid = TimeGrid(1.0, 32)
    yT = CliffordElement.identity(grid.n)
    # lie about the Lipschitz data: strong driver, zero declared constants
    drv = Driver(f=lambda k, y, Y: y.scale(6.0), g1=0.0)
    with pytest.raises(RuntimeError, match="cannot window"):
        solve_picard(drv, grid, yT)


def test_sweep_budget_is_enforced():
    grid = TimeGrid(1.0, 16)
    yT = CliffordElement.identity(grid.n)
    with pytest.raises(RuntimeError, match="exceeded 3 sweeps"):
        solve_picard(scalar_driver(2.0), grid, yT, max_iter=3)


def test_each_picard_window_takes_its_own_sweep_budget():
    """Seven one-step windows of about 38 sweeps each settle, 261 sweeps
    in all; the budget is per window, so the whole solve may pass 200.
    The error names the window that runs out."""
    grid = TimeGrid(3.5, 7)
    yT = CliffordElement.identity(grid.n)
    path, sweeps = solve_picard(scalar_driver(1.0), grid, yT)
    spent = path.diagnostics["window_sweeps"]
    assert path.diagnostics["windows"] == 7
    assert sweeps == sum(spent) + 2 > PICARD_MAX_ITER
    assert max(spent) <= PICARD_MAX_ITER
    assert residual(path, scalar_driver(1.0), yT) <= 1e-9
    with pytest.raises(RuntimeError, match="window of steps 6..6"):
        solve_picard(scalar_driver(1.0), grid, yT, max_iter=30)


@pytest.mark.parametrize("T", [0.5, 0.8, 0.88, 0.89, 0.9, 0.95])
def test_one_step_window_sweeps_bound_solve_picards_count(T):
    """On a one-step grid under a = 1 and the identity terminal, the
    predicted sweeps exceed solve_picard's budget exactly when it runs
    out, and otherwise bound the window's own count."""
    grid = TimeGrid(T, 1)
    yT = CliffordElement.identity(1)
    need = _one_step_window_sweeps(1.0, 1, grid.T, 1.0)
    if need > PICARD_MAX_ITER:
        with pytest.raises(RuntimeError, match="exceeded 200 sweeps"):
            solve_picard(scalar_driver(1.0), grid, yT)
    else:
        path, _ = solve_picard(scalar_driver(1.0), grid, yT)
        assert max(path.diagnostics["window_sweeps"]) <= need
    assert _one_step_window_sweeps(1.0, 1, 1.0, 1.0) == np.inf
    assert _one_step_window_sweeps(2.0, 10, 1.0, 0.0) == 1


# -- the one-pass Picard sweep against the per-step loop ------------------

def ref_project_sweep(grid, yT, fs, lo, hi):
    """The per-step fold and split that the one-pass sweep replaced."""
    dt = grid.dt
    inv_root = 1.0 / np.sqrt(dt)
    count = hi - lo
    prefix = [None] * count
    acc = CliffordElement.zero(grid.n)
    for j in range(count):
        prefix[j] = acc
        acc = acc + fs[j].scale(dt)
    mart = yT - acc
    marts = [None] * count
    Y = [None] * count
    for k in range(hi - 1, lo - 1, -1):
        Y[k - lo] = cond_expect(mart.mul_generator(k, "right"), k).scale(
            inv_root
        )
        mart = cond_expect(mart, k)
        marts[k - lo] = mart
    y = _Stack.of(grid.n, marts) + _Stack.of(grid.n, prefix)
    return y.values(0, count) + [yT], Y


def same_bits(a, b):
    """Equal masks and amplitudes bit for bit, signed zeros included."""
    return (
        a.masks.tobytes() == b.masks.tobytes()
        and a.amps.tobytes() == b.amps.tobytes()
    )


def project_sweep(grid, yT, fs, lo, hi):
    """_project_sweep on a list of driver values, as per-step lists."""
    y, Y = _project_sweep(grid, yT, _Stack.of(grid.n, fs), lo, hi)
    return y.values(0, hi - lo) + [yT], Y.values(0, hi - lo)


def assert_sweeps_agree(grid, yT, fs, lo, hi):
    got_y, got_Y = project_sweep(grid, yT, fs, lo, hi)
    want_y, want_Y = ref_project_sweep(grid, yT, fs, lo, hi)
    assert len(got_y) == len(want_y) and len(got_Y) == len(want_Y)
    for got, want in zip(got_y + got_Y, want_y + want_Y):
        assert same_bits(got, want)


def sweep_data(rng, n, lo, hi):
    """An adapted terminal and driver values on [lo, hi) whose masks recur
    from step to step, with empty steps and exact cancellations."""
    yT = random_element(rng, n, n_terms=12, max_generator=hi)
    base = random_element(rng, n, n_terms=20, max_generator=hi)
    fs = []
    for j in range(lo, hi):
        step = cond_expect(base, j).scale(rng.normal()) + random_element(
            rng, n, n_terms=3, max_generator=j
        )
        fs.append(step)
    for j in range(0, len(fs), 4):
        fs[j] = CliffordElement.zero(n)
    for j in range(1, len(fs) - 1, 5):
        fs[j + 1] = fs[j + 1] - fs[j]
    return yT, fs


@pytest.mark.parametrize("n", [1, 9, 70, 130])
def test_one_pass_sweep_equals_the_per_step_loop(n):
    grid = TimeGrid(0.7, n)
    rng = np.random.default_rng(90 + n)
    for lo, hi in {(0, n), (n // 3, n), (n // 2, max(n // 2 + 1, n - 2))}:
        yT, fs = sweep_data(rng, n, lo, hi)
        assert_sweeps_agree(grid, yT, fs, lo, hi)
        empty = [CliffordElement.zero(n)] * (hi - lo)
        assert_sweeps_agree(grid, yT, empty, lo, hi)
        assert_sweeps_agree(grid, CliffordElement.zero(n), fs, lo, hi)


def test_sweep_restarts_a_prefix_sum_that_cancels_to_zero():
    # g_0's prefix sum cancels to +0 twice and is re-entered by a term
    # with a -0.0 real part; the fold starts it afresh, so that part
    # stays -0.0 (and +0.0 in Y_0, which carries -acc), where a plain
    # running sum would give +0.0.
    n = 7
    grid = TimeGrid(1.0, n)
    g0 = CliffordElement.generator(n, 0)
    a = 0.75 + 0.5j
    b = -1.25 + 0.125j
    fs = [
        CliffordElement.zero(n),
        g0.scale(a),
        g0.scale(-a),
        g0.scale(b) + CliffordElement.generator(n, 2),
        g0.scale(-b),
        g0.scale(complex(-0.0, 1.0)),
        CliffordElement.zero(n),
    ]
    yT = CliffordElement.identity(n) + CliffordElement.generator(n, 4)
    assert_sweeps_agree(grid, yT, fs, 0, n)
    _, Y = project_sweep(grid, yT, fs, 0, n)
    assert Y[0].amps[0].real == 0 and not np.signbit(Y[0].amps[0].real)


def test_sweep_refuses_non_adapted_driver_values():
    grid = TimeGrid(1.0, 6)
    zero = CliffordElement.zero(6)
    fs = [zero, zero, CliffordElement.generator(6, 4), zero]
    with pytest.raises(ValueError, match="non-adapted value at step 4"):
        project_sweep(grid, CliffordElement.identity(6), fs, 2, 6)
    drv = Driver(f=lambda k, y, Y: CliffordElement.generator(6, 5), g1=0.0)
    with pytest.raises(ValueError, match="non-adapted value at step 0"):
        solve_picard(drv, grid, CliffordElement.identity(6))
    # a non-adapted warm start is named as such, not as the driver's fault
    init = ([CliffordElement.generator(6, 3)] + [zero] * 6, [zero] * 6)
    with pytest.raises(ValueError, match="y is not adapted at step 0"):
        solve_picard(scalar_driver(0.5), grid, CliffordElement.identity(6),
                     init=init)


def test_sweep_sorts_a_fixed_number_of_times(monkeypatch):
    """Per sweep, solve_picard canonicalizes as often at n=256 as at
    n=64: the fold and split make no per-step call."""
    calls = [0]
    canonicalize = sp.canonicalize

    def counted(*args, **kwargs):
        calls[0] += 1
        return canonicalize(*args, **kwargs)

    monkeypatch.setattr(sp, "canonicalize", counted)
    per_sweep = []
    for n in (64, 256):
        grid = TimeGrid(1.0, n)
        yT = CliffordElement.identity(n) + random_element(
            np.random.default_rng(5), n, n_terms=6
        )
        # the shared zero is built once per n, by whichever test asks first
        CliffordElement.zero(n)
        calls[0] = 0
        _, sweeps = solve_picard(scalar_driver(1.0), grid, yT)
        per_sweep.append(calls[0] / sweeps)
    assert per_sweep[0] == per_sweep[1]
    assert per_sweep[0] < 4


# -- a driver declared linear in y, on rows, against the per-step route ---

def _runs(table):
    """linear_y reading a fixed table: consecutive steps share an op."""
    return lambda k: table[k % len(table)]


# name -> (linear_y, g1); each linear_y(k) is a graded scalar
LINEAR_CASES = {
    "per_step": (lambda k: GradedScalarOp(0.5 + 0.25 * (k % 3), 0.0), 1.0),
    "complex": (lambda k: ScalarOp(0.3 - 0.7j), abs(0.3 - 0.7j)),
    "graded": (lambda k: GradedScalarOp(0.4 + 0.2j, -0.3 + 0.1j), 0.8),
    "zero": (lambda k: ScalarOp(0), 0.0),
    # (1 + G) / 2 maps every odd row to an exact zero
    "even_part": (lambda k: GradedScalarOp(0.5, 0.5), 1.0),
    "strong": (lambda k: ScalarOp(4.0), 4.0),
    "strong_runs": (
        _runs([ScalarOp(4.0)] * 3 + [GradedScalarOp(3.0 + 0.5j, 1.0)] * 2
              + [ScalarOp(-0.0 + 3.5j)]),
        4.5,
    ),
}


def linear_terminals(n):
    """A mixed-parity terminal with rows topping out all over the grid,
    and its even and odd parts."""
    rng = np.random.default_rng(400 + n)
    mixed = CliffordElement.identity(n)
    for top in sorted({n, n // 2, n // 4, 3, 1}):
        mixed = mixed + random_element(rng, n, n_terms=5, max_generator=top)
    odd = sp.popcount_rows(mixed.masks) % 2 == 1
    return {
        "mixed": mixed,
        "even": CliffordElement(n, mixed.masks[~odd], mixed.amps[~odd]),
        "odd": CliffordElement(n, mixed.masks[odd], mixed.amps[odd]),
    }


def assert_paths_agree(got, want):
    assert len(got.y) == len(want.y) and len(got.Y) == len(want.Y)
    for a, b in zip(got.y + got.Y, want.y + want.Y):
        assert same_bits(a, b)
    assert got.diagnostics == want.diagnostics


@pytest.mark.parametrize("n", [16, 70, 130, 256])
@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_declared_linear_driver_equals_the_per_step_route(case, n):
    """Driver(linear_y=...) runs stepwise, Picard and residual on rows;
    the same driver given as an f runs them on per-step elements, and
    every value, sweep count, diagnostic and residual agrees bit for
    bit."""
    linear_y, g1 = LINEAR_CASES[case]
    declared = Driver(g1=g1, linear_y=linear_y)
    per_step = Driver(
        f=lambda k, y, Y: linear_y(k).apply(y), g1=g1, linear_y=linear_y
    )

    def no_step_values(k, y, Y):
        raise AssertionError("the driver was evaluated on an element")

    declared.f = no_step_values
    grid = TimeGrid(1.0, n)
    for yT in linear_terminals(n).values():
        got = solve_stepwise(declared, grid, yT)
        want = solve_stepwise(per_step, grid, yT)
        assert_paths_agree(got, want)
        assert residual(got, declared, yT) == residual(want, per_step, yT)
        got_p, got_sweeps = solve_picard(declared, grid, yT)
        want_p, want_sweeps = solve_picard(per_step, grid, yT)
        assert got_sweeps == want_sweeps
        assert_paths_agree(got_p, want_p)
        assert residual(got_p, declared, yT) == residual(
            want_p, per_step, yT
        )


def test_declared_linear_driver_covers_one_and_several_windows():
    grid = TimeGrid(1.0, 70)
    yT = linear_terminals(70)["mixed"]
    counts = {
        case: solve_picard(Driver(g1=g1, linear_y=lin), grid, yT)[0]
        .diagnostics["windows"]
        for case, (lin, g1) in LINEAR_CASES.items()
    }
    assert counts["per_step"] == counts["graded"] == 1
    assert counts["strong"] > 1 and counts["strong_runs"] > 1


def test_declared_driver_keeps_the_per_step_route_where_it_must():
    """Explicit mode, pruning, a linear_y that is no graded scalar and
    one that only reduces to one evaluate the declared f step by step; a
    warm start gives the same iterate as the per-step route."""
    n = 16
    grid = TimeGrid(1.0, n)
    yT = linear_terminals(n)["mixed"]
    linear_y, g1 = LINEAR_CASES["graded"]
    declared = Driver(g1=g1, linear_y=linear_y)
    per_step = Driver(
        f=lambda k, y, Y: linear_y(k).apply(y), g1=g1, linear_y=linear_y
    )
    for kwargs in ({"mode": "explicit"}, {"prune": 1e-9}):
        assert_paths_agree(solve_stepwise(declared, grid, yT, **kwargs),
                           solve_stepwise(per_step, grid, yT, **kwargs))
    start = solve_stepwise(per_step, grid, yT)
    init = (start.y, start.Y)
    got, got_sweeps = solve_picard(declared, grid, yT, init=init)
    want, want_sweeps = solve_picard(per_step, grid, yT, init=init)
    assert got_sweeps == want_sweeps
    assert_paths_agree(got, want)
    # L_k = 0.1 (1 + g_{k-1}) from k = 1 on is no graded scalar: both
    # drivers solve step by step
    ops = [ScalarOp(0.1)] + [
        LeftMulOp((CliffordElement.identity(n)
                   + CliffordElement.generator(n, k - 1)).scale(0.1))
        for k in range(1, n)
    ]
    assert ops[1].as_graded_scalar() is None
    mixed = Driver(g1=0.2, linear_y=lambda k: ops[k])
    given = Driver(f=lambda k, y, Y: ops[k].apply(y), g1=0.2,
                   linear_y=lambda k: ops[k])
    assert_paths_agree(solve_stepwise(mixed, grid, yT),
                       solve_stepwise(given, grid, yT))
    assert_paths_agree(solve_picard(mixed, grid, yT)[0],
                       solve_picard(given, grid, yT)[0])
    # 0.1 y + 0.2 y rounds apart from 0.3 y, so a sum that reduces to a
    # graded scalar is still applied as a sum
    total = SumOp([ScalarOp(0.1), ScalarOp(0.2)])
    summed = Driver(g1=0.3, linear_y=lambda k: total)
    path = solve_picard(summed, grid, yT)[0]
    assert residual(path, summed, yT) == residual(
        path, Driver(f=lambda k, y, Y: total.apply(y)), yT
    )
    assert_paths_agree(path, solve_picard(
        Driver(f=lambda k, y, Y: total.apply(y), g1=0.3,
               linear_y=lambda k: total), grid, yT)[0])


def test_a_driver_needs_f_or_linear_y():
    with pytest.raises(ValueError, match="needs f or linear_y"):
        Driver()
    with pytest.raises(ValueError, match="needs f or linear_y"):
        Driver(g1=1.0)


def test_bqsde_builds_no_per_step_elements(monkeypatch, tmp_path):
    """One bqsde call at n=256 builds at most 4n elements (about 12k when
    each step was an element) and applies no operator step by step."""
    n = 256
    wraps = [0]
    applies = [0]
    wrap = CliffordElement._wrap.__func__

    def counted_wrap(cls, *args):
        wraps[0] += 1
        return wrap(cls, *args)

    monkeypatch.setattr(CliffordElement, "_wrap", classmethod(counted_wrap))
    for op in (ElementOperator, ScalarOp, GradedScalarOp):
        apply = op.apply

        def counted_apply(self, x, apply=apply):
            applies[0] += 1
            return apply(self, x)

        monkeypatch.setattr(op, "apply", counted_apply)
    spec = parse_problem({"grid": {"n_steps": n}})
    assert run("bqsde", spec, str(tmp_path))["pass"]
    assert 0 < wraps[0] <= 4 * n
    assert applies[0] == 0


# -- defects, growth, validation ------------------------------------------

def test_residual_flags_corruption():
    grid = TimeGrid(1.0, 8)
    rng = np.random.default_rng(78)
    yT = random_terminal(rng, grid.n)
    drv = scalar_driver(0.5)
    path = solve_stepwise(drv, grid, yT)
    assert residual(path, drv, yT) < 1e-13
    bumped = list(path.y)
    bumped[3] = bumped[3] + CliffordElement.scalar(grid.n, 0.01)
    broken = BackwardPath(grid, bumped, path.Y, check=False)
    assert abs(residual(broken, drv, yT) - 0.01) < 2e-3


def ref_residual(path, driver, yT):
    """The per-step defect fold that the stacked residual replaced."""
    grid = path.grid
    root = np.sqrt(grid.dt)
    worst = norm2(path.y[-1] - yT)
    for k in range(grid.n_steps):
        defect = (
            path.y[k]
            - path.y[k + 1]
            + driver.f(k, path.y[k], path.Y[k]).scale(grid.dt)
            + path.Y[k].mul_generator(k, "right").scale(root)
        )
        worst = max(worst, norm2(defect))
    return worst


@pytest.mark.parametrize("n", [1, 9, 70])
def test_stacked_residual_equals_the_per_step_fold(n):
    grid = TimeGrid(1.0, n)
    rng = np.random.default_rng(80 + n)
    drv = Driver(f=lambda k, y, Y: y.scale(0.3) + Y.grading().scale(-0.2))
    yT = random_terminal(rng, n)
    solved = solve_stepwise(scalar_driver(0.4), grid, yT)
    # not adapted, with empty values and exact cancellations mixed in
    y = [random_element(rng, n, n_terms=6) for _ in range(n + 1)]
    Y = [random_element(rng, n, n_terms=6) for _ in range(n)]
    y[n // 2] = CliffordElement.zero(n)
    y[n] = y[n - 1]
    noisy = BackwardPath(grid, y, Y, check=False)
    for path in (solved, noisy):
        assert residual(path, drv, yT) == ref_residual(path, drv, yT)


def test_apriori_report_and_vacuous_flag():
    grid = TimeGrid(1.0, 8)
    rng = np.random.default_rng(79)
    yT = random_terminal(rng, grid.n)
    drv = scalar_driver(0.5)
    path = solve_stepwise(drv, grid, yT)
    rep = apriori_backward_check(path, drv, yT)
    assert not rep["vacuous"]
    assert rep["ratio"] > 0.0
    assert rep["denominator"] == pytest.approx(norm2(yT))
    zpath = solve_stepwise(drv, grid, CliffordElement.zero(grid.n))
    zrep = apriori_backward_check(zpath, drv, CliffordElement.zero(grid.n))
    assert zrep["vacuous"] and zrep["ratio"] == 0.0


def test_input_validation():
    grid = TimeGrid(1.0, 4)
    yT = CliffordElement.identity(5)
    with pytest.raises(ValueError, match="sizes differ"):
        solve_stepwise(scalar_driver(0.1), grid, yT)
    with pytest.raises(ValueError, match="sizes differ"):
        solve_picard(scalar_driver(0.1), grid, yT)
    with pytest.raises(ValueError, match="explicit"):
        solve_stepwise(
            scalar_driver(0.1), grid, CliffordElement.identity(4), mode="middle"
        )
    with pytest.raises(ValueError, match="nonnegative"):
        Driver(f=lambda k, y, Y: y, g1=-1.0)
    with pytest.raises(ValueError, match="length does not match"):
        solve_picard(
            scalar_driver(0.1),
            grid,
            CliffordElement.identity(4),
            init=([CliffordElement.zero(4)] * 3, [CliffordElement.zero(4)] * 4),
        )


def test_backward_path_checks_adaptedness():
    grid = TimeGrid(1.0, 3)
    zero = CliffordElement.zero(3)
    g2 = CliffordElement.generator(3, 2)
    y = [g2, zero, zero, zero]
    with pytest.raises(ValueError, match="y is not adapted at step 0"):
        BackwardPath(grid, y, [zero] * 3)
    with pytest.raises(ValueError, match="Y is not adapted at step 1"):
        BackwardPath(grid, [zero] * 4, [zero, g2, zero])
    with pytest.raises(ValueError, match="length"):
        BackwardPath(grid, [zero] * 3, [zero] * 3)


def test_stepwise_prune_accounting():
    grid = TimeGrid(1.0, 12)
    rng = np.random.default_rng(80)
    # a terminal with a wide amplitude spread, so a relative budget has
    # genuinely droppable mass
    yT = random_terminal(rng, grid.n, terms=15) + random_terminal(
        rng, grid.n, terms=15
    ).scale(1e-10)
    drv = scalar_driver(0.6)
    exact = solve_stepwise(drv, grid, yT)
    assert exact.diagnostics["pruned_mass"] == 0.0
    lossy = solve_stepwise(drv, grid, yT, prune=1e-7)
    assert 0.0 < lossy.diagnostics["pruned_mass"] < 1e-4
    assert max(norm2(a - b) for a, b in zip(exact.y, lossy.y)) < 1e-7
