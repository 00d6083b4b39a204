"""Forward Euler solver: closed forms, the structured fast path against
the generic one, spikes, derivative cross-checks, and failure guards."""

from types import SimpleNamespace

import numpy as np
import pytest

from fermisde import _channel
from fermisde import _sparse as sp
from fermisde.algebra import (
    CliffordElement,
    mul,
    norm2,
    pairing,
    random_element,
    vacuum,
)
from fermisde.catalog import build
from fermisde.control import cost_expansion_check, variation_ladder
from fermisde.forward import (
    Coefficients,
    ControlSpace,
    LinearStructure,
    StatePath,
    apriori_check,
    euler_forward,
    euler_forward_difference,
    linear_euler_forward,
    numeric_frechet,
    numeric_second_frechet,
    spike,
    spike_window,
)
from fermisde.ito import AdaptedProcess, TimeGrid
from fermisde.operators import (
    BilinearMap,
    GradedScalarOp,
    LeftMulOp,
    ScalarOp,
    SumOp,
)


def affine_coeffs(a=0.0, b=0.0, c=0.0, sigma_f=0.0, declare_linear=True):
    """dx = (a x + u) dt + (b x + sigma_f u) dW + dW (c x)."""

    def D(k, x, u):
        return x.scale(a) + u

    def F(k, x, u):
        return x.scale(b) + u.scale(sigma_f)

    def G(k, x, u):
        return x.scale(c)

    co = Coefficients(
        D=D,
        F=F,
        G=G,
        Dx=lambda k, x, u: ScalarOp(a),
        Fx=lambda k, x, u: ScalarOp(b),
        Gx=lambda k, x, u: ScalarOp(c),
        lipschitz_bound=abs(a) + abs(b) + abs(c),
    )
    if declare_linear:
        co.linear = LinearStructure(
            A=lambda k: GradedScalarOp(a, 0.0),
            B=lambda k: GradedScalarOp(b, 0.0),
            C=lambda k: GradedScalarOp(c, 0.0),
            uD=lambda k: GradedScalarOp(1.0, 0.0),
            uF=lambda k: GradedScalarOp(sigma_f, 0.0),
        )
    return co


def zero_control(grid):
    return AdaptedProcess.constant_scalar(grid, 0.0)


# -- closed forms ---------------------------------------------------------

def test_pure_drift_is_the_discrete_exponential():
    a = -1.0
    grid = TimeGrid(1.0, 32)
    co = affine_coeffs(a=a, declare_linear=False)
    x0 = CliffordElement.identity(grid.n)
    path = euler_forward(co, x0, zero_control(grid))
    ref = 1.0
    for k, x in enumerate(path):
        assert x.terms() == {0: complex(ref)}
        ref = ref + (a * ref) * grid.dt
    assert abs(vacuum(path.terminal) - np.exp(a)) < 0.02


def test_drift_converges_to_exponential_at_first_order():
    a = -1.0
    errs = []
    for n in (16, 32, 64):
        grid = TimeGrid(1.0, n)
        path = euler_forward(
            affine_coeffs(a=a), CliffordElement.identity(n), zero_control(grid)
        )
        errs.append(abs(vacuum(path.terminal) - np.exp(a)))
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


def test_noise_source_norm_matches_geometric_closed_form():
    """With dx = a x dt + u dW and constant scalar control sigma, the
    squared 2-norm of x_k obeys an explicit geometric recursion because
    the source at step k is orthogonal to everything adapted."""
    a, sigma, x0v = 0.4, 0.7, 1.25
    grid = TimeGrid(1.0, 24)
    co = affine_coeffs(a=a, sigma_f=1.0)
    u = AdaptedProcess.constant_scalar(grid, sigma)
    path = euler_forward(
        co,
        CliffordElement.scalar(grid.n, x0v),
        AdaptedProcess(grid, [v.scale(0.0) for v in u], check=False),
    )
    # control enters D as well in affine_coeffs; rebuild with drift-free u
    co = Coefficients(
        F=lambda k, x, u: u,
        D=lambda k, x, u: x.scale(a),
        Dx=lambda k, x, u: ScalarOp(a),
    )
    path = euler_forward(co, CliffordElement.scalar(grid.n, x0v), u)
    dt = grid.dt
    want = x0v**2
    for k, x in enumerate(path):
        if k:
            want = (1.0 + a * dt) ** 2 * want_prev + sigma**2 * dt
        want_prev = want
        assert abs(norm2(x) ** 2 - want) < 1e-12 * (1.0 + want)


def test_driftless_source_solution_embeds_exactly_into_refined_grid():
    """dx = sigma dW has solution x0 + sigma W(T). Splitting every
    generator into two, g_k -> (g'_{2k} + g'_{2k+1})/sqrt(2), carries the
    coarse solution onto the fine one with no discretization gap."""
    sigma, x0v = 0.8, 0.5
    coarse = TimeGrid(1.0, 8)
    fine = TimeGrid(1.0, 16)
    co = Coefficients(F=lambda k, x, u: u)
    uc = AdaptedProcess.constant_scalar(coarse, sigma)
    uf = AdaptedProcess.constant_scalar(fine, sigma)
    xc = euler_forward(co, CliffordElement.scalar(coarse.n, x0v), uc).terminal
    xf = euler_forward(co, CliffordElement.scalar(fine.n, x0v), uf).terminal
    # push the coarse terminal through the pair-splitting embedding
    emb = CliffordElement.zero(fine.n)
    for mask, amp in xc.terms().items():
        if mask == 0:
            emb = emb + CliffordElement.scalar(fine.n, amp)
            continue
        k = mask.bit_length() - 1
        assert mask == 1 << k  # driftless solution is linear in the noise
        half = amp / np.sqrt(2.0)
        emb = emb + CliffordElement.from_terms(
            fine.n, {1 << (2 * k): half, 1 << (2 * k + 1): half}
        )
    assert norm2(emb - xf) < 1e-13


# -- structured path against the generic one ------------------------------

def test_declared_linear_structure_matches_generic_solver():
    grid = TimeGrid(1.0, 12)
    rng = np.random.default_rng(60)
    uvals = [
        random_element(rng, grid.n, n_terms=3, max_generator=k)
        for k in range(grid.n_steps)
    ]
    u = AdaptedProcess(grid, uvals)
    x0 = CliffordElement.scalar(grid.n, 0.75)
    fast = euler_forward(
        affine_coeffs(a=0.3, b=0.2, c=-0.1, sigma_f=0.5), x0, u
    )
    slow = euler_forward(
        affine_coeffs(a=0.3, b=0.2, c=-0.1, sigma_f=0.5, declare_linear=False),
        x0,
        u,
    )
    for xf, xs in zip(fast, slow):
        assert norm2(xf - xs) < 1e-13 * (1.0 + norm2(xs))


def test_linear_solver_generic_fallback_steps_match_full_rules():
    """Steps whose operators do not reduce to graded-scalar form take the
    general branch; mixing both branch types must agree with the plain
    solver on the equivalent full rules."""
    grid = TimeGrid(1.0, 6)
    n = grid.n
    g0 = CliffordElement.generator(n, 0)

    def ops(k):
        if k % 2:
            return (LeftMulOp(g0), GradedScalarOp(0.0, 0.0), GradedScalarOp(0.0, 0.0))
        return (
            GradedScalarOp(0.5, 0.0),
            GradedScalarOp(0.0, 0.0),
            GradedScalarOp(0.0, 0.0),
        )

    def srcs(k):
        z = CliffordElement.zero(n)
        return (CliffordElement.scalar(n, 0.1), z, z)

    x0 = CliffordElement.scalar(n, 1.0)
    got = linear_euler_forward(grid, ops, srcs, x0)

    def D(k, x, u):
        if k % 2:
            return mul(g0, x) + CliffordElement.scalar(n, 0.1)
        return x.scale(0.5) + CliffordElement.scalar(n, 0.1)

    want = euler_forward(
        Coefficients(D=D), x0, zero_control(grid), validate=False
    )
    for a, b in zip(got, want):
        assert norm2(a - b) < 1e-13


def coefficient_table(grid, ops):
    """The parity channel's coefficient table of ops(k), k < n_steps."""
    return _channel.coefficients(
        _channel.reduced(ops(k) for k in range(grid.n_steps))
    )


def test_linear_gram_matches_pairings_of_unpruned_solves():
    """Complex, step-varying graded-scalar operators with a grading part,
    and complex scalar sources: the Gram recursion against pairings of
    the element paths."""
    grid = TimeGrid(1.0, 8)
    rng = np.random.default_rng(70)
    cx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coefs = cx(grid.n_steps, 3, 2)
    srcs = cx(grid.n_steps, 3, 3)
    x0_amps = cx(3)
    x0_amps[1] = 0.0

    def ops(k):
        return tuple(GradedScalarOp(*coefs[k, i]) for i in range(3))

    lanes = _channel.Lanes(coefficient_table(grid, ops), grid.dt)
    gram = _channel.gram(grid, lanes, srcs, x0_amps, block=3)[:, 0]
    paths = []
    for j in range(3):
        scalars = lambda k, j=j: tuple(
            CliffordElement.scalar(grid.n, s) for s in srcs[k, :, j]
        )
        paths.append(linear_euler_forward(
            grid, ops, scalars, CliffordElement.scalar(grid.n, x0_amps[j])
        ))
    for k in range(grid.n_steps + 1):
        want = np.array([[pairing(a[k], b[k]) for b in paths] for a in paths])
        np.testing.assert_allclose(gram[k], want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "sizes", [(1, 3), (3, 3, 3), (2, 1, 4, 2), (1, 1, 1, 1)]
)
def test_linear_gram_batches_path_groups_bit_for_bit(sizes):
    """One walk over concatenated groups of paths gives each group's own
    Gram matrices on the diagonal blocks, to the last bit; with groups of
    one size, block= returns just those blocks."""
    grid = TimeGrid(1.0, 12)
    rng = np.random.default_rng(len(sizes))
    cx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coefs = cx(grid.n_steps, 3, 2)
    srcs = [cx(grid.n_steps, 3, size) for size in sizes]
    x0s = [cx(size) for size in sizes]

    def ops(k):
        return tuple(GradedScalarOp(*coefs[k, i]) for i in range(3))

    lanes = _channel.Lanes(coefficient_table(grid, ops), grid.dt)
    stacked = np.concatenate(srcs, axis=2)
    whole = _channel.gram(
        grid, lanes, stacked, np.concatenate(x0s), block=sum(sizes)
    )[:, 0]
    blocks = None
    if len(set(sizes)) == 1:
        blocks = _channel.gram(
            grid, lanes, stacked, np.concatenate(x0s), block=sizes[0]
        )
        assert blocks.shape == (grid.n_steps + 1,) + (len(sizes),) + (
            sizes[0],) * 2
    lo = 0
    for g, (src, x0) in enumerate(zip(srcs, x0s)):
        own = _channel.gram(grid, lanes, src, x0, block=len(x0))[:, 0]
        hi = lo + len(x0)
        assert np.array_equal(whole[:, lo:hi, lo:hi], own)
        if blocks is not None:
            assert np.array_equal(blocks[:, g], own)
        lo = hi


def test_linear_gram_blocks_must_split_the_paths():
    grid = TimeGrid(1.0, 4)
    table = coefficient_table(grid, lambda k: (GradedScalarOp(0.1, 0.0),) * 3)
    lanes = _channel.Lanes(table, grid.dt)
    with pytest.raises(ValueError, match="5 paths do not split"):
        _channel.gram(grid, lanes, np.zeros((4, 3, 5)), np.ones(5), block=3)


def test_linear_gram_raises_on_overflow():
    grid = TimeGrid(1.0, 8)
    huge = coefficient_table(grid, lambda k: (GradedScalarOp(1e300, 0.0),) * 3)
    huge = _channel.Lanes(huge, grid.dt)
    for x0_amps in ([1.0], [1.0, 0.0]):
        with pytest.raises(FloatingPointError, match="non-finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                _channel.gram(grid, huge, np.zeros((8, 3, len(x0_amps))),
                              x0_amps, block=len(x0_amps))


def _step_walk(grid, coefs, srcs, x0_amps, pair):
    """The parity-channel walk one step at a time: the reference the
    chunked _channel.walk must match bit for bit."""
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
        f_even = root * (b_e + c_e)
        f_odd = root * (b_o - c_o)
        v = f_even * e0 + root * (s_f + s_g)
        g_even, g_odd = (
            abs(m_even) ** 2 * g_even + abs(f_odd) ** 2 * g_odd,
            abs(m_odd) ** 2 * g_odd + abs(f_even) ** 2 * g_even + pair(v),
        )
        e0 = m_even * e0 + dt * s_d
        yield pair(e0) + g_even + g_odd


def _step_gram(grid, coefs, srcs, x0_amps, block):
    x0_amps = np.asarray(x0_amps, dtype=np.complex128)
    shape = (len(x0_amps) // block, block)

    def pair(v):
        w = v.reshape(shape)
        return w.conj()[:, :, None] * w[:, None, :]

    return np.array(list(_step_walk(grid, coefs, srcs, x0_amps, pair)))


# Chunk budgets of the walk (pairing entries per chunk): one step per
# chunk, a few steps with a short last chunk, and the module's default.
CHUNK_BUDGETS = [1, 7, 40, None]


@pytest.fixture(params=CHUNK_BUDGETS, ids=lambda b: f"budget_{b}")
def chunk_budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(_channel, "_CHUNK_ENTRIES", request.param)
    return request.param


def _walk_case(n_steps, paths, seed):
    """Complex step-varying coefficients over six decades, complex
    sources and starts with an exact zero and a negative zero."""
    rng = np.random.default_rng(seed)

    def cx(*shape):
        scale = 10.0 ** rng.integers(-3, 3, size=shape)
        return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    coefs = cx(n_steps, 3, 2)
    srcs = cx(n_steps, 3, paths)
    x0_amps = cx(paths)
    x0_amps[1] = 0.0
    x0_amps[2] = complex(-0.0, -0.0)
    # The walk reads dt and n_steps alone; a TimeGrid has at least a step.
    grid = SimpleNamespace(dt=0.07, n_steps=n_steps)
    return grid, coefs, srcs, x0_amps


@pytest.mark.parametrize("n_steps", [0, 1, 13])
def test_chunked_walk_equals_the_step_by_step_walk(chunk_budget, n_steps):
    """gram at blocks 1, 3 and K and norms_sq fed an array or a lazy
    iterable of per-step sources give the step-by-step walk's values to
    the last bit, whatever the chunk length."""
    grid, coefs, srcs, x0_amps = _walk_case(n_steps, 6, seed=n_steps)
    lanes = _channel.Lanes(coefs, grid.dt)
    for block in (1, 3, 6):
        got = _channel.gram(grid, lanes, srcs, x0_amps, block=block)
        want = _step_gram(grid, coefs, srcs, x0_amps, block)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    want = np.array(list(_step_walk(
        grid, coefs, srcs, x0_amps, lambda v: v.real**2 + v.imag**2
    )))
    for fed in (srcs, (srcs[k].copy() for k in range(n_steps))):
        rows = list(_channel.norms_sq(grid, lanes, fed, x0_amps))
        assert all(row.shape == (6,) for row in rows)
        assert np.array(rows).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "sizes", [(1, 3), (3, 3, 3), (2, 1, 4, 2), (1, 1, 1, 1)]
)
@pytest.mark.parametrize("budget", [1, 7], ids=lambda b: f"budget_{b}")
def test_linear_gram_batches_path_groups_in_any_chunk_length(
    monkeypatch, budget, sizes
):
    monkeypatch.setattr(_channel, "_CHUNK_ENTRIES", budget)
    test_linear_gram_batches_path_groups_bit_for_bit(sizes)


def test_walk_chunks_keep_within_the_entry_budget(monkeypatch):
    """Step 0 comes alone, then chunks of budget // entries steps (at
    least one), the last one short."""
    grid, coefs, srcs, x0_amps = _walk_case(13, 6, seed=4)
    lanes = _channel.Lanes(coefs, grid.dt)
    pair = lambda v: v.real**2 + v.imag**2
    for budget, lengths in [
        (1, [1] * 14), (6, [1] * 14), (13, [1, 2, 2, 2, 2, 2, 2, 1]),
        (40, [1, 6, 6, 1]), (1 << 16, [1, 13]),
    ]:
        monkeypatch.setattr(_channel, "_CHUNK_ENTRIES", budget)
        chunks = list(_channel.walk(grid, lanes, srcs, x0_amps, pair))
        assert [len(c) for c in chunks] == lengths


def _step_vacua(grid, coefs, srcs, x0_amps):
    """The e0 recursion one step at a time from the raw table: the
    reference _channel.vacua must match bit for bit. A scalar start
    steps as NumPy scalars, K starts as arrays, as there: NumPy's
    scalar and array complex products round differently."""
    e0 = np.empty((len(srcs) + 1,) + np.shape(x0_amps), dtype=np.complex128)
    e0[0] = x0_amps
    for k, (coef, s_d) in enumerate(zip(coefs, srcs[:, 0])):
        e0[k + 1] = (1.0 + grid.dt * coef[0, 0]) * e0[k] + grid.dt * s_d
    return e0


def _step_adjoint_vacua(grid, coefs, srcs, x0, drive):
    """The transpose one step at a time from the raw table, each step's
    parity pair formed as _channel.adjoint_vacua forms it: the reference
    it must match bit for bit."""
    run, end = drive
    n = grid.n_steps
    dt = grid.dt
    root = np.sqrt(dt)
    parity = np.array([1.0, -1.0])
    e0 = _step_vacua(grid, coefs, srcs, x0)
    r_odd = [0j] * n
    solve = [0j] * n
    backs = [0j] * n
    even = odd = complex(end)
    for k in range(n - 1, -1, -1):
        a, b, c = coefs[k]
        inv = 1.0 / (1.0 - dt * a.conj())
        back = (parity * b + c).conj()
        oe, oo = (inv * (1.0 + dt * a)).tolist()
        ce, co = (dt * parity * inv * (b + parity * c) * back).tolist()
        de, do = (run * inv).tolist()
        r_odd[k], solve[k], backs[k] = odd, inv[0], back[0]
        even, odd = oe * even + ce * odd + de, oo * odd + co * even + do
    Phi = np.empty(n, dtype=np.complex128)
    phi = np.empty(n + 1, dtype=np.complex128)
    phi[n] = complex(end * e0[n])
    for k in range(n - 1, -1, -1):
        b, c = coefs[k, 1:, :1]
        v = root * ((b + c) * e0[k:k + 1] + srcs[k, 1] + srcs[k, 2])
        Phi[k] = (v * np.array([r_odd[k]]) / root)[0]
        feed = (dt * backs[k] * Phi[k:k + 1] + run * e0[k:k + 1])[0]
        phi[k] = complex(solve[k]) * (complex(phi[k + 1]) + complex(feed))
    return phi, Phi


def _transpose_channel(grid, coefs, x0, weights):
    """A Channel of the raw table coefs for adjoint_vacua alone."""
    return _channel.Channel(
        None, _channel.Lanes(coefs, grid.dt), x0,
        _channel._NormCost(weights, grid.dt), [],
    )


def _zeroed_case(n_steps, paths, seed):
    """Walk data whose real and imaginary parts are 0.0, -0.0, 1.5 or
    -0.5, with b(-1) = (-0.0, -0.5) and c(-1) = (0.0, -0.5) at every
    third step: b - c is (-0.0, 0.0) there, while b + p c with p c a
    complex product is (0.0, 0.0)."""
    rng = np.random.default_rng(seed)
    parts = np.array([0.0, -0.0, 1.5, -0.5])

    def cx(*shape):
        out = np.empty(shape, dtype=np.complex128)
        out.real = parts[rng.integers(0, 4, size=shape)]
        out.imag = parts[rng.integers(0, 4, size=shape)]
        return out

    coefs = cx(n_steps, 3, 2)
    coefs[::3, 1, 1] = complex(-0.0, -0.5)
    coefs[::3, 2, 1] = complex(0.0, -0.5)
    grid = SimpleNamespace(dt=0.07, n_steps=n_steps)
    return grid, coefs, cx(n_steps, 3, paths), cx(paths)


@pytest.mark.parametrize("case", ["random", "b_odd_is_c_odd", "zeros"])
@pytest.mark.parametrize("n_steps", [0, 1, 13])
def test_transpose_equals_the_step_by_step_transpose(case, n_steps):
    """adjoint_vacua and vacua give the step-by-step references' values
    to the last bit, signed zeros included: on walk data, with b(-1) =
    c(-1) (the odd spawn is an exact zero) and with exact and negative
    zeros in the table, sources and starts, under declared and zero cost
    weights."""
    if case == "zeros":
        grid, coefs, srcs, x0_amps = _zeroed_case(n_steps, 6, seed=n_steps)
    else:
        grid, coefs, srcs, x0_amps = _walk_case(n_steps, 6, seed=n_steps)
    if case == "b_odd_is_c_odd":
        coefs[:, 2, 1] = coefs[:, 1, 1]
    stay = _channel.Lanes(coefs, grid.dt).stay
    got = _channel.vacua(grid, stay, srcs, x0_amps)
    want = _step_vacua(grid, coefs, srcs, x0_amps)
    assert got.shape == want.shape == (n_steps + 1, 6)
    assert got.tobytes() == want.tobytes()
    for weights in ((0.6, 0.3, 0.4), (0.0, 0.0, 0.0), (-1.5, 0.0, 2.0)):
        for j, x0 in enumerate(x0_amps):
            ch = _transpose_channel(grid, coefs, x0, weights)
            drive = ch.cost.drive
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                got = _channel.adjoint_vacua(grid, ch, srcs[:, :, j])
                want = _step_adjoint_vacua(
                    grid, coefs, srcs[:, :, j], x0, drive
                )
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()


def test_linear_gram_names_the_first_non_finite_step_inside_a_chunk(
    chunk_budget
):
    """A growth of 1e300 at step 5 overflows |e0|^2 at step 6, which
    lies inside a chunk under every budget but 1; gram names step 6, as
    the step-by-step walk finds it."""
    grid = TimeGrid(1.0, 13)
    alpha = np.full(grid.n_steps, 0.1)
    alpha[5] = 1e300
    coefs = coefficient_table(
        grid, lambda k: (GradedScalarOp(alpha[k], 0.0),) + (
            GradedScalarOp(0.0, 0.0),) * 2
    )
    srcs = np.zeros((grid.n_steps, 3, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _step_gram(grid, coefs, srcs, [1.0], 1)
    bad = ~np.isfinite(want.reshape(grid.n_steps + 1, -1)).all(axis=1)
    assert int(np.argmax(bad)) == 6
    with pytest.raises(FloatingPointError, match="non-finite at step 6$"):
        _channel.gram(grid, _channel.Lanes(coefs, grid.dt), srcs, [1.0],
                      block=1)


def test_difference_solver_equals_subtracted_solves():
    """The difference recursion must reproduce x(u) - x(ubar) exactly,
    including for genuinely nonlinear drift."""
    grid = TimeGrid(1.0, 10)
    n = grid.n
    q = 0.3

    def D(k, x, u):
        return mul(x, x).scale(q) + x.scale(0.2) + u

    co = Coefficients(
        D=D,
        F=lambda k, x, u: x.scale(0.1),
        Dx=lambda k, x, u: SumOp(
            [LeftMulOp(x.scale(q)), ScalarOp(0.2)]
        ),
    )
    ubar = AdaptedProcess.constant_scalar(grid, 0.2)
    u = AdaptedProcess.constant_scalar(grid, -0.5)
    x0 = CliffordElement.scalar(n, 0.6)
    base = euler_forward(co, x0, ubar)
    bumped = euler_forward(co, x0, u)
    diff = euler_forward_difference(co, base, ubar, u)
    for k in range(grid.n_steps + 1):
        want = bumped[k] - base[k]
        assert norm2(diff[k] - want) < 1e-12 * (1.0 + norm2(want))


def test_difference_solver_linear_route_drops_base_path():
    grid = TimeGrid(1.0, 8)
    co = affine_coeffs(a=0.4, b=0.3, sigma_f=0.7)
    ubar = AdaptedProcess.constant_scalar(grid, 0.1)
    u = AdaptedProcess.constant_scalar(grid, 0.35)
    x0 = CliffordElement.scalar(grid.n, 2.0)
    base = euler_forward(co, x0, ubar)
    bumped = euler_forward(co, x0, u)
    diff = euler_forward_difference(co, base, ubar, u)
    for k in range(grid.n_steps + 1):
        assert norm2(diff[k] - (bumped[k] - base[k])) < 1e-13


# -- spikes ---------------------------------------------------------------

def test_spike_replaces_exactly_the_window():
    grid = TimeGrid(1.0, 8)
    ubar = AdaptedProcess.constant_scalar(grid, 1.0)
    alt = AdaptedProcess.constant_scalar(grid, -1.0)
    out = spike(ubar, alt, eps=0.25, offset=0.375)
    k0, k1 = spike_window(grid, 0.25, 0.375)
    assert (k0, k1) == (3, 5)
    for k in range(grid.n_steps):
        want = -1.0 if k0 <= k < k1 else 1.0
        assert vacuum(out[k]) == want


def test_spike_window_rounding_and_clipping():
    grid = TimeGrid(1.0, 8)
    assert spike_window(grid, grid.dt) == (0, 1)
    assert spike_window(grid, 0.3) == (0, 2)  # rounds 2.4 steps to 2
    assert spike_window(grid, 0.5, offset=0.875) == (7, 8)  # clipped at T
    assert spike_window(grid, 1.0) == (0, 8)


def test_spike_window_starting_at_or_past_the_horizon_raises():
    """Or before 0: every consumer of the window refuses it, none clamps
    its start."""
    problem, grid = build("lq_scalar", n_steps=16)
    ubar = AdaptedProcess.constant_scalar(grid, 1.0)
    alt = AdaptedProcess.constant_scalar(grid, -1.0)
    eps_list = [0.25, 0.125]
    for offset, why in [(1.0, "at or past T"), (5.0, "at or past T"),
                        (-0.2, "starts before 0")]:
        for call in (
            lambda: spike_window(grid, 0.25, offset),
            lambda: spike(ubar, alt, eps=0.25, offset=offset),
            lambda: variation_ladder(problem, ubar, alt, eps_list, offset),
            lambda: cost_expansion_check(problem, ubar, alt, eps_list,
                                         offset),
        ):
            with pytest.raises(ValueError, match=why):
                call()


def test_spike_validation():
    grid = TimeGrid(1.0, 8)
    ubar = AdaptedProcess.constant_scalar(grid, 1.0)
    alt = AdaptedProcess.constant_scalar(grid, -1.0)
    with pytest.raises(ValueError, match="below one grid step"):
        spike(ubar, alt, eps=grid.dt / 2)
    with pytest.raises(ValueError, match="in \\(0, T\\]"):
        spike(ubar, alt, eps=0.0)
    with pytest.raises(ValueError, match="in \\(0, T\\]"):
        spike(ubar, alt, eps=1.5)
    # a full-step spike is fine even with rounding slack
    assert spike(ubar, alt, eps=grid.dt * (1 - 1e-12)) is not None


# -- derivative cross-checks ----------------------------------------------

def test_numeric_frechet_matches_declared_derivatives():
    grid = TimeGrid(1.0, 6)
    n = grid.n
    co = affine_coeffs(a=0.3, b=-0.2, c=0.15, declare_linear=False)
    rng = np.random.default_rng(61)
    x = random_element(rng, n, n_terms=5)
    u = CliffordElement.scalar(n, 0.4)
    v = random_element(rng, n, n_terms=4)
    for which, op_rule in (("D", co.Dx), ("F", co.Fx), ("G", co.Gx)):
        got = numeric_frechet(co, which, 2, x, u, v)
        want = op_rule(2, x, u).apply(v)
        assert norm2(got - want) < 1e-6 * (1.0 + norm2(want))


def test_numeric_second_frechet_sees_quadratic_drift():
    n = 5
    q = 0.45

    def D(k, x, u):
        return mul(x, x).scale(q)

    co = Coefficients(
        D=D,
        Dxx=lambda k, x, u: BilinearMap(
            fn=lambda v, w: (mul(v, w) + mul(w, v)).scale(q)
        ),
    )
    rng = np.random.default_rng(62)
    x = random_element(rng, n, n_terms=4)
    v = random_element(rng, n, n_terms=3)
    w = random_element(rng, n, n_terms=3)
    u = CliffordElement.zero(n)
    got = numeric_second_frechet(co, "D", 0, x, u, v, w)
    want = co.Dxx(0, x, u)(v, w)
    assert norm2(got - want) < 1e-5 * (1.0 + norm2(want))
    # first derivative of the pure quadratic is the anticommutator with x
    got1 = numeric_frechet(co, "D", 0, x, u, v)
    want1 = (mul(x, v) + mul(v, x)).scale(q)
    assert norm2(got1 - want1) < 1e-5 * (1.0 + norm2(want1))


def test_rule_lookup_rejects_unknown_slot():
    with pytest.raises(ValueError, match="one of"):
        Coefficients().rule("H")


# -- guards and diagnostics -----------------------------------------------

def test_non_adapted_control_and_bad_start_rejected():
    grid = TimeGrid(1.0, 4)
    co = affine_coeffs(a=0.1)
    future = [CliffordElement.generator(4, 3)] * 4
    bad_u = AdaptedProcess(grid, future, check=False)
    with pytest.raises(ValueError, match="not adapted at step 0"):
        euler_forward(co, CliffordElement.identity(4), bad_u)
    with pytest.raises(ValueError, match="scalar multiple"):
        euler_forward(co, CliffordElement.generator(4, 0), zero_control(grid))
    with pytest.raises(ValueError, match="sizes differ"):
        euler_forward(co, CliffordElement.identity(5), zero_control(grid))


def test_non_adapted_coefficient_output_detected():
    grid = TimeGrid(1.0, 4)
    n = grid.n

    def D(k, x, u):
        return CliffordElement.generator(n, 3)  # future noise in the drift

    co = Coefficients(D=D)
    with pytest.raises(ValueError, match="non-adapted state at step 1"):
        euler_forward(co, CliffordElement.identity(n), zero_control(grid))
    out = euler_forward(
        co, CliffordElement.identity(n), zero_control(grid), validate=False
    )
    assert out.first_non_adapted() is not None


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflow_raises_floating_point_error():
    grid = TimeGrid(1.0, 6)
    co = Coefficients(D=lambda k, x, u: x.scale(1e200))
    with pytest.raises(FloatingPointError, match="non-finite"):
        euler_forward(co, CliffordElement.identity(grid.n), zero_control(grid))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_difference_solver_raises_on_overflow():
    grid = TimeGrid(1.0, 6)
    co = Coefficients(D=lambda k, x, u: x.scale(1e200), F=lambda k, x, u: u)
    ubar = zero_control(grid)
    u = AdaptedProcess.constant_scalar(grid, 1.0)
    base = euler_forward(co, CliffordElement.zero(grid.n), ubar)
    with pytest.raises(FloatingPointError, match="non-finite"):
        euler_forward_difference(co, base, ubar, u)


def test_prune_accounting_and_accuracy():
    grid = TimeGrid(1.0, 16)
    co = affine_coeffs(a=0.3, b=0.4, declare_linear=False)
    rng = np.random.default_rng(63)
    u = AdaptedProcess(
        grid,
        [
            random_element(rng, grid.n, n_terms=2, max_generator=k)
            for k in range(grid.n_steps)
        ],
    )
    x0 = CliffordElement.identity(grid.n)
    exact = euler_forward(co, x0, u)
    assert exact.diagnostics["pruned_mass"] == 0.0
    lossy = euler_forward(co, x0, u, prune=1e-6)
    assert 0.0 < lossy.diagnostics["pruned_mass"] < 1e-3
    assert norm2(lossy.terminal - exact.terminal) < 1e-4
    assert lossy.terminal.n_terms <= exact.terminal.n_terms


def test_apriori_ratio_and_argmax():
    grid = TimeGrid(1.0, 8)
    x0 = CliffordElement.scalar(grid.n, 2.0)
    path = euler_forward(affine_coeffs(a=0.5), x0, zero_control(grid))
    rep = apriori_check(path, x0)
    assert rep["argmax_step"] == grid.n_steps
    assert abs(rep["sup_norm_sq"] - norm2(path.terminal) ** 2) < 1e-12
    assert abs(rep["ratio"] - rep["sup_norm_sq"] / 5.0) < 1e-12
    bad = StatePath(
        grid,
        [CliffordElement.scalar(grid.n, np.inf)] * (grid.n_steps + 1),
        check=False,
    )
    with pytest.raises(FloatingPointError):
        apriori_check(bad, x0)


def test_control_space_basics():
    n = 4
    space = ControlSpace([CliffordElement.identity(n)], value_grid=[-1.0, 1.0])
    grid = TimeGrid(1.0, 4)
    u = space.constant_control(grid, [0.5])
    assert all(vacuum(v) == 0.5 for v in u)
    assert vacuum(space.element([0.25])) == 0.25
    with pytest.raises(ValueError, match="one weight per basis"):
        space.constant_control(grid, [0.5, 0.5])


def test_control_space_element_needs_one_weight_per_basis_element():
    space = ControlSpace([CliffordElement.identity(4)])
    with pytest.raises(ValueError, match="one weight per basis"):
        space.element([0.1, 0.2, 0.3])


def test_state_path_length_guard():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match="n_steps \\+ 1"):
        StatePath(grid, [CliffordElement.zero(4)] * 4)


def test_frame_growth_past_the_row_limit_is_refused(monkeypatch):
    monkeypatch.setattr(sp, "MAX_ROWS", 16)

    def solve(n_steps):
        # B = 0.4 I doubles the frame every step: 1, 2, 4, .. rows
        zero = CliffordElement.zero(n_steps)
        return linear_euler_forward(
            TimeGrid(1.0, n_steps),
            lambda k: (ScalarOp(0.0), ScalarOp(0.4), ScalarOp(0.0)),
            lambda k: (zero, zero, zero),
            CliffordElement.identity(n_steps),
        )

    assert solve(4).terminal.n_terms == 16
    with pytest.raises(ValueError, match=r"step 4 refused: .* 32 rows"):
        solve(8)
