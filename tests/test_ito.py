"""Discrete Brownian motion, Ito integrals, martingale representation."""

import hashlib

import numpy as np
import pytest

from fermisde.algebra import (
    CliffordElement,
    MatrixRep,
    _block_stacks,
    _Stack,
    cond_expect,
    grading,
    jw_rep,
    lp_norm,
    mul,
    norm2,
    pairing,
    random_element,
    vacuum,
)
from fermisde.ito import (
    MAX_GRID_STEPS,
    AdaptedProcess,
    MartingaleSeq,
    TimeGrid,
    _bg_batch,
    _commutation_worst,
    _integral,
    _integrals,
    _isometry_batch,
    _paths,
    _representation_batch,
    _square_functions,
    _steps,
    bg_ratio_sweep,
    bg_ratios,
    brownian,
    check_martingale,
    commutation_check,
    dW,
    left_integral,
    mrep_extract,
    right_integral,
    right_integral_path,
)
from fermisde.cli import (
    _BRANCH,
    P_CHOICES,
    _random_batch,
    _rng,
    parse_problem,
    run,
)


def random_integrand(rng, grid, terms=4):
    vals = []
    for k in range(grid.n_steps):
        vals.append(random_element(rng, grid.n, n_terms=terms, max_generator=k))
    return AdaptedProcess(grid, vals)


# -- grid and process containers ------------------------------------------


def test_grid_geometry():
    g = TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert g.n == 8
    t = g.times()
    assert t.shape == (9,)
    assert t[0] == 0.0 and t[-1] == 2.0
    assert np.allclose(np.diff(t), g.dt)


def test_grid_validation_and_immutability():
    with pytest.raises(ValueError, match="positive"):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError, match="at least one"):
        TimeGrid(1.0, 0)
    g = TimeGrid(1.0, 4)
    with pytest.raises(AttributeError):
        g.T = 2.0


def test_grid_refuses_more_steps_than_the_limit():
    assert TimeGrid(1.0, MAX_GRID_STEPS).n == MAX_GRID_STEPS
    with pytest.raises(ValueError, match=f"> {MAX_GRID_STEPS}"):
        TimeGrid(1.0, MAX_GRID_STEPS + 1)


def test_process_length_and_size_validation():
    g = TimeGrid(1.0, 4)
    ok = AdaptedProcess.constant_scalar(g, 1.0)
    assert len(ok) == 4
    with_t = AdaptedProcess.constant_scalar(g, 1.0, include_terminal=True)
    assert len(with_t) == 5
    with pytest.raises(ValueError, match="length 3"):
        AdaptedProcess(g, [CliffordElement.identity(4)] * 3)
    with pytest.raises(ValueError, match="step 0 has n=3"):
        AdaptedProcess(g, [CliffordElement.identity(3)] * 4)


def test_integrals_and_checks_refuse_values_of_another_size():
    """A value on more generators than the grid has would give an
    integral outside the grid's own algebra (mask 33 at n=4 here); every
    function that takes raw values refuses it as AdaptedProcess does."""
    g = TimeGrid(1.0, 4)
    values = [CliffordElement.generator(6, 5)] + [CliffordElement.zero(6)] * 3
    calls = (
        right_integral,
        left_integral,
        right_integral_path,
        lambda grid, v: bg_ratio_sweep(grid, v, (2.0,)),
        commutation_check,
    )
    for call in calls:
        with pytest.raises(ValueError, match="step 0 has n=6, grid needs 4"):
            call(g, values)
    # commutation_check keeps taking a process shorter than the grid
    one = CliffordElement.identity(4)
    assert commutation_check(g, [one, one]) == 0.0
    with pytest.raises(ValueError, match="step 1 has n=3, grid needs 4"):
        commutation_check(g, [one, CliffordElement.identity(3)])


def test_adaptedness_is_enforced():
    g = TimeGrid(1.0, 3)
    bad = [
        CliffordElement.identity(3),
        CliffordElement.generator(3, 2),  # uses a future generator
        CliffordElement.identity(3),
    ]
    with pytest.raises(ValueError, match="step 1 is not adapted"):
        AdaptedProcess(g, bad)
    p = AdaptedProcess(g, bad, check=False)
    assert p.first_non_adapted() == 1
    assert p.first_non_adapted(tol=10.0) is None


def test_process_iteration_and_indexing():
    g = TimeGrid(1.0, 3)
    p = AdaptedProcess.constant_scalar(g, 2.0)
    assert all(vacuum(v) == 2.0 for v in p)
    assert p[1].terms() == {0: 2.0 + 0j}


# -- increments and Brownian path -----------------------------------------


def test_increment_value_and_bounds():
    g = TimeGrid(1.0, 4)
    w0 = dW(g, 0)
    assert w0.terms() == {1: complex(np.sqrt(0.25))}
    with pytest.raises(ValueError, match="outside"):
        dW(g, 4)
    with pytest.raises(ValueError, match="outside"):
        dW(g, -1)


def test_increment_square_and_anticommutation():
    g = TimeGrid(1.5, 6)
    eye = CliffordElement.identity(g.n)
    for k in range(g.n_steps):
        got = mul(dW(g, k), dW(g, k))
        assert norm2(got - eye.scale(g.dt)) < 1e-15
    for j in range(g.n_steps):
        for k in range(j):
            anti = mul(dW(g, j), dW(g, k)) + mul(dW(g, k), dW(g, j))
            assert norm2(anti) == 0.0


def test_brownian_square_is_time_exactly():
    g = TimeGrid(2.0, 20)
    eye = CliffordElement.identity(g.n)
    times = g.times()
    for k in range(g.n_steps + 1):
        w = brownian(g, k)
        assert norm2(mul(w, w) - eye.scale(times[k])) < 1e-13
    with pytest.raises(ValueError, match="outside"):
        brownian(g, 21)


@pytest.mark.parametrize("n", [1, 5, 14, 64, 65, 130])
def test_brownian_equals_the_sum_of_its_increments(n):
    """W_k, built from its k generator rows at once, equals the sum of
    the increments sqrt(dt) g_j, j < k, bit for bit."""
    for T in (1.0, 0.3):
        g = TimeGrid(T, n)
        total = CliffordElement.zero(n)
        for k in range(n + 1):
            w = brownian(g, k)
            assert w.masks.shape == total.masks.shape
            assert w.masks.tobytes() == total.masks.tobytes()
            assert w.amps.tobytes() == total.amps.tobytes()
            if k < n:
                total = total + CliffordElement.generator(n, k).scale(
                    np.sqrt(g.dt)
                )


def test_brownian_path_is_a_martingale():
    g = TimeGrid(1.0, 10)
    seq = MartingaleSeq(g, [brownian(g, k) for k in range(11)])
    assert check_martingale(seq) == 0.0


# -- integrals ------------------------------------------------------------


def test_integral_cross_terms_are_orthogonal():
    """Contributions from distinct steps are orthogonal in the pairing,
    which is what makes the isometry exact."""
    g = TimeGrid(1.0, 6)
    rng = np.random.default_rng(21)
    y = random_integrand(rng, g)
    for j in range(g.n_steps):
        for k in range(j):
            tj = y[j].mul_generator(j, "right")
            tk = y[k].mul_generator(k, "right")
            assert abs(pairing(tj, tk)) < 1e-14


@pytest.mark.parametrize("side", ["right", "left"])
def test_integral_isometry_is_exact(side):
    g = TimeGrid(1.0, 12)
    rng = np.random.default_rng(22)
    integral = right_integral if side == "right" else left_integral
    for _ in range(10):
        y = random_integrand(rng, g, terms=5)
        total = integral(g, y)
        want = g.dt * sum(norm2(v) ** 2 for v in y)
        assert abs(norm2(total) ** 2 - want) < 1e-12 * (1.0 + want)


def test_integral_linearity():
    g = TimeGrid(1.0, 5)
    rng = np.random.default_rng(23)
    a = random_integrand(rng, g)
    b = random_integrand(rng, g)
    summed = AdaptedProcess(
        g, [x + y.scale(2.0) for x, y in zip(a, b)], check=False
    )
    got = right_integral(g, summed)
    want = right_integral(g, a) + right_integral(g, b).scale(2.0)
    assert norm2(got - want) < 1e-12


def test_integral_partial_sums_are_martingales():
    g = TimeGrid(1.0, 8)
    rng = np.random.default_rng(24)
    y = random_integrand(rng, g)
    partial = [CliffordElement.zero(g.n)]
    for k in range(g.n_steps):
        step = y[k].mul_generator(k, "right").scale(np.sqrt(g.dt))
        partial.append(partial[-1] + step)
    seq = MartingaleSeq(g, partial)
    assert check_martingale(seq) < 1e-15
    assert norm2(partial[-1] - right_integral(g, y)) < 1e-13


def test_short_integrand_rejected():
    g = TimeGrid(1.0, 4)
    y = [CliffordElement.identity(4)] * 3
    with pytest.raises(ValueError, match="one value per step"):
        right_integral(g, y)


# -- martingale representation --------------------------------------------


def make_martingale(rng, grid, start=0.0):
    y = random_integrand(rng, grid, terms=4)
    vals = [CliffordElement.scalar(grid.n, start)]
    for k in range(grid.n_steps):
        step = y[k].mul_generator(k, "right").scale(np.sqrt(grid.dt))
        vals.append(vals[-1] + step)
    return MartingaleSeq(grid, vals), y


def test_mrep_reconstructs_with_zero_residual():
    g = TimeGrid(1.0, 10)
    rng = np.random.default_rng(30)
    for trial in range(6):
        seq, y = make_martingale(rng, g, start=float(trial) - 2.0)
        got = mrep_extract(g, seq)
        assert got.first_non_adapted(tol=1e-14) is None
        recon = right_integral(g, got)
        assert norm2(recon - (seq[-1] - seq[0])) < 1e-12
        for k in range(g.n_steps):
            assert norm2(got[k] - y[k]) < 1e-12


def test_mrep_rejects_bad_inputs():
    g = TimeGrid(1.0, 4)
    rng = np.random.default_rng(31)
    seq, _ = make_martingale(rng, g)
    drift = [v + CliffordElement.scalar(g.n, 0.1 * k) for k, v in enumerate(seq)]
    with pytest.raises(ValueError, match="not a martingale"):
        mrep_extract(g, AdaptedProcess(g, drift, check=False))
    # a shifted start breaks the martingale property at step 0 before the
    # scalar-start guard can fire, and is reported as such
    shifted = [seq[0] + CliffordElement.scalar(g.n, 1.0)] + list(seq)[1:]
    with pytest.raises(ValueError, match="not a martingale"):
        mrep_extract(g, AdaptedProcess(g, shifted, check=False))


def test_martingale_seq_rejects_gap_and_short_length():
    g = TimeGrid(1.0, 3)
    vals = [CliffordElement.scalar(3, float(k)) for k in range(4)]
    with pytest.raises(ValueError, match="martingale property fails"):
        MartingaleSeq(g, vals)
    with pytest.raises(ValueError, match="terminal"):
        MartingaleSeq(g, [CliffordElement.zero(3)] * 3)


# -- square function ratios -----------------------------------------------


def test_bg_ratio_is_one_at_p_two():
    g = TimeGrid(1.0, 8)
    rng = np.random.default_rng(40)
    y = random_integrand(rng, g, terms=3)
    out = bg_ratios(g, y, p=2.0)
    assert not out["flagged_zero"]
    for side in ("right", "left"):
        assert abs(out[side]["ratio"] - 1.0) < 1e-10
        assert abs(out[side]["inverse_ratio"] - 1.0) < 1e-10


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
def test_bg_ratios_are_finite_and_positive(p):
    g = TimeGrid(1.0, 6)
    rng = np.random.default_rng(41)
    y = random_integrand(rng, g, terms=3)
    out = bg_ratios(g, y, p=p)
    for side in ("right", "left"):
        r = out[side]["ratio"]
        assert r is not None and r > 0.0
        assert abs(r * out[side]["inverse_ratio"] - 1.0) < 1e-12


def test_bg_zero_integrand_is_flagged_not_divided():
    g = TimeGrid(1.0, 4)
    y = AdaptedProcess.constant_scalar(g, 0.0)
    out = bg_ratios(g, y, p=2.0)
    assert out["flagged_zero"]
    assert out["right"]["ratio"] is None


def test_bg_ratios_refuse_the_matrix_route_before_any_product(monkeypatch):
    import fermisde._sparse as sp

    def no_products(*args, **kwargs):
        raise AssertionError("a product ran before the size guard")

    monkeypatch.setattr(sp, "mul_full", no_products)
    monkeypatch.setattr(_Stack, "products", no_products)
    g = TimeGrid(1.0, 15)
    y = AdaptedProcess.constant_scalar(g, 1.0)
    with pytest.raises(ValueError, match="block spectra refused"):
        bg_ratios(g, y, p=3.0)


def test_bg_ratio_sweep_matches_one_call_per_p():
    g = TimeGrid(1.0, 6)
    y = random_integrand(np.random.default_rng(44), g, terms=3)
    swept = bg_ratio_sweep(g, y, P_CHOICES)
    assert len(swept) == len(P_CHOICES)
    for p, got in zip(P_CHOICES, swept):
        assert got == bg_ratios(g, y, p=p)
    with pytest.raises(ValueError, match="at least 1"):
        bg_ratio_sweep(g, y, (2.0, 0.5))


def test_bg_ratio_sweep_stacks_its_integrand_once(monkeypatch):
    """Both sides' square functions and integrals read one stack."""
    calls = []
    of = _Stack.of

    def counted(n, values):
        calls.append(len(values))
        return of(n, values)

    g = TimeGrid(1.0, 6)
    y = random_integrand(np.random.default_rng(45), g, terms=3)
    monkeypatch.setattr(_Stack, "of", counted)
    bg_ratio_sweep(g, y, P_CHOICES)
    assert calls == [6]


@pytest.mark.parametrize("n, seed", [(14, 0), (5, 1), (9, 2)])
def test_bg_constants_takes_one_svd_and_eigvalsh_per_block_shape(
    monkeypatch, tmp_path, n, seed
):
    """bg-constants takes one svd per block shape of its 5 right
    integrals and one eigvalsh per block shape of its 10 square
    functions, each over the matrices of every sample of that shape,
    and builds no Jordan-Wigner image."""
    shapes = {"svd": [], "eigvalsh": []}
    for name in shapes:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            shapes[_name].append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def no_matrix(*args, **kwargs):
        raise AssertionError("bg-constants built a Jordan-Wigner image")

    monkeypatch.setattr(MatrixRep, "matrix", no_matrix)
    spec = parse_problem({"grid": {"n_steps": n}})
    assert run("bg-constants", spec, str(tmp_path), seed=seed)["pass"]
    g = TimeGrid(spec.T, n)
    batch = _random_batch(_rng(seed, _BRANCH["bg-constants"]), g, 5, 4)
    want = {"svd": {}, "eigvalsh": {}}
    for s in range(5):
        y = AdaptedProcess(
            g, batch.values(s * (n + 1), s * (n + 1) + n), check=False
        )
        parts = [("svd", right_integral(g, y))]
        for left in (False, True):
            square = CliffordElement.zero(n)
            for v in y:
                term = v * v.adjoint() if left else v.adjoint() * v
                square = square + term.scale(g.dt)
            parts.append(("eigvalsh", square))
        for name, x in parts:
            block = _block_stacks([x])[0]
            kind = block.shape[1:]
            want[name][kind] = want[name].get(kind, 0) + block.shape[0]
    for name, calls in shapes.items():
        kinds = [shape[1:] for shape in calls]
        assert len(kinds) == len(set(kinds))
        assert {shape[1:]: shape[0] for shape in calls} == want[name]


def per_sample_bg(grid, y, ps):
    """bg_ratio_sweep of one integrand the way one call per sample took
    it: the element integral and element folds of the square functions,
    the integral's lp_norm, two eigvalsh calls of the squares' own
    blocks, and one mean per norm."""
    integral = right_integral(grid, y)
    i_norms = [lp_norm(integral, p) for p in ps]
    out = [{"p": p, "flagged_zero": False} for p in ps]
    for side in ("right", "left"):
        square = CliffordElement.zero(grid.n)
        for v in y:
            term = v * v.adjoint() if side == "left" else v.adjoint() * v
            square = square + term.scale(grid.dt)
        blocks = _block_stacks([square])[0]
        lam = np.clip(np.linalg.eigvalsh(blocks).ravel(), 0.0, None)
        for result, p, i_norm in zip(out, ps, i_norms):
            if p == np.inf:
                s_norm = float(np.sqrt(lam.max()))
            else:
                s_norm = float(np.mean(lam ** (p / 2.0)) ** (1.0 / p))
            entry = {"integral_norm": i_norm, "square_function_norm": s_norm}
            if s_norm == 0.0 or i_norm == 0.0:
                result["flagged_zero"] = True
                entry["ratio"] = None
                entry["inverse_ratio"] = None
            else:
                entry["ratio"] = i_norm / s_norm
                entry["inverse_ratio"] = s_norm / i_norm
            result[side] = entry
    return out


def float_bits(x):
    """A result with every float replaced by its bytes, signed zeros
    told apart."""
    if isinstance(x, float):
        return np.float64(x).tobytes()
    if isinstance(x, dict):
        return {k: float_bits(v) for k, v in x.items()}
    if isinstance(x, list):
        return [float_bits(v) for v in x]
    return x


@pytest.mark.parametrize("n", range(1, 15))
def test_bg_batch_equals_the_per_sample_route_bit_for_bit(n):
    """_bg_batch over a batch of samples, and bg_ratio_sweep on each
    sample alone, give the per-sample route's numbers bit for bit, for
    suite-sized draws, an integrand of many terms per step, a repeated
    sample and a zero one."""
    g = TimeGrid(0.8, n)
    for seed in range(3):
        rng = np.random.default_rng([80, n, seed])
        samples = [
            random_integrand(rng, g, terms=4),
            random_integrand(rng, g, terms=9),
            random_integrand(rng, g, terms=1),
        ]
        samples += [samples[0], AdaptedProcess.constant_scalar(g, 0.0)]
        got = _bg_batch(g, batch_of(g, samples), P_CHOICES)
        assert len(got) == len(samples)
        for y, sweep in zip(samples, got):
            want = float_bits(per_sample_bg(g, y, P_CHOICES))
            assert float_bits(sweep) == want
            assert float_bits(bg_ratio_sweep(g, y, P_CHOICES)) == want
    batch = _random_batch(np.random.default_rng(n), g, 5, 4)
    for s, sweep in enumerate(_bg_batch(g, batch, (2.0, 3.0, 1.5))):
        y = AdaptedProcess(
            g, batch.values(s * (n + 1), s * (n + 1) + n), check=False
        )
        assert float_bits(sweep) == float_bits(
            per_sample_bg(g, y, (2.0, 3.0, 1.5))
        )


def _jw_bg_reference(grid, y, p):
    """(integral norm, square function norm) per side from the dense
    Jordan-Wigner images, built term by term from element products."""
    rep = jw_rep(grid.n)
    out = {}
    for side, integral in (("right", right_integral(grid, y)),
                           ("left", left_integral(grid, y))):
        square = CliffordElement.zero(grid.n)
        for v in y:
            term = v * v.adjoint() if side == "left" else v.adjoint() * v
            square = square + term.scale(grid.dt)
        lam = np.clip(np.linalg.eigvalsh(rep.matrix(square)), 0.0, None)
        s = np.linalg.svd(rep.matrix(integral), compute_uv=False)
        if p == np.inf:
            out[side] = (s.max(), np.sqrt(lam.max()))
        else:
            out[side] = (
                np.mean(s**p) ** (1.0 / p),
                np.mean(lam ** (p / 2.0)) ** (1.0 / p),
            )
    return out


@pytest.mark.parametrize("n", range(1, 15))
def test_bg_block_spectra_match_the_jordan_wigner_images(n):
    """The block route's norms, both sides and every p, against SVDs and
    eigenvalues of the JW images; the left integral is -grading of the
    right one bit for bit, so it may share the right one's spectrum."""
    g = TimeGrid(0.8, n)
    for seed in range(3):
        y = random_integrand(np.random.default_rng([70, n, seed]), g)
        steps = _steps(g, y)
        left = _integral(g, steps, "left")
        right = -grading(_integral(g, steps, "right"))
        assert left.masks.tobytes() == right.masks.tobytes()
        assert left.amps.tobytes() == right.amps.tobytes()
        for p, got in zip(P_CHOICES, bg_ratio_sweep(g, y, P_CHOICES)):
            want = _jw_bg_reference(g, y, p)
            assert not got["flagged_zero"]
            for side in ("right", "left"):
                i_norm, s_norm = want[side]
                entry = got[side]
                assert entry["integral_norm"] == pytest.approx(
                    i_norm, rel=1e-12, abs=0.0
                )
                assert entry["square_function_norm"] == pytest.approx(
                    s_norm, rel=1e-12, abs=0.0
                )
    zero = AdaptedProcess.constant_scalar(g, 0.0)
    for got in bg_ratio_sweep(g, zero, P_CHOICES):
        assert got["flagged_zero"]
        for side in ("right", "left"):
            assert got[side]["integral_norm"] == 0.0
            assert got[side]["square_function_norm"] == 0.0
            assert got[side]["ratio"] is None
            assert got[side]["inverse_ratio"] is None


def test_bg_ratios_refuse_an_integrand_that_is_not_adapted():
    """The left integral is read off the right one, which holds only
    for adapted integrands."""
    g = TimeGrid(1.0, 4)
    values = [CliffordElement.scalar(4, 1.0)] * 4
    values[2] = CliffordElement.generator(4, 2)
    y = AdaptedProcess(g, values, check=False)
    with pytest.raises(ValueError, match="step 2 is not adapted"):
        bg_ratios(g, y, p=3.0)


@pytest.mark.parametrize("n", [1, 2, 6, 9, 14])
def test_square_function_equals_the_per_step_fold(n):
    """sum_k dt Y_k* Y_k and sum_k dt Y_k Y_k*, from one stacked product
    and one step-ordered sum, equal the fold of element products bit for
    bit, with empty steps and steps of many terms."""
    g = TimeGrid(0.7, n)
    rng = np.random.default_rng(60 + n)
    for terms in (1, 4, 12):
        values = [
            random_element(rng, n, terms, max_generator=k)
            for k in range(n)
        ]
        values[n // 2] = CliffordElement.zero(n)
        y = AdaptedProcess(g, values)
        for left in (False, True):
            want = CliffordElement.zero(n)
            for v in values:
                square = v * v.adjoint() if left else v.adjoint() * v
                want = want + square.scale(g.dt)
            got = _square_functions(g, _Stack.of(n, values), left)[0]
            assert got.masks.tobytes() == want.masks.tobytes()
            assert got.amps.tobytes() == want.amps.tobytes()


def test_stacked_products_equal_each_steps_product():
    """Each step of a.products(b) is a_k * b_k bit for bit, also when a
    step holds rows in only one of the two stacks."""
    n = 9
    rng = np.random.default_rng(62)
    a_values = [random_element(rng, n, 5) for _ in range(6)]
    b_values = [random_element(rng, n, 7) for _ in range(6)]
    a_values[1] = CliffordElement.zero(n)
    b_values[4] = CliffordElement.zero(n)
    got = _Stack.of(n, a_values).products(_Stack.of(n, b_values))
    for k, value in enumerate(got.values(0, 6)):
        want = a_values[k] * b_values[k]
        assert value.masks.tobytes() == want.masks.tobytes()
        assert value.amps.tobytes() == want.amps.tobytes()


def test_stacked_products_refuse_past_the_row_limit(monkeypatch):
    import fermisde._sparse as sp

    monkeypatch.setattr(sp, "MAX_ROWS", 40)
    five = CliffordElement.from_terms(4, {m: 1.0 + m for m in range(5)})
    a = _Stack.of(4, [five, five])
    with pytest.raises(ValueError, match="50 rows"):
        a.products(a)


def test_folds_add_each_mask_in_step_order():
    """Three steps of one mask add as ((v_0 + v_1) + v_2); np.add.reduceat,
    which sums uses, adds them as v_0 + (v_1 + v_2)."""
    n = 3
    values = [CliffordElement.scalar(n, v) for v in (1e16, 1.0, 1.0)]
    values.append(CliffordElement.from_terms(n, {5: 2.0}))
    stack = _Stack.of(n, values)
    assert stack.folds(len(values))[1].amps.tolist() == [1e16, 2.0]
    assert stack.sums().amps.tolist() == [1e16 + 2.0, 2.0]


def test_folds_restart_a_sum_that_cancels_to_zero():
    """1 + (-1) cancels to exactly 0, which the fold drops, so its third
    term enters alone and keeps the sign of its zero real part."""
    n = 2
    amps = (1.0, -1.0, complex(-0.0, 1.0))
    values = [CliffordElement.scalar(n, v) for v in amps]
    want = (values[0] + values[1]) + values[2]
    _, got = _Stack.of(n, values).folds(len(values))
    assert got.amps.tobytes() == want.amps.tobytes()
    assert np.signbit(got.amps[0].real)


def test_batch_folds_equal_each_samples_element_fold():
    """On a batch, running holds acc_1..acc_{count-1} of each sample at its
    steps and totals acc_count at the sample, each equal bit for bit to
    the element fold acc = acc + v_k of that sample alone. Sample 0 has a
    mask whose first term is at the last step and a sum that cancels to
    exactly 0 before a term with a -0.0 part; its last mask, 7, is sample
    1's first, so a group split that ignored the sample would merge them;
    sample 2 is empty; sample 3 adds 1e16 and 1.0 in an order-sensitive
    way."""
    grid = TimeGrid(1.0, 5)
    n, count, period = grid.n, grid.n_steps, grid.n_steps + 1

    def terms(*rows):
        """The step values of one sample from (step, mask, amp) rows."""
        values = [{} for _ in range(count)]
        for k, mask, amp in rows:
            values[k][mask] = amp
        return [CliffordElement.from_terms(n, v) for v in values]

    samples = [
        terms(
            (0, 1, 1.0), (1, 1, -1.0), (2, 1, complex(-0.0, 2.0)),
            (3, 1, 0.5), (4, 2, 3.0 - 1.0j), (0, 7, 0.25),
            (2, 7, complex(1.0, -0.0)), (4, 7, -1.0),
        ),
        terms((1, 7, 2.0), (3, 7, -2.0), (4, 7, complex(0.5, -0.0))),
        terms(),
        terms(
            (0, 0, 1e16), (1, 0, 1.0), (2, 0, 1.0), (3, 0, -1e16),
            (1, 3, 1.0 + 1.0j), (2, 3, -1.0 - 1.0j), (3, 3, 2.0),
            (4, 3, -0.5j), (2, 5, -0.0 + 1.0j),
        ),
    ]
    batch = batch_of(grid, samples)
    want_running, want_totals = [], []
    for values in samples:
        acc, partial = CliffordElement.zero(n), []
        for v in values:
            acc = acc + v
            partial.append(acc)
        # steps -1 and 0 hold no running sum
        want_running += [CliffordElement.zero(n)] * 2 + partial[:-1]
        want_totals.append(acc)

    running, totals = batch.folds(count)

    assert running.period == period and running.samples == len(samples)
    assert running.amps.size == sum(v.n_terms for v in want_running)
    got = running.canonical().values(-1, len(samples) * period - 1)
    for seg, (a, b) in enumerate(zip(got, want_running, strict=True), -1):
        assert a.masks.tobytes() == b.masks.tobytes(), seg
        assert a.amps.tobytes() == b.amps.tobytes(), seg
    for a, b in zip(totals.values(0, len(samples)), want_totals, strict=True):
        assert a.masks.tobytes() == b.masks.tobytes()
        assert a.amps.tobytes() == b.amps.tobytes()
    # the cases are there: sample 0's acc_3 keeps the -0.0 of its mask 1,
    # and mask 7 ends sample 0's totals and starts sample 1's
    assert np.signbit(want_running[4].amps[0].real)
    assert totals.seg.tolist() == [0, 0, 0, 1, 3, 3]
    assert totals.masks[2:4, 0].tolist() == [7, 7]


# -- one-pass sums against the step-by-step fold --------------------------


def folded(grid, terms):
    out = CliffordElement.zero(grid.n)
    for term in terms:
        out = out + term
    return out


def fold_integral(grid, integrand, side):
    root = np.sqrt(grid.dt)
    return folded(grid, [
        integrand[k].mul_generator(k, side).scale(root)
        for k in range(grid.n_steps)
    ])


def same_bits(a, b):
    """Equal masks and amplitudes bit for bit, signed zeros included."""
    return (
        a.masks.tobytes() == b.masks.tobytes()
        and a.amps.tobytes() == b.amps.tobytes()
    )


@pytest.mark.parametrize("n", [1, 9, 70])
def test_one_pass_sums_equal_the_fold_bit_for_bit_when_adapted(n):
    g = TimeGrid(0.7, n)
    y = random_integrand(np.random.default_rng(n), g, terms=5)
    assert same_bits(right_integral(g, y), fold_integral(g, y, "right"))
    assert same_bits(left_integral(g, y), fold_integral(g, y, "left"))
    root = np.sqrt(g.dt)
    for k in (0, 1, n):
        steps = [CliffordElement.generator(n, j).scale(root) for j in range(k)]
        assert same_bits(brownian(g, k), folded(g, steps))


def test_one_pass_sums_agree_with_the_fold_when_not_adapted():
    g = TimeGrid(1.0, 6)
    rng = np.random.default_rng(45)
    y = AdaptedProcess(
        g, [random_element(rng, g.n, n_terms=20) for _ in range(g.n_steps)],
        check=False,
    )
    for side, integral in (("right", right_integral), ("left", left_integral)):
        got, ref = integral(g, y), fold_integral(g, y, side)
        assert norm2(got - ref) <= 1e-14 * norm2(ref)


# -- stacked passes against per-step references ----------------------------
#
# Each reference is the per-step loop that the stacked pass replaced; the
# two must agree bit for bit on adapted and non-adapted input alike.


def ref_check_martingale(seq):
    worst = 0.0
    for k in range(seq.grid.n_steps):
        worst = max(worst, norm2(cond_expect(seq[k + 1], k) - seq[k]))
    return worst


def ref_mrep(grid, seq):
    inv_root = 1.0 / np.sqrt(grid.dt)
    return [
        cond_expect((seq[k + 1] - seq[k]).mul_generator(k, "right"), k)
        .scale(inv_root)
        for k in range(grid.n_steps)
    ]


def ref_commutation(grid, process):
    root = np.sqrt(grid.dt)
    worst = 0.0
    for k in range(min(len(process), grid.n_steps)):
        a = process[k]
        ae, ao = a.even_part(), a.odd_part()
        for lhs in (
            ae.mul_generator(k, "left") - ae.mul_generator(k, "right"),
            ao.mul_generator(k, "left") + ao.mul_generator(k, "right"),
            a.mul_generator(k, "left") - a.grading().mul_generator(k, "right"),
        ):
            worst = max(worst, norm2(lhs) * root)
    return worst


def ref_first_non_adapted(process, tol):
    for k, v in enumerate(process):
        if norm2(v - cond_expect(v, k)) > tol:
            return k
    return None


def ref_path(grid, integrand, start):
    root = np.sqrt(grid.dt)
    seq = [start]
    for k in range(grid.n_steps):
        step = integrand[k].mul_generator(k, "right").scale(root)
        seq.append(seq[-1] + step)
    return seq


def sample_process(rng, grid, length, adapted, terms=4):
    """Random values with an empty one every fifth step and a repeat of
    the previous value every seventh, so that sums of neighbours cancel
    exactly."""
    vals = []
    for k in range(length):
        if k % 5 == 2:
            vals.append(CliffordElement.zero(grid.n))
        elif k % 7 == 6:
            vals.append(vals[-1])
        else:
            top = min(k, grid.n) if adapted else None
            vals.append(
                random_element(rng, grid.n, n_terms=terms, max_generator=top)
            )
    return AdaptedProcess(grid, vals, check=False)


CROSS_SIZES = [1, 9, 64, 70, 130]


@pytest.mark.parametrize("n", CROSS_SIZES)
def test_stacked_martingale_passes_equal_the_per_step_loops(n):
    g = TimeGrid(0.9, n)
    rng = np.random.default_rng(100 + n)
    y = sample_process(rng, g, n, adapted=True)
    for start in (None, CliffordElement.scalar(n, 0.75 - 0.5j)):
        got = right_integral_path(g, y, start)
        ref = ref_path(
            g, y, CliffordElement.zero(n) if start is None else start
        )
        assert len(got) == n + 1
        assert all(same_bits(a, b) for a, b in zip(got, ref))
        # the prefix layout route, on the path itself
        assert check_martingale(got) == ref_check_martingale(got) == 0.0
        rep = mrep_extract(g, got)
        assert all(same_bits(a, b) for a, b in zip(rep, ref_mrep(g, got)))
    seq = AdaptedProcess(g, ref, check=False)
    assert check_martingale(seq) == ref_check_martingale(seq)
    got = mrep_extract(g, seq)
    assert all(same_bits(a, b) for a, b in zip(got, ref_mrep(g, seq)))
    # sequences that are no martingales, past the guards of mrep_extract
    for adapted in (True, False):
        seq = sample_process(rng, g, n + 1, adapted=adapted)
        assert check_martingale(seq) == ref_check_martingale(seq)
        got = mrep_extract(g, seq, tol=np.inf)
        assert all(same_bits(a, b) for a, b in zip(got, ref_mrep(g, seq)))


def layout_path(n, seed=7):
    g = TimeGrid(1.1, n)
    y = sample_process(np.random.default_rng(seed), g, n, adapted=True)
    return g, right_integral_path(g, y, CliffordElement.scalar(n, 0.5))


def test_layout_route_stacks_nothing(monkeypatch):
    g, path = layout_path(70)
    want_gap = ref_check_martingale(path)
    want = ref_mrep(g, path)

    def refuse(cls, n, values):
        raise AssertionError("values were stacked")

    monkeypatch.setattr(_Stack, "of", classmethod(refuse))
    assert check_martingale(path) == want_gap
    got = mrep_extract(g, path)
    assert all(same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("replace", ["copy", "shift"])
def test_a_replaced_value_takes_the_stacked_route(replace):
    g, path = layout_path(70)
    k = 40
    value = path.values[k]
    if replace == "copy":
        path.values[k] = CliffordElement._wrap(
            g.n, value.masks.copy(), value.amps.copy()
        )
    else:
        path.values[k] = value + CliffordElement.generator(g.n, k + 3)
    assert check_martingale(path) == ref_check_martingale(path)
    got = mrep_extract(g, path, tol=np.inf)
    assert all(same_bits(a, b) for a, b in zip(got, ref_mrep(g, path)))
    if replace == "shift":
        assert check_martingale(path) > 0.5


def test_layout_route_sorts_rows_linear_in_the_terminal(monkeypatch):
    """At n=256 the two calls together pass at most twice M_n's rows
    through canonicalize; the stacked route passes a multiple that grows
    with n."""
    import fermisde._sparse as sp

    g, path = layout_path(256)
    original = sp.canonicalize
    rows = []

    def counted(masks, *args, **kwargs):
        rows.append(masks.shape[0])
        return original(masks, *args, **kwargs)

    monkeypatch.setattr(sp, "canonicalize", counted)
    assert check_martingale(path) == 0.0
    mrep_extract(g, path)
    assert sum(rows) <= 2 * path[-1].n_terms


@pytest.mark.parametrize("n", CROSS_SIZES)
@pytest.mark.parametrize("adapted", [True, False])
def test_stacked_process_checks_equal_the_per_step_loops(n, adapted):
    g = TimeGrid(1.3, n)
    rng = np.random.default_rng(200 + n)
    for length in (n, n + 1):
        proc = sample_process(rng, g, length, adapted=adapted, terms=6)
        assert commutation_check(g, proc) == ref_commutation(g, proc)
        for tol in (0.0, 1.0, 3.0):
            assert proc.first_non_adapted(tol) == ref_first_non_adapted(
                proc, tol
            )
    if adapted:
        assert proc.first_non_adapted() is None
        assert commutation_check(g, proc) == 0.0


def test_integral_path_refuses_non_adapted_integrands_by_step():
    g = TimeGrid(1.0, 70)
    vals = [CliffordElement.scalar(70, 1.0)] * 70
    vals[66] = CliffordElement.generator(70, 66)
    with pytest.raises(ValueError, match="step 66 is not adapted"):
        right_integral_path(g, vals)
    vals[66] = CliffordElement.generator(70, 69)
    vals[3] = CliffordElement.generator(70, 3) + 1.0
    with pytest.raises(ValueError, match="step 3 is not adapted"):
        right_integral_path(g, vals)
    with pytest.raises(ValueError, match="one value per step"):
        right_integral_path(g, vals[:69])


def test_integral_path_refuses_a_start_that_is_not_scalar():
    g = TimeGrid(1.0, 4)
    y = AdaptedProcess.constant_scalar(g, 1.0)
    for start in (
        CliffordElement.generator(4, 0),
        CliffordElement.identity(4) + CliffordElement.generator(4, 3),
    ):
        with pytest.raises(ValueError, match="step 0 is not a multiple"):
            right_integral_path(g, y, start)
    with pytest.raises(ValueError, match="start has n=3"):
        right_integral_path(g, y, CliffordElement.identity(3))
    path = right_integral_path(g, y, CliffordElement.scalar(4, 2.0))
    assert isinstance(path, MartingaleSeq)
    assert check_martingale(path) == 0.0
    assert path[0].terms() == {0: 2.0 + 0j}


def test_ito_suite_sorts_do_not_grow_with_the_grid(monkeypatch, tmp_path):
    """ito-suite makes a fixed number of canonicalize calls, whatever the
    number of steps, and fewer than the 25 samples of one section: each
    section sorts its samples together, not one by one."""
    import fermisde._sparse as sp

    original = sp.canonicalize
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sp, "canonicalize", counted)
    counts = []
    for n in (16, 64):
        # the shared zero of each size is built, and sorted, only once
        CliffordElement.zero(n)
        calls.clear()
        spec = parse_problem({"grid": {"n_steps": n}})
        assert run("ito-suite", spec, str(tmp_path / str(n)), seed=0)["pass"]
        counts.append(len(calls))
    assert counts[0] == counts[1] < 25


def test_ito_suite_draws_hold_the_rows_and_one_run():
    """One ito-suite section at 256 steps draws 25 samples of 6 terms a
    step: 38400 rows of four mask words, 1.8 MB with their amplitudes.
    The draw packs one bounded run at a time, so its traced peak, the
    sort of the stack included, stays below 8 MB; every uniform drawn at
    once with its bit arrays would hold about 60 MB."""
    import tracemalloc

    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        _random_batch(rng, TimeGrid(1.0, 256), 25, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# -- a batch of processes against each process on its own -----------------


def batch_of(grid, processes):
    """One canonical stack of several processes on grid, one per sample."""
    period = grid.n_steps + 1
    parts = [_Stack.of(grid.n, list(p)) for p in processes]
    return _Stack(
        grid.n,
        np.concatenate([p.seg + s * period for s, p in enumerate(parts)]),
        np.concatenate([p.masks for p in parts]),
        np.concatenate([p.amps for p in parts]),
        period,
        len(parts),
    )


def suite_samples(n, seed):
    """Four adapted processes on a grid of n steps. Step 4 of sample 1
    has 12 rows, so its norm is no running sum (np.add.reduceat rounds
    one otherwise); sample 2 repeats sample 0, and sample 3 is zero at
    every step."""
    g = TimeGrid(0.8, n)
    rng = np.random.default_rng(seed)
    a = sample_process(rng, g, n, adapted=True, terms=6)
    b = sample_process(rng, g, n, adapted=True, terms=3)
    b.values[4] = random_element(rng, n, n_terms=40, max_generator=4)
    assert b.values[4].n_terms >= 8
    zero = AdaptedProcess.constant_scalar(g, 0.0)
    return g, [a, b, a, zero]


@pytest.mark.parametrize("n", [5, 9, 70])
def test_batched_helpers_equal_each_sample_alone(n):
    g, samples = suite_samples(n, 300 + n)
    root = np.sqrt(g.dt)
    batch = batch_of(g, samples)
    count = len(samples)
    # integrals and paths, sample by sample
    for side, integral in (("right", right_integral), ("left", left_integral)):
        got = _integrals(batch, side, root).values(0, count)
        for s, y in enumerate(samples):
            assert same_bits(got[s], integral(g, y))
    path = _paths(batch, root)
    for s, y in enumerate(samples):
        lo = s * (n + 1)
        steps = path.values(lo, lo + n)
        want = right_integral_path(g, y)
        for k in range(n):
            assert same_bits(steps[k], want[k + 1] - want[k])
    # per-step norms, and the three suite sections
    squares = batch.step_squares(n)
    for s, y in enumerate(samples):
        assert squares[s].tolist() == [v.norm2_sq() for v in y]
    isos = _isometry_batch(g, batch)
    starts = np.array([0.75, -1.5, 0.0, 2.0])
    reps = _representation_batch(g, batch, starts)
    comms = _commutation_worst(g, batch)
    for s, y in enumerate(samples):
        total = sum(g.dt * v.norm2_sq() for v in y)
        iso = abs(right_integral(g, y).norm2_sq() - total) / (1.0 + total)
        assert isos[s] == iso
        assert check_martingale(right_integral_path(g, y)) == 0.0
        start = CliffordElement.scalar(g.n, starts[s])
        m = right_integral_path(g, y, start)
        target = m[n] - m[0]
        recon = right_integral(g, mrep_extract(g, m))
        assert reps[s] == norm2(recon - target) / (1.0 + norm2(target))
        assert comms[s] == commutation_check(g, y)
    assert isos[0] == isos[2] and reps[3] == comms[3] == 0.0


def test_batched_helpers_refuse_a_late_sample_at_its_own_step():
    g, samples = suite_samples(9, 1)
    samples[2].values[6] = CliffordElement.generator(g.n, 7).scale(0.5)
    with pytest.raises(ValueError) as alone:
        right_integral_path(g, samples[2])
    assert "integrand value at step 6 is not adapted" in str(alone.value)
    batch = batch_of(g, samples)
    for check in (
        lambda: _isometry_batch(g, batch),
        lambda: _representation_batch(g, batch, np.ones(4)),
    ):
        with pytest.raises(ValueError) as batched:
            check()
        assert str(batched.value) == str(alone.value)


def test_batched_checks_refuse_a_path_that_leaves_the_layout():
    g, samples = suite_samples(9, 2)
    samples[1].values[3] = CliffordElement.scalar(g.n, np.nan)
    with pytest.raises(ValueError, match="path of sample 1 leaves"):
        _isometry_batch(g, batch_of(g, samples))


def test_batched_checks_refuse_a_stack_that_does_not_fit():
    g, samples = suite_samples(9, 3)
    batch = batch_of(g, samples)
    with pytest.raises(ValueError, match="period 10 does not fit"):
        _commutation_worst(TimeGrid(0.8, 8), batch)
    with pytest.raises(ValueError, match="3 starts for a batch of 4"):
        _representation_batch(g, batch, np.ones(3))


def test_a_batch_stack_needs_its_sample_count():
    """Read as one sample, this four-sample batch gave _isometry_batch
    one residual where it holds four."""
    g, samples = suite_samples(9, 3)
    batch = batch_of(g, samples)
    with pytest.raises(ValueError, match="batch stack needs its sample"):
        _Stack(g.n, batch.seg, batch.masks, batch.amps, batch.period)
    assert len(_isometry_batch(g, batch)) == batch.samples == 4


def test_a_trailing_sample_without_rows_is_still_reported():
    """The batch carries its sample count, so a last sample that is zero
    at every step, and so holds no rows, still gets its residuals."""
    g, samples = suite_samples(9, 4)
    batch = batch_of(g, samples[:2] + samples[3:])
    assert int(batch.sample.max()) == 1 and batch.samples == 3
    isos = _isometry_batch(g, batch)
    reps = _representation_batch(g, batch, np.array([1.0, 2.0, 0.0]))
    comms = _commutation_worst(g, batch)
    assert len(isos) == len(reps) == len(comms) == 3
    assert isos[2] == reps[2] == comms[2] == 0.0


def test_isometry_sum_is_pythons_sum():
    """S sums the steps' dt ||Y_k||^2 with Python's sum, which adds with
    compensation from Python 3.12 on; a left-to-right NumPy fold would
    differ from the per-process route in the last bits there: with
    dt = 1 the terms 1, 1e-16, 1e-16 fold to 1.0 but sum to 1 + 2e-16."""
    g = TimeGrid(3.0, 3)
    values = [
        CliffordElement.scalar(g.n, 1.0),
        CliffordElement.generator(g.n, 0).scale(1e-8),
        CliffordElement.generator(g.n, 1).scale(1e-8),
    ]
    y = AdaptedProcess(g, values, check=False)
    batch = batch_of(g, [y])
    total = sum(g.dt * v.norm2_sq() for v in y)
    iso = abs(right_integral(g, y).norm2_sq() - total) / (1.0 + total)
    assert _isometry_batch(g, batch) == [iso]


def test_ito_suite_refuses_a_batch_that_mixes_up_its_samples(
    monkeypatch, tmp_path
):
    import fermisde.cli as cli

    batched = cli._isometry_batch

    def rotated(grid, steps):
        isos = batched(grid, steps)
        return isos[1:] + isos[:1]

    monkeypatch.setattr(cli, "_isometry_batch", rotated)
    spec = parse_problem({"grid": {"n_steps": 9}})
    with pytest.raises(RuntimeError, match="sample 0 of the batch differs"):
        run("ito-suite", spec, str(tmp_path), seed=0)


# SHA-256 of suite report files at fixed sizes and seeds, recorded with
# the per-p spectra, per-bit draws and step-by-step integral sums that
# the one-spectrum, batched-draw and one-pass routes replace: those
# routes must keep every report byte for byte. The _meta sidecar holds
# wall-clock timings and is left out. The digests also pin the NumPy and
# LAPACK build, whose last bits the CSV and the norms carry. Norms are
# NumPy pairwise sums, not BLAS dot products, so the BLAS thread count
# does not reach them; the bg and ito digests were re-recorded when that
# changed. The bg-constants digests were re-recorded when its spectra
# moved from the Jordan-Wigner images to block spectra (relative moves
# up to 2.4e-15, every flag kept). The thread count does reach the
# ("bg-constants", 14, *) digests, recorded on two OpenBLAS threads:
# the right integral's 128 x 128 block goes through np.linalg.svd, which
# returns other last bits on one thread, so those two fail under
# OPENBLAS_NUM_THREADS=1.
REPORT_DIGESTS = {
    ("algebra-suite", 8, 0): {
        "algebra_suite.json": "ed58ee6163558ff164e9d7043da586d6"
                              "415a6ae7267251b2db3a7852bfc0c47d",
    },
    ("bg-constants", 6, 0): {
        "bg_constants.csv": "b5dcfe87e861cac29cbb68210a7f4cda"
                            "19e0775e02bdd39f8e22238c734aa0ac",
        "bg_constants.json": "c062ef235fe1e68f248f7a0f5c843f16"
                             "e0a8ba0ac5a2eb393762756b669d54d1",
    },
    ("ito-suite", 16, 0): {
        "ito_suite.json": "9f020a3f558b3de4a568ff7b7259521d"
                          "4229e1e2184cd64bff39a757dc78749a",
    },
    ("algebra-suite", 8, 5): {
        "algebra_suite.json": "8889b8f64af76133006894ea6781a7b2"
                              "8435b10d07247066ec2595c917bf691b",
    },
    ("bg-constants", 6, 5): {
        "bg_constants.csv": "db841df309478ed4fd13104dcd39709f"
                            "4458ba2133ce24544c95b9046d221ec9",
        "bg_constants.json": "6ec280fa821907044aa065484c0ecefc"
                             "40cbf8982deb3c6e12846a37fbe8824c",
    },
    ("ito-suite", 16, 5): {
        "ito_suite.json": "2140e681ddca11b33f18c082c0672503"
                          "18ab98657803b07ed4c13c3ddfb5fe05",
    },
    # Two mask words: recorded on the per-step loops that the stacked
    # layout replaces.
    ("ito-suite", 70, 0): {
        "ito_suite.json": "87c1b515c5ef1b96ffc2dfc08dc9e225"
                          "88ff5b48405463c19610ec2cf4203280",
    },
    # The benchmark's own bg-constants size, the first whose integral
    # reaches a 128 x 128 block.
    ("bg-constants", 14, 0): {
        "bg_constants.csv": "d7aea36c16befc388a1f1fdadd1db6b1"
                            "370f234ada10e8d0114bb0b52e004958",
        "bg_constants.json": "803d4fa6a83192c5c9f3a1e788f95477"
                             "d7c2f1981da301fa50c4f63bd250b10e",
    },
    ("bg-constants", 14, 1): {
        "bg_constants.csv": "ff4794bb22ad76957f5f9be410a54035"
                            "026099de5ef5759224de6dd14acdd2d0",
        "bg_constants.json": "26ab467b221bf036bbdf5b52833fcfca"
                             "e398dcf5b590700325801107a984f071",
    },
    # The benchmark's own ito-suite call: recorded on the per-sample loops
    # that the one-stack-per-section pipeline replaces.
    ("ito-suite", 64, 0): {
        "ito_suite.json": "8d0eb84453d6d2df8d7af4296c39b8ed"
                          "5e5fc5b01e97fdf7267cde4a80cd1672",
    },
    ("ito-suite", 64, 1): {
        "ito_suite.json": "97263151944555eb3185e23ce758f6d9"
                          "e380ceac24b1099c66f3530608ac910d",
    },
    # Three mask words: recorded on the draw that held every uniform of
    # a section at once.
    ("ito-suite", 130, 0): {
        "ito_suite.json": "3f5a33b54151946257564fcecbc3d6cb"
                          "a6b3eb533f0afa59459e20c055b3b672",
    },
}


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS))
def test_suite_reports_keep_their_bytes(key, tmp_path):
    subcommand, n, seed = key
    run(subcommand, parse_problem({"grid": {"n_steps": n}}), str(tmp_path),
        seed=seed)
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if "_meta" not in path.name
    }
    assert got == REPORT_DIGESTS[key]


# -- commutation with increments ------------------------------------------


def test_commutation_zero_for_adapted_processes():
    g = TimeGrid(1.0, 8)
    rng = np.random.default_rng(50)
    y = random_integrand(rng, g, terms=6)
    assert commutation_check(g, y) == 0.0


def test_commutation_detects_current_generator_use():
    g = TimeGrid(1.0, 3)
    vals = [
        CliffordElement.generator(3, 0),  # not adapted at step 0
        CliffordElement.identity(3),
        CliffordElement.identity(3),
    ]
    p = AdaptedProcess(g, vals, check=False)
    assert commutation_check(g, p) > 0.5


def test_martingale_tolerances_are_relative():
    # Two roundings of one sum of three numbers near 1e6 (it is about
    # -9.7e4) differ in the last place: a gap of 1.7e-10, 1.8e-15
    # relative, is rounding, not drift.
    a, b, c = np.random.default_rng(3).normal(size=3) * 1e6
    s, t = (a + b) + c, a + (b + c)
    assert 1e-10 < abs(s - t) < 1e-14 * abs(s)
    g = TimeGrid(1.0, 2)
    one = CliffordElement.identity(2)
    g0, g1 = CliffordElement.generator(2, 0), CliffordElement.generator(2, 1)
    vals = [one.scale(s), one.scale(t) + g0, one.scale(t) + g0 + g1]
    seq = MartingaleSeq(g, vals)
    got = mrep_extract(g, seq)
    assert norm2(got[0] - one.scale(1.0 / np.sqrt(g.dt))) < 1e-12
    # a gap of 1e-5 of the values is still refused
    drift = [v + one.scale(1.0 * k) for k, v in enumerate(vals)]
    with pytest.raises(ValueError, match="martingale property fails"):
        MartingaleSeq(g, drift)
    with pytest.raises(ValueError, match="not a martingale"):
        mrep_extract(g, AdaptedProcess(g, drift, check=False))
