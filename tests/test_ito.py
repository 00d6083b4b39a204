"""Discrete Brownian motion, Ito integrals, martingale representation."""

import numpy as np
import pytest

from fermisde.algebra import (
    CliffordElement,
    cond_expect,
    jw_rep,
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
    bg_ratios,
    brownian,
    check_martingale,
    commutation_check,
    dW,
    left_integral,
    mrep_extract,
    right_integral,
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
    g = TimeGrid(1.0, 15)
    y = AdaptedProcess.constant_scalar(g, 1.0)
    with pytest.raises(ValueError, match="matrix representation refused"):
        bg_ratios(g, y, p=3.0)


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
