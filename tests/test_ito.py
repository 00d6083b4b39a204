"""Discrete Brownian motion, Ito integrals, martingale representation."""

import hashlib

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
    bg_ratio_sweep,
    bg_ratios,
    brownian,
    check_martingale,
    commutation_check,
    dW,
    left_integral,
    mrep_extract,
    right_integral,
)
from fermisde.cli import P_CHOICES, parse_problem, run


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


def test_bg_ratio_sweep_matches_one_call_per_p():
    g = TimeGrid(1.0, 6)
    y = random_integrand(np.random.default_rng(44), g, terms=3)
    swept = bg_ratio_sweep(g, y, P_CHOICES)
    assert len(swept) == len(P_CHOICES)
    for p, got in zip(P_CHOICES, swept):
        assert got == bg_ratios(g, y, p=p)
    with pytest.raises(ValueError, match="at least 1"):
        bg_ratio_sweep(g, y, (2.0, 0.5))


def test_bg_constants_takes_one_spectrum_per_integrand_and_side(
    monkeypatch, tmp_path
):
    counts = {"svd": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    spec = parse_problem({"grid": {"n_steps": 14}})
    assert run("bg-constants", spec, str(tmp_path), seed=0)["pass"]
    assert counts == {"svd": 5 * 2, "eigvalsh": 5 * 2}


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
    return np.array_equal(a.masks, b.masks) and np.array_equal(a.amps, b.amps)


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


# SHA-256 of suite report files at fixed sizes and seeds, recorded with
# the per-p spectra, per-bit draws and step-by-step integral sums that
# the one-spectrum, batched-draw and one-pass routes replace: those
# routes must keep every report byte for byte. The _meta sidecar holds
# wall-clock timings and is left out. The digests also pin the NumPy and
# LAPACK build, whose last bits the CSV and the norms carry.
REPORT_DIGESTS = {
    ("algebra-suite", 8, 0): {
        "algebra_suite.json": "ed58ee6163558ff164e9d7043da586d6"
                              "415a6ae7267251b2db3a7852bfc0c47d",
    },
    ("bg-constants", 6, 0): {
        "bg_constants.csv": "201b4b3a3940696a4c40a04ee7269cf8"
                            "bdf15cf7b010ca3fa487f21777e45e71",
        "bg_constants.json": "e6b099f14efa231340bb3bb989f33c5c"
                             "489a06d87ec5ba6e00add6cbdcb8b917",
    },
    ("ito-suite", 16, 0): {
        "ito_suite.json": "82527cf2fb03aed185bf757e963a31d9"
                          "71519225e34455077d6550f4778aeb65",
    },
    ("algebra-suite", 8, 5): {
        "algebra_suite.json": "8889b8f64af76133006894ea6781a7b2"
                              "8435b10d07247066ec2595c917bf691b",
    },
    ("bg-constants", 6, 5): {
        "bg_constants.csv": "d193aa829fe62cc5b1d76fe440a599fd"
                            "28eeb2759c5da282b9021beb1212d12a",
        "bg_constants.json": "47e5299313875e1695abef7bad5373dd"
                             "4d511aec7a4b49604e35b2ea3422a358",
    },
    ("ito-suite", 16, 5): {
        "ito_suite.json": "535d9c161f5c24ad19a43c6d3c6bab0c"
                          "b3a1e60735a321ace8d4bb627cb0ca02",
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
