"""Acceptance gate: one test per criterion, each printing a single
line with the measured quantities next to its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
verdict lines, `-s` to see the measured numbers as they appear.
"""

import json
import os
import time

import numpy as np
import pytest

from fermisde.algebra import (
    CliffordElement,
    jw_rep,
    lp_norm,
    norm2,
    pairing,
    random_element,
)
from fermisde.backward import Driver, residual, solve_picard, solve_stepwise
from fermisde.catalog import build
from fermisde.cli import parse_problem, run
from fermisde.control import (
    brute_force_optimum,
    cost_expansion_check,
    duality_check,
    first_adjoint,
    mp_scan,
    second_adjoint_deterministic,
    solve_state,
    variation_ladder,
)
from fermisde.ito import AdaptedProcess, TimeGrid, commutation_check, mrep_extract, right_integral
from fermisde.operators import GradedScalarOp

P_SET = (1.0, 1.5, 2.0, 3.0, np.inf)
GRID7 = [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]


def _conjugate(p):
    if p == 1.0:
        return np.inf
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


def _scalar_driver(a):
    return Driver(
        f=lambda k, y, Y: y.scale(a),
        g1=abs(a),
        g2=0.0,
        linear_y=lambda k: GradedScalarOp(a, 0.0),
    )


def _random_martingale(rng, grid):
    n = grid.n
    root = np.sqrt(grid.dt)
    integrand = []
    current = CliffordElement.scalar(n, float(rng.standard_normal()))
    values = [current]
    for k in range(grid.n_steps):
        y = random_element(rng, n, n_terms=5, max_generator=k)
        integrand.append(y)
        current = current + y.mul_generator(k, "right").scale(root)
        values.append(current)
    return AdaptedProcess(grid, values, check=False), integrand


def test_criterion_01_car_and_brownian_squares():
    t0 = time.monotonic()
    worst = 0.0
    for n in range(2, 13):
        for j in range(n):
            gj = CliffordElement.generator(n, j)
            for k in range(j, n):
                gk = CliffordElement.generator(n, k)
                anti = gj * gk + gk * gj
                target = (
                    CliffordElement.scalar(n, 2.0)
                    if j == k
                    else CliffordElement.zero(n)
                )
                worst = max(worst, norm2(anti - target))
        grid = TimeGrid(1.0, n)
        times = grid.times()
        for k in range(n + 1):
            from fermisde.ito import brownian

            wk = brownian(grid, k)
            worst = max(
                worst, norm2(wk * wk - CliffordElement.scalar(n, times[k]))
            )
    elapsed = time.monotonic() - t0
    print(
        f"criterion 1: anticommutator and W(t)^2 residual {worst:.2e} "
        f"(<= 1e-12) in {elapsed:.2f}s (< 5s)"
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_02_representation_fidelity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    elements = 0
    for n in range(2, 11):
        rep = jw_rep(n)
        worst = max(
            worst,
            np.abs(
                rep.matrix(CliffordElement.identity(n)) - np.eye(rep.d)
            ).max(),
        )
        for _ in range(28):
            a = random_element(rng, n)
            b = random_element(rng, n)
            elements += 2
            ma, mb = rep.matrix(a), rep.matrix(b)
            worst = max(worst, np.abs(rep.matrix(a * b) - ma @ mb).max())
            for x, mx in ((a, ma), (b, mb)):
                worst = max(
                    worst,
                    np.abs(rep.matrix(x.adjoint()) - mx.conj().T).max(),
                )
                worst = max(
                    worst, abs(np.trace(mx) / rep.d - x.vacuum())
                )
    print(
        f"criterion 2: homomorphism/trace residual {worst:.2e} (< 1e-12) "
        f"over {elements} elements, n up to 10"
    )
    assert elements >= 500
    assert worst < 1e-12


def test_criterion_03_lp_holder_and_monotonicity():
    rng = np.random.default_rng(3031)
    holder_bad = 0
    mono_bad = 0
    pairs = 0
    for n in range(2, 9):
        for _ in range(143):
            a = random_element(rng, n)
            b = random_element(rng, n)
            pairs += 1
            for p in P_SET:
                q = _conjugate(p)
                if abs(pairing(a, b)) > lp_norm(a, q) * lp_norm(b, p) + 1e-10:
                    holder_bad += 1
            for x in (a, b):
                norms = [lp_norm(x, p) for p in P_SET]
                if any(
                    norms[i] > norms[i + 1] + 1e-10
                    for i in range(len(norms) - 1)
                ):
                    mono_bad += 1
    print(
        f"criterion 3: {pairs} pairs, holder violations {holder_bad}, "
        f"monotonicity violations {mono_bad} (need 0 at 1e-10)"
    )
    assert pairs >= 1000
    assert holder_bad == 0
    assert mono_bad == 0


def test_criterion_04_isometry_and_representation():
    rng = np.random.default_rng(404)
    iso_worst = 0.0
    rep_worst = 0.0
    count = 0
    for n in (4, 6, 8, 10):
        grid = TimeGrid(1.0, n)
        for _ in range(50):
            m, integrand = _random_martingale(rng, grid)
            count += 1
            y = mrep_extract(grid, m)
            recon = right_integral(grid, y)
            target = m[n] - m[0]
            rep_worst = max(
                rep_worst,
                norm2(recon - target) / (1.0 + norm2(target)),
            )
            integ = right_integral(
                grid, AdaptedProcess(grid, integrand, check=False)
            )
            total = sum(grid.dt * v.norm2_sq() for v in integrand)
            iso_worst = max(
                iso_worst,
                abs(integ.norm2_sq() - total) / (1.0 + total),
            )
    print(
        f"criterion 4: isometry residual {iso_worst:.2e}, representation "
        f"residual {rep_worst:.2e} (< 1e-12) on {count} martingales"
    )
    assert count >= 200
    assert iso_worst <= 1e-12
    assert rep_worst < 1e-12


def test_criterion_05_commutation():
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (4, 8, 12):
        grid = TimeGrid(1.0, n)
        for _ in range(10):
            values = [
                random_element(rng, n, n_terms=6, max_generator=k)
                for k in range(n)
            ]
            proc = AdaptedProcess(grid, values, check=False)
            worst = max(worst, commutation_check(grid, proc))
    print(f"criterion 5: twisted commutation residual {worst:.2e} (<= 1e-12)")
    assert worst <= 1e-12


def test_criterion_06_bqsde_closed_form():
    a, T = 1.0, 1.0
    driver = _scalar_driver(a)
    gaps = {}
    y0_err = None
    for n in (64, 128, 256):
        grid = TimeGrid(T, n)
        yT = CliffordElement.identity(n)
        stepwise = solve_stepwise(driver, grid, yT, mode="implicit")
        picard, _ = solve_picard(driver, grid, yT)
        gaps[n] = max(
            norm2(stepwise.y[k] - picard.y[k]) for k in range(n + 1)
        )
        if n == 256:
            y0_err = abs(stepwise.y[0].vacuum().real - np.exp(-a * T))
    print(
        f"criterion 6: |y_0 - e^-aT| = {y0_err:.2e} (<= 0.01) at n=256; "
        f"stepwise-vs-Picard gaps {gaps[64]:.2e}/{gaps[128]:.2e}/"
        f"{gaps[256]:.2e} <= 1e-9*dt at every resolution"
    )
    assert y0_err <= 0.01
    # one fixed constant certifies gap <= C*dt across both halvings
    for n, gap in gaps.items():
        assert gap <= 1e-9 * (T / n)


def test_criterion_07_picard_windowing():
    grid = TimeGrid(1.0, 64)
    yT = CliffordElement.identity(64)
    driver = _scalar_driver(8.0)
    path, sweeps = solve_picard(driver, grid, yT)
    defect = residual(path, driver, yT)
    windows = path.diagnostics["windows"]
    print(
        f"criterion 7: g1*T=8 split into {windows} windows, {sweeps} "
        f"sweeps (<= 200), residual {defect:.2e}"
    )
    assert windows > 1
    assert sweeps <= 200
    assert defect <= 1e-9 * (1.0 + norm2(yT))


def test_criterion_08_variation_ladders():
    t0 = time.monotonic()
    problem, grid = build("lq_scalar", n_steps=128, x0_scale=1.0)
    eps = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
    lad = variation_ladder(
        problem,
        AdaptedProcess.constant_scalar(grid, 0.3),
        AdaptedProcess.constant_scalar(grid, -0.9),
        eps,
    )
    elapsed = time.monotonic() - t0
    slopes = lad["slopes"]
    shown = {
        k: (None if v is None else round(v, 3)) for k, v in slopes.items()
    }
    print(
        f"criterion 8: slopes {shown} vs targets (1,1,2,2,2) - 0.25 "
        f"(identically-zero series vacuous) in {elapsed:.1f}s (< 60s)"
    )
    assert lad["pass"]
    targets = {
        "xi_sq": 1.0, "y_sq": 1.0, "z_sq": 2.0, "eta_sq": 2.0,
        "zeta_sq": 2.0,
    }
    for name, target in targets.items():
        if lad["vacuous"][name]:
            continue
        assert slopes[name] >= target - 0.25
    assert elapsed < 60.0


def test_criterion_09_duality_ratio():
    residuals = []
    for n in (16, 32, 64):
        problem, grid = build("lq_scalar", n_steps=n, x0_scale=1.0)
        ubar = AdaptedProcess.constant_scalar(grid, 0.3)
        alt = AdaptedProcess.constant_scalar(grid, -0.9)
        xbar = solve_state(problem, ubar)
        adj = first_adjoint(problem, xbar, ubar)
        residuals.append(
            duality_check(problem, xbar, ubar, alt, 0.25, adj, order=2)
        )
    r01 = residuals[0] / residuals[1]
    r12 = residuals[1] / residuals[2]
    print(
        f"criterion 9: duality residuals {residuals[0]:.4f}/"
        f"{residuals[1]:.4f}/{residuals[2]:.4f}, halving ratios "
        f"{r01:.3f}, {r12:.3f} (in [1.6, 2.4])"
    )
    assert 1.6 <= r01 <= 2.4
    assert 1.6 <= r12 <= 2.4


def test_criterion_10_cost_expansion_slope():
    problem, grid = build("lq_scalar", n_steps=64, x0_scale=1.0)
    rep = cost_expansion_check(
        problem,
        AdaptedProcess.constant_scalar(grid, 0.3),
        AdaptedProcess.constant_scalar(grid, -0.9),
        [0.25, 0.125, 0.0625, 0.03125],
    )
    print(
        f"criterion 10: second-order remainder slope {rep['slope']:.3f} "
        f"(> 1)"
    )
    assert not rep["vacuous"]
    assert rep["slope"] > 1.0


def test_criterion_11_maximum_principle_at_oracle_optimum():
    t0 = time.monotonic()
    lines = []
    for pid in ("lq_scalar", "control_in_noise"):
        problem, grid = build(pid, n_steps=32)
        u_opt, j_opt = brute_force_optimum(problem, grid, 3, GRID7)
        xbar = solve_state(problem, u_opt)
        adjoints = first_adjoint(problem, xbar, u_opt)
        P = second_adjoint_deterministic(problem, xbar, u_opt, adjoints)
        tol = max(1e-6, 1.0 * grid.dt)
        scan = mp_scan(problem, xbar, u_opt, adjoints, P=P, tol=tol)
        lines.append(
            f"{pid}: oracle cost {j_opt:.3g}, lattice min "
            f"{scan.minimum:.3g} >= {-tol:.3g}"
        )
        assert scan.minimum >= -tol
        assert scan.passed
    elapsed = time.monotonic() - t0
    print(
        f"criterion 11: {'; '.join(lines)}; 3 coarse steps x 7 values, "
        f"{elapsed:.1f}s (< 120s)"
    )
    assert elapsed < 120.0


def test_criterion_12_deterministic_reports(tmp_path):
    spec = parse_problem({"steps_coarse": 2})
    first = run("all", spec, str(tmp_path / "a"), seed=0)
    run("all", spec, str(tmp_path / "b"), seed=0)
    names = sorted(
        f
        for f in os.listdir(tmp_path / "a")
        if not f.endswith("_meta.json")
    )
    assert names == sorted(
        f
        for f in os.listdir(tmp_path / "b")
        if not f.endswith("_meta.json")
    )
    identical = []
    for name in names:
        blob_a = (tmp_path / "a" / name).read_bytes()
        blob_b = (tmp_path / "b" / name).read_bytes()
        identical.append(blob_a == blob_b)
    print(
        f"criterion 12: repeated `all` run, files {names} byte-identical: "
        f"{all(identical)}"
    )
    assert all(identical)
    assert first["pass"]
    payload = json.loads((tmp_path / "a" / "all.json").read_text())
    assert payload["schema_version"] == 1
