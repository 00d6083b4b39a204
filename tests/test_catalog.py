"""Catalog entries: metadata, declared structure against the full
coefficient rules, and the build-time overrides."""

import numpy as np
import pytest

from fermisde.algebra import norm2, random_element
from fermisde.catalog import DEFAULT_VALUE_GRID, build, catalog
from fermisde.forward import numeric_frechet, numeric_second_frechet

AFFINE_IDS = ["lq_scalar", "control_in_noise", "odd_drift", "driverless"]


def test_catalog_metadata():
    entries = catalog()
    assert len(entries) >= 4
    assert list(entries) == AFFINE_IDS + ["quadratic_drift"]
    for pid, entry in entries.items():
        assert entry.id == pid
        assert entry.summary.strip()
        assert entry.default_steps > 0
        assert entry.default_T > 0
    assert entries["control_in_noise"].p_term_active
    assert entries["driverless"].p_term_active
    assert not entries["lq_scalar"].p_term_active
    assert not entries["quadratic_drift"].second_adjoint_ok
    assert entries["quadratic_drift"].default_steps == 10
    assert entries["quadratic_drift"].max_steps == 12
    assert all(entries[pid].max_steps is None for pid in AFFINE_IDS)


def test_build_refuses_grids_past_the_step_ceiling():
    assert build("quadratic_drift", n_steps=12)[1].n_steps == 12
    with pytest.raises(ValueError, match="at most 12 steps, .*; got 13"):
        build("quadratic_drift", n_steps=13)


def test_build_defaults_and_overrides():
    problem, grid = build("lq_scalar")
    assert grid.n_steps == 64 and grid.T == 1.0
    assert norm2(problem.x0) == 0.0
    problem, grid = build("lq_scalar", n_steps=16, T=0.5, x0_scale=0.8)
    assert grid.n_steps == 16 and grid.T == 0.5
    assert abs(norm2(problem.x0) - 0.8) < 1e-15
    assert problem.control_space.value_grid == DEFAULT_VALUE_GRID


def test_build_unknown_id_lists_the_catalog():
    with pytest.raises(KeyError, match="available: control_in_noise, "
                       "driverless, lq_scalar, odd_drift, quadratic_drift"):
        build("lq")


@pytest.mark.parametrize("pid", AFFINE_IDS)
def test_declared_affine_structure_matches_full_rules(pid):
    """A(k) x + uD(k) u must reproduce D(k, x, u) exactly, and likewise
    for the noise coefficients on both sides."""
    problem, grid = build(pid, n_steps=6)
    co = problem.coeffs
    lin = co.linear
    assert lin is not None
    rng = np.random.default_rng(17)
    for k in (0, 3, 5):
        x = random_element(rng, grid.n, n_terms=6)
        u = random_element(rng, grid.n, n_terms=4)
        for rule, state_op, inject in (
            (co.D, lin.A, lin.uD), (co.F, lin.B, lin.uF), (co.G, lin.C, lin.uG)
        ):
            want = state_op(k).apply(x) + inject(k).apply(u)
            assert norm2(rule(k, x, u) - want) < 1e-12


@pytest.mark.parametrize("pid", AFFINE_IDS + ["quadratic_drift"])
def test_supplied_derivatives_match_numeric_frechet(pid):
    problem, grid = build(pid, n_steps=6)
    co = problem.coeffs
    rng = np.random.default_rng(23)
    x = random_element(rng, grid.n, n_terms=5)
    u = random_element(rng, grid.n, n_terms=3)
    v = random_element(rng, grid.n, n_terms=5)
    for which, deriv in (("D", co.Dx), ("F", co.Fx), ("G", co.Gx)):
        num = numeric_frechet(co, which, 2, x, u, v)
        assert norm2(num - deriv(2, x, u).apply(v)) < 1e-6


def test_quadratic_drift_second_derivative():
    problem, grid = build("quadratic_drift", n_steps=6)
    co = problem.coeffs
    rng = np.random.default_rng(29)
    x = random_element(rng, grid.n, n_terms=5)
    u = random_element(rng, grid.n, n_terms=3)
    for _ in range(3):
        v = random_element(rng, grid.n, n_terms=4)
        w = random_element(rng, grid.n, n_terms=4)
        num = numeric_second_frechet(co, "D", 1, x, u, v, w)
        assert norm2(num - co.Dxx(1, x, u)(v, w)) < 1e-6
        # the noise coefficient is linear, so its second difference is noise
        flat = numeric_second_frechet(co, "F", 1, x, u, v, w)
        assert norm2(flat) < 1e-6


def test_driverless_has_no_running_cost():
    problem, grid = build("driverless", n_steps=8)
    rng = np.random.default_rng(31)
    x = random_element(rng, grid.n, n_terms=4)
    u = random_element(rng, grid.n, n_terms=3)
    assert problem.L(0, x, u) == 0.0
    assert norm2(problem.L.grad(0, x, u)) == 0.0
    assert abs(problem.h(x) - 0.5 * x.norm2_sq()) < 1e-14
