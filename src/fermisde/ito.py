"""Discrete fermion Brownian motion and Ito integrals.

On the grid 0 = t_0 < .. < t_n = T with dt = T/n, the Brownian increment
over step k is dW_k = sqrt(dt) g_k. Increments over distinct steps
anticommute and dW_k^2 = dt I, so W(t_k)^2 = t_k I holds exactly, not just
in the limit. The filtration C_k is the subalgebra generated by
g_0..g_{k-1}; a process is adapted when its step-k value lies in C_k.

Right integrals sum Y_k dW_k, left integrals sum dW_k Y_k; both are
martingales for the conditional expectations onto C_k. Conversely every
martingale sequence M with scalar start is exactly a right integral of
Y_k = (M_{k+1} - M_k) dW_k / dt; the reconstruction residual is zero in
exact arithmetic (discrete martingale representation).

Because dW_k anticommutes with odd and commutes with even elements of C_k,
moving an increment across an adapted element costs a grading:
dW_k a = grading(a) dW_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _sparse as sp
from .algebra import (
    CliffordElement,
    _spectral_lp,
    cond_expect,
    jw_rep,
    norm2,
    singular_values,
)

__all__ = [
    "MAX_GRID_STEPS",
    "TimeGrid",
    "AdaptedProcess",
    "MartingaleSeq",
    "dW",
    "brownian",
    "right_integral",
    "left_integral",
    "check_martingale",
    "mrep_extract",
    "bg_ratios",
    "bg_ratio_sweep",
    "commutation_check",
]


# Largest step count of a grid. Each step adds a generator, so this bounds
# the algebra size n of every solve; it is 16 times the largest grid the
# tests, demos and benchmark use.
MAX_GRID_STEPS = 4096


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with n_steps steps; one generator per step."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not (self.T > 0):
            raise ValueError("grid horizon T must be positive")
        if self.n_steps < 1:
            raise ValueError("grid needs at least one step")
        if self.n_steps > MAX_GRID_STEPS:
            raise ValueError(
                f"grid of {self.n_steps} steps refused "
                f"(> {MAX_GRID_STEPS})"
            )

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def n(self):
        """Generator count for elements living on this grid."""
        return self.n_steps

    def times(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)


class AdaptedProcess:
    """Element values per step, value at step k constrained to C_k.

    Length is n_steps (integrands, controls) or n_steps + 1 (state and
    martingale sequences, which include the terminal value).
    """

    def __init__(self, grid, values, check=True):
        values = list(values)
        if len(values) not in (grid.n_steps, grid.n_steps + 1):
            raise ValueError(
                f"process length {len(values)} does not match grid with "
                f"{grid.n_steps} steps"
            )
        for k, v in enumerate(values):
            if v.n != grid.n:
                raise ValueError(
                    f"value at step {k} has n={v.n}, grid needs {grid.n}"
                )
        self.grid = grid
        self.values = values
        if check:
            bad = self.first_non_adapted()
            if bad is not None:
                raise ValueError(f"process value at step {bad} is not adapted")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k):
        return self.values[k]

    def __iter__(self):
        return iter(self.values)

    def first_non_adapted(self, tol=0.0):
        """Index of the first value sticking out of its C_k, or None."""
        for k, v in enumerate(self.values):
            tail = v - cond_expect(v, k)
            if norm2(tail) > tol:
                return k
        return None

    @classmethod
    def constant(cls, grid, element, include_terminal=False):
        count = grid.n_steps + (1 if include_terminal else 0)
        return cls(grid, [element] * count, check=False)

    @classmethod
    def constant_scalar(cls, grid, value, include_terminal=False):
        return cls.constant(
            grid, CliffordElement.scalar(grid.n, value), include_terminal
        )


class MartingaleSeq(AdaptedProcess):
    """Adapted n_steps+1 sequence with the martingale property."""

    def __init__(self, grid, values, check=True, tol=1e-12):
        super().__init__(grid, values, check=check)
        if len(self.values) != grid.n_steps + 1:
            raise ValueError("martingale sequence must include the terminal")
        if check:
            gap = check_martingale(self)
            if gap > tol:
                raise ValueError(
                    f"martingale property fails with gap {gap:.3e}"
                )


def dW(grid, k):
    """Brownian increment over step k: sqrt(dt) g_k."""
    if not 0 <= k < grid.n_steps:
        raise ValueError(f"step {k} outside 0..{grid.n_steps - 1}")
    return CliffordElement.generator(grid.n, k).scale(np.sqrt(grid.dt))


def brownian(grid, k):
    """W at time t_k: the sum of the first k increments (zero at k=0)."""
    if not 0 <= k <= grid.n_steps:
        raise ValueError(f"time index {k} outside 0..{grid.n_steps}")
    root = np.sqrt(grid.dt)
    return _sum_terms(
        grid, [CliffordElement.generator(grid.n, j).scale(root)
               for j in range(k)]
    )


def right_integral(grid, integrand):
    """Sum of Y_k dW_k over the grid; integrand adapted, length n_steps.

    The step terms are summed in one canonicalize. For adapted input
    their monomials are disjoint (step k's all top out at bit k), so the
    result equals the step-by-step sum bit for bit; otherwise the two
    agree to rounding.
    """
    _require_integrand(grid, integrand)
    root = np.sqrt(grid.dt)
    return _sum_terms(
        grid, [integrand[k].mul_generator(k, "right").scale(root)
               for k in range(grid.n_steps)]
    )


def left_integral(grid, integrand):
    """Sum of dW_k Y_k over the grid; integrand adapted, length n_steps.

    Summed in one canonicalize, as right_integral.
    """
    _require_integrand(grid, integrand)
    root = np.sqrt(grid.dt)
    return _sum_terms(
        grid, [integrand[k].mul_generator(k, "left").scale(root)
               for k in range(grid.n_steps)]
    )


def _sum_terms(grid, terms):
    """Sum of elements on the grid, canonicalized once."""
    masks, amps = sp.merge_sum(
        [(t.masks, t.amps) for t in terms], sp.words_for(grid.n)
    )
    return CliffordElement._wrap(grid.n, masks, amps)


def _require_integrand(grid, integrand):
    if len(integrand) < grid.n_steps:
        raise ValueError("integrand must provide one value per step")


def check_martingale(seq):
    """max_k || E[M_{k+1} | C_k] - M_k ||_2 over the sequence."""
    grid = seq.grid
    worst = 0.0
    for k in range(grid.n_steps):
        gap = norm2(cond_expect(seq[k + 1], k) - seq[k])
        worst = max(worst, gap)
    return worst


def mrep_extract(grid, seq, tol=1e-12):
    """Representing integrand of a martingale: Y_k = (M_{k+1} - M_k) dW_k / dt.

    Requires the martingale property and a scalar start equal to the vacuum
    of the terminal value; then sum_k Y_k dW_k reproduces M_n - M_0 with
    zero residual.
    """
    gap = check_martingale(seq)
    if gap > tol:
        raise ValueError(
            f"not a martingale: conditional-expectation gap {gap:.3e}"
        )
    start = seq[0] - CliffordElement.scalar(grid.n, seq[-1].vacuum())
    if norm2(start) > tol:
        raise ValueError(
            "martingale must start at vacuum(M_n) times the identity"
        )
    inv_root = 1.0 / np.sqrt(grid.dt)
    out = []
    for k in range(grid.n_steps):
        diff = seq[k + 1] - seq[k]
        y = cond_expect(diff.mul_generator(k, "right"), k).scale(inv_root)
        out.append(y)
    return AdaptedProcess(grid, out, check=False)


def bg_ratios(grid, integrand, p=2.0):
    """Terminal L^p norm of each integral against its square function.

    The square function is s = (sum_k dt Y_k* Y_k)^(1/2) for the right
    integral and the same with Y_k Y_k* for the left one; the L^p norm of s
    is taken spectrally, so this needs the matrix route. Returns both
    quotients for both integrals, with zero denominators flagged instead of
    divided by. bg_ratio_sweep gives the same for several p at once.
    """
    return bg_ratio_sweep(grid, integrand, (p,))[0]


def bg_ratio_sweep(grid, integrand, ps):
    """bg_ratios(grid, integrand, p) for every p in ps, in order.

    Each side's square function, its eigenvalues and the integral's
    singular values are computed once and read for all of ps.
    """
    _require_integrand(grid, integrand)
    if not all(p >= 1 for p in ps):
        raise ValueError("p must be at least 1")
    rep = jw_rep(grid.n)
    out = [{"p": p, "flagged_zero": False} for p in ps]
    for name, left in (("right", False), ("left", True)):
        total = CliffordElement.zero(grid.n)
        for k in range(grid.n_steps):
            y = integrand[k]
            sq = (y.adjoint() * y) if not left else (y * y.adjoint())
            total = total + sq.scale(grid.dt)
        lam = np.linalg.eigvalsh(rep.matrix(total))
        lam = np.clip(lam, 0.0, None)
        integ = (
            left_integral(grid, integrand)
            if left
            else right_integral(grid, integrand)
        )
        spectrum = (
            singular_values(integ, rep) if any(p != 2 for p in ps) else None
        )
        for result, p in zip(out, ps):
            if p == np.inf:
                s_norm = float(np.sqrt(lam.max())) if lam.size else 0.0
            else:
                s_norm = float(np.mean(lam ** (p / 2.0)) ** (1.0 / p))
            i_norm = _spectral_lp(integ, spectrum, p)
            entry = {"integral_norm": i_norm, "square_function_norm": s_norm}
            if s_norm == 0.0 or i_norm == 0.0:
                result["flagged_zero"] = True
                entry["ratio"] = None
                entry["inverse_ratio"] = None
            else:
                entry["ratio"] = i_norm / s_norm
                entry["inverse_ratio"] = s_norm / i_norm
            result[name] = entry
    return out


def commutation_check(grid, process):
    """How far increments are from commuting with even and anticommuting
    with odd adapted parts; exactly zero for adapted input.

    Checks dW_k a_e - a_e dW_k, dW_k a_o + a_o dW_k, and the combined form
    dW_k a - grading(a) dW_k at every step; returns the worst 2-norm.
    """
    worst = 0.0
    for k in range(min(len(process), grid.n_steps)):
        a = process[k]
        root = np.sqrt(grid.dt)
        ae, ao = a.even_part(), a.odd_part()
        lhs = ae.mul_generator(k, "left") - ae.mul_generator(k, "right")
        worst = max(worst, norm2(lhs) * root)
        lhs = ao.mul_generator(k, "left") + ao.mul_generator(k, "right")
        worst = max(worst, norm2(lhs) * root)
        lhs = a.mul_generator(k, "left") - a.grading().mul_generator(
            k, "right"
        )
        worst = max(worst, norm2(lhs) * root)
    return worst
