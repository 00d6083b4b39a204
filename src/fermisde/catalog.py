"""Built-in control problems used by the tests, demos and CLI.

Each entry builds a ControlProblem on a fresh grid. Coefficients that
are affine in state and control also declare that structure, which
routes their solves through the sort-free path and their CLI pipelines
through the exact parity channel; the full rules stay the source of
truth and the declarations are cross-checked in the tests. So the
affine entries' prune=1e-5 budget is read only by element solves: the
tests' reference solves and direct library calls.

All running costs are RunningNormCost(q, r), q||x||^2 + r||u||^2, with
terminal TerminalNormCost(s), s||x||^2, so gradients are scalings and
Hessians carry graded-scalar operator forms. The one deliberately
nonlinear entry (quadratic_drift) exists to exercise the refusal paths:
no affine declaration, a nonzero second derivative, and a
state-dependent drift derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import CliffordElement
from .control import ControlProblem, RunningNormCost, TerminalNormCost
from .forward import Coefficients, ControlSpace, LinearStructure
from .ito import TimeGrid
from .operators import (
    BilinearMap,
    GradedScalarOp,
    LeftMulOp,
    RightMulOp,
    ScalarOp,
    SumOp,
)

__all__ = ["CatalogEntry", "catalog", "build", "DEFAULT_VALUE_GRID",
           "DEFAULT_T", "LADDER_X0", "LADDER_UBAR"]

DEFAULT_VALUE_GRID = [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]
# Every entry's horizon; ladder's and forward's default x0_scale and ubar.
DEFAULT_T = 1.0
LADDER_X0 = 1.0
LADDER_UBAR = 0.3


@dataclass
class CatalogEntry:
    """Factory make(n_steps, T, x0_scale) plus the defaults the CLI and
    tests pull from, x0_scale the start build takes when none is given."""

    id: str
    summary: str
    make: Callable
    x0_scale: float = 0.0
    default_steps: int = 64
    alt_weight: float = -0.9
    p_term_active: bool = False
    second_adjoint_ok: bool = True
    # Most steps any pipeline may run the entry on; None for no ceiling.
    max_steps: Optional[int] = None

    def check_steps(self, n_steps):
        """Raise ValueError when n_steps passes the entry's max_steps."""
        if self.max_steps is not None and n_steps > self.max_steps:
            raise ValueError(
                f"{self.id} runs on at most {self.max_steps} steps, beyond "
                f"which its solves outgrow the row limit; got {n_steps}"
            )

    def defaults(self):
        """The defaults `fermisde catalog` lists for the entry."""
        return dict(n_steps=self.default_steps, T=DEFAULT_T,
                    x0_scale=self.x0_scale, alt_weight=self.alt_weight,
                    ladder_x0=LADDER_X0, ladder_ubar=LADDER_UBAR)


def _space(n):
    return ControlSpace(
        [CliffordElement.identity(n)], list(DEFAULT_VALUE_GRID)
    )


def _start(n, scale):
    if scale == 0.0:
        return CliffordElement.zero(n)
    return CliffordElement.identity(n).scale(scale)


def _affine_coeffs(a=0.0, b=0.0, c=0.0, g=0.0, sigma_f=0.0, sigma_g=0.0,
                   lipschitz=0.0):
    """dx = (a x + b u) dt + (c x + sigma_f u) dW + dW (g x + sigma_g u).

    The six declared operators are built once, so every step's rule
    returns the same object and the channel gate reduces each once.
    """
    A, B, C, uD, uF, uG = (
        GradedScalarOp(v, 0.0) for v in (a, c, g, b, sigma_f, sigma_g)
    )
    lin = LinearStructure(
        A=lambda k: A,
        B=lambda k: B,
        C=lambda k: C,
        uD=lambda k: uD,
        uF=lambda k: uF,
        uG=lambda k: uG,
    )
    return Coefficients(
        D=lambda k, x, u: x.scale(a) + u.scale(b),
        F=lambda k, x, u: x.scale(c) + u.scale(sigma_f),
        G=lambda k, x, u: x.scale(g) + u.scale(sigma_g),
        Dx=lambda k, x, u: A,
        Fx=lambda k, x, u: B,
        Gx=lambda k, x, u: C,
        lipschitz_bound=lipschitz,
        linear=lin,
    )


def _affine_make(L, h, **coeffs):
    """Factory of _affine_coeffs(**coeffs) with costs L, h and prune 1e-5."""

    def make(n_steps, T, x0_scale):
        grid = TimeGrid(T=T, n_steps=n_steps)
        problem = ControlProblem(
            coeffs=_affine_coeffs(**coeffs),
            control_space=_space(grid.n),
            x0=_start(grid.n, x0_scale),
            L=L,
            h=h,
            prune=1e-5,
        )
        return problem, grid

    return make


def _make_quadratic_drift(n_steps, T, x0_scale):
    grid = TimeGrid(T=T, n_steps=n_steps)
    n = grid.n
    a, b, qd, c = 0.25, 1.0, 0.3, 0.1

    def drift(k, x, u):
        return x.scale(a) + u.scale(b) + (x * x).scale(qd)

    def drift_x(k, x, u):
        return SumOp(
            [
                ScalarOp(a),
                LeftMulOp(x.scale(qd)),
                RightMulOp(x.scale(qd)),
            ]
        )

    coeffs = Coefficients(
        D=drift,
        F=lambda k, x, u: x.scale(c),
        Dx=drift_x,
        Fx=lambda k, x, u: GradedScalarOp(c, 0.0),
        Dxx=lambda k, x, u: BilinearMap(
            fn=lambda v, w: (v * w + w * v).scale(qd)
        ),
        lipschitz_bound=1.0,
    )
    problem = ControlProblem(
        coeffs=coeffs,
        control_space=_space(n),
        x0=_start(n, x0_scale),
        prune=None,
        L=RunningNormCost(0.5, 1.0),
        h=TerminalNormCost(0.5),
    )
    return problem, grid


def catalog():
    """All built-in problems, keyed by id, in a stable order."""
    entries = [
        CatalogEntry(
            id="lq_scalar",
            summary="linear state, control in the drift, quadratic cost",
            make=_affine_make(
                RunningNormCost(0.5, 1.0), TerminalNormCost(0.5),
                a=0.25, b=1.0, c=0.1, lipschitz=0.35,
            ),
        ),
        CatalogEntry(
            id="control_in_noise",
            summary="control enters the noise coefficient; quadratic "
            "term of the optimality test is active",
            make=_affine_make(
                RunningNormCost(0.5, 0.05), TerminalNormCost(0.5),
                a=0.25, b=0.5, c=0.1, sigma_f=1.0, lipschitz=0.35,
            ),
            p_term_active=True,
        ),
        CatalogEntry(
            id="odd_drift",
            summary="noise multiplies from the left, exercising the "
            "parity signs",
            make=_affine_make(
                RunningNormCost(0.5, 1.0), TerminalNormCost(0.5),
                a=0.25, b=1.0, g=0.4, lipschitz=0.65,
            ),
        ),
        CatalogEntry(
            id="driverless",
            summary="no drift and no running cost; adjoint identities "
            "hold exactly",
            # Only the terminal cost survives: the zero running cost has
            # a zero gradient, so the adjoint driver is source-free.
            make=_affine_make(
                RunningNormCost(0.0, 0.0), TerminalNormCost(0.5),
                sigma_f=0.7, sigma_g=0.4,
            ),
            x0_scale=1.0,
            alt_weight=0.6,
            p_term_active=True,
        ),
        CatalogEntry(
            id="quadratic_drift",
            summary="small quadratic drift term; exercises the refusal "
            "paths of the operator-valued machinery",
            make=_make_quadratic_drift,
            x0_scale=0.5,
            default_steps=10,
            second_adjoint_ok=False,
            # From 13 steps on, the ladder and max-principle solves meet
            # a product of 4096 by 4096 terms, past _sparse.MAX_ROWS.
            max_steps=12,
        ),
    ]
    return {e.id: e for e in entries}


def build(problem_id, n_steps=None, T=None, x0_scale=None):
    """Instantiate a catalog problem by id with optional overrides."""
    entries = catalog()
    if problem_id not in entries:
        known = ", ".join(sorted(entries))
        raise KeyError(
            f"unknown problem id {problem_id!r}; available: {known}"
        )
    entry = entries[problem_id]
    n_steps = entry.default_steps if n_steps is None else n_steps
    entry.check_steps(n_steps)
    x0_scale = entry.x0_scale if x0_scale is None else x0_scale
    return entry.make(n_steps, DEFAULT_T if T is None else T, x0_scale)
