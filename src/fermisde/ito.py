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

The integrals and checks here keep a whole process in one stacked array
(algebra._Stack), so each makes a fixed number of sorts per process
rather than one per step, and stays bit-identical to the per-step sums.
A martingale from right_integral_path keeps the layout of its rows, so
its martingale check and representation read every step off M_n alone.
The representation is one rule, _Stack.representing, which backward
reads its Y_k by too: Y_k keeps the rows of (M_{k+1} - M_k) g_k / sqrt(dt)
in C_k, for adapted data the increment's rows with top bit k, that bit
cleared.

The same stacked helpers take a batch of processes, one per sample, in
one array keyed by sample and step (a _Stack with a period, carrying
its sample count). A public function is the one-sample case of its
helper, and the ito-suite checks (_isometry_batch,
_representation_batch, _commutation_worst) run each section over all
its samples with a fixed number of sorts, whatever the sample count,
equal bit for bit to one call per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from . import _sparse as sp
from .algebra import (
    MAX_MATRIX_GENERATORS,
    CliffordElement,
    _lp_norms,
    _per_shape,
    _power_means,
    _Stack,
    norm2,
)

__all__ = [
    "MAX_GRID_STEPS",
    "TimeGrid",
    "AdaptedProcess",
    "MartingaleSeq",
    "dW",
    "brownian",
    "right_integral",
    "right_integral_path",
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
        _require_sizes(grid, values)
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
        values = _Stack.of(self.grid.n, self.values)
        tails = (values - values.within()).norms(0, len(self.values))
        for k, tail in enumerate(tails):
            if tail > tol:
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
    """Adapted n_steps+1 sequence with the martingale property, checked to
    a gap of tol relative to the sequence's size (see _size).

    A sequence from right_integral_path keeps its prefix layout: the
    canonical stack of M_n's rows, seg -1 for the start and k for the rows
    entering at step k, so M_k is rows[:b_k] with b_k the first row of
    step k; and the value objects built on it (see _prefix_layout).
    """

    def __init__(self, grid, values, check=True, tol=1e-12):
        super().__init__(grid, values, check=check)
        if len(self.values) != grid.n_steps + 1:
            raise ValueError("martingale sequence must include the terminal")
        if check:
            gap = check_martingale(self)
            if gap > tol * _size(self):
                raise ValueError(
                    f"martingale property fails with gap {gap:.3e}"
                )


def dW(grid, k):
    """Brownian increment over step k: sqrt(dt) g_k."""
    if not 0 <= k < grid.n_steps:
        raise ValueError(f"step {k} outside 0..{grid.n_steps - 1}")
    return CliffordElement.generator(grid.n, k).scale(np.sqrt(grid.dt))


def brownian(grid, k):
    """W at time t_k: the sum of the first k increments (zero at k=0).

    Its rows are the generators g_0..g_{k-1}, each with amplitude
    sqrt(dt), which is already the canonical order."""
    if not 0 <= k <= grid.n_steps:
        raise ValueError(f"time index {k} outside 0..{grid.n_steps}")
    masks = sp.generator_rows(k, sp.words_for(grid.n))
    amps = np.full(k, np.sqrt(grid.dt), dtype=np.complex128)
    return CliffordElement._wrap(grid.n, masks, amps)


def right_integral(grid, integrand):
    """Sum of Y_k dW_k over the grid; integrand adapted, length n_steps.

    The step terms are summed in one canonicalize. For adapted input
    their monomials are disjoint (step k's all top out at bit k), so the
    result equals the step-by-step sum bit for bit; otherwise the two
    agree to rounding.
    """
    return _integral(grid, _steps(grid, integrand), "right")


def left_integral(grid, integrand):
    """Sum of dW_k Y_k over the grid; integrand adapted, length n_steps.

    Summed in one canonicalize, as right_integral.
    """
    return _integral(grid, _steps(grid, integrand), "left")


def _integral(grid, steps, side):
    total = _integrals(steps, side, np.sqrt(grid.dt))
    return CliffordElement._wrap(grid.n, total.masks, total.amps)


def _integrals(steps, side, root):
    """Each sample's sum of Y_k dW_k (side "right") or dW_k Y_k ("left")
    over a stack of integrands, dW_k = root g_k: a canonical stack with
    seg the sample."""
    return steps.mul_generator(side).scale(root).sums()


def right_integral_path(grid, integrand, start=None):
    """The martingale M_k = start + sum_{j<k} Y_j dW_j, k = 0..n_steps.

    The integrand must be adapted and start a multiple of the identity
    (zero when None). Then the rows of step j's term all top out at bit
    j, so M_n is one canonical array and each M_k is a prefix view of it,
    equal bit for bit to the fold M_{k+1} = M_k + Y_k dW_k.
    """
    n = grid.n
    steps = _steps(grid, integrand)
    _require_adapted(steps)
    if start is None:
        start = CliffordElement.zero(n)
    if start.n != n:
        raise ValueError(f"start has n={start.n}, grid needs {n}")
    if start.n_terms > 1 or start.masks.any():
        raise ValueError(
            "start value at step 0 is not a multiple of the identity"
        )
    first = _Stack(n, np.full(start.n_terms, -1), start.masks, start.amps)
    path = _paths(steps, np.sqrt(grid.dt), first)
    seq = MartingaleSeq(grid, path.prefixes(grid.n_steps), check=False)
    seq._layout = (path, tuple(seq.values))
    return seq


def _require_adapted(steps):
    """Refuse a stack of integrands with a row outside its step's C_k,
    naming that step: the first such step of the first such sample."""
    step = steps.step
    outside = ~sp.rows_within(steps.masks, step)
    if outside.any():
        bad = int(step[outside][0])
        raise ValueError(f"integrand value at step {bad} is not adapted")


def _paths(steps, root, first=None):
    """The martingales M_k = M_0 + sum_{j<k} Y_j dW_j of each sample of a
    stack of adapted integrands, dW_j = root g_j, in one canonical stack:
    first holds each sample's start rows M_0 at step -1 (none when None).
    """
    terms = steps.mul_generator("right").scale(root)
    return terms.canonical() if first is None else first + terms


def _layout_breaks(path):
    """Per row of a path stack, whether it breaks the prefix layout: its
    top bit is not its step, or its amplitude is not finite."""
    return (sp.top_bit(path.masks) != path.step) | ~np.isfinite(path.amps)


def _require_layout(path):
    """Refuse a batch of paths with a row that breaks the prefix layout,
    naming its sample; the batch checks read every sample off it."""
    breaks = _layout_breaks(path)
    if breaks.any():
        bad = int(path.sample[breaks][0])
        raise ValueError(
            f"path of sample {bad} leaves the prefix layout "
            "(a non-finite amplitude)"
        )


def _require_batch(grid, stack):
    """Refuse a stack that is not one process (no period) or a batch of
    processes on grid (period n_steps + 1, see algebra._Stack)."""
    if stack.period not in (None, grid.n_steps + 1):
        raise ValueError(
            f"batch period {stack.period} does not fit a grid of "
            f"{grid.n_steps} steps"
        )


def _steps(grid, integrand, count=None):
    """Stack of the integrand's values on steps 0..count-1, all of the
    grid's steps when None."""
    if count is None:
        if len(integrand) < grid.n_steps:
            raise ValueError("integrand must provide one value per step")
        count = grid.n_steps
    values = [integrand[k] for k in range(count)]
    _require_sizes(grid, values)
    return _Stack.of(grid.n, values)


def _require_sizes(grid, values):
    """Refuse a value on another algebra size than the grid's."""
    for k, v in enumerate(values):
        if v.n != grid.n:
            raise ValueError(
                f"value at step {k} has n={v.n}, grid needs {grid.n}"
            )


def _prefix_layout(seq):
    """The stack of M_n's rows of a sequence from right_integral_path, or
    None when the prefix route does not apply.

    It applies while the values are still the objects the path built (one
    identity check per step) and the data bear out the layout: every row
    entering at step k has top bit exactly k, the start's rows none (a
    multiple of the identity), and every amplitude is finite. Then
    E[M_{k+1} | C_k] keeps exactly the rows of M_k, and M_{k+1} - M_k is
    exactly the rows entering at step k.
    """
    layout = getattr(seq, "_layout", None)
    if layout is None:
        return None
    path, built = layout
    if len(seq.values) != len(built) or any(
        a is not b for a, b in zip(seq.values, built)
    ):
        return None
    if _layout_breaks(path).any():
        return None
    return path


def check_martingale(seq):
    """max_k || E[M_{k+1} | C_k] - M_k ||_2 over the sequence.

    On a sequence from right_integral_path (see _prefix_layout) the gap is
    read off the prefix layout in time linear in M_n's rows, and is
    exactly 0.0. Any other sequence takes the stacked route, the
    reference: it stacks M_1..M_n and M_0..M_{n-1} and sorts them, so its
    cost grows with the sum of all the values' rows.
    """
    if _prefix_layout(seq) is not None:
        return 0.0
    return _stacked_gap(seq)


def _stacked_gap(seq):
    n = seq.grid.n_steps
    later = _Stack.of(seq.grid.n, seq[1 : n + 1]).within()
    worst = 0.0
    for gap in (later - _Stack.of(seq.grid.n, seq[:n])).norms(0, n):
        worst = max(worst, gap)
    return worst


def _size(seq):
    """1 + ||M_n||_2, the size a martingale tolerance is relative to. A
    martingale's values are conditional expectations of M_n, so none is
    larger; a tolerance times this is relative for large values and
    absolute for small ones."""
    return 1.0 + norm2(seq[-1])


def mrep_extract(grid, seq, tol=1e-12):
    """Representing integrand of a martingale: Y_k = (M_{k+1} - M_k) dW_k / dt.

    Requires the martingale property and a scalar start equal to the vacuum
    of the terminal value, both to tol relative to the sequence's size;
    then sum_k Y_k dW_k reproduces M_n - M_0 with zero residual.

    On a sequence from right_integral_path with grid's step count (see
    _prefix_layout) the increments are the row blocks of M_n that enter
    at each step, so the whole extraction is linear in M_n's rows and
    sorts nothing. Any other sequence takes the stacked route, the
    reference, which stacks and sorts all 2 n_steps values. Both give the
    same result bit for bit.
    """
    same_steps = seq.grid.n_steps == grid.n_steps
    path = _prefix_layout(seq) if same_steps else None
    gap = 0.0 if path is not None else _stacked_gap(seq)
    size = _size(seq)
    if gap > tol * size:
        raise ValueError(
            f"not a martingale: conditional-expectation gap {gap:.3e}"
        )
    start = seq[0] - CliffordElement.scalar(grid.n, seq[-1].vacuum())
    if norm2(start) > tol * size:
        raise ValueError(
            "martingale must start at vacuum(M_n) times the identity"
        )
    n = grid.n_steps
    if path is not None:
        diff = path.select(path.seg >= 0)
    else:
        diff = _Stack.of(grid.n, seq[1 : n + 1]) - _Stack.of(grid.n, seq[:n])
    y = diff.representing(np.sqrt(grid.dt))
    return AdaptedProcess(grid, y.values(0, n), check=False)


def _isometry_batch(grid, steps):
    """The isometry residual of each sample of adapted integrands on grid
    in one canonical batch stack (see _require_batch).

    Per sample with integral I = right_integral and sum
    S = sum_k dt ||Y_k||^2 (Python's sum over the steps), the residual is
    | ||I||^2 - S | / (1 + S), as a list of floats equal bit for bit to
    those calls on each sample alone. Every sample's path is checked to
    keep the prefix layout, so its right_integral_path has martingale gap
    exactly 0.0 (see check_martingale).
    """
    _require_batch(grid, steps)
    _require_adapted(steps)
    path = _paths(steps, np.sqrt(grid.dt))
    _require_layout(path)
    # In the layout the rows of step k top out at bit k, so a sample's
    # rows in step order are already its integral's canonical rows.
    integral = _Stack(grid.n, path.sample, path.masks, path.amps)
    norm_sq = integral.squares(np.arange(steps.samples))
    # A left fold, as cli._ito_sample_zero's: NumPy reductions pair, and
    # the builtin sum compensates floats from Python 3.12 on.
    steps_sq = grid.dt * steps.step_squares(grid.n_steps)
    total = np.array([reduce(add, row, 0.0) for row in steps_sq.tolist()])
    return (np.abs(norm_sq - total) / (1.0 + total)).tolist()


def _representation_batch(grid, steps, starts):
    """The representation residual of the martingale of each sample s of
    adapted integrands on grid in one canonical batch stack (see
    _require_batch), started at the scalar starts[s]: with
    M = right_integral_path, D = M_n - M_0 and
    R = right_integral(grid, mrep_extract(grid, M)), the residual
    ||R - D|| / (1 + ||D||), as a list of floats equal bit for bit to
    those calls on each sample alone.
    """
    root = np.sqrt(grid.dt)
    _require_batch(grid, steps)
    if len(starts) != steps.samples:
        raise ValueError(
            f"{len(starts)} starts for a batch of {steps.samples} samples"
        )
    _require_adapted(steps)
    held = np.flatnonzero(starts)
    first = _Stack(
        grid.n,
        held * steps.period - 1,
        np.zeros((held.size, sp.words_for(grid.n)), np.uint64),
        starts[held].astype(np.complex128),
        steps.period,
        steps.samples,
    )
    path = _paths(steps, root, first)
    _require_layout(path)
    # In the layout M_0 is the start row, whose amplitude is vacuum(M_n),
    # so mrep_extract's guards read a gap and a start defect of 0.0, and
    # D is the rows past the start, canonical per sample.
    increments = path.select(path.step >= 0)
    recon = _integrals(increments.representing(root), "right", root)
    target = _Stack(
        grid.n, increments.sample, increments.masks, increments.amps
    )
    every = np.arange(steps.samples)
    err = np.sqrt((recon - target).squares(every))
    size = np.sqrt(target.squares(every))
    return (err / (1.0 + size)).tolist()


def bg_ratios(grid, integrand, p=2.0):
    """Terminal L^p norm of each integral against its square function.

    The square function is s = (sum_k dt Y_k* Y_k)^(1/2) for the right
    integral and the same with Y_k Y_k* for the left one; the L^p norm of s
    is taken spectrally, on the blocks of algebra._block_stacks, so n is
    limited to MAX_MATRIX_GENERATORS. The integrand must be adapted.
    Returns both quotients for both integrals, with zero denominators
    flagged instead of divided by. bg_ratio_sweep gives the same for
    several p at once.
    """
    return bg_ratio_sweep(grid, integrand, (p,))[0]


def bg_ratio_sweep(grid, integrand, ps):
    """bg_ratios(grid, integrand, p) for every p in ps, in order: the
    one-sample case of _bg_batch."""
    return _bg_batch(grid, _steps(grid, integrand), ps)[0]


def _bg_batch(grid, steps, ps):
    """bg_ratio_sweep of each sample of adapted integrands on grid in one
    canonical batch stack (see _require_batch), as a list over the
    samples, equal bit for bit to the call on each sample alone.

    The right integrals of all samples are one stacked sum, and their
    blocks take one SVD per block shape, read for all of ps
    (algebra._lp_norms). The left integral shares that spectrum and that
    2-norm: for adapted Y_k, dW_k Y_k = grading(Y_k) dW_k, so it is
    -grading(right integral) bit for bit, and the grading is a
    trace-preserving *-automorphism. The square functions of both sides
    (_square_functions) take one eigvalsh per block shape of their
    blocks.
    """
    if not all(p >= 1 for p in ps):
        raise ValueError("p must be at least 1")
    # The blocks of the right integral hold up to 2^n entries.
    if grid.n > MAX_MATRIX_GENERATORS:
        raise ValueError(
            f"block spectra refused for n={grid.n} "
            f"(> {MAX_MATRIX_GENERATORS})"
        )
    _require_batch(grid, steps)
    _require_adapted(steps)
    samples = steps.samples
    integrals = _integrals(steps, "right", np.sqrt(grid.dt))
    i_norms = _lp_norms(integrals.values(0, samples), ps)
    squares = _square_functions(grid, steps, False)
    squares += _square_functions(grid, steps, True)
    lams = [
        np.clip(lam.ravel(), 0.0, None)
        for lam in _per_shape(squares, np.linalg.eigvalsh)
    ]
    s_norms = []
    for p in ps:
        if p == np.inf:
            s_norms.append([float(np.sqrt(lam.max())) for lam in lams])
        else:
            s_norms.append(
                [m ** (1.0 / p) for m in _power_means(lams, p / 2.0)]
            )
    out = []
    for s in range(samples):
        sweep = [{"p": p, "flagged_zero": False} for p in ps]
        for side, at in (("right", s), ("left", samples + s)):
            for j, result in enumerate(sweep):
                i_norm, s_norm = i_norms[s][j], s_norms[j][at]
                entry = {
                    "integral_norm": i_norm, "square_function_norm": s_norm
                }
                if s_norm == 0.0 or i_norm == 0.0:
                    result["flagged_zero"] = True
                    entry["ratio"] = None
                    entry["inverse_ratio"] = None
                else:
                    entry["ratio"] = i_norm / s_norm
                    entry["inverse_ratio"] = s_norm / i_norm
                result[side] = entry
        out.append(sweep)
    return out


def _square_functions(grid, steps, left):
    """sum_k dt Y_k* Y_k (Y_k Y_k* when left) of each sample of a stack
    of integrand values, as a list of elements over the samples: one
    stacked product for all steps, scaled, then the totals of
    _Stack.folds, each sample's steps summed in step order, equal bit
    for bit to the fold total + dt Y_k* Y_k of elements."""
    star = steps.adjoint()
    squares = steps.products(star) if left else star.products(steps)
    _, totals = squares.scale(grid.dt).folds(grid.n_steps)
    return totals.values(0, steps.samples)


def commutation_check(grid, process):
    """How far increments are from commuting with even and anticommuting
    with odd adapted parts; exactly zero for adapted input.

    Checks dW_k a_e - a_e dW_k, dW_k a_o + a_o dW_k, and the combined form
    dW_k a - grading(a) dW_k at every step; returns the worst 2-norm.
    """
    count = min(len(process), grid.n_steps)
    return _commutation_worst(grid, _steps(grid, process, count), count)[0]


def _commutation_worst(grid, a, steps=None):
    """commutation_check of each sample of values on grid in one
    canonical stack (see _require_batch), over steps 0..steps-1 (all of
    grid's when None), as a list of floats equal bit for bit to the call
    on each sample alone."""
    _require_batch(grid, a)
    steps = grid.n_steps if steps is None else steps
    root = np.sqrt(grid.dt)
    odd = a.parity() == 1
    ae, ao = a.select(~odd), a.select(odd)
    defects = (
        ae.mul_generator("left") - ae.mul_generator("right"),
        ao.mul_generator("left") + ao.mul_generator("right"),
        a.mul_generator("left") - a.grading().mul_generator("right"),
    )
    norms = np.stack(
        [np.sqrt(d.step_squares(steps)) for d in defects], axis=2
    )
    # The worst over steps, then defects, from 0.0; np.fmax skips a NaN
    # as a fold of max(worst, x) does.
    worst = np.fmax.reduce(
        (norms * root).reshape(a.samples, -1), axis=1, initial=0.0
    )
    return worst.tolist()
