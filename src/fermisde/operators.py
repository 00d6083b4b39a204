"""Linear maps on the algebra, kept in structured form.

Coefficient derivatives and the second adjoint are linear maps on elements.
Rather than materializing 2^n x 2^n matrices, maps are composed from a few
primitives (scalar, left or right multiplication, the grading automorphism,
sums, compositions). Adjoints are taken with respect to <a, b> = m(a* b):

    (left mult by c)* = left mult by c*,   (right mult by c)* = right mult
    by c*,   grading* = grading,   (scalar a)* = scalar conj(a).

Even/odd parts of a map T are T_e = (T + G T G)/2 and T_o = (T - G T G)/2
with G the grading; T = T_e + T_o.

Maps of the form alpha*Id + beta*Grading close under sum, composition and
adjoint; `GradedScalarOp` keeps them in that closed form, which is what the
deterministic second adjoint propagates.
"""

from __future__ import annotations

import numpy as np

from . import _sparse as sp
from .algebra import CliffordElement

__all__ = [
    "ElementOperator",
    "ScalarOp",
    "GradingOp",
    "LeftMulOp",
    "RightMulOp",
    "SumOp",
    "ComposeOp",
    "GradedScalarOp",
    "BilinearMap",
    "op_adjoint",
    "op_grade_parts",
    "op_to_dense",
]

MAX_DENSE_GENERATORS = 10


class ElementOperator:
    """Base class; subclasses implement apply and adjoint."""

    def apply(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(x)

    def adjoint(self):
        raise NotImplementedError

    def __add__(self, other):
        return SumOp([self, other])

    def __matmul__(self, other):
        return ComposeOp([self, other])

    def scale(self, c):
        return ComposeOp([ScalarOp(c), self])

    def as_graded_scalar(self):
        """Reduce to GradedScalarOp when structurally possible, else None."""
        return None

    def grade_parts(self):
        g = GradingOp()
        conj = ComposeOp([g, self, g])
        even = SumOp([self, conj]).scale(0.5)
        odd = SumOp([self, conj.scale(-1.0)]).scale(0.5)
        return even, odd


class ScalarOp(ElementOperator):
    def __init__(self, value):
        self.value = complex(value)

    def apply(self, x):
        return x.scale(self.value)

    def adjoint(self):
        return ScalarOp(np.conj(self.value))

    def as_graded_scalar(self):
        return GradedScalarOp(self.value, 0.0)

    def __repr__(self):
        return f"ScalarOp({self.value:g})"


class GradingOp(ElementOperator):
    def apply(self, x):
        return x.grading()

    def adjoint(self):
        return self

    def as_graded_scalar(self):
        return GradedScalarOp(0.0, 1.0)

    def __repr__(self):
        return "GradingOp()"


def _as_scalar_amp(el):
    """Amplitude when the element is a multiple of I (0 included), else None."""
    if el.n_terms == 0:
        return 0.0 + 0.0j
    # The one row's mask words read as bytes: no NumPy reduction.
    if el.n_terms == 1 and not any(el.masks.tobytes()):
        return complex(el.amps[0])
    return None


class _MulOp(ElementOperator):
    """Multiplication by a fixed element; subclasses fix the side."""

    def __init__(self, element):
        self.element = element

    def adjoint(self):
        return type(self)(self.element.adjoint())

    def as_graded_scalar(self):
        amp = _as_scalar_amp(self.element)
        return None if amp is None else GradedScalarOp(amp, 0.0)

    def __repr__(self):
        return f"{type(self).__name__}({self.element!r})"


class LeftMulOp(_MulOp):
    def apply(self, x):
        return self.element * x


class RightMulOp(_MulOp):
    def apply(self, x):
        return x * self.element


class SumOp(ElementOperator):
    def __init__(self, parts):
        self.parts = list(parts)

    def apply(self, x):
        out = None
        for p in self.parts:
            y = p.apply(x)
            out = y if out is None else out + y
        if out is None:
            return x.scale(0.0)
        return out

    def adjoint(self):
        return SumOp([p.adjoint() for p in self.parts])

    def as_graded_scalar(self):
        alpha = 0.0 + 0.0j
        beta = 0.0 + 0.0j
        for p in self.parts:
            g = p.as_graded_scalar()
            if g is None:
                return None
            alpha += g.alpha
            beta += g.beta
        return GradedScalarOp(alpha, beta)

    def __repr__(self):
        return f"SumOp({self.parts!r})"


class ComposeOp(ElementOperator):
    """Composition, applied right to left: Compose([A, B])(x) = A(B(x))."""

    def __init__(self, parts):
        self.parts = list(parts)

    def apply(self, x):
        for p in reversed(self.parts):
            x = p.apply(x)
        return x

    def adjoint(self):
        return ComposeOp([p.adjoint() for p in reversed(self.parts)])

    def as_graded_scalar(self):
        out = GradedScalarOp(1.0, 0.0)
        for p in self.parts:
            g = p.as_graded_scalar()
            if g is None:
                return None
            out = out @ g
        return out

    def __repr__(self):
        return f"ComposeOp({self.parts!r})"


class GradedScalarOp(ElementOperator):
    """alpha*Id + beta*Grading, closed under the operations used here.

    Composition (either order, they commute):
    (a1 + b1 G)(a2 + b2 G) = (a1 a2 + b1 b2) + (a1 b2 + b1 a2) G.
    """

    def __init__(self, alpha, beta):
        self.alpha = complex(alpha)
        self.beta = complex(beta)

    def apply(self, x):
        if self.beta == 0:
            return x.scale(self.alpha)
        # Same mask frame, per-row coefficient by parity; no sorting.
        amps, keep = self.apply_rows(x.amps, sp.popcount_rows(x.masks) & 1)
        if keep.all():
            return CliffordElement._wrap(x.n, x.masks, amps)
        return CliffordElement._wrap(x.n, x.masks[keep], amps[keep])

    def apply_rows(self, amps, odd):
        """apply on rows whose parity odd flags: (new amplitudes, the rows
        kept or None for all).

        With beta == 0 the rows are multiplied by the Python scalar
        alpha, as scale does, and all dropped when alpha is 0. Otherwise
        each row takes its parity's coefficient from one array, held on
        the right (NumPy rounds a complex product by operand order), and
        exact zeros are dropped."""
        if self.beta == 0:
            if self.alpha == 0:
                return amps, np.zeros(amps.shape[0], dtype=bool)
            return amps * self.alpha, None
        coef = np.where(odd, self.alpha - self.beta, self.alpha + self.beta)
        out = amps * coef
        return out, out != 0

    def adjoint(self):
        return GradedScalarOp(np.conj(self.alpha), np.conj(self.beta))

    def as_graded_scalar(self):
        return self

    def __add__(self, other):
        g = other.as_graded_scalar() if isinstance(other, ElementOperator) else None
        if g is not None:
            return GradedScalarOp(self.alpha + g.alpha, self.beta + g.beta)
        return SumOp([self, other])

    def __matmul__(self, other):
        g = other.as_graded_scalar() if isinstance(other, ElementOperator) else None
        if g is not None:
            return GradedScalarOp(
                self.alpha * g.alpha + self.beta * g.beta,
                self.alpha * g.beta + self.beta * g.alpha,
            )
        return ComposeOp([self, other])

    def scale(self, c):
        return GradedScalarOp(self.alpha * c, self.beta * c)

    def conjugate_by_grading(self):
        """G T G; for this family it is the identity map on coefficients."""
        return GradedScalarOp(self.alpha, self.beta)

    def grade_parts(self):
        return GradedScalarOp(self.alpha, self.beta), GradedScalarOp(0.0, 0.0)

    def symmetrized(self):
        return GradedScalarOp(
            (self.alpha + np.conj(self.alpha)) / 2,
            (self.beta + np.conj(self.beta)) / 2,
        )

    def inverse(self):
        """(alpha + beta G)^(-1) = (alpha - beta G) / (alpha^2 - beta^2)."""
        det = self.alpha * self.alpha - self.beta * self.beta
        if det == 0:
            raise ZeroDivisionError("graded-scalar operator is singular")
        return GradedScalarOp(self.alpha / det, -self.beta / det)

    def __repr__(self):
        return f"GradedScalarOp({self.alpha:g}, {self.beta:g})"


def op_adjoint(op):
    """Adjoint with respect to <a, b> = m(a* b)."""
    return op.adjoint()


def op_grade_parts(op):
    """(T_e, T_o) with T_e = (T + G T G)/2; T = T_e + T_o."""
    return op.grade_parts()


def op_to_dense(op, n):
    """Matrix of the map in monomial coordinates (mask order), small n only.

    In these coordinates the pairing is the standard inner product, so the
    adjoint corresponds to the conjugate transpose.
    """
    if n > MAX_DENSE_GENERATORS:
        raise ValueError(f"dense operator matrix refused for n={n}")
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        basis = CliffordElement.from_terms(n, {mask: 1.0})
        img = op.apply(basis)
        for m2, amp in img.terms().items():
            out[m2, mask] = amp
    return out


class BilinearMap:
    """Bilinear rule in two element arguments.

    The value is an element (for coefficient second derivatives) or a real
    number (for cost second derivatives). A map may carry an `operator`
    which represents it against the pairing: value(v, w) =
    Re <operator(v), w>; the deterministic second adjoint requires that
    form for its driver terms.
    """

    def __init__(self, fn=None, operator=None):
        self._fn = fn
        self.operator = operator

    @classmethod
    def zero(cls):
        return cls(fn=None)

    @property
    def is_zero(self):
        return self._fn is None and self.operator is None

    def __call__(self, v, w):
        if self._fn is not None:
            return self._fn(v, w)
        if self.operator is not None:
            from .algebra import pairing

            return pairing(self.operator.apply(v), w).real
        raise ValueError("zero bilinear map evaluated; check is_zero first")
