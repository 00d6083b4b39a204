"""Finite Clifford algebra with a tracial vacuum state.

The algebra over n generators g_0, .., g_{n-1} satisfies

    g_j g_k + g_k g_j = 2 delta_{jk} I,      g_j* = g_j,

so ordered products g_S = g_{s_1} .. g_{s_m} (s_1 < .. < s_m, S a subset of
indices) form a basis of dimension 2^n. The vacuum functional m(a) reads off
the coefficient of the empty product; it is the unique normalized trace, and
the basis monomials are orthonormal for the pairing <a, b> = m(a* b). All
arithmetic here is exact up to float rounding: products are signed XORs of
index sets, no matrix representation is involved.

A faithful matrix representation (Jordan-Wigner, Pauli strings on
ceil(n/2) qubits) is available separately for spectral quantities such as
L^p norms with p != 2.
"""

from __future__ import annotations

import numpy as np

from . import _sparse as sp

__all__ = [
    "CliffordElement",
    "MatrixRep",
    "zero",
    "identity",
    "generator",
    "mul",
    "adjoint",
    "grading",
    "even_part",
    "odd_part",
    "vacuum",
    "pairing",
    "norm2",
    "cond_expect",
    "jw_rep",
    "lp_norm",
    "random_element",
]

# Largest n for which the matrix representation is built at all. Beyond
# this, p != 2 norms are refused rather than silently approximated.
MAX_MATRIX_GENERATORS = 14


class CliffordElement:
    """Immutable sparse element: canonical (masks, amps) over n generators."""

    __slots__ = ("n", "masks", "amps")

    def __init__(self, n, masks, amps, presorted=False, tol=0.0):
        if n < 0:
            raise ValueError("number of generators must be nonnegative")
        w = sp.words_for(n)
        masks = np.asarray(masks, dtype=np.uint64).reshape(-1, w)
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        if masks.shape[0] != amps.shape[0]:
            raise ValueError("masks and amps length mismatch")
        if masks.shape[0]:
            stray = masks & ~sp.below_row(n, w)[None, :]
            if stray.any():
                raise ValueError(f"mask uses generators beyond n={n}")
        masks, amps = sp.canonicalize(masks, amps, presorted=presorted, tol=tol)
        masks.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):
        raise AttributeError("CliffordElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, sp.empty_masks(sp.words_for(n)), np.zeros(0, complex))

    @classmethod
    def scalar(cls, n, value):
        if value == 0:
            return cls.zero(n)
        w = sp.words_for(n)
        return cls(n, np.zeros((1, w), np.uint64), np.array([value]))

    @classmethod
    def identity(cls, n):
        return cls.scalar(n, 1.0)

    @classmethod
    def generator(cls, n, k):
        if not 0 <= k < n:
            raise ValueError(f"generator index {k} outside 0..{n - 1}")
        w = sp.words_for(n)
        return cls(n, sp.encode_mask(1 << k, w)[None, :], np.array([1.0 + 0j]))

    @classmethod
    def from_terms(cls, n, terms):
        """Build from {mask (Python int): amplitude}."""
        w = sp.words_for(n)
        if not terms:
            return cls.zero(n)
        masks = np.stack([sp.encode_mask(m, w) for m in terms])
        amps = np.array(list(terms.values()), dtype=np.complex128)
        return cls(n, masks, amps)

    @classmethod
    def _wrap(cls, n, masks, amps):
        """Trusted constructor for already-canonical arrays."""
        out = object.__new__(cls)
        masks.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "masks", masks)
        object.__setattr__(out, "amps", amps)
        return out

    # -- inspection --------------------------------------------------------

    @property
    def n_terms(self):
        return self.amps.shape[0]

    def terms(self):
        """Dict {mask (Python int): amplitude}, sorted by canonical order."""
        return {
            sp.decode_mask(self.masks[i]): complex(self.amps[i])
            for i in range(self.n_terms)
        }

    def __repr__(self):
        shown = list(self.terms().items())[:4]
        body = ", ".join(f"{m:#x}: {a:.3g}" for m, a in shown)
        more = "" if self.n_terms <= 4 else f", .. ({self.n_terms} terms)"
        return f"CliffordElement(n={self.n}, {{{body}{more}}})"

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(
                f"mixing algebras with n={self.n} and n={other.n}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = CliffordElement.scalar(self.n, other)
        self._check(other)
        w = sp.words_for(self.n)
        masks, amps = sp.merge_sum(
            [(self.masks, self.amps), (other.masks, other.amps)], w
        )
        return CliffordElement._wrap(self.n, masks, amps)

    __radd__ = __add__

    def __neg__(self):
        return CliffordElement._wrap(self.n, self.masks, -self.amps)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = CliffordElement.scalar(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        if c == 0:
            return CliffordElement.zero(self.n)
        return CliffordElement._wrap(self.n, self.masks, self.amps * c)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        self._check(other)
        masks, amps = sp.mul_full(
            self.masks, self.amps, other.masks, other.amps
        )
        return CliffordElement._wrap(self.n, masks, amps)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def mul_generator(self, k, side="right"):
        """Product with generator k, O(terms)."""
        if not 0 <= k < self.n:
            raise ValueError(f"generator index {k} outside 0..{self.n - 1}")
        masks, amps = sp.mul_generator(self.masks, self.amps, k, side)
        return CliffordElement._wrap(self.n, masks, amps)

    # -- star structure and grading ---------------------------------------

    def adjoint(self):
        pc = sp.popcount_rows(self.masks)
        flip = (pc * (pc - 1) // 2) & 1
        signs = np.where(flip == 1, -1.0, 1.0)
        return CliffordElement._wrap(
            self.n, self.masks, np.conj(self.amps) * signs
        )

    def grading(self):
        pc = sp.popcount_rows(self.masks)
        signs = np.where(pc & 1, -1.0, 1.0)
        return CliffordElement._wrap(self.n, self.masks, self.amps * signs)

    def even_part(self):
        keep = (sp.popcount_rows(self.masks) & 1) == 0
        return CliffordElement._wrap(self.n, self.masks[keep], self.amps[keep])

    def odd_part(self):
        keep = (sp.popcount_rows(self.masks) & 1) == 1
        return CliffordElement._wrap(self.n, self.masks[keep], self.amps[keep])

    # -- state and norms ---------------------------------------------------

    def vacuum(self):
        """Coefficient of the empty monomial (the normalized trace)."""
        if self.n_terms and not self.masks[0].any():
            return complex(self.amps[0])
        return 0.0 + 0.0j

    def norm2_sq(self):
        """Exact squared 2-norm m(a* a) = sum |amp|^2."""
        return float(np.vdot(self.amps, self.amps).real)

    def prune(self, budget):
        """Drop a relative ell^2 mass of at most `budget`; returns
        (element, dropped_squared_mass)."""
        masks, amps, dropped = sp.prune_mass(self.masks, self.amps, budget)
        return CliffordElement._wrap(self.n, masks, amps), dropped

    def isfinite(self):
        return bool(np.isfinite(self.amps).all()) if self.n_terms else True


# -- module-level operation names -----------------------------------------


def zero(n):
    return CliffordElement.zero(n)


def identity(n):
    return CliffordElement.identity(n)


def generator(n, k):
    return CliffordElement.generator(n, k)


def mul(a, b):
    return a * b


def adjoint(a):
    return a.adjoint()


def grading(a):
    return a.grading()


def even_part(a):
    return a.even_part()


def odd_part(a):
    return a.odd_part()


def vacuum(a):
    return a.vacuum()


def pairing(a, b):
    """<a, b> = m(a* b); monomials are orthonormal, so this is a matched
    conjugated dot product over equal masks."""
    if a.n != b.n:
        raise ValueError(f"mixing algebras with n={a.n} and n={b.n}")
    if a is b:
        return complex(np.vdot(a.amps, a.amps))
    return sp.dot_conj(a.masks, a.amps, b.masks, b.amps)


def norm2(a):
    return float(np.sqrt(a.norm2_sq()))


def cond_expect(a, k):
    """Conditional expectation onto the subalgebra of generators 0..k-1.

    Monomials using any generator >= k are dropped; this preserves the
    vacuum, is a projection, and is a module map over the subalgebra.
    """
    if k < 0:
        raise ValueError("filtration index must be nonnegative")
    keep = sp.rows_within(a.masks, k)
    return CliffordElement._wrap(a.n, a.masks[keep], a.amps[keep])


# -- matrix representation -------------------------------------------------


class MatrixRep:
    """Jordan-Wigner matrices for n generators on d = 2^ceil(n/2) dimensions.

    Generators are kept as signed permutations (column j maps to row
    perm[j] with factor phase[j]); monomial images compose in O(d) each.
    """

    def __init__(self, n):
        if n < 0:
            raise ValueError("number of generators must be nonnegative")
        if n > MAX_MATRIX_GENERATORS:
            raise ValueError(
                f"matrix representation refused for n={n} "
                f"(> {MAX_MATRIX_GENERATORS})"
            )
        self.n = n
        self.qubits = max(1, -(-n // 2))
        self.d = 1 << self.qubits
        idx = np.arange(self.d)
        self._gens = []
        for k in range(n):
            q, odd = divmod(k, 2)
            low = (1 << q) - 1
            zsign = np.where(
                np.bitwise_count(idx & low) & 1, -1.0 + 0j, 1.0 + 0j
            )
            perm = idx ^ (1 << q)
            if odd:
                phase = zsign * np.where((idx >> q) & 1, -1j, 1j)
            else:
                phase = zsign
            self._gens.append((perm, phase))

    def monomial(self, mask_bits):
        """(perm, phase) image of the ordered product over mask_bits."""
        idx = np.arange(self.d)
        perm = idx
        phase = np.ones(self.d, dtype=np.complex128)
        for k in mask_bits:
            gp, gf = self._gens[k]
            phase = gf * phase[gp]
            perm = perm[gp]
        return perm, phase

    def matrix(self, a):
        """Dense image of a CliffordElement."""
        if a.n != self.n:
            raise ValueError("element and representation sizes differ")
        out = np.zeros((self.d, self.d), dtype=np.complex128)
        cols = np.arange(self.d)
        for i in range(a.n_terms):
            bits = _mask_bits(a.masks[i])
            perm, phase = self.monomial(bits)
            out[perm, cols] += a.amps[i] * phase
        return out

    def trace_state(self, a):
        """Normalized trace of the image, computed without densifying."""
        total = 0.0 + 0.0j
        idx = np.arange(self.d)
        for i in range(a.n_terms):
            perm, phase = self.monomial(_mask_bits(a.masks[i]))
            fixed = perm == idx
            if fixed.any():
                total += a.amps[i] * phase[fixed].sum()
        return total / self.d


def _mask_bits(row):
    bits = []
    for w in range(row.shape[0]):
        word = int(row[w])
        base = 64 * w
        while word:
            low = word & -word
            bits.append(base + low.bit_length() - 1)
            word ^= low
    return bits


_REP_CACHE: dict[int, MatrixRep] = {}


def jw_rep(n):
    """Cached matrix representation for n generators."""
    rep = _REP_CACHE.get(n)
    if rep is None:
        rep = MatrixRep(n)
        _REP_CACHE[n] = rep
    return rep


def lp_norm(a, p, rep=None):
    """Noncommutative L^p norm, (m(|a|^p))^(1/p), p in [1, inf].

    p = 2 is exact from the pairing. Other p use singular values in the
    matrix representation and are limited to small n.
    """
    if p == 2:
        return norm2(a)
    if not (p >= 1):
        raise ValueError("p must be at least 1")
    if rep is None:
        if a.n > MAX_MATRIX_GENERATORS:
            raise ValueError(
                f"L^{p} norm needs the matrix route, refused for n={a.n} "
                f"(> {MAX_MATRIX_GENERATORS}); p=2 is available exactly"
            )
        rep = jw_rep(a.n)
    s = np.linalg.svd(rep.matrix(a), compute_uv=False)
    if p == np.inf:
        return float(s[0]) if s.size else 0.0
    return float(np.mean(s**p) ** (1.0 / p))


def random_element(rng, n, n_terms=8, max_generator=None, real=False):
    """Random element with about n_terms monomials, amplitudes O(1).

    Masks draw uniformly over subsets of generators below `max_generator`
    (default n). Deterministic given the generator state.
    """
    top = n if max_generator is None else min(max_generator, n)
    w = sp.words_for(n)
    if n_terms <= 0:
        return CliffordElement.zero(n)
    masks = np.zeros((n_terms, w), dtype=np.uint64)
    for i in range(n_terms):
        mask = 0
        for b in range(top):
            if rng.random() < 0.5:
                mask |= 1 << b
        masks[i] = sp.encode_mask(mask, w)
    re = rng.normal(size=n_terms)
    im = np.zeros(n_terms) if real else rng.normal(size=n_terms)
    return CliffordElement(n, masks, re + 1j * im)
