"""Finite Clifford algebra with a tracial vacuum state.

The algebra over n generators g_0, .., g_{n-1} satisfies

    g_j g_k + g_k g_j = 2 delta_{jk} I,      g_j* = g_j,

so ordered products g_S = g_{s_1} .. g_{s_m} (s_1 < .. < s_m, S a subset of
indices) form a basis of dimension 2^n. The vacuum functional m(a) reads off
the coefficient of the empty product; it is the unique normalized trace, and
the basis monomials are orthonormal for the pairing <a, b> = m(a* b). All
arithmetic here is exact up to float rounding: products are signed XORs of
index sets, no matrix representation is involved.

Spectral quantities such as L^p norms with p != 2 are read off one
element's blocks: the representation of the algebra its monomials
generate, at most 2^7 x 2^7 each, with the spectral distribution of any
faithful trace-preserving image (singular_values, lp_norm). The
Jordan-Wigner representation (MatrixRep, Pauli strings on ceil(n/2)
qubits) stays as the dense reference for n <= MAX_MATRIX_GENERATORS.
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
    "singular_values",
]

# Largest n for which the Jordan-Wigner matrices are built, and largest
# rank of the span of an element's masks for which its block spectrum is:
# beyond it, p != 2 norms are refused rather than silently approximated.
MAX_MATRIX_GENERATORS = 14


# The zero element of each algebra size, built once by CliffordElement.zero.
_ZEROS = {}


class CliffordElement:
    """Immutable sparse element: canonical (masks, amps) over n generators."""

    __slots__ = ("n", "masks", "amps")

    def __init__(self, n, masks, amps):
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
        masks, amps = sp.canonicalize(masks, amps)
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
        """The zero element; one shared instance per n (elements are
        immutable and their arrays read-only)."""
        z = _ZEROS.get(n)
        if z is None:
            z = cls(n, sp.empty_masks(sp.words_for(n)), np.zeros(0, complex))
            _ZEROS[n] = z
        return z

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
        return CliffordElement._wrap(
            self.n, self.masks, _adjoint_amps(self.masks, self.amps)
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
        return _sum_sq(self.amps)

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
        return complex(_sum_sq(a.amps))
    return sp.dot_conj(a.masks, a.amps, b.masks, b.amps)


def norm2(a):
    return float(np.sqrt(a.norm2_sq()))


def _adjoint_amps(masks, amps):
    """Amplitudes of the adjoint: g_S* reverses the |S| factors of g_S,
    a sign of (-1)^(|S|(|S|-1)/2)."""
    pc = sp.popcount_rows(masks)
    signs = np.where((pc * (pc - 1) // 2) & 1, -1.0, 1.0)
    return np.conj(amps) * signs


def _sum_sq(amps):
    """sum |amp|^2 by NumPy's own pairwise sum. A BLAS dot product
    (np.vdot) splits a long vector among its threads, so its rounding
    would depend on the thread count; this does not."""
    return float(np.add.reduce(amps.real**2 + amps.imag**2))


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

    Every monomial maps to a Pauli string (x, z, w): column j goes to row
    j ^ x with phase i^w (-1)^popcount(j & z). Generator k, with q = k // 2
    and low_q the bits below q, is the string (1 << q, low_q, 0) for even
    k and (1 << q, low_q | 1 << q, 1) for odd k; the tables hold these
    per generator.
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
        self._x = tuple(1 << (k // 2) for k in range(n))
        self._z = tuple(
            ((1 << (k // 2)) - 1) | ((k & 1) << (k // 2)) for k in range(n)
        )
        self._w = tuple(k & 1 for k in range(n))

    def strings(self, masks):
        """Per row of masks (one word), the Pauli string (x, z, w) of its
        ordered monomial, as int64 arrays with w in 0..3.

        Left-multiplying a string (x, z, w) by g_k gives (x ^ x_k,
        z ^ z_k, w + w_k + 2 popcount(x & z_k)). Composed from the highest
        generator down, x is made of the generators above k, whose X bits
        lie at q or above (above q when k is odd), while z_k holds the bits
        below q and, for odd k only, bit q. So the popcount is always 0:
        x and z are the XOR of the generators' strings and w counts the
        odd generators.
        """
        bits = masks[:, 0].astype(np.int64)
        x = np.zeros_like(bits)
        z = np.zeros_like(bits)
        w = np.zeros_like(bits)
        for k in range(self.n):
            has = (bits >> k) & 1
            x ^= has * self._x[k]
            z ^= has * self._z[k]
            w += has * self._w[k]
        return x, z, w & 3

    def monomial(self, mask_bits):
        """(perm, phase) image of the ordered monomial over the generator
        indices mask_bits."""
        mask = sum(1 << k for k in set(mask_bits))
        x, z, w = self.strings(np.array([[mask]], dtype=np.uint64))
        cols = np.arange(self.d)
        sign = 1.0 - 2.0 * (np.bitwise_count(cols & z[0]) & 1)
        re, im = _turn(np.ones(1, np.complex128), w)
        phase = np.empty(self.d, np.complex128)
        phase.real = re * sign
        phase.imag = im * sign
        return cols ^ x[0], phase

    def matrix(self, a):
        """Dense image of a CliffordElement.

        Each term adds amp i^w (-1)^popcount(j & z) at (j ^ x, j) for
        every column j. One np.bincount per real and imaginary part
        scatters a chunk of terms, term after term, which is the order
        of a per-term loop of additions into a zero matrix, so the sums
        round alike; a later chunk takes the earlier sums as its first
        weights. Temporaries hold at most _CHUNK_ENTRIES entries.
        """
        if a.n != self.n:
            raise ValueError("element and representation sizes differ")
        d = self.d
        x, z, w = self.strings(a.masks)
        turned_re, turned_im = _turn(a.amps, w)
        cols = np.arange(d)
        sums = [np.zeros(d * d), np.zeros(d * d)]
        step = max(1, _CHUNK_ENTRIES // d)
        for lo in range(0, a.n_terms, step):
            part = slice(lo, lo + step)
            where = ((cols ^ x[part, None]) * d + cols).ravel()
            sign = 1.0 - 2.0 * (np.bitwise_count(cols & z[part, None]) & 1)
            if lo:
                where = np.concatenate((np.arange(d * d), where))
            for i, turned in enumerate((turned_re, turned_im)):
                weights = (turned[part, None] * sign).ravel()
                if lo:
                    weights = np.concatenate((sums[i], weights))
                sums[i] = np.bincount(where, weights, minlength=d * d)
        out = np.empty((d, d), dtype=np.complex128)
        out.real = sums[0].reshape(d, d)
        out.imag = sums[1].reshape(d, d)
        return out

    def trace_state(self, a):
        """Normalized trace of the image, computed without densifying.

        A term with x != 0 has no diagonal entry, and one with x = 0 and
        z != 0 has as many phases +i^w as -i^w on it; the trace is the sum
        of i^w amp over the terms with x = z = 0.
        """
        x, z, w = self.strings(a.masks)
        on = (x == 0) & (z == 0)
        re, im = _turn(a.amps[on], w[on])
        return complex(np.sum(re), np.sum(im))


# Most entries matrix scatters in one np.bincount call.
_CHUNK_ENTRIES = 1 << 16


def _turn(amps, w):
    """Real and imaginary parts of i^w amps, read off the parts of amps
    without a multiplication."""
    parts = np.stack((amps.real, amps.imag, -amps.real, -amps.imag))
    rows = np.arange(amps.shape[0])
    return parts[-w & 3, rows], parts[(1 - w) & 3, rows]


_REP_CACHE: dict[int, MatrixRep] = {}


def jw_rep(n):
    """Cached matrix representation for n generators."""
    rep = _REP_CACHE.get(n)
    if rep is None:
        rep = MatrixRep(n)
        _REP_CACHE[n] = rep
    return rep


def _symplectic_basis(vecs):
    """Symplectic Gram-Schmidt over GF(2) for the commutation form omega
    of monomials given as int masks: omega(u, v) = (|u| |v| + |u & v|)
    mod 2 is 1 when g_u and g_v anticommute and 0 when they commute.

    vecs are independent int masks. Returns pairs [(e_1, f_1), ..] with
    omega(e_i, f_i) = 1 and central vectors [z_1, ..]; omega vanishes on
    every other pair of the returned vectors, which span the same space.
    Each vector carries its popcount parity, which an XOR adds mod 2.
    """
    vecs = [(v, v.bit_count() & 1) for v in vecs]
    pairs = []
    central = []
    while vecs:
        u, pu = vecs.pop(0)
        hit = next(
            (i for i, (v, pv) in enumerate(vecs)
             if (pu & pv) ^ ((u & v).bit_count() & 1)),
            None,
        )
        if hit is None:
            central.append(u)
            continue
        v, pv = vecs.pop(hit)
        # w + omega(w, v) u + omega(w, u) v commutes with both u and v
        moved = []
        for w, pw in vecs:
            wv = (pw & pv) ^ ((w & v).bit_count() & 1)
            wu = (pw & pu) ^ ((w & u).bit_count() & 1)
            moved.append((
                w ^ (u if wv else 0) ^ (v if wu else 0),
                pw ^ (pu & wv) ^ (pv & wu),
            ))
        vecs = moved
        pairs.append((u, v))
    return pairs, central


def _coordinates(basis, vecs):
    """Per vector of vecs (each in the span of the independent basis),
    the int whose bit k says whether basis[k] enters its expansion."""
    pivots = {}
    for k, b in enumerate(basis):
        x, combo = b, 1 << k
        while (top := x.bit_length() - 1) in pivots:
            px, pc = pivots[top]
            x, combo = x ^ px, combo ^ pc
        pivots[top] = (x, combo)
    out = []
    for x in vecs:
        combo = 0
        while x:
            px, pc = pivots[x.bit_length() - 1]
            x, combo = x ^ px, combo ^ pc
        out.append(combo)
    return out


def _block_spectra(elements):
    """Per element, the singular values of its blocks (_block_stacks),
    largest first, with one SVD call per block shape (_per_shape). Each
    element's spectrum has the bits it has in a batch of one."""
    return [
        _sorted_down(s)
        for s in _per_shape(
            elements, lambda b: np.linalg.svd(b, compute_uv=False)
        )
    ]


def _per_shape(elements, decompose):
    """[decompose(b) for b in _block_stacks(elements)], with one call per
    block shape: the blocks of every (m, c) of one m in one stack. A
    stacked LAPACK call factors each matrix on its own, by the same
    routine with the same workspace, so every result keeps its bits. A
    stack of one (m, c) goes as built, and the blocks are let go before
    the call."""
    by_shape = {}
    for group, blocks in _block_groups(elements):
        by_shape.setdefault(blocks.shape[2:], []).append((group, blocks))
    out = [None] * len(elements)
    for shape in sorted(by_shape):
        parts = by_shape.pop(shape)
        stacks = [blocks.reshape(-1, *shape) for _, blocks in parts]
        owners = [(i, blocks.shape[1]) for group, blocks in parts
                  for i in group]
        stacked = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        parts = stacks = None
        values = decompose(stacked)
        ends = np.cumsum([count for _, count in owners])
        for (i, _), v in zip(owners, np.split(values, ends[:-1])):
            out[i] = v
    return out


def _power_means(arrays, p):
    """[float(np.mean(v ** p)) for v in arrays], bit for bit, for 1-D
    arrays that are all contiguous or all reversed views (as
    _sorted_down gives), with one ** and one sum per array length.

    NumPy raises a contiguous array to a power by a SIMD routine and a
    strided one value by value through libm, and the two round some
    values apart. So the arrays of one length are laid end to end in the
    layout each has alone: reversed views as one reversed view of their
    reversed concatenation. Each row of the powers is then summed alone,
    pairwise, as np.mean sums it.
    """
    out = [None] * len(arrays)
    by_size = {}
    for i, v in enumerate(arrays):
        by_size.setdefault(v.size, []).append(i)
    for size, group in by_size.items():
        if arrays[group[0]].strides[0] < 0:
            flat = np.concatenate([arrays[i][::-1] for i in group[::-1]])
            flat = flat[::-1]
        else:
            flat = np.concatenate([arrays[i] for i in group])
        rows = (flat**p).reshape(len(group), size)
        means = np.add.reduce(rows, axis=1) / size
        for i, m in zip(group, means.tolist()):
            out[i] = m
    return out


def _lp_norms(elements, ps):
    """Per element a, [lp_norm(a, p) for p in ps]: p = 2 exact from the
    pairing, p = inf the largest block singular value s, and other p
    float(np.mean(s**p)) ** (1 / p). One SVD call per block shape
    (_block_spectra), then per p one ** for the spectra of each length
    (_power_means); the root is a Python float's **, libm's pow. Each
    element's norms have the bits they have in a batch of one."""
    spectra = _block_spectra(elements) if any(p != 2 for p in ps) else None
    columns = []
    for p in ps:
        if p == 2:
            columns.append([norm2(a) for a in elements])
        elif p == np.inf:
            columns.append([float(s[0]) for s in spectra])
        else:
            columns.append(
                [m ** (1.0 / p) for m in _power_means(spectra, p)]
            )
    return [list(row) for row in zip(*columns)]


def _sorted_down(s):
    return np.sort(s.ravel())[::-1]


def _block_basis(a):
    """(basis, m, coords) of the masks of a: a symplectic basis of their
    GF(2) span, m pairs (e_i, f_i) then the central words, as Python
    ints; per term, the int whose bit k says whether basis[k] enters its
    mask. A span of rank above MAX_MATRIX_GENERATORS is refused."""
    vals = sp.decode_rows(a.masks)
    echelon = {}
    for v in vals:
        while v and (top := v.bit_length() - 1) in echelon:
            v ^= echelon[top]
        if v:
            echelon[top] = v
    r = len(echelon)
    if r > MAX_MATRIX_GENERATORS:
        raise ValueError(
            f"block spectrum refused: the masks span rank {r} "
            f"(> {MAX_MATRIX_GENERATORS})"
        )
    pairs, central = _symplectic_basis(echelon.values())
    basis = [b for pair in pairs for b in pair] + central
    return basis, len(pairs), _coordinates(basis, vals)


def _block_stacks(elements):
    """Per element a, its (2^c, 2^m, 2^m) blocks in the algebra its
    monomials generate (_block_groups)."""
    out = [None] * len(elements)
    for group, blocks in _block_groups(elements):
        for g, i in enumerate(group):
            out[i] = blocks[g]
    return out


def _block_groups(elements):
    """[(group, blocks)]: per (m, c) of the elements' spans, the indices
    of its elements and their blocks, of shape (len(group), 2^c, 2^m,
    2^m), all built at once.

    The masks of a span an r-dimensional GF(2) space whose commutation
    form omega splits into m anticommuting pairs (e_i, f_i) and c central
    vectors z_j. With eps_v = g_v^2 = +-1, g_{e_i} -> sqrt(eps) X_i and
    g_{f_i} -> sqrt(eps) Z_i on m qubits and g_{z_j} -> sqrt(eps) (+-1) on
    each of 2^c sectors is a *-representation of that algebra whose
    normalized trace is the vacuum, so its 2^c blocks of 2^m x 2^m carry
    the same spectral distribution as the Jordan-Wigner image: the mean
    of s^p and the maximum agree, and L^p norms read them unchanged.
    The blocks hold 2^r entries, and r above MAX_MATRIX_GENERATORS is
    refused. Each entry sums its terms in term order, as one element's
    own build does, so an element's blocks do not depend on the others.
    """
    found = [_block_basis(a) for a in elements]
    groups = {}
    for i, (basis, m, _) in enumerate(found):
        groups.setdefault((m, len(basis) - 2 * m), []).append(i)
    out = []
    for (m, c), group in groups.items():
        r = 2 * m + c
        counts = np.array([elements[i].n_terms for i in group], np.int64)
        owner = np.repeat(np.arange(len(group)), counts)
        coords = np.array(
            [x for i in group for x in found[i][2]], dtype=np.int64
        )
        amps = np.concatenate([elements[i].amps for i in group])
        bits = (coords[:, None] >> np.arange(r)) & 1
        # parity[g, k, l] is the sign exponent of g_{b_k} g_{b_l} of
        # element g; its diagonal is that of g_b^2 = eps_b. A term's
        # monomial is the ordered product of its basis words times
        # (-1)^(sum over k < l of its pair signs).
        w = max(sp.words_for(elements[i].n) for i in group)
        words = sp.encode_rows(
            [b for i in group for b in found[i][0]], w
        ).reshape(len(group), r, w)
        prefix = sp.prefix_parity(words.reshape(-1, w)).reshape(words.shape)
        parity = (
            np.bitwise_count(words[:, :, None] & prefix[:, None])
            .sum(axis=3, dtype=np.int64) & 1
        )
        ahead = (bits[:, None, :] @ np.triu(parity, 1)[owner])[:, 0]
        diag = np.diagonal(parity, axis1=1, axis2=2)[owner]
        quarter = 2 * (ahead * bits).sum(axis=1) + (bits * diag).sum(axis=1)
        phase = amps * np.array([1, 1j, -1, -1j])[quarter & 3]
        qubit = 1 << np.arange(m)
        x = bits[:, 0:2 * m:2] @ qubit
        z = bits[:, 1:2 * m:2] @ qubit
        blocks = np.empty((len(group), 1 << c, 1 << m, 1 << m), np.complex128)
        # The elements are scattered a run at a time, each run holding
        # at most _SCATTER_ENTRIES entries (at least one element).
        firsts = np.concatenate(([0], np.cumsum(counts)))
        runs = _runs((counts << (c + m)).tolist(), _SCATTER_ENTRIES)
        for g0, g1 in zip(runs, runs[1:]):
            rows = slice(firsts[g0], firsts[g1])
            _scatter(blocks[g0:g1], owner[rows] - g0, x[rows], z[rows],
                     coords[rows] >> 2 * m, phase[rows])
        out.append((group, blocks))
    return out


# Most entries one _scatter call takes. A run of this size keeps its
# temporaries, about 40 bytes an entry, small beside the blocks they fill;
# at n=14, runs of 2^13 entries measured about 10 % faster for
# bg-constants than runs of 2^16, and held a third of the memory.
_SCATTER_ENTRIES = 1 << 13


def _runs(sizes, most):
    """Bounds [0, .., len(sizes)] that cut sizes into consecutive runs of
    total at most `most`, a run of one where a size alone passes it."""
    bounds = [0]
    total = 0
    for i, size in enumerate(sizes):
        if total and total + size > most:
            bounds.append(i)
            total = 0
        total += size
    bounds.append(len(sizes))
    return bounds


def _scatter(blocks, owner, x, z, s_bits, phase):
    """Fill contiguous blocks (g, 2^c, 2^m, 2^m) with the terms of its
    elements: per term its element, X and Z bits, central bits and
    phase. g_v acts on column j of sector t as
    (-1)^(|z & j| + |s & t|) |j ^ x>. One np.bincount per real and
    imaginary part adds the entries into zeros in term order, as
    np.add.at would."""
    sectors, size = blocks.shape[1], blocks.shape[2]
    c, m = sectors.bit_length() - 1, size.bit_length() - 1
    cols = np.arange(size)
    sector = np.arange(sectors)
    flips = (
        np.bitwise_count(s_bits[:, None] & sector)[:, :, None]
        + np.bitwise_count(z[:, None] & cols)[:, None, :]
    )
    weights = phase[:, None, None] * np.where(flips & 1, -1.0, 1.0)
    cell = (owner[:, None, None] << c) + sector[:, None]
    where = ((((cell << m) + (x[:, None, None] ^ cols)) << m) + cols).ravel()
    flat = blocks.reshape(-1)
    flat.real = np.bincount(where, weights.real.ravel(), flat.size)
    flat.imag = np.bincount(where, weights.imag.ravel(), flat.size)


def singular_values(a):
    """Singular values of a in the algebra its monomials generate, largest
    first: the singular values of its blocks (_block_groups), whose mean
    of s^p and maximum are those of any faithful trace-preserving image.
    A span of rank above MAX_MATRIX_GENERATORS is refused."""
    return _block_spectra([a])[0]


def lp_norm(a, p):
    """Noncommutative L^p norm, (m(|a|^p))^(1/p), p in [1, inf].

    p = 2 is exact from the pairing. Other p read the block spectrum
    (singular_values), refused for a span of rank above
    MAX_MATRIX_GENERATORS. This is the one-element case of the reports'
    batch (_lp_norms), so a report's norm of a has these bits.
    """
    if not (p >= 1):
        raise ValueError("p must be at least 1")
    return _lp_norms([a], [p])[0][0]


def random_element(rng, n, n_terms=8, max_generator=None, real=False):
    """Random element with about n_terms monomials, amplitudes O(1).

    Masks draw uniformly over subsets of generators below `max_generator`
    (default n): bit b of row i is set when the (i * top + b)-th of one
    rng.random draw of n_terms * top floats is below one half. The normals
    come after. Deterministic given the generator state.
    """
    if max_generator is not None and max_generator < 0:
        raise ValueError("max_generator must be nonnegative")
    top = n if max_generator is None else min(max_generator, n)
    if n_terms <= 0:
        return CliffordElement.zero(n)
    return CliffordElement(n, *_random_rows(rng, n, n_terms, [top], real))


def _random_rows(rng, n, n_terms, tops, real=False, samples=1, starts=None):
    """The raw (masks, amps) of random_element for each max_generator in
    tops in turn, n_terms rows each, with the same rng calls in the same
    order; the whole of tops is drawn `samples` times over. With starts,
    an array of `samples` floats, each sample first draws one standard
    normal into it.

    The draws are packed one run of consecutive (sample, top) blocks at
    a time, each run holding at most _DRAW_BYTES of uniforms and bit
    rows (at least one block), so memory is the output plus one run:
    every run draws into the same buffers, and _pack_bits sets the bits
    of all its draws at once. The real and imaginary normals of a draw
    follow one another in the stream, so one call of 2 n_terms draws
    both.
    """
    w = sp.words_for(n)
    width = sp.WORD * w
    per_sample = len(tops)
    block_tops = list(tops) * samples
    if starts is not None and not per_sample:
        for s in range(samples):
            rng.standard_normal(out=starts[s : s + 1])
    sizes = [n_terms * top for top in block_tops]
    bit_bytes = 2 * width * n_terms
    runs = _runs([8 * size + bit_bytes for size in sizes], _DRAW_BYTES)
    bounds = list(zip(runs, runs[1:]))
    uniforms = np.empty(max(sum(sizes[b0:b1]) for b0, b1 in bounds))
    normals = np.zeros((max(b1 - b0 for b0, b1 in bounds), 2, n_terms))
    parts = normals[:, :1] if real else normals
    masks = np.empty((len(sizes) * n_terms, w), np.uint64)
    amps = np.empty(len(sizes) * n_terms, np.complex128)
    for b0, b1 in bounds:
        pos = 0
        for b in range(b0, b1):
            if b % per_sample == 0 and starts is not None:
                s = b // per_sample
                rng.standard_normal(out=starts[s : s + 1])
            size = sizes[b]
            rng.random(out=uniforms[pos : pos + size])
            pos += size
            rng.standard_normal(out=parts[b - b0])
        rows = slice(b0 * n_terms, b1 * n_terms)
        row_tops = np.repeat(block_tops[b0:b1], n_terms)
        masks[rows] = _pack_bits(uniforms[:pos], row_tops, width)
        amps.real[rows] = normals[: b1 - b0, 0].reshape(-1)
        amps.imag[rows] = normals[: b1 - b0, 1].reshape(-1)
    return masks, amps


def _pack_bits(uniforms, row_tops, width):
    """Words of rows whose bit b is set, for b below the row's top, when
    the next of the uniforms, row by row, is below one half: one masked
    assignment sets the drawn columns of a boolean array."""
    drawn = np.arange(width) < row_tops[:, None]
    bits = np.zeros_like(drawn)
    bits[drawn] = uniforms < 0.5
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


# Most bytes of uniforms (8 a draw) and of bit rows (two booleans a
# column) one run of _random_rows holds. For ito-suite's batches of 25
# samples, runs of 2^20 bytes drew as fast as any at n=64 and fastest at
# n=256 and 1024 (2^16 was 11-33 % slower, 2^22 to 2^26 7-42 %), and one
# run is small beside the rows it fills.
_DRAW_BYTES = 1 << 20


# -- stacked layout of a process ------------------------------------------


class _Stack:
    """Rows of the values of several steps of a process in one array.

    seg[i] is the step of row i; a step's rows are its value's rows. In
    the canonical layout rows sort by step first and then as within one
    element, so each step is one canonical block and comes out as a
    zero-copy view. Row-wise maps (negation, scaling, products with the
    step's generator) may leave a stack unsorted within a step; sums take
    any stacks whose steps hold no repeated mask and return a canonical
    one. A sum sorts once for all steps, and its stable sort merges the
    rows of one step in the order of the parts, as a + b does, so every
    step of a + b equals its own sum bit for bit. Sums across steps take
    one rule, folds: the step-ordered fold acc = acc + v_k of each
    sample, its running values and its total, bit for bit the fold of
    elements.

    A stack with a period holds a batch of processes on one grid, one per
    sample: with period = n_steps + 1, row i belongs to step
    step[i] = (seg[i] + 1) % period - 1 of sample (seg[i] + 1) // period,
    so step k of sample s is seg s * period + k, for k = -1 (a start
    value) to n_steps - 1. Sample 0 is laid out as one process is, every
    step map reads step[i] where one process reads seg[i], and each
    sample of a batch equals that process on its own bit for bit. A batch
    needs its sample count, since a trailing sample may have no rows.
    """

    __slots__ = ("n", "seg", "masks", "amps", "period", "samples")

    def __init__(self, n, seg, masks, amps, period=None, samples=None):
        if period is not None and samples is None:
            raise ValueError("a batch stack needs its sample count")
        self.n = n
        self.seg = seg
        self.masks = masks
        self.amps = amps
        self.period = period
        self.samples = 1 if samples is None else samples

    @classmethod
    def of(cls, n, values):
        """Canonical stack of elements on n generators; values[k] is step
        k."""
        counts = [v.n_terms for v in values]
        seg = np.repeat(np.arange(len(counts)), counts)
        masks = np.concatenate(
            [sp.empty_masks(sp.words_for(n))] + [v.masks for v in values]
        )
        amps = np.concatenate(
            [np.zeros(0, np.complex128)] + [v.amps for v in values]
        )
        return cls(n, seg, masks, amps)

    def _like(self, seg, masks, amps):
        return _Stack(self.n, seg, masks, amps, self.period, self.samples)

    @property
    def step(self):
        """Per row, its step within its sample."""
        if self.period is None:
            return self.seg
        return (self.seg + 1) % self.period - 1

    @property
    def sample(self):
        """Per row, its sample (0 for one process)."""
        if self.period is None:
            return np.zeros_like(self.seg)
        return (self.seg + 1) // self.period

    def canonical(self):
        masks, amps, seg = sp.canonicalize(self.masks, self.amps, seg=self.seg)
        return self._like(seg, masks, amps)

    def sums(self):
        """Each sample's rows summed over all its steps: a canonical stack
        whose seg is the sample. Its stable sort keeps each sample's rows
        in their order, so every sample's sum equals one canonicalize of
        that sample's rows bit for bit."""
        masks, amps, seg = sp.canonicalize(
            self.masks, self.amps, seg=self.sample
        )
        return _Stack(self.n, seg, masks, amps)

    def folds(self, count):
        """The fold acc_{k+1} = acc_k + v_k of each sample's step values
        v_0..v_{count-1}, as (running, totals): running is the stack of
        acc_1..acc_{count-1}, keyed as the input (step k of sample s at
        seg s * period + k) and unordered within a step; totals is the
        canonical stack of acc_count whose seg is the sample.

        Sorted stably by sample and mask, the rows of each (sample, mask)
        group are its terms in step order. Each group gets a row of a
        table whose column c holds its term of step c, or -0-0j where it
        has none, and a cumsum along it gives the fold's values: -0-0j is
        the exact additive identity, so an absent term changes nothing
        and a first term comes out as itself (np.add.reduceat, and so
        sums, adds a run of three or more rows in another order). The
        fold drops a sum that cancels to exactly zero, so its next term
        enters alone; the cumsum would add it to that zero, which can
        flip a -0.0 part, so each such row is summed again from there
        (_restart_zeros). A group's row only spans the steps from its
        first term on, and groups share a table with those whose span is
        at most twice as long, so the tables hold at most about twice the
        rows of running.

        The one input that tells this from the fold of elements is an
        amplitude that underflows to exactly zero: the element fold can
        carry such a zero row for a step, and so differ in the sign of a
        zero part.
        """
        sample, step = self.sample, self.step
        order = sp.lexsort_rows(self.masks, sample)
        masks, amps = self.masks[order], self.amps[order]
        sample, step = sample[order], step[order]
        new = np.ones(amps.size, dtype=bool)
        new[1:] = (masks[1:] != masks[:-1]).any(axis=1) | (
            sample[1:] != sample[:-1]
        )
        starts = np.flatnonzero(new)
        group = np.cumsum(new) - 1
        span = count - step[starts]
        bucket = np.ceil(np.log2(span)).astype(np.int64)
        finals = np.zeros(starts.size, dtype=np.complex128)
        pieces = []
        # (np.unique would import numpy.ma, a megabyte, on its first call)
        for b in np.flatnonzero(np.bincount(bucket)):
            members = np.flatnonzero(bucket == b)
            width = int(span[members].max())
            first = count - width
            inside = bucket[group] == b
            sums = np.full((members.size, width), _NEG_ZERO)
            sums[np.searchsorted(members, group[inside]),
                 step[inside] - first] = amps[inside]
            terms = sums.copy()
            np.cumsum(terms, axis=1, out=sums)
            _restart_zeros(terms, sums)
            finals[members] = sums[:, -1]
            local, col = np.nonzero(sums[:, :-1] != 0)
            head = starts[members[local]]
            pieces.append((
                sample[head] * (self.period or 0) + first + 1 + col,
                masks[head],
                sums[local, col],
            ))
        empty = (self.seg[:0], masks[:0], amps[:0])
        running = self._like(*map(np.concatenate, zip(empty, *pieces)))
        live = finals != 0
        head = starts[live]
        totals = _Stack(self.n, sample[head], masks[head], finals[live])
        return running, totals

    def __add__(self, other):
        return self._like(
            np.concatenate((self.seg, other.seg)),
            np.concatenate((self.masks, other.masks)),
            np.concatenate((self.amps, other.amps)),
        ).canonical()

    def __neg__(self):
        return self._like(self.seg, self.masks, -self.amps)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like(self.seg, self.masks, self.amps * c)

    def select(self, keep):
        """The rows where keep is set."""
        return self._like(self.seg[keep], self.masks[keep], self.amps[keep])

    def within(self):
        """Each step's conditional expectation onto its own C_k."""
        return self.select(sp.rows_within(self.masks, self.step))

    def parity(self):
        """Per row, 1 for odd monomials and 0 for even ones."""
        return sp.popcount_rows(self.masks) & 1

    def grading(self):
        signs = np.where(self.parity(), -1.0, 1.0)
        return self._like(self.seg, self.masks, self.amps * signs)

    def adjoint(self):
        """Each step's adjoint; rows keep their order."""
        return self._like(
            self.seg, self.masks, _adjoint_amps(self.masks, self.amps)
        )

    def products(self, other):
        """Each step's value times other's value at the same step, as a
        canonical stack; both stacks canonical.

        The rows of each step's product come in mul_full's order (rows of
        self major), with its signs and its two multiplications, and one
        canonicalize merges them, so every step equals a * b of its two
        values bit for bit.
        """
        lo = np.searchsorted(other.seg, self.seg, side="left")
        count = np.searchsorted(other.seg, self.seg, side="right") - lo
        total = int(count.sum())
        if total > sp.MAX_ROWS:
            raise ValueError(
                f"stacked product refused: {total} rows (> {sp.MAX_ROWS})"
            )
        left = np.repeat(np.arange(self.seg.shape[0]), count)
        right = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(
            total
        )
        prefix = sp.prefix_parity(other.masks)
        odd = sp.popcount_rows(self.masks[left] & prefix[right]) & 1
        signs = np.where(odd == 1, -1.0, 1.0)
        amps = (self.amps[left] * other.amps[right]) * signs
        masks = self.masks[left] ^ other.masks[right]
        return self._like(self.seg[left], masks, amps).canonical()

    def vacua(self, count):
        """vacuum() of each of steps 0..count-1 of a canonical stack, as
        a list of complex: the amplitude of a step's first row when that
        row is the empty monomial, else 0j."""
        lo = np.searchsorted(self.seg, np.arange(count))
        held = np.flatnonzero(lo < self.seg.size)
        first = lo[held]
        empty = (self.seg[first] == held) & ~self.masks[first].any(axis=1)
        out = np.zeros(count, dtype=np.complex128)
        out[held[empty]] = self.amps[first[empty]]
        return out.tolist()

    def mul_generator(self, side):
        """Each step's value times its own generator g_k on the given side;
        rows keep their order."""
        masks, amps = sp.mul_generator(self.masks, self.amps, self.step, side)
        return self._like(self.seg, masks, amps)

    def representing(self, root):
        """The integrands Y_k = E[x_k dW_k | C_k] / dt, dW_k = root g_k, of
        each step's value x_k, for x_k = M_{k+1} - M_k the representation
        of a martingale M. Only rows with top bit k survive the
        conditional expectation; clearing that bit keeps their order, so
        a canonical stack stays canonical without a second sort."""
        return self.mul_generator("right").within().scale(1.0 / root)

    def _bounds(self, lo, hi):
        return np.searchsorted(self.seg, np.arange(lo, hi + 1)).tolist()

    def values(self, lo, hi):
        """Elements of steps lo..hi-1 of a canonical stack, as views; an
        empty step is the shared zero."""
        bounds = self._bounds(lo, hi)
        zero = CliffordElement.zero(self.n)
        return [
            CliffordElement._wrap(self.n, self.masks[a:b], self.amps[a:b])
            if b > a else zero
            for a, b in zip(bounds, bounds[1:])
        ]

    def window(self, lo, hi):
        """Steps lo..hi-1 of a canonical stack as steps 0..hi-lo-1."""
        a, b = np.searchsorted(self.seg, (lo, hi)).tolist()
        return self._like(self.seg[a:b] - lo, self.masks[a:b], self.amps[a:b])

    def splice(self, lo, hi, part):
        """This canonical stack with steps lo..hi-1 replaced by the steps
        0..hi-lo-1 of the canonical stack part."""
        a, b = np.searchsorted(self.seg, (lo, hi)).tolist()
        return self._like(
            np.concatenate((self.seg[:a], part.seg + lo, self.seg[b:])),
            np.concatenate((self.masks[:a], part.masks, self.masks[b:])),
            np.concatenate((self.amps[:a], part.amps, self.amps[b:])),
        )

    def prefixes(self, hi):
        """Elements made of all rows of the steps below k, k = 0..hi, as
        views. Each is canonical when every step's rows sort after those
        of the steps before it."""
        return [
            CliffordElement._wrap(self.n, self.masks[:b], self.amps[:b])
            for b in self._bounds(0, hi)
        ]

    def squares(self, segs):
        """norm2_sq of the rows of each seg in segs (an int64 array) of a
        canonical stack, as an array of segs' shape. Each is one
        np.add.reduce over its seg's rows, as in norm2_sq; np.add.reduceat
        sums in another order and would differ in the last bits. A seg of
        at most two rows takes at most one addition, which every order
        rounds alike, so those are summed at once."""
        lo = np.searchsorted(self.seg, segs.ravel())
        hi = np.searchsorted(self.seg, segs.ravel() + 1)
        mags = self.amps.real**2 + self.amps.imag**2
        padded = np.append(mags, 0.0)
        rows = hi - lo
        out = (
            padded[np.where(rows > 0, lo, mags.size)]
            + padded[np.where(rows > 1, lo + 1, mags.size)]
        )
        for i in np.flatnonzero(rows > 2).tolist():
            out[i] = np.add.reduce(mags[lo[i] : hi[i]])
        return out.reshape(segs.shape)

    def step_squares(self, steps):
        """norm2_sq of steps 0..steps-1 of each sample, as an array of
        shape (samples, steps); see squares."""
        stride = self.period or 0
        segs = np.arange(self.samples)[:, None] * stride + np.arange(steps)
        return self.squares(segs)

    def norms(self, lo, hi):
        """norm2 of each of steps lo..hi-1 of a canonical stack, each
        summed over the step's rows as in norm2."""
        return np.sqrt(self.squares(np.arange(lo, hi))).tolist()


# The additive identity of complex addition: x + (-0-0j) == x bit for bit,
# signed zeros included.
_NEG_ZERO = complex(-0.0, -0.0)


def _restart_zeros(terms, sums):
    """Sum again, in place, every row of sums = cumsum(terms) from each
    point where it is exactly zero, starting from -0-0j as the fold's
    empty sum does. A zero that already is -0-0j needs no restart, and
    a restart changes only the signs of zero parts, so it finds the
    same zeros further on."""
    cols = np.arange(sums.shape[1] - 1)

    def restarts(block):
        head = block[:, :-1]
        return (head == 0) & ~(np.signbit(head.real) & np.signbit(head.imag))

    flags = restarts(sums)
    rows = np.flatnonzero(flags.any(axis=1))
    flags = flags[rows]
    while rows.size:
        at = flags.argmax(axis=1)[:, None]
        later = np.arange(sums.shape[1]) > at
        tail = np.cumsum(np.where(later, terms[rows], _NEG_ZERO), axis=1)
        sums[rows] = np.where(later, tail, sums[rows])
        flags = restarts(sums[rows]) & (cols > at)
        again = flags.any(axis=1)
        rows, flags = rows[again], flags[again]


def _distances(n, a_values, b_values):
    """[norm2(a - b) for a, b in zip(a_values, b_values)] in one sort."""
    count = min(len(a_values), len(b_values))
    diff = _Stack.of(n, a_values[:count]) - _Stack.of(n, b_values[:count])
    return diff.norms(0, count)
