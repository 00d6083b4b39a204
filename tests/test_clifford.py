"""Clifford algebra arithmetic against two independent oracles.

The first oracle builds the fermion field matrices gamma_k = c_k + c_k^*
on the full 2^n Fock space with explicit Kronecker products and compares
every algebraic operation to its matrix image, with the Fock vacuum
vector as the state. The second is a slow per-generator sign count that
exercises multiword masks far beyond matrix reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermisde import _sparse as sp
from fermisde import algebra
from fermisde.algebra import (
    MAX_MATRIX_GENERATORS,
    CliffordElement,
    MatrixRep,
    _block_spectra,
    _block_stacks,
    _lp_norms,
    _random_rows,
    _Stack,
    _symplectic_basis,
    adjoint,
    cond_expect,
    grading,
    identity,
    jw_rep,
    lp_norm,
    mul,
    norm2,
    pairing,
    random_element,
    singular_values,
    vacuum,
    zero,
)
from fermisde.cli import (
    _BRANCH,
    P_CHOICES,
    _random_elements,
    _rng,
    parse_problem,
    run,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # annihilation


def fock_annihilator(n, k):
    """c_k on (C^2)^{tensor n} with a Jordan-Wigner string of sigma_z."""
    m = np.eye(1, dtype=complex)
    for j in range(n):
        if j < k:
            m = np.kron(m, SZ)
        elif j == k:
            m = np.kron(m, LOWER)
        else:
            m = np.kron(m, np.eye(2, dtype=complex))
    return m


def fock_gammas(n):
    out = []
    for k in range(n):
        c = fock_annihilator(n, k)
        out.append(c + c.conj().T)
    return out


def fock_matrix(a, gammas):
    """Matrix image of an element, term by ordered generator product."""
    d = gammas[0].shape[0] if gammas else 1
    m = np.zeros((d, d), dtype=complex)
    for mask, amp in a.terms().items():
        term = np.eye(d, dtype=complex)
        b = 0
        while mask:
            if mask & 1:
                term = term @ gammas[b]
            mask >>= 1
            b += 1
        m += amp * term
    return m


def fock_vacuum_state(m):
    return complex(m[0, 0])


def slow_mul_masks(left, right):
    """Reference product of two ordered generator monomials.

    Appends each generator of the right factor and walks it into place,
    flipping the sign once per transposition and cancelling squares.
    """
    result = sorted(b for b in range(left.bit_length()) if left >> b & 1)
    sign = 1
    for t in (b for b in range(right.bit_length()) if right >> b & 1):
        above = sum(1 for r in result if r > t)
        sign *= (-1) ** above
        if t in result:
            result.remove(t)
        else:
            result.append(t)
            result.sort()
    mask = 0
    for r in result:
        mask |= 1 << r
    return mask, sign


def rand_elem(rng, n, terms=6):
    return random_element(rng, n, n_terms=terms)


def rand_mask(rng, n):
    """Uniform n-bit mask assembled in 32-bit chunks."""
    mask = 0
    for lo in range(0, n, 32):
        width = min(32, n - lo)
        mask |= int(rng.integers(0, 1 << width)) << lo
    return mask


# -- Fock oracle ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_oracle_matrices_satisfy_car(n):
    gam = fock_gammas(n)
    d = gam[0].shape[0]
    for i in range(n):
        assert np.allclose(gam[i], gam[i].conj().T)
        for j in range(n):
            anti = gam[i] @ gam[j] + gam[j] @ gam[i]
            want = 2.0 * np.eye(d) if i == j else np.zeros((d, d))
            assert np.allclose(anti, want, atol=1e-14)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_product_matches_fock_matrices(n):
    gam = fock_gammas(n)
    rng = np.random.default_rng(101 + n)
    for _ in range(12):
        a = rand_elem(rng, n)
        b = rand_elem(rng, n)
        got = fock_matrix(mul(a, b), gam)
        want = fock_matrix(a, gam) @ fock_matrix(b, gam)
        assert np.allclose(got, want, atol=1e-11)


@pytest.mark.parametrize("n", [2, 5])
def test_adjoint_and_grading_match_fock(n):
    gam = fock_gammas(n)
    parity = np.eye(1, dtype=complex)
    for _ in range(n):
        parity = np.kron(parity, SZ)
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rand_elem(rng, n)
        assert np.allclose(
            fock_matrix(adjoint(a), gam), fock_matrix(a, gam).conj().T
        )
        assert np.allclose(
            fock_matrix(grading(a), gam),
            parity @ fock_matrix(a, gam) @ parity,
        )


@pytest.mark.parametrize("n", [1, 3, 6])
def test_vacuum_and_pairing_match_fock_vector_state(n):
    gam = fock_gammas(n)
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rand_elem(rng, n)
        b = rand_elem(rng, n)
        ma = fock_matrix(a, gam)
        mb = fock_matrix(b, gam)
        assert abs(vacuum(a) - fock_vacuum_state(ma)) < 1e-12
        # <a, b> = m(a* b) = <a Omega, b Omega> with Omega the basis
        # vector of the empty configuration.
        want = np.vdot(ma[:, 0], mb[:, 0])
        assert abs(pairing(a, b) - want) < 1e-11


def test_even_odd_split_and_projection():
    rng = np.random.default_rng(3)
    a = rand_elem(rng, 8, terms=20)
    ev, od = a.even_part(), a.odd_part()
    assert (ev + od).terms() == a.terms()
    assert grading(ev).terms() == ev.terms()
    assert grading(od).terms() == od.scale(-1.0).terms()


# -- slow sign oracle, multiword masks ------------------------------------


@pytest.mark.parametrize("n", [9, 63, 64, 65, 150])
def test_monomial_product_signs_match_slow_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        lm = rand_mask(rng, n)
        rm = rand_mask(rng, n)
        a = CliffordElement.from_terms(n, {lm: 1.0})
        b = CliffordElement.from_terms(n, {rm: 1.0})
        mask, sign = slow_mul_masks(lm, rm)
        assert mul(a, b).terms() == {mask: complex(sign)}


@pytest.mark.parametrize("n", [10, 70])
def test_adjoint_sign_is_reversal_parity(n):
    rng = np.random.default_rng(n + 1)
    for _ in range(30):
        m = rand_mask(rng, n)
        r = bin(m).count("1")
        a = CliffordElement.from_terms(n, {m: 2.0 + 1.0j})
        want = (2.0 - 1.0j) * (-1.0) ** (r * (r - 1) // 2)
        assert adjoint(a).terms() == {m: want}


def test_car_holds_at_twelve_generators():
    n = 12
    gens = [CliffordElement.generator(n, k) for k in range(n)]
    for i in range(n):
        for j in range(n):
            anti = mul(gens[i], gens[j]) + mul(gens[j], gens[i])
            want = {0: 2.0 + 0j} if i == j else {}
            assert anti.terms() == want


# -- constructors, validation, immutability -------------------------------


def test_zero_is_one_shared_read_only_element_per_size():
    z = CliffordElement.zero(5)
    assert z is CliffordElement.zero(5) is zero(5)
    assert z is identity(5).scale(0.0) is CliffordElement.scalar(5, 0.0)
    assert z is not CliffordElement.zero(6)
    assert (z.n, z.n_terms) == (5, 0)
    assert not z.masks.flags.writeable
    assert not z.amps.flags.writeable
    with pytest.raises(ValueError):
        z.amps[...] = 1.0


def test_constructors_and_terms_roundtrip():
    assert zero(4).terms() == {}
    assert identity(4).terms() == {0: 1.0 + 0j}
    assert CliffordElement.scalar(4, 0.0).n_terms == 0
    g = CliffordElement.generator(4, 2)
    assert g.terms() == {4: 1.0 + 0j}
    src = {0: 1.5, 3: -2.0j, 9: 0.25 + 0.25j}
    e = CliffordElement.from_terms(6, src)
    assert e.terms() == {k: complex(v) for k, v in src.items()}


def test_generator_index_bounds():
    with pytest.raises(ValueError, match="outside"):
        CliffordElement.generator(4, 4)
    with pytest.raises(ValueError, match="outside"):
        CliffordElement.generator(4, -1)


def test_mask_beyond_generator_count_rejected():
    with pytest.raises(ValueError, match="beyond"):
        CliffordElement.from_terms(3, {8: 1.0})


def test_elements_are_immutable():
    a = identity(3)
    with pytest.raises(AttributeError):
        a.n = 5
    with pytest.raises(ValueError):
        a.amps[0] = 2.0


def test_mixing_algebra_sizes_rejected():
    with pytest.raises(ValueError, match="n=3 and n=4"):
        mul(identity(3), identity(4))


def test_mul_generator_agrees_with_full_product():
    rng = np.random.default_rng(12)
    a = rand_elem(rng, 9, terms=14)
    for k in (0, 4, 8):
        g = CliffordElement.generator(9, k)
        assert a.mul_generator(k, "right").terms() == mul(a, g).terms()
        assert a.mul_generator(k, "left").terms() == mul(g, a).terms()


# -- conditional expectation ----------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_cond_expect_projects_orthogonally(k):
    n = 6
    rng = np.random.default_rng(40 + k)
    a = rand_elem(rng, n, terms=25)
    ek = cond_expect(a, k)
    for mask in ek.terms():
        assert mask < (1 << k)
    # idempotent, vacuum preserving, orthogonal to the subalgebra gap
    assert cond_expect(ek, k).terms() == ek.terms()
    assert vacuum(ek) == vacuum(a)
    for _ in range(6):
        c = random_element(rng, n, n_terms=5, max_generator=k)
        assert abs(pairing(c, a - ek)) < 1e-12


def test_cond_expect_module_property_over_subalgebra():
    """E_k(c a) = c E_k(a) for c in the first-k subalgebra fails in
    general for one-sided products of odd c, but holds with c scalar in
    grade; check the two-sided sandwich with an even subalgebra element."""
    n = 6
    k = 3
    rng = np.random.default_rng(77)
    a = rand_elem(rng, n, terms=20)
    c = random_element(rng, n, n_terms=6, max_generator=k).even_part()
    lhs = cond_expect(mul(mul(c, a), c), k)
    rhs = mul(mul(c, cond_expect(a, k)), c)
    assert norm2(lhs - rhs) < 1e-10 * (1.0 + norm2(rhs))


def test_cond_expect_negative_index_rejected():
    with pytest.raises(ValueError):
        cond_expect(identity(3), -1)


# -- norms ----------------------------------------------------------------


def test_norm2_matches_pairing_and_matrix_route():
    rng = np.random.default_rng(5)
    a = rand_elem(rng, 8, terms=18)
    assert abs(norm2(a) ** 2 - pairing(a, a).real) < 1e-10
    assert abs(lp_norm(a, 2) - lp_norm(a, 2.0 + 1e-16)) < 1e-9


def test_lp_norms_are_monotone_in_p():
    rng = np.random.default_rng(6)
    for _ in range(8):
        a = rand_elem(rng, 6, terms=10)
        vals = [lp_norm(a, p) for p in (1.0, 1.5, 2.0, 3.0, np.inf)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-10


def test_lp_norm_of_identity_and_generator():
    for p in (1.0, 2.0, 3.0, np.inf):
        assert abs(lp_norm(identity(5), p) - 1.0) < 1e-12
        assert abs(lp_norm(CliffordElement.generator(5, 3), p) - 1.0) < 1e-12


def test_holder_inequality_sampled():
    rng = np.random.default_rng(8)
    for p, q in ((1.0, np.inf), (2.0, 2.0), (1.5, 3.0)):
        for _ in range(6):
            a = rand_elem(rng, 5)
            b = rand_elem(rng, 5)
            lhs = abs(vacuum(mul(a, b)))
            assert lhs <= lp_norm(a, p) * lp_norm(b, q) + 1e-10


def block_svd(a):
    """The singular values of a's blocks, largest first."""
    s = np.linalg.svd(_block_stacks([a])[0], compute_uv=False)
    return np.sort(s.ravel())[::-1]


def test_singular_values_match_the_gram_eigenvalues():
    """singular_values is the SVD of a's blocks bit for bit, matches the
    square roots of their Gram eigenvalues, and carries the spectral
    distribution of the JW image."""
    rng = np.random.default_rng(12)
    for n in (1, 6, 9):
        a = rand_elem(rng, n, terms=12)
        blocks = _block_stacks([a])[0]
        gram = np.swapaxes(blocks, 1, 2).conj() @ blocks
        ref = np.sort(np.sqrt(np.clip(
            np.linalg.eigvalsh(gram).ravel(), 0, None
        )))
        s = singular_values(a)
        assert s.tobytes() == block_svd(a).tobytes()
        assert s.shape == ref.shape
        assert np.allclose(s, ref[::-1], rtol=0.0, atol=1e-12 * ref.max())
        assert_block_spectrum_matches_jw(a)


def test_lp_norm_equals_the_svd_formula_bit_for_bit():
    """lp_norm is the L^p formula on the block spectrum bit for bit, and
    that spectrum has the means of s^p and the maximum of the JW
    image's."""
    rng = np.random.default_rng(13)
    for n in (4, 8):
        a = rand_elem(rng, n, terms=10)
        s = block_svd(a)
        for p in P_CHOICES:
            if p == 2:
                ref = norm2(a)
            elif p == np.inf:
                ref = float(s[0])
            else:
                ref = float(np.mean(s**p)) ** (1.0 / p)
            assert lp_norm(a, p) == ref
        assert_block_spectrum_matches_jw(a)


def test_algebra_suite_takes_one_svd_per_block_shape(monkeypatch, tmp_path):
    """The Hoelder sweep factors the blocks of its 120 elements with one
    SVD call per block shape, and each call holds every block of that
    shape."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    spec = parse_problem({"grid": {"n_steps": 14}})
    assert run("algebra-suite", spec, str(tmp_path), seed=0)["pass"]
    kinds = [shape[1:] for shape in shapes]
    assert len(kinds) == len(set(kinds))
    assert 1 < len(kinds) <= 8
    draw = _random_elements(
        _rng(0, _BRANCH["algebra-suite"]), 14, 200
    ).values(0, 200)
    want = {}
    for a in draw[80:]:
        block = _block_stacks([a])[0]
        want[block.shape[1:]] = want.get(block.shape[1:], 0) + block.shape[0]
    assert {shape[1:]: shape[0] for shape in shapes} == want


def test_algebra_suite_draws_construct_no_element_each(monkeypatch, tmp_path):
    """The suite's 200 elements at n=14 come from one draw and one sort as
    views; the constructor runs only for the scalars t_k I of the
    Brownian check (k = 1..14)."""
    calls = []
    init = CliffordElement.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CliffordElement, "__init__", counted)
    spec = parse_problem({"grid": {"n_steps": 14}})
    assert run("algebra-suite", spec, str(tmp_path), seed=0)["pass"]
    assert len(calls) <= 14


# (n, samples) of the batch form: runs of _random_rows that split inside
# a sample (n > 1) and runs that span samples.
BATCH_DRAWS = [(1, 1400), (63, 10), (64, 10), (65, 8), (130, 4)]


@pytest.mark.parametrize(
    "n, batch",
    [pytest.param(n, None, id=str(n)) for n in (1, 6, 14, 70)]
    + [
        pytest.param(n, (samples, real), id=f"batch-{n}-{kind}")
        for n, samples in BATCH_DRAWS
        for real, kind in ((False, "complex"), (True, "real"))
    ],
)
def test_batched_draws_equal_sequential_random_elements(n, batch, monkeypatch):
    """_random_elements gives each element of K random_element calls bit
    for bit, and leaves the generator in the same state. With batch, the
    batch form does the same for ito-suite's draw (see
    check_batch_draws_equal_sequential_random_elements)."""
    if batch is not None:
        check_batch_draws_equal_sequential_random_elements(
            n, *batch, monkeypatch
        )
        return
    for count in (1, 2, 80, 260):
        fast, slow = (np.random.default_rng(n * 7 + count) for _ in range(2))
        got = _random_elements(fast, n, count).values(0, count)
        want = [random_element(slow, n) for _ in range(count)]
        assert len(got) == count
        for a, b in zip(got, want):
            assert a.n == b.n
            assert a.masks.tobytes() == b.masks.tobytes()
            assert a.masks.shape == b.masks.shape
            assert a.amps.tobytes() == b.amps.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state


def check_batch_draws_equal_sequential_random_elements(
    n, samples, real, monkeypatch
):
    """_random_rows of range(n) over samples, with starts, holds the rows
    of one random_element(rng, n, 6, max_generator=k) per sample and k,
    each sample after one rng.standard_normal() for its start: equal
    mask and amplitude bytes, equal starts and an equal generator state.
    The draw is cut into runs that split inside a sample and that span
    samples."""
    cut = algebra._runs
    bounds = []

    def recorded(sizes, most):
        bounds.extend(cut(sizes, most))
        return bounds

    fast, slow = (np.random.default_rng(n * 11 + real) for _ in range(2))
    got_starts = np.empty(samples)
    with monkeypatch.context() as m:
        m.setattr(algebra, "_runs", recorded)
        masks, amps = _random_rows(
            fast, n, 6, range(n), real, samples, got_starts
        )
    # Blocks b0..b1-1 of a run; block b is top b % n of sample b // n.
    runs = list(zip(bounds, bounds[1:]))
    assert len(runs) > 1
    assert any(b0 // n < (b1 - 1) // n for b0, b1 in runs)
    assert n == 1 or any(b0 % n for b0, _ in runs)
    want_starts = []
    for s in range(samples):
        want_starts.append(slow.standard_normal())
        for k in range(n):
            want = random_element(slow, n, 6, max_generator=k, real=real)
            rows = slice((s * n + k) * 6, (s * n + k + 1) * 6)
            got = CliffordElement(n, masks[rows], amps[rows])
            assert got.masks.tobytes() == want.masks.tobytes()
            assert got.amps.tobytes() == want.amps.tobytes()
    assert got_starts.tobytes() == np.array(want_starts).tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


def per_element_blocks(a, found=None):
    """Reference block build: one element at a time, with its own parity
    table from pair_parity and its own np.add.at; found is its
    (basis, m, coords), algebra._block_basis(a) when None."""
    basis, m, coords = algebra._block_basis(a) if found is None else found
    c = len(basis) - 2 * m
    r = len(basis)
    coords = np.array(coords, dtype=np.int64)
    bits = (coords[:, None] >> np.arange(r)) & 1
    w = sp.words_for(a.n)
    words = np.array(
        [sp.encode_mask(b, w) for b in basis], dtype=np.uint64
    ).reshape(r, w)
    parity = sp.pair_parity(words, words).astype(np.int64)
    pair_signs = ((bits @ np.triu(parity, 1)) * bits).sum(axis=1)
    quarter = 2 * pair_signs + bits @ np.diag(parity)
    phase = a.amps * np.array([1, 1j, -1, -1j])[quarter & 3]
    qubit = 1 << np.arange(m)
    x = bits[:, 0:2 * m:2] @ qubit
    z = bits[:, 1:2 * m:2] @ qubit
    s_bits = coords >> 2 * m
    cols = np.arange(1 << m)
    sector = np.arange(1 << c)
    flips = (
        np.bitwise_count(s_bits[:, None] & sector)[:, :, None]
        + np.bitwise_count(z[:, None] & cols)[:, None, :]
    )
    sign = np.where(flips & 1, -1.0, 1.0)
    blocks = np.zeros((1 << c, 1 << m, 1 << m), dtype=np.complex128)
    np.add.at(
        blocks,
        (sector[None, :, None], x[:, None, None] ^ cols, cols),
        phase[:, None, None] * sign,
    )
    return blocks


def test_block_stacks_equal_the_per_element_build():
    """Blocks built for many elements of one shape at once equal each
    element's own build bit for bit, over one and two mask words."""
    rng = np.random.default_rng(45)
    for n in (3, 9, 14, 70):
        elements = [zero(n), CliffordElement.scalar(n, 1.5 - 0.5j)]
        for n_terms in (1, 3, 8, 11):
            elements += [random_element(rng, n, n_terms) for _ in range(8)]
        for a, got in zip(elements, _block_stacks(elements)):
            want = per_element_blocks(a)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def omega(u, v):
    """Commutation form of monomials given as int masks: 1 when g_u and
    g_v anticommute."""
    return (u.bit_count() * v.bit_count() + (u & v).bit_count()) & 1


def per_row_block_basis(a):
    """Reference _block_basis: one decode_mask per row and a symplectic
    Gram-Schmidt that counts every popcount afresh."""
    vals = [sp.decode_mask(row) for row in a.masks]
    echelon = {}
    for v in vals:
        while v and (top := v.bit_length() - 1) in echelon:
            v ^= echelon[top]
        if v:
            echelon[top] = v
    vecs = list(echelon.values())
    pairs, central = [], []
    while vecs:
        u = vecs.pop(0)
        hit = next((i for i, v in enumerate(vecs) if omega(u, v)), None)
        if hit is None:
            central.append(u)
            continue
        v = vecs.pop(hit)
        vecs = [
            w ^ (u if omega(w, v) else 0) ^ (v if omega(w, u) else 0)
            for w in vecs
        ]
        pairs.append((u, v))
    basis = [b for pair in pairs for b in pair] + central
    return basis, len(pairs), algebra._coordinates(basis, vals)


@pytest.mark.parametrize("n", [3, 14, 64, 70, 130])
def test_bulk_decoded_blocks_equal_the_per_row_decode(n):
    """_block_basis, which decodes its masks in bulk and carries each
    vector's popcount parity, and _block_stacks, which encodes its basis
    in one call and scatters by np.bincount, equal the per-row reference
    and its np.add.at bit for bit, over one, two and three mask words."""
    rng = np.random.default_rng(46 + n)
    elements = [zero(n), CliffordElement.scalar(n, 1.5 - 0.5j)]
    for n_terms in (1, 3, 8, 11, 14):
        elements += [random_element(rng, n, n_terms) for _ in range(8)]
    top = CliffordElement.from_terms(
        n, {1 << (n - 1): 1.0, (1 << (n - 1)) | 1: 2j, 0b11: -0.5}
    )
    elements.append(top)
    assert sp.words_for(n) == -(-n // 64)
    for a, got in zip(elements, _block_stacks(elements)):
        found = per_row_block_basis(a)
        assert algebra._block_basis(a) == found
        want = per_element_blocks(a, found)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 15))
def test_lp_norms_equal_spectral_lp_bit_for_bit(n):
    """Every L^p norm of _lp_norms, read per block shape and p, has the
    bits of lp_norm on the element alone, for the algebra suite's draws
    and elements of many ranks."""
    for seed in range(4):
        rng = np.random.default_rng([90, n, seed])
        elements = [zero(n), CliffordElement.scalar(n, 0.5 + 2j)]
        for n_terms in (1, 2, 5, 8, 12):
            elements += [random_element(rng, n, n_terms) for _ in range(8)]
        elements += _random_elements(rng, n, 120).values(0, 120)
        got = _lp_norms(elements, P_CHOICES)
        assert len(got) == len(elements)
        for a, row in zip(elements, got):
            want = [lp_norm(a, p) for p in P_CHOICES]
            assert [np.float64(x).tobytes() for x in row] == [
                np.float64(x).tobytes() for x in want
            ]


def test_algebra_suite_builds_each_block_basis_once(monkeypatch, tmp_path):
    """The Hoelder sweep's 120 elements at n=14 each take one
    _block_basis call."""
    calls = []
    block_basis = algebra._block_basis

    def counted(a):
        calls.append(a)
        return block_basis(a)

    monkeypatch.setattr(algebra, "_block_basis", counted)
    spec = parse_problem({"grid": {"n_steps": 14}})
    assert run("algebra-suite", spec, str(tmp_path), seed=0)["pass"]
    assert len(calls) == 120
    assert len({id(a) for a in calls}) == 120


def test_stacked_pair_products_and_vacua_equal_each_pair():
    """Step k of star.products(b), star the stacked adjoints of the a_k,
    is a_k* b_k bit for bit, and vacua reads each one's vacuum, with
    empty steps, whose products have no rows, and vacua that are
    zero."""
    n = 12
    rng = np.random.default_rng(47)
    a_values = [random_element(rng, n, 6) for _ in range(10)]
    b_values = [random_element(rng, n, 7) for _ in range(10)]
    a_values[1] = zero(n)
    b_values[2] = zero(n)
    b_values[3] = a_values[3].scale(-0.5j)
    b_values[4] = CliffordElement.generator(n, 5)
    a_values[4] = CliffordElement.scalar(n, 2.0)
    star = _Stack.of(n, a_values).adjoint()
    got = star.products(_Stack.of(n, b_values))
    wants = [a.adjoint() * b for a, b in zip(a_values, b_values)]
    for value, want in zip(got.values(0, 10), wants):
        assert value.masks.tobytes() == want.masks.tobytes()
        assert value.amps.tobytes() == want.amps.tobytes()
    vacua = got.vacua(10)
    assert vacua[4] == 0j and vacua[3] != 0j
    assert np.array(vacua).tobytes() == np.array(
        [w.vacuum() for w in wants]
    ).tobytes()
    assert _Stack.of(n, []).vacua(3) == [0j, 0j, 0j]


def test_stacked_block_spectra_equal_each_element_alone():
    """One SVD per block shape gives every element the bits of its own
    singular_values, with the zero element, an element whose span
    is all central, scalars and random elements of several ranks mixed."""
    rng = np.random.default_rng(44)
    central = CliffordElement.from_terms(
        14, {0b11: 0.5 - 1j, 0b1100: 2.0, 0b1111: -0.25j, 0b11 << 12: 1.5}
    )
    assert _symplectic_basis([0b11, 0b1100, 0b11 << 12])[0] == []
    elements = [zero(14), central, CliffordElement.scalar(14, 3.0 - 2j)]
    for n_terms in (1, 2, 5, 8, 12):
        elements += [random_element(rng, 14, n_terms) for _ in range(6)]
    elements += [zero(14), central]
    got = _block_spectra(elements)
    for a, s in zip(elements, got):
        want = singular_values(a)
        assert s.shape == want.shape
        assert s.tobytes() == want.tobytes()
    assert len({b.shape[1:] for b in _block_stacks(elements)}) > 2


def test_large_n_refuses_matrix_norms_but_not_p2():
    """Past MAX_MATRIX_GENERATORS generators, a span of full rank is
    refused every p but 2, while a small span is served and matches the
    JW image of the same terms on MAX_MATRIX_GENERATORS generators."""
    n = MAX_MATRIX_GENERATORS + 1
    a = CliffordElement.from_terms(n, {1 << k: 1.0 for k in range(n)})
    assert lp_norm(a, 2) == np.sqrt(n)
    with pytest.raises(ValueError, match="refused"):
        lp_norm(a, np.inf)
    with pytest.raises(ValueError, match="refused"):
        singular_values(a)
    terms = {0b1011: 1.5, 0b110: -2j, 1 << 13: 0.25, 0b11 << 12: 1.0}
    small = CliffordElement.from_terms(n, terms)
    ref = np.linalg.svd(
        jw_rep(n - 1).matrix(CliffordElement.from_terms(n - 1, terms)),
        compute_uv=False,
    )
    s = singular_values(small)
    assert lp_norm(small, np.inf) == s[0]
    assert abs(s[0] - ref[0]) <= 1e-12 * ref[0]
    for p in (1.0, 1.5, 3.0):
        want = np.mean(ref**p)
        assert abs(np.mean(s**p) - want) <= 1e-12 * want
        assert lp_norm(small, p) == float(np.mean(s**p)) ** (1.0 / p)


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        lp_norm(identity(3), 0.5)


# -- block spectra against the Jordan-Wigner route -------------------------


def assert_block_spectrum_matches_jw(a):
    """The block route's means of s^p and its maximum equal the JW ones
    to 1e-12 relative; its largest value comes first."""
    ref = np.linalg.svd(jw_rep(a.n).matrix(a), compute_uv=False)
    got = singular_values(a)
    assert got[0] == got.max()
    assert abs(got[0] - ref[0]) <= 1e-12 * ref[0]
    for p in (1.0, 1.5, 2.0, 3.0, 4.0):
        want = np.mean(ref**p)
        assert abs(np.mean(got**p) - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [0, 1, 6, 14])
def test_block_spectrum_of_zero_and_identity(n):
    assert_block_spectrum_matches_jw(zero(n))
    assert_block_spectrum_matches_jw(CliffordElement.scalar(n, 2.5 - 1j))


@pytest.mark.parametrize("n, mask", [(1, 0b1), (5, 0b100), (6, 0b11),
                                     (9, 0b111), (14, 0b1111 << 10)])
def test_block_spectrum_of_one_generator_word(n, mask):
    # g_v^2 = +1 for |v| = 1 and 4, -1 for |v| = 2 and 3
    assert_block_spectrum_matches_jw(
        CliffordElement.from_terms(n, {mask: 0.75 + 0.5j})
    )


def test_block_spectrum_of_all_commuting_words():
    # disjoint even words commute with each other and with their products
    words = [0b11, 0b1100, 0b110000, 0b1111, 0b111111, 0b11 << 12]
    assert _symplectic_basis(words[:3] + words[5:])[0] == []
    rng = np.random.default_rng(40)
    for n in (6, 14):
        used = [v for v in words if v < 1 << n]
        amps = rng.normal(size=len(used)) + 1j * rng.normal(size=len(used))
        a = CliffordElement.from_terms(n, dict(zip(used, amps)))
        assert_block_spectrum_matches_jw(a)


def test_block_spectrum_of_even_elements():
    rng = np.random.default_rng(41)
    for n in (4, 9, 14):
        for _ in range(5):
            a = random_element(rng, n, n_terms=16).even_part()
            assert_block_spectrum_matches_jw(a)


def test_block_spectrum_refuses_rank_above_the_matrix_limit():
    n = 20
    a = CliffordElement.from_terms(
        n, {1 << k: 1.0 for k in range(MAX_MATRIX_GENERATORS + 1)}
    )
    with pytest.raises(ValueError, match="rank 15"):
        _block_spectra([a])


@pytest.mark.parametrize("n", [15, 130])
def test_lp_norm_and_singular_values_refuse_rank_15(n):
    """A span of rank 15 is refused by both public spectral names, with
    the rank in the message, on one word and on three; p = 2 is not."""
    a = CliffordElement.from_terms(
        n, {(1 << k) | (1 << (n - 1)): 1.0 for k in range(15)}
    )
    for p in (1.0, 1.5, 3.0, np.inf):
        with pytest.raises(ValueError, match="span rank 15"):
            lp_norm(a, p)
    with pytest.raises(ValueError, match="span rank 15"):
        singular_values(a)
    assert lp_norm(a, 2) == norm2(a)


def test_same_terms_on_8_and_130_generators_give_the_same_norms():
    """lp_norm reads the span of the masks, not n: the same terms on 8
    and on 130 generators give the same bits, as does the batch."""
    rng = np.random.default_rng(48)
    for n_terms in (1, 3, 8, 12):
        small = random_element(rng, 8, n_terms)
        large = CliffordElement.from_terms(130, small.terms())
        for p in P_CHOICES:
            assert np.float64(lp_norm(large, p)).tobytes() == (
                np.float64(lp_norm(small, p)).tobytes()
            )
        assert singular_values(large).tobytes() == (
            singular_values(small).tobytes()
        )
        assert _lp_norms([small, large], P_CHOICES)[1] == [
            lp_norm(large, p) for p in P_CHOICES
        ]


def test_algebra_suite_builds_no_jw_matrix_at_n14(monkeypatch, tmp_path):
    calls = []
    matrix = MatrixRep.matrix

    def counted(self, a):
        calls.append(1)
        return matrix(self, a)

    monkeypatch.setattr(MatrixRep, "matrix", counted)
    spec = parse_problem({"grid": {"n_steps": 14}})
    assert run("algebra-suite", spec, str(tmp_path), seed=0)["pass"]
    assert calls == []


# -- matrix representation ------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
def test_jw_rep_is_star_homomorphism_with_vacuum_trace(n):
    rep = jw_rep(n)
    assert rep.d == 2 ** ((n + 1) // 2)
    rng = np.random.default_rng(900 + n)
    for _ in range(8):
        a = rand_elem(rng, n)
        b = rand_elem(rng, n)
        ma, mb = rep.matrix(a), rep.matrix(b)
        assert np.allclose(rep.matrix(mul(a, b)), ma @ mb, atol=1e-11)
        assert np.allclose(rep.matrix(adjoint(a)), ma.conj().T, atol=1e-12)
        assert abs(np.trace(ma) / rep.d - vacuum(a)) < 1e-12
        assert abs(rep.trace_state(a) - vacuum(a)) < 1e-12


def per_term_matrix(rep, a):
    """Reference image: each term's signed permutation composed generator
    by generator, as signed-permutation columns, and added in term order
    into a zero matrix."""
    idx = np.arange(rep.d)
    gens = []
    for k in range(rep.n):
        q, odd = divmod(k, 2)
        zsign = np.where(
            np.bitwise_count(idx & ((1 << q) - 1)) & 1, -1.0 + 0j, 1.0 + 0j
        )
        phase = zsign * np.where((idx >> q) & 1, -1j, 1j) if odd else zsign
        gens.append((idx ^ (1 << q), phase))
    out = np.zeros((rep.d, rep.d), dtype=np.complex128)
    for mask, amp in zip(a.masks[:, 0].tolist(), a.amps):
        perm, phase = idx, np.ones(rep.d, dtype=np.complex128)
        for k in range(rep.n):
            if mask >> k & 1:
                gp, gf = gens[k]
                phase = gf * phase[gp]
                perm = perm[gp]
        out[perm, idx] += amp * phase
    return out


def zeroed_parts(rng, count, real):
    """Amplitudes with real or imaginary parts exactly 0 (of either
    sign) among ordinary ones."""
    re = rng.normal(size=count)
    im = np.zeros(count) if real else rng.normal(size=count)
    re[::3] = 0.0
    im[1::4] = -0.0
    re[2::5] = -0.0
    return re + 1j * im


@pytest.mark.parametrize("n", range(0, MAX_MATRIX_GENERATORS + 1))
def test_pauli_images_equal_the_per_term_composition(n):
    """matrix adds each term's Pauli string with bincount; every entry
    keeps the bits of the per-term loop, for real and complex amplitudes,
    parts exactly 0, and elements past one bincount chunk."""
    rep = jw_rep(n)
    rng = np.random.default_rng(300 + n)
    for real in (False, True):
        for n_terms in (1, 8, 40):
            a = random_element(rng, n, n_terms, real=real)
            assert rep.matrix(a).tobytes() == per_term_matrix(rep, a).tobytes()
            b = CliffordElement(
                n, a.masks, zeroed_parts(rng, a.n_terms, real)
            )
            assert rep.matrix(b).tobytes() == per_term_matrix(rep, b).tobytes()
    full = CliffordElement(
        n, np.arange(1 << n, dtype=np.uint64)[:, None],
        zeroed_parts(rng, 1 << n, False),
    )
    assert full.n_terms * rep.d > algebra._CHUNK_ENTRIES or n < 12
    assert rep.matrix(full).tobytes() == per_term_matrix(rep, full).tobytes()
    assert rep.matrix(zero(n)).tobytes() == bytes(16 * rep.d * rep.d)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 14])
def test_trace_state_is_the_vacuum(n):
    rep = jw_rep(n)
    rng = np.random.default_rng(500 + n)
    for n_terms in (0, 1, 8, 30):
        a = random_element(rng, n, n_terms)
        assert rep.trace_state(a) == a.vacuum()
        assert rep.trace_state(a + 2.5j) == (a + 2.5j).vacuum()


def test_monomial_reads_the_pauli_tables():
    rep = jw_rep(9)
    for bits in ([], [0], [3], [0, 1], [2, 5, 8], list(range(9))):
        perm, phase = rep.monomial(bits)
        a = CliffordElement.from_terms(9, {sum(1 << k for k in bits): 1.0})
        m = per_term_matrix(rep, a)
        assert np.array_equal(m[perm, np.arange(rep.d)], phase)
        assert np.count_nonzero(m) == rep.d


def test_jw_rep_is_cached():
    assert jw_rep(6) is jw_rep(6)


def test_jw_rep_refuses_sizes_past_the_matrix_limit():
    assert jw_rep(MAX_MATRIX_GENERATORS).n == MAX_MATRIX_GENERATORS
    with pytest.raises(ValueError, match="matrix representation refused"):
        jw_rep(MAX_MATRIX_GENERATORS + 1)


# -- randomness contract --------------------------------------------------


def test_random_element_is_deterministic_per_seed():
    a = random_element(np.random.default_rng(42), 20, n_terms=9)
    b = random_element(np.random.default_rng(42), 20, n_terms=9)
    assert a.terms() == b.terms()


def test_random_element_respects_generator_ceiling_and_real_flag():
    rng = np.random.default_rng(1)
    a = random_element(rng, 30, n_terms=40, max_generator=5, real=True)
    for mask, amp in a.terms().items():
        assert mask < 32
        assert amp.imag == 0.0


def bitwise_random_element(rng, n, n_terms, max_generator, real):
    """Reference draw: one rng.random() per mask bit, row by row."""
    top = n if max_generator is None else min(max_generator, n)
    w = max(1, -(-n // 64))
    masks = np.zeros((n_terms, w), dtype=np.uint64)
    for i in range(n_terms):
        mask = 0
        for b in range(top):
            if rng.random() < 0.5:
                mask |= 1 << b
        for j in range(w):
            masks[i, j] = (mask >> (64 * j)) & 0xFFFFFFFFFFFFFFFF
    re = rng.normal(size=n_terms)
    im = np.zeros(n_terms) if real else rng.normal(size=n_terms)
    return CliffordElement(n, masks, re + 1j * im)


@pytest.mark.parametrize("n", [0, 1, 14, 64, 70])
@pytest.mark.parametrize("max_generator", [None, 0, 5])
@pytest.mark.parametrize("real", [False, True])
def test_random_element_matches_the_bitwise_draw(n, max_generator, real):
    fast_rng = np.random.default_rng(n * 10 + 3)
    slow_rng = np.random.default_rng(n * 10 + 3)
    for terms in (1, 7):
        a = random_element(fast_rng, n, terms, max_generator, real)
        b = bitwise_random_element(slow_rng, n, terms, max_generator, real)
        assert np.array_equal(a.masks, b.masks)
        assert np.array_equal(a.amps, b.amps)
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def per_top_rows(rng, n, n_terms, tops, real, samples, starts):
    """Reference draw of _random_rows: one block at a time, each with
    its own arrays, as the loop it replaced drew them."""
    w = max(1, -(-n // 64))
    bits = np.zeros((samples * len(tops) * n_terms, 64 * w), dtype=bool)
    amps = np.empty(samples * len(tops) * n_terms, dtype=np.complex128)
    block = 0
    for s in range(samples):
        if starts is not None:
            starts[s] = float(rng.standard_normal())
        for top in tops:
            rows = slice(block * n_terms, (block + 1) * n_terms)
            bits[rows, :top] = rng.random((n_terms, top)) < 0.5
            re = rng.normal(size=n_terms)
            im = np.zeros(n_terms) if real else rng.normal(size=n_terms)
            amps[rows] = re + 1j * im
            block += 1
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.dtype("<u8")).astype(np.uint64), amps


@pytest.mark.parametrize("n", [1, 2, 14, 63, 64, 65, 100, 130])
@pytest.mark.parametrize("real", [False, True])
def test_random_rows_keep_the_stream_of_the_per_top_loop(n, real):
    """Masks, amplitudes, starts and the generator's state after the
    draw equal the per-top loop's bit for bit, over one and two mask
    words, tops from 0 to n (across bit 64), and batches of samples."""
    tops_choices = [
        [], [0], [n], [min(n, 14)], list(range(n + 1)), [n, 0, n // 2, 1],
    ]
    for n_terms in (1, 3, 8):
        for tops in tops_choices:
            for samples, with_starts in ((1, False), (3, False), (2, True)):
                seed = n * 1000 + n_terms * 10 + samples
                fast, slow = (np.random.default_rng(seed) for _ in range(2))
                got_starts = np.empty(samples) if with_starts else None
                want_starts = np.empty(samples) if with_starts else None
                got = _random_rows(
                    fast, n, n_terms, tops, real, samples, got_starts
                )
                want = per_top_rows(
                    slow, n, n_terms, tops, real, samples, want_starts
                )
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                if with_starts:
                    assert got_starts.tobytes() == want_starts.tobytes()
                assert fast.bit_generator.state == slow.bit_generator.state


def test_random_element_refuses_a_negative_generator_ceiling():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="max_generator"):
        random_element(rng, 8, n_terms=3, max_generator=-1)
    assert rng.bit_generator.state == before


# -- hypothesis properties ------------------------------------------------

amps_st = st.complex_numbers(
    min_magnitude=1e-3,
    max_magnitude=2.0,
    allow_nan=False,
    allow_infinity=False,
)
elem_st = st.dictionaries(st.integers(0, 31), amps_st, max_size=6).map(
    lambda d: CliffordElement.from_terms(5, d)
)


def close(a, b, tol=1e-9):
    return norm2(a - b) <= tol * (1.0 + norm2(a) + norm2(b))


@settings(max_examples=60, deadline=None)
@given(elem_st, elem_st, elem_st)
def test_product_is_associative_and_distributive(a, b, c):
    assert close(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert close(mul(a, b + c), mul(a, b) + mul(a, c))


@settings(max_examples=60, deadline=None)
@given(elem_st, elem_st)
def test_star_is_an_antiautomorphism(a, b):
    assert close(adjoint(mul(a, b)), mul(adjoint(b), adjoint(a)))
    assert adjoint(adjoint(a)).terms() == a.terms()


@settings(max_examples=60, deadline=None)
@given(elem_st, elem_st)
def test_grading_is_a_product_automorphism(a, b):
    assert close(grading(mul(a, b)), mul(grading(a), grading(b)))


@settings(max_examples=80, deadline=None)
@given(elem_st)
def test_pairing_is_positive_definite(a):
    q = pairing(a, a)
    assert abs(q.imag) < 1e-12
    assert q.real >= 0.0
    if a.n_terms:
        assert q.real > 0.0


@settings(max_examples=40, deadline=None)
@given(elem_st, amps_st)
def test_scalars_pull_out_of_products(a, lam):
    s = CliffordElement.scalar(5, lam)
    assert close(mul(s, a), a.scale(lam))
    assert close(mul(a, s), a.scale(lam))


@st.composite
def small_elements(draw):
    n = draw(st.integers(1, 14))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                          max_size=12, unique=True))
    amps = draw(st.lists(amps_st, min_size=len(masks),
                         max_size=len(masks)))
    return CliffordElement.from_terms(n, dict(zip(masks, amps)))


@settings(max_examples=80, deadline=None)
@given(small_elements())
def test_block_spectrum_matches_jw_on_random_elements(a):
    assert_block_spectrum_matches_jw(a)
