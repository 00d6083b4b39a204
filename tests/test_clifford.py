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

from fermisde.algebra import (
    MAX_MATRIX_GENERATORS,
    CliffordElement,
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
    vacuum,
    zero,
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


def test_large_n_refuses_matrix_norms_but_not_p2():
    n = MAX_MATRIX_GENERATORS + 1
    a = CliffordElement.from_terms(n, {(1 << n) - 1: 3.0})
    assert abs(lp_norm(a, 2) - 3.0) < 1e-12
    with pytest.raises(ValueError, match="refused"):
        lp_norm(a, np.inf)


def test_lp_norm_rejects_p_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        lp_norm(identity(3), 0.5)


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
