"""Structured linear maps: adjoints against the pairing, grade splits,
the graded-scalar closed family, and the dense-matrix cross route."""

import numpy as np
import pytest

from fermisde.algebra import (
    CliffordElement,
    grading,
    identity,
    mul,
    norm2,
    pairing,
    random_element,
)
from fermisde.operators import (
    BilinearMap,
    ComposeOp,
    GradedScalarOp,
    GradingOp,
    LeftMulOp,
    RightMulOp,
    ScalarOp,
    SumOp,
    op_adjoint,
    op_grade_parts,
    op_to_dense,
)
from fermisde.operators import _as_scalar_amp

N = 5


def sample_ops(rng, n=N):
    c = random_element(rng, n, n_terms=4)
    d = random_element(rng, n, n_terms=3)
    return [
        ScalarOp(1.5 - 0.5j),
        GradingOp(),
        LeftMulOp(c),
        RightMulOp(d),
        SumOp([ScalarOp(0.5), LeftMulOp(c)]),
        ComposeOp([RightMulOp(d), GradingOp(), ScalarOp(2.0)]),
        GradedScalarOp(0.7 + 0.1j, -0.3),
    ]


def test_primitive_actions_match_algebra_arithmetic():
    rng = np.random.default_rng(1)
    c = random_element(rng, N, n_terms=4)
    x = random_element(rng, N, n_terms=7)
    assert ScalarOp(2.0 - 1.0j)(x).terms() == x.scale(2.0 - 1.0j).terms()
    assert GradingOp()(x).terms() == grading(x).terms()
    assert LeftMulOp(c)(x).terms() == mul(c, x).terms()
    assert RightMulOp(c)(x).terms() == mul(x, c).terms()


def test_compose_applies_right_to_left():
    rng = np.random.default_rng(2)
    c = random_element(rng, N, n_terms=4)
    x = random_element(rng, N, n_terms=5)
    ab = ComposeOp([LeftMulOp(c), GradingOp()])
    assert ab(x).terms() == mul(c, grading(x)).terms()
    # operator @ builds the same composition
    assert (LeftMulOp(c) @ GradingOp())(x).terms() == ab(x).terms()


def test_sum_and_scale_combinators():
    rng = np.random.default_rng(3)
    c = random_element(rng, N, n_terms=4)
    x = random_element(rng, N, n_terms=5)
    s = SumOp([LeftMulOp(c), ScalarOp(1.0)])
    want = mul(c, x) + x
    assert norm2(s(x) - want) < 1e-12
    assert norm2(s.scale(0.5)(x) - want.scale(0.5)) < 1e-12
    assert norm2(SumOp([])(x)) == 0.0


def test_adjoints_pair_correctly():
    rng = np.random.default_rng(4)
    x = random_element(rng, N, n_terms=8)
    y = random_element(rng, N, n_terms=8)
    for op in sample_ops(rng):
        lhs = pairing(op(x), y)
        rhs = pairing(x, op_adjoint(op)(y))
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_dense_route_agrees_and_adjoint_is_conj_transpose():
    rng = np.random.default_rng(5)
    n = 4
    x = random_element(rng, n, n_terms=6)
    c = random_element(rng, n, n_terms=3)
    for op in (
        ScalarOp(0.5j),
        GradingOp(),
        LeftMulOp(c),
        RightMulOp(c),
        ComposeOp([LeftMulOp(c), GradingOp()]),
        GradedScalarOp(1.0, 0.25j),
    ):
        m = op_to_dense(op, n)
        vec = np.zeros(1 << n, dtype=complex)
        for mask, amp in x.terms().items():
            vec[mask] = amp
        img = m @ vec
        want = op(x)
        got = CliffordElement.from_terms(
            n, {i: img[i] for i in range(1 << n) if img[i] != 0}
        )
        assert norm2(got - want) < 1e-11
        ma = op_to_dense(op.adjoint(), n)
        assert np.allclose(ma, m.conj().T, atol=1e-12)


def test_dense_route_refuses_large_n():
    with pytest.raises(ValueError, match="refused"):
        op_to_dense(GradingOp(), 11)


def test_grade_parts_reassemble_and_transform_correctly():
    rng = np.random.default_rng(6)
    x = random_element(rng, N, n_terms=9)
    g = GradingOp()
    for op in sample_ops(rng):
        even, odd = op_grade_parts(op)
        assert norm2(even(x) + odd(x) - op(x)) < 1e-10
        # G T_e G = T_e and G T_o G = -T_o
        assert norm2(g(even(g(x))) - even(x)) < 1e-10
        assert norm2(g(odd(g(x))) + odd(x)) < 1e-10


# -- graded-scalar family -------------------------------------------------


def test_graded_scalar_action_and_term_count():
    rng = np.random.default_rng(7)
    x = random_element(rng, N, n_terms=10)
    t = GradedScalarOp(2.0, -0.5j)
    want = x.scale(2.0) + grading(x).scale(-0.5j)
    assert norm2(t(x) - want) < 1e-12
    # cancelling coefficients drop rows instead of keeping zeros
    kill_odd = GradedScalarOp(1.0, 1.0)
    assert kill_odd(x).terms() == x.even_part().scale(2.0).terms()


def test_graded_scalar_closure_under_sum_and_composition():
    a = GradedScalarOp(1.0, 0.5)
    b = GradedScalarOp(-2.0, 0.25j)
    s = a + b
    assert isinstance(s, GradedScalarOp)
    assert s.alpha == -1.0 and s.beta == 0.5 + 0.25j
    p = a @ b
    assert isinstance(p, GradedScalarOp)
    rng = np.random.default_rng(8)
    x = random_element(rng, N, n_terms=6)
    assert norm2(p(x) - a(b(x))) < 1e-12
    assert norm2((b @ a)(x) - p(x)) < 1e-12  # the family is commutative


def test_graded_scalar_falls_back_when_partner_is_not_reducible():
    rng = np.random.default_rng(9)
    c = random_element(rng, N, n_terms=3)
    mixed = GradedScalarOp(1.0, 0.0) + LeftMulOp(c)
    assert isinstance(mixed, SumOp)
    assert mixed.as_graded_scalar() is None


def test_graded_scalar_inverse_and_singularity():
    t = GradedScalarOp(2.0, 0.5)
    rng = np.random.default_rng(10)
    x = random_element(rng, N, n_terms=7)
    assert norm2((t @ t.inverse())(x) - x) < 1e-12
    assert norm2(t.inverse()(t(x)) - x) < 1e-12
    with pytest.raises(ZeroDivisionError):
        GradedScalarOp(1.0, 1.0).inverse()
    with pytest.raises(ZeroDivisionError):
        GradedScalarOp(0.0, 0.0).inverse()


def test_graded_scalar_star_operations():
    t = GradedScalarOp(1.0 + 2.0j, -0.5j)
    adj = t.adjoint()
    assert adj.alpha == 1.0 - 2.0j and adj.beta == 0.5j
    sym = t.symmetrized()
    assert sym.alpha == 1.0 and sym.beta == 0.0
    even, odd = t.grade_parts()
    assert even.alpha == t.alpha and even.beta == t.beta
    assert odd.alpha == 0.0 and odd.beta == 0.0
    conj = t.conjugate_by_grading()
    assert conj.alpha == t.alpha and conj.beta == t.beta


def test_reduction_to_graded_scalar_form():
    assert ScalarOp(3.0).as_graded_scalar().alpha == 3.0
    g = GradingOp().as_graded_scalar()
    assert g.alpha == 0.0 and g.beta == 1.0
    lm = LeftMulOp(CliffordElement.scalar(N, 2.5)).as_graded_scalar()
    assert lm.alpha == 2.5 and lm.beta == 0.0
    assert LeftMulOp(CliffordElement.zero(N)).as_graded_scalar().alpha == 0.0
    assert LeftMulOp(CliffordElement.generator(N, 0)).as_graded_scalar() is None
    comp = ComposeOp([ScalarOp(2.0), GradingOp()]).as_graded_scalar()
    assert comp.alpha == 0.0 and comp.beta == 2.0
    s = SumOp([ScalarOp(1.0), GradingOp()]).as_graded_scalar()
    assert s.alpha == 1.0 and s.beta == 1.0
    assert SumOp([ScalarOp(1.0), RightMulOp(identity(N).mul_generator(1))])
    assert (
        SumOp([ScalarOp(1.0), LeftMulOp(CliffordElement.generator(N, 2))])
        .as_graded_scalar()
        is None
    )


# -- bilinear maps --------------------------------------------------------


def test_bilinear_map_forms():
    rng = np.random.default_rng(11)
    v = random_element(rng, N, n_terms=5)
    w = random_element(rng, N, n_terms=5)

    sym = BilinearMap(fn=lambda a, b: mul(a, b) + mul(b, a))
    assert norm2(sym(v, w) - (mul(v, w) + mul(w, v))) < 1e-12
    assert not sym.is_zero

    quad = BilinearMap(operator=GradedScalarOp(2.0, 0.0))
    want = pairing(v.scale(2.0), w).real
    assert abs(quad(v, w) - want) < 1e-12

    z = BilinearMap.zero()
    assert z.is_zero
    with pytest.raises(ValueError, match="zero bilinear"):
        z(v, w)


# Past 64 generators a mask takes two words.
WIDE = 70


def test_scalar_amp_of_the_zero_element_is_zero_at_two_mask_words():
    amp = _as_scalar_amp(CliffordElement.zero(WIDE))
    assert type(amp) is complex
    assert amp == 0j


@pytest.mark.parametrize(
    "value", [1.0, -2.5, -0.0, complex(0.0, -0.0), 2 - 3j, -1j, 1e-300j]
)
def test_scalar_amp_reads_a_scalar_at_two_mask_words(value):
    """Every amplitude, the signed zeros included, comes back bit for
    bit (a zero amplitude is kept as a row, as arithmetic can leave it)."""
    el = CliffordElement._wrap(
        WIDE, np.zeros((1, 2), np.uint64), np.array([value], np.complex128)
    )
    amp = _as_scalar_amp(el)
    assert type(amp) is complex
    assert np.array([amp]).tobytes() == el.amps.tobytes()


@pytest.mark.parametrize("k", [64, 66, WIDE - 1])
def test_scalar_amp_refuses_a_term_set_in_the_second_mask_word(k):
    el = CliffordElement.generator(WIDE, k).scale(2.0)
    assert el.masks.shape == (1, 2) and not el.masks[0, 0]
    assert _as_scalar_amp(el) is None


def test_scalar_amp_refuses_two_terms_at_two_mask_words():
    el = CliffordElement.from_terms(WIDE, {0: 1.0, 1 << 65: 0.5})
    assert el.n_terms == 2
    assert _as_scalar_amp(el) is None
    assert _as_scalar_amp(CliffordElement.from_terms(
        WIDE, {1: 1.0, 1 << 65: 0.5}
    )) is None
