"""Bitmask kernel checks against slow per-bit Python references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisde import _sparse as sp


def test_words_for():
    assert sp.words_for(0) == 1
    assert sp.words_for(1) == 1
    assert sp.words_for(64) == 1
    assert sp.words_for(65) == 2
    assert sp.words_for(128) == 2
    assert sp.words_for(129) == 3


@given(st.integers(min_value=0, max_value=2**200 - 1))
def test_encode_decode_roundtrip(value):
    w = max(1, (value.bit_length() + 63) // 64)
    row = sp.encode_mask(value, w)
    assert sp.decode_mask(row) == value


@pytest.mark.parametrize("w", [1, 2, 3])
@given(values=st.lists(st.integers(0, 2**192 - 1), max_size=20))
def test_bulk_rows_match_one_mask_at_a_time(w, values):
    """decode_rows and encode_rows equal decode_mask and encode_mask row
    by row, empty lists included."""
    values = [v % (1 << (64 * w)) for v in values]
    rows = sp.encode_rows(values, w)
    assert rows.dtype == np.uint64 and rows.shape == (len(values), w)
    for row, v in zip(rows, values):
        assert row.tobytes() == sp.encode_mask(v, w).tobytes()
    assert sp.decode_rows(rows) == values
    assert sp.decode_rows(rows[::-1]) == values[::-1]


@given(st.lists(st.integers(0, 2**130 - 1), min_size=1, max_size=20))
def test_popcount_matches_python(values):
    masks = np.stack([sp.encode_mask(v, 3) for v in values])
    got = sp.popcount_rows(masks)
    want = [bin(v).count("1") for v in values]
    assert got.tolist() == want


@pytest.mark.parametrize("k", [0, 1, 5, 63, 64, 65, 127, 130])
def test_below_row(k):
    row = sp.below_row(k, 3)
    assert sp.decode_mask(row) == (1 << k) - 1


@given(
    st.lists(st.integers(0, 2**100 - 1), min_size=1, max_size=30),
    st.integers(0, 99),
)
def test_count_above_below(values, k):
    masks = np.stack([sp.encode_mask(v, 2) for v in values])
    above = sp.count_above_bit(masks, k)
    below = sp.count_below_bit(masks, k)
    for i, v in enumerate(values):
        want_above = bin(v >> (k + 1)).count("1")
        want_below = bin(v & ((1 << k) - 1)).count("1")
        assert above[i] == want_above
        assert below[i] == want_below


@given(
    st.lists(
        st.tuples(st.integers(0, 2**150 - 1), st.integers(0, 191)),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from(["left", "right"]),
)
def test_array_k_matches_int_k_row_by_row(rows, side):
    """One index per row gives, row for row, what the int form gives."""
    masks = np.stack([sp.encode_mask(v, 3) for v, _ in rows])
    ks = np.array([k for _, k in rows], dtype=np.int64)
    amps = np.arange(1, len(rows) + 1) * (0.5 - 0.25j)
    got_m, got_a = sp.mul_generator(masks, amps, ks, side)
    above = sp.count_above_bit(masks, ks)
    below = sp.count_below_bit(masks, ks)
    within = sp.rows_within(masks, ks)
    for i, k in enumerate(ks.tolist()):
        row = slice(i, i + 1)
        assert above[i] == sp.count_above_bit(masks[row], k)[0]
        assert below[i] == sp.count_below_bit(masks[row], k)[0]
        assert within[i] == sp.rows_within(masks[row], k)[0]
        want_m, want_a = sp.mul_generator(masks[row], amps[row], k, side)
        assert np.array_equal(got_m[row], want_m)
        assert np.array_equal(got_a[row], want_a)


def test_stacked_canonicalize_merges_within_steps_only():
    masks = np.stack([sp.encode_mask(v, 1) for v in [5, 3, 5, 5, 3, 9]])
    amps = np.array([1.0, 2.0, -1.0, 4.0, 1.0, 3.0], dtype=complex)
    seg = np.array([1, 0, 1, 0, 0, 0])
    out_m, out_a, out_s = sp.canonicalize(masks, amps, seg=seg)
    got = [(s, sp.decode_mask(r), a) for s, r, a in zip(out_s, out_m, out_a)]
    # step 1's two mask-5 rows cancel; step 0's rows keep their own sums
    assert got == [(0, 3, 3.0), (0, 5, 4.0), (0, 9, 3.0)]
    empty = sp.canonicalize(masks[:0], amps[:0], seg=seg[:0])
    assert [a.shape[0] for a in empty] == [0, 0, 0]


def test_lexsort_is_integer_order():
    rng = np.random.default_rng(5)
    values = [int(v) for v in rng.integers(0, 2**63, size=50)]
    values += [v | (1 << 100) for v in values[:10]]
    masks = np.stack([sp.encode_mask(v, 2) for v in values])
    order = sp.lexsort_rows(masks)
    sorted_vals = [values[i] for i in order]
    assert sorted_vals == sorted(values)


def test_canonicalize_merges_and_drops():
    masks = np.stack(
        [sp.encode_mask(v, 1) for v in [5, 3, 5, 9, 3]]
    )
    amps = np.array([1.0, 2.0, -1.0, 4.0, 1.0], dtype=complex)
    out_m, out_a = sp.canonicalize(masks, amps)
    got = {sp.decode_mask(r): a for r, a in zip(out_m, out_a)}
    # the two mask-5 rows cancel exactly and disappear
    assert got == {3: 3.0, 9: 4.0}
    assert sp.decode_mask(out_m[0]) < sp.decode_mask(out_m[1])


def test_prune_keep_budget_semantics():
    amps = np.array([1.0, 1e-9, 0.5, 1e-9], dtype=complex)
    keep, dropped = sp.prune_keep(amps, 1e-6)
    assert keep.tolist() == [True, False, True, False]
    assert dropped == pytest.approx(2e-18)
    # the budget bounds the dropped mass: sqrt(dropped) <= budget * ||amps||
    assert np.sqrt(dropped) <= 1e-6 * np.linalg.norm(amps)


def test_prune_keep_force_first_not_counted_as_dropped():
    amps = np.array([1e-12, 1.0], dtype=complex)
    keep, dropped = sp.prune_keep(amps, 1e-6, force_first=True)
    # forcing the first row keeps everything, reported as the no-op case
    assert keep is None
    assert dropped == 0.0
    keep, dropped = sp.prune_keep(
        np.array([1e-12, 1.0, 1e-12], dtype=complex), 1e-6, force_first=True
    )
    assert keep.tolist() == [True, True, False]
    assert dropped == pytest.approx(1e-24)


def test_prune_keep_no_work_returns_none():
    amps = np.array([1.0, 0.9], dtype=complex)
    keep, dropped = sp.prune_keep(amps, 1e-6)
    assert keep is None and dropped == 0.0
    keep, dropped = sp.prune_keep(amps[:0], 1e-6)
    assert keep is None and dropped == 0.0


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**40 - 1),
            st.complex_numbers(
                max_magnitude=10.0, allow_nan=False, allow_infinity=False
            ),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_canonicalize_preserves_sums(pairs):
    if pairs:
        masks = np.stack([sp.encode_mask(v, 1) for v, _ in pairs])
        amps = np.array([a for _, a in pairs], dtype=complex)
    else:
        masks = sp.empty_masks(1)
        amps = np.zeros(0, dtype=complex)
    out_m, out_a = sp.canonicalize(masks, amps)
    want = {}
    for v, a in pairs:
        want[v] = want.get(v, 0.0) + a
    want = {v: a for v, a in want.items() if a != 0}
    got = {sp.decode_mask(r): a for r, a in zip(out_m, out_a)}
    assert set(got) == set(want)
    for v in want:
        assert got[v] == pytest.approx(want[v], abs=1e-12)
    # canonical order: strictly increasing as integers
    ints = [sp.decode_mask(r) for r in out_m]
    assert ints == sorted(ints)


def inversion_parity(s, t):
    """Per-bit count of the pairs (a, b), a in s, b in t, a > b, mod 2."""
    pairs = 0
    for a in range(s.bit_length()):
        if s >> a & 1:
            pairs += bin(t & ((1 << a) - 1)).count("1")
    return pairs & 1


EDGE_BITS = (1 << 0) | (1 << 63) | (1 << 64) | (1 << 127) | (1 << 128)


@settings(max_examples=60)
@given(
    st.sampled_from([1, 2, 3]),
    st.lists(st.integers(0, 2**192 - 1), min_size=1, max_size=8),
    st.lists(st.integers(0, 2**192 - 1), min_size=1, max_size=8),
    st.booleans(),
)
def test_pair_parity_matches_per_bit_count(w, a_vals, b_vals, force):
    top = (1 << (64 * w)) - 1
    edges = EDGE_BITS & top
    a_vals = [(v | edges if force else v) & top for v in a_vals]
    b_vals = [(v ^ edges if force else v) & top for v in b_vals] + [edges]
    masks_a = np.stack([sp.encode_mask(v, w) for v in a_vals])
    masks_b = np.stack([sp.encode_mask(v, w) for v in b_vals])
    got = sp.pair_parity(masks_a, masks_b)
    want = [[inversion_parity(s, t) for t in b_vals] for s in a_vals]
    assert got.tolist() == want
    shared = sp.pair_parity(masks_a, masks_b, sp.prefix_parity(masks_b))
    assert np.array_equal(shared, got)


@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**192 - 1),
            st.sampled_from([0, 1, 2**63, 2**64, 2**128, 2**191]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_top_bit_is_the_bit_length_less_one(values):
    masks = np.stack([sp.encode_mask(v, 3) for v in values])
    assert sp.top_bit(masks).tolist() == [v.bit_length() - 1 for v in values]


def test_mul_full_refuses_a_product_past_the_row_limit(monkeypatch):
    monkeypatch.setattr(sp, "MAX_ROWS", 20)
    masks = np.arange(5, dtype=np.uint64)[:, None]
    amps = np.ones(5, dtype=np.complex128)
    out_m, _ = sp.mul_full(masks[:4], amps[:4], masks, amps)
    assert out_m.shape[0] == 8
    with pytest.raises(ValueError, match="5 by 5 terms refused: 25 rows"):
        sp.mul_full(masks, amps, masks, amps)
