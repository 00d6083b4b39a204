"""Bitmask kernels for sparse arrays of Clifford monomials.

A monomial over generators g_0..g_{n-1} is a subset of indices, stored as a
row of W = ceil(n/64) uint64 words (bit j of word j//64 set iff generator j
occurs). An element is a pair (masks, amps): masks of shape (m, W), amps
complex128 of shape (m,).

Canonical layout used throughout: rows sorted lexicographically with the
highest word most significant, no duplicate rows, no exactly-zero amplitudes.
All kernels here either preserve that layout or restore it explicitly.

A stacked array holds the values of several steps of a process: an int64
seg gives each row's step, and its canonical layout sorts by seg first.
The bit kernels take a per-row int64 array wherever they take a generator
or filtration index k, so one call serves every step, with k = seg.
"""

from __future__ import annotations

import numpy as np

WORD = 64

# Most rows a frame step or a product may allocate. Beyond this a step or
# product is refused before it allocates, naming the row count.
MAX_ROWS = 1 << 23

_U1 = np.uint64(1)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

# LOW[b]: bits strictly below b set. HIGH[b]: bits strictly above b set.
LOW = np.array([(1 << b) - 1 for b in range(WORD)], dtype=np.uint64)
HIGH = np.array(
    [(~((1 << (b + 1)) - 1)) & 0xFFFFFFFFFFFFFFFF for b in range(WORD)],
    dtype=np.uint64,
)


def words_for(n: int) -> int:
    """Number of 64-bit words needed for n generators (at least 1)."""
    return max(1, -(-n // WORD))


def empty_masks(w: int) -> np.ndarray:
    return np.zeros((0, w), dtype=np.uint64)


def popcount_rows(masks: np.ndarray) -> np.ndarray:
    """Number of set bits per row, int64."""
    return np.bitwise_count(masks).astype(np.int64).sum(axis=1)


def encode_mask(value: int, w: int) -> np.ndarray:
    """One Python-int mask to a (w,) uint64 row."""
    row = np.zeros(w, dtype=np.uint64)
    for i in range(w):
        row[i] = np.uint64((value >> (WORD * i)) & 0xFFFFFFFFFFFFFFFF)
    return row


def decode_mask(row: np.ndarray) -> int:
    """A (w,) uint64 row back to one Python int."""
    value = 0
    for i in range(row.shape[0]):
        value |= int(row[i]) << (WORD * i)
    return value


def decode_rows(masks: np.ndarray) -> list:
    """[decode_mask(row) for row in masks], in bulk: one tolist for
    one-word rows, one int.from_bytes per row otherwise."""
    if masks.shape[1] == 1:
        return masks[:, 0].tolist()
    size = 8 * masks.shape[1]
    raw = masks.astype("<u8", copy=False).tobytes()
    return [
        int.from_bytes(raw[i : i + size], "little")
        for i in range(0, len(raw), size)
    ]


def encode_rows(values, w: int) -> np.ndarray:
    """np.stack([encode_mask(v, w) for v in values]) in one call, as an
    (m, w) array."""
    raw = b"".join(v.to_bytes(8 * w, "little") for v in values)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(-1, w)


def below_row(k, w: int) -> np.ndarray:
    """Rows with exactly the bits 0..k-1 set: one (w,) row for an int k,
    an (m, w) array for an int64 array of m indices."""
    if np.ndim(k):
        fill = np.clip(k[:, None] - WORD * np.arange(w), 0, WORD)
        return np.where(fill == WORD, _FULL, LOW[np.minimum(fill, WORD - 1)])
    row = np.zeros(w, dtype=np.uint64)
    wk, b = divmod(k, WORD)
    for i in range(min(wk, w)):
        row[i] = _FULL
    if wk < w and b > 0:
        row[wk] = LOW[b]
    return row


def generator_rows(k: int, w: int) -> np.ndarray:
    """The (k, w) rows of the generators g_0..g_{k-1}, in canonical
    order."""
    j = np.arange(k)
    rows = np.zeros((k, w), dtype=np.uint64)
    rows[j, j // WORD] = _U1 << (j % WORD).astype(np.uint64)
    return rows


def lexsort_rows(
    masks: np.ndarray, seg: np.ndarray | None = None
) -> np.ndarray:
    """Sort order for rows, highest word most significant; seg, when
    given, is more significant still."""
    keys = [masks[:, i] for i in range(masks.shape[1])]
    if seg is not None:
        # NumPy sorts an int16 key by radix, several times faster than an
        # int64 one; step indices fit it, and wider ones keep int64.
        narrow = seg.astype(np.int16)
        keys.append(narrow if np.array_equal(narrow, seg) else seg)
    return np.lexsort(keys)


def canonicalize(
    masks: np.ndarray,
    amps: np.ndarray,
    seg: np.ndarray | None = None,
):
    """Sort rows, merge duplicates, drop exactly-zero amplitudes.

    With seg, the rows are a stacked array: they sort by seg first, merge
    only within a step, and (masks, amps, seg) is returned. The sort is
    stable, so equal rows merge in input order, as in one step's own sum.
    """
    if masks.shape[0] == 0:
        out = (masks.reshape(0, masks.shape[1]),
               amps[:0].astype(np.complex128))
        return out if seg is None else out + (seg[:0],)
    order = lexsort_rows(masks, seg)
    masks = masks[order]
    amps = amps[order]
    if seg is not None:
        seg = seg[order]
    if masks.shape[0] > 1:
        differs = np.any(masks[1:] != masks[:-1], axis=1)
        if seg is not None:
            differs |= seg[1:] != seg[:-1]
        if not differs.all():
            starts = np.flatnonzero(np.concatenate(([True], differs)))
            amps = np.add.reduceat(amps, starts)
            masks = masks[starts]
            if seg is not None:
                seg = seg[starts]
    keep = amps != 0
    if not keep.all():
        masks = masks[keep]
        amps = amps[keep]
        if seg is not None:
            seg = seg[keep]
    return (masks, amps) if seg is None else (masks, amps, seg)


def _set_bits(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)


def count_above_bit(masks: np.ndarray, k) -> np.ndarray:
    """Per row, number of set bits with index strictly greater than k."""
    w = masks.shape[1]
    if np.ndim(k):
        return _set_bits(masks & ~below_row(k + 1, w))
    wk, b = divmod(k, WORD)
    total = np.zeros(masks.shape[0], dtype=np.int64)
    if wk < w:
        total += np.bitwise_count(masks[:, wk] & HIGH[b]).astype(np.int64)
        for i in range(wk + 1, w):
            total += np.bitwise_count(masks[:, i]).astype(np.int64)
    return total


def count_below_bit(masks: np.ndarray, k) -> np.ndarray:
    """Per row, number of set bits with index strictly less than k."""
    w = masks.shape[1]
    if np.ndim(k):
        return _set_bits(masks & below_row(k, w))
    wk, b = divmod(k, WORD)
    total = np.zeros(masks.shape[0], dtype=np.int64)
    top = min(wk, w)
    for i in range(top):
        total += np.bitwise_count(masks[:, i]).astype(np.int64)
    if wk < w and b > 0:
        total += np.bitwise_count(masks[:, wk] & LOW[b]).astype(np.int64)
    return total


def rows_within(masks: np.ndarray, k) -> np.ndarray:
    """Boolean rows whose set bits all lie strictly below k."""
    if masks.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    allowed = below_row(k, masks.shape[1])
    return np.all((masks & ~allowed) == 0, axis=1)


def mul_generator(
    masks: np.ndarray,
    amps: np.ndarray,
    k,
    side: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiply the element by generator k on the given side.

    For an int k the output is canonical. When bit k is the highest bit
    present (the adapted situation) no sort is needed: rows split into a
    block without bit k and a block with it, and the blocks swap. For an
    int64 array k (row i times generator k[i]) rows keep their input
    order: each maps to one row, and the caller sorts once for all.
    """
    m, w = masks.shape
    if m == 0:
        return masks, amps
    stacked = np.ndim(k) > 0
    top = int(k.max()) if stacked else k
    if top >= WORD * w:
        raise ValueError(f"generator index {top} out of range for {w} words")
    above = count_above_bit(masks, k)
    if side == "right":
        flips = above
    elif side == "left":
        flips = count_below_bit(masks, k)
    else:
        raise ValueError("side must be 'left' or 'right'")
    signs = np.where(flips & 1, -1.0, 1.0)
    new_amps = amps * signs
    if stacked:
        return masks ^ (below_row(k + 1, w) ^ below_row(k, w)), new_amps
    wk, b = divmod(k, WORD)
    new_masks = masks.copy()
    new_masks[:, wk] ^= _U1 << np.uint64(b)
    # Fast path: no bits above k anywhere.
    if not above.any():
        had_k = (masks[:, wk] >> np.uint64(b)) & _U1
        split = int(np.searchsorted(had_k, 1))
        masks_out = np.concatenate((new_masks[split:], new_masks[:split]))
        amps_out = np.concatenate((new_amps[split:], new_amps[:split]))
        return masks_out, amps_out
    return canonicalize(new_masks, new_amps)


def top_bit(masks: np.ndarray) -> np.ndarray:
    """Per row, the index of the highest set bit (int64), -1 for no bits."""
    smeared = masks.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        smeared |= smeared >> np.uint64(shift)
    # a word with its bits smeared down has popcount = its bit length
    lengths = np.bitwise_count(smeared).astype(np.int64)
    ends = np.where(lengths > 0, lengths + WORD * np.arange(masks.shape[1]), 0)
    return ends.max(axis=1, initial=0) - 1


def prefix_parity(masks: np.ndarray) -> np.ndarray:
    """Exclusive prefix-XOR of each row: bit s of P(T) is set when an odd
    number of T's bits lie below s."""
    inclusive = masks.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        inclusive ^= inclusive << np.uint64(shift)
    # the top bit of an inclusive word is the word's parity; the words
    # below a word carry the XOR of theirs into every one of its bits
    carry = np.bitwise_xor.accumulate(inclusive >> np.uint64(WORD - 1), axis=1)
    out = inclusive << _U1
    out[:, 1:] ^= carry[:, :-1] * _FULL
    return out


def pair_parity(
    masks_a: np.ndarray,
    masks_b: np.ndarray,
    prefix_b: np.ndarray | None = None,
) -> np.ndarray:
    """Inversion parity matrix for products of monomials, as 0/1 uint8.

    Entry (i, j) is the parity of #{(s, t): s in row i of a, t in row j of b,
    s > t}, which is the sign exponent of g_S g_T = +/- g_{S xor T}. Each
    s of S counts the bits of T below it, so the parity is that of
    popcount(S & P(T)) with P = prefix_parity(masks_b), which may be passed
    in when several calls share b.
    """
    if prefix_b is None:
        prefix_b = prefix_parity(masks_b)
    par = np.zeros((masks_a.shape[0], masks_b.shape[0]), dtype=np.uint8)
    for v in range(masks_a.shape[1]):
        par ^= np.bitwise_count(masks_a[:, v, None] & prefix_b[None, :, v])
    return par & 1


def require_product(ma: int, mb: int) -> None:
    """Refuse a product of ma by mb terms: it holds ma * mb rows, at most
    MAX_ROWS."""
    if ma * mb > MAX_ROWS:
        raise ValueError(
            f"product of {ma} by {mb} terms refused: {ma * mb} rows "
            f"(> {MAX_ROWS})"
        )


# Rows of a that mul_full pairs with all of b per pass.
_MUL_CHUNK = 512


def mul_full(
    masks_a: np.ndarray,
    amps_a: np.ndarray,
    masks_b: np.ndarray,
    amps_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """General signed product, canonical output."""
    ma, w = masks_a.shape
    mb = masks_b.shape[0]
    if ma == 0 or mb == 0:
        return empty_masks(w), np.zeros(0, dtype=np.complex128)
    require_product(ma, mb)
    pieces_m = []
    pieces_a = []
    prefix_b = prefix_parity(masks_b)
    for start in range(0, ma, _MUL_CHUNK):
        sl = slice(start, min(start + _MUL_CHUNK, ma))
        sub = masks_a[sl]
        par = pair_parity(sub, masks_b, prefix_b)
        signs = np.where(par == 1, -1.0, 1.0)
        prod = (amps_a[sl][:, None] * amps_b[None, :]) * signs
        xored = sub[:, None, :] ^ masks_b[None, :, :]
        pieces_m.append(xored.reshape(-1, w))
        pieces_a.append(prod.reshape(-1))
    return canonicalize(np.concatenate(pieces_m), np.concatenate(pieces_a))


def merge_sum(
    parts: list[tuple[np.ndarray, np.ndarray]],
    w: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of canonical parts, canonical output."""
    parts = [(m, a) for m, a in parts if m.shape[0]]
    if not parts:
        return empty_masks(w), np.zeros(0, dtype=np.complex128)
    if len(parts) == 1:
        return parts[0]
    return canonicalize(
        np.concatenate([m for m, _ in parts]),
        np.concatenate([a for _, a in parts]),
    )


def dot_conj(
    masks_a: np.ndarray,
    amps_a: np.ndarray,
    masks_b: np.ndarray,
    amps_b: np.ndarray,
) -> complex:
    """Sum of conj(amp_a) * amp_b over rows with equal masks.

    Both inputs must be canonical.
    """
    ma, w = masks_a.shape
    mb = masks_b.shape[0]
    if ma == 0 or mb == 0:
        return 0.0 + 0.0j
    if w == 1:
        ka = masks_a[:, 0]
        kb = masks_b[:, 0]
        pos = np.searchsorted(ka, kb)
        pos_c = np.minimum(pos, ma - 1)
        hit = ka[pos_c] == kb
        if not hit.any():
            return 0.0 + 0.0j
        return complex(np.sum(np.conj(amps_a[pos_c[hit]]) * amps_b[hit]))
    stacked = np.concatenate((masks_a, masks_b))
    vals = np.concatenate((np.conj(amps_a), amps_b))
    side = np.concatenate(
        (np.zeros(ma, dtype=np.int8), np.ones(mb, dtype=np.int8))
    )
    order = lexsort_rows(stacked)
    stacked = stacked[order]
    vals = vals[order]
    side = side[order]
    same = np.all(stacked[1:] == stacked[:-1], axis=1)
    pair = same & (side[1:] != side[:-1])
    if not pair.any():
        return 0.0 + 0.0j
    idx = np.flatnonzero(pair)
    return complex(np.sum(vals[idx] * vals[idx + 1]))


def prune_keep(
    amps: np.ndarray,
    budget: float,
    force_first: bool = False,
) -> tuple[np.ndarray | None, float]:
    """Keep mask for rows with |amp| >= budget * ||amps||_2 / sqrt(m).

    Returns (None, 0.0) when nothing is dropped; otherwise the boolean
    keep mask and the dropped squared mass, which is bounded by
    (budget * ||amps||_2)**2. force_first pins row 0 regardless.
    """
    m = amps.shape[0]
    if m == 0 or budget <= 0.0:
        return None, 0.0
    mags_sq = amps.real**2 + amps.imag**2
    total = float(mags_sq.sum())
    if total == 0.0:
        return None, 0.0
    thr_sq = (budget * budget) * total / m
    keep = mags_sq >= thr_sq
    if force_first:
        keep[0] = True
    if keep.all():
        return None, 0.0
    dropped = float(mags_sq[~keep].sum())
    return keep, dropped


def prune_mass(
    masks: np.ndarray,
    amps: np.ndarray,
    budget: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Drop rows below the relative mass budget; see prune_keep."""
    keep, dropped = prune_keep(amps, budget)
    if keep is None:
        return masks, amps, 0.0
    return masks[keep], amps[keep], dropped
