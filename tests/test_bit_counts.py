"""diff._bit_counts, the avalanche's positional popcount, against an
np.unpackbits oracle.

The counter sums bit j of every byte in byte-wide fields of uint32 words,
255 lanes per block.  All-ones words fill every field to 255 in a full
block, so a block one lane longer carries into the next field; the lane
counts straddle one and many block boundaries."""

import numpy as np
import pytest

from keystream_lab.diff import _bit_counts

LANES = [1, 254, 255, 256, 511, 256 * 255 + 1]


def unpacked_counts(d):
    """[row, 32 * w + b]: lanes of ``row`` with bit b of word w set, from the
    words' little-endian bytes unpacked low bit first."""
    bits = np.unpackbits(d.astype("<u4").view(np.uint8).reshape(*d.shape, 4),
                         axis=-1, bitorder="little")
    return bits.sum(axis=2, dtype=np.int64).transpose(1, 0, 2).reshape(d.shape[1], -1)


@pytest.mark.parametrize("n", LANES)
def test_random_words(n):
    d = np.random.default_rng(n).integers(0, 1 << 32, (4, 3, n), dtype=np.uint32)
    assert np.array_equal(_bit_counts(d), unpacked_counts(d))


@pytest.mark.parametrize("n", LANES)
def test_all_ones_words(n):
    d = np.full((4, 2, n), 0xFFFFFFFF, dtype=np.uint32)
    got = _bit_counts(d)
    assert np.array_equal(got, unpacked_counts(d))
    assert np.array_equal(got, np.full((2, 128), n))


def test_rows_and_words_stay_apart():
    # one set bit per (word, row), each at its own position and lane count
    n = 600
    d = np.zeros((4, 5, n), dtype=np.uint32)
    for w in range(4):
        for row in range(5):
            d[w, row, : 100 * row + w + 1] = np.uint32(1) << np.uint32(7 * row + w)
    expect = np.zeros((5, 128), dtype=np.int64)
    for w in range(4):
        for row in range(5):
            expect[row, 32 * w + 7 * row + w] = 100 * row + w + 1
    assert np.array_equal(_bit_counts(d), expect)
    assert np.array_equal(unpacked_counts(d), expect)


def test_strided_input():
    # the kernel may yield a view; counts must not depend on the layout
    base = np.random.default_rng(3).integers(0, 1 << 32, (2, 4, 700), dtype=np.uint32)
    d = base.transpose(1, 0, 2)[:, :, ::3]
    assert np.array_equal(_bit_counts(d), unpacked_counts(np.ascontiguousarray(d)))


def test_block_width_words():
    # 36 words: the 1,152 output bits of a block
    d = np.random.default_rng(36).integers(0, 1 << 32, (36, 2, 300), dtype=np.uint32)
    got = _bit_counts(d)
    assert got.shape == (2, 1152)
    assert np.array_equal(got, unpacked_counts(d))
