import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keystream_lab import freq
from keystream_lab.cipher import MASK32, CipherConfig
from keystream_lab.dataset import DatasetConfig, dataset_bytes, generate_dataset
from keystream_lab.freq import (
    FOLD_BUCKETS,
    FrequencyTable,
    MGramSpec,
    SignificanceConfig,
    chi_square,
    extract_mgrams,
    scan_significant,
    top_k,
    z_score,
)

from helpers import traced_peak


def table_of(counts: dict, n: int, m_bits: int) -> FrequencyTable:
    """A table holding the given {pattern: count} entries."""
    values = sorted(counts)
    return FrequencyTable(np.array(values, dtype=np.uint32),
                          np.array([counts[v] for v in values], dtype=np.int64),
                          n, m_bits)


def counts_of(table: FrequencyTable) -> dict:
    """The table's {pattern: count} entries, read from values and counts."""
    return dict(zip(table.values.tolist(), table.counts.tolist()))


def naive_counts(data: bytes, m_bits: int) -> Counter:
    """m-gram counts by slicing: m=8/16 big-endian byte grams sliding one
    byte, m=32 little-endian aligned words."""
    if m_bits == 32:
        return Counter(int.from_bytes(data[i: i + 4], "little")
                       for i in range(0, len(data) - 3, 4))
    width = m_bits // 8
    return Counter(int.from_bytes(data[i: i + width], "big")
                   for i in range(len(data) - width + 1))


class TestExtract:
    def test_m8_counts(self):
        table = extract_mgrams(b"\xab\xcd\xab", MGramSpec(8))
        assert table.n == 3
        assert counts_of(table) == {0xAB: 2, 0xCD: 1}

    def test_m16_overlapping(self):
        # byte-sliding big-endian reads: abcd, cdab
        table = extract_mgrams(b"\xab\xcd\xab", MGramSpec(16))
        assert table.n == 2
        assert counts_of(table) == {0xABCD: 1, 0xCDAB: 1}

    def test_m32_word_aligned_little_endian(self):
        data = b"\x01\x00\x00\x00" * 3 + b"\x02\x00\x00\x00" + b"\xff"
        table = extract_mgrams(data, MGramSpec(32))
        assert table.n == 4
        assert counts_of(table) == {1: 3, 2: 1}

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            extract_mgrams(b"\x01", MGramSpec(16))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.integers(2, 300).flatmap(lambda k: st.binary(
            min_size=2 * k + 1, max_size=2 * k + 1)
            | st.lists(st.sampled_from([0x00, 0x01, 0xFF]), min_size=2 * k + 1,
                       max_size=2 * k + 1).map(bytes)),
        m_bits=st.sampled_from([8, 16, 32]),
        k=st.integers(1, 12),
    )
    def test_counts_match_naive(self, data, m_bits, k):
        table = extract_mgrams(data, MGramSpec(m_bits))
        naive = naive_counts(data, m_bits)
        assert table.n == sum(naive.values())
        assert table.values.tolist() == sorted(naive)
        assert counts_of(table) == naive
        assert top_k(table, k) == sorted(naive.items(), key=lambda vc: (-vc[1], vc[0]))[:k]
        cells = np.zeros(1 << 16 if m_bits > 8 else 256, dtype=np.int64)
        for v, c in naive.items():
            cells[(v >> 16) ^ (v & 0xFFFF)] += c
        assert np.array_equal(table.cells, cells)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            MGramSpec(24)


class TestChunkBoundaries:
    """Counting, the m=32 fold and ranking read their arrays COUNT_CHUNK at
    a time; every chunk size gives the one-shot answer."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.binary(min_size=4, max_size=80)
        | st.lists(st.sampled_from([0x00, 0x01, 0xFF]), min_size=4, max_size=80).map(bytes),
        m_bits=st.sampled_from([8, 16, 32]),
        chunk=st.integers(1, 7),
        k=st.integers(1, 12),
    )
    def test_counts_match_counter(self, data, m_bits, chunk, k):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(freq, "COUNT_CHUNK", chunk)
            table = extract_mgrams(data, MGramSpec(m_bits))
            ranked = top_k(table, k)
        naive = naive_counts(data, m_bits)
        assert table.n == sum(naive.values())
        assert counts_of(table) == naive
        assert table.values.tolist() == sorted(naive)
        assert ranked == sorted(naive.items(), key=lambda vc: (-vc[1], vc[0]))[:k]
        cells = np.zeros(1 << 16 if m_bits > 8 else 256, dtype=np.int64)
        for v, c in naive.items():
            cells[(v >> 16) ^ (v & 0xFFFF)] += c
        assert np.array_equal(table.cells, cells)


class TestSortedRuns:
    """m=32 run lengths are found a chunk of run starts at a time and kept
    as uint32; every chunk size gives np.unique's answer."""

    @settings(max_examples=150, deadline=None)
    @given(
        words=st.lists(st.sampled_from([0, 1, 7, 0xFFFF, 0x10000, MASK32])
                       | st.integers(0, MASK32), min_size=1, max_size=60),
        chunk=st.integers(1, 7),
        k=st.integers(1, 8),
    )
    def test_matches_unique(self, words, chunk, k):
        array = np.array(words, dtype=np.uint32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(freq, "COUNT_CHUNK", chunk)
            values, counts = freq._sorted_runs(array)
            table = FrequencyTable(values, counts, len(words), 32)
            ranked = top_k(table, k)
        expect_values, expect_counts = np.unique(array, return_counts=True)
        assert counts.dtype == np.uint32
        assert values.tolist() == expect_values.tolist()
        assert counts.tolist() == expect_counts.tolist()
        # unsigned counts rank high first, ties on ascending value
        pairs = zip(expect_values.tolist(), expect_counts.tolist())
        assert ranked == sorted(pairs, key=lambda vc: (-vc[1], vc[0]))[:k]


class TestWorkingSet:
    """Counting and ranking hold chunk-sized temporaries, not copies of the
    input or the table."""

    @pytest.fixture(scope="class")
    def keystream(self):
        cfg = DatasetConfig(mode="variable", n_blocks=2500, rng_seed=11)
        return dataset_bytes(generate_dataset(cfg))

    def test_m8_peak(self, keystream):
        # one bincount over all 360,000 bytes widened them to intp: 2.75 MiB
        peak = traced_peak(lambda: extract_mgrams(keystream, MGramSpec(8)))
        assert peak < 1 << 20

    def test_m32_peak(self, keystream):
        # the sorted copy, the distinct values and their uint32 counts (352
        # KiB each for 90,000 words), the int64 cells (512 KiB) and a chunk's
        # temporaries; int64 run starts and counts took it to 2.03 MiB
        peak = traced_peak(lambda: extract_mgrams(keystream, MGramSpec(32)))
        assert peak < 1.75 * (1 << 20)

    def test_top_k_on_a_skewed_table(self):
        # a histogram of the counts would take 800 MB for this one count
        table = table_of({1: 1, 2: 10 ** 8, 3: 5}, 10 ** 8 + 6, 8)
        assert top_k(table, 1) == [(2, 10 ** 8)]
        assert traced_peak(lambda: top_k(table, 1)) < 1 << 20


class TestZScore:
    def test_frozen_value(self):
        # N = 2^20 bytes with pattern count 4500 at q = 2^-8
        table = table_of({0x41: 4500}, 1 << 20, 8)
        res = z_score(table, 0x41)
        assert res.z == pytest.approx(6.32486533996001, abs=1e-12)
        assert res.significant

    def test_expected_and_variance(self):
        table = table_of({}, 1000, 8)
        res = z_score(table, 7)
        q = 2.0 ** -8
        assert res.expected == pytest.approx(1000 * q)
        assert res.variance == pytest.approx(1000 * q * (1 - q))
        assert res.z < 0
        assert not res.significant

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            z_score(table_of({}, 0, 8), 0)

    def test_threshold_alpha_consistency(self):
        # the threshold is derived from alpha and cannot be set apart from it
        assert SignificanceConfig().z_threshold == pytest.approx(4.8916, abs=5e-5)
        assert SignificanceConfig(alpha=0.05).z_threshold == pytest.approx(1.96, abs=5e-5)
        with pytest.raises(TypeError):
            SignificanceConfig(z_threshold=3.0)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.5, 1.5, 2.0, math.nan])
    @pytest.mark.parametrize("name", ["alpha", "chi2_alpha"])
    def test_significance_level_outside_unit_interval_rejected(self, name, value):
        # chi2_alpha = 0 once passed every table and 1.5 failed every one;
        # alpha = 0 flagged no cell and alpha = 2 flagged every cell
        with pytest.raises(ValueError, match=name):
            SignificanceConfig(**{name: value})

    @pytest.mark.parametrize("m_bits, pattern", [
        (8, 300), (8, -1), (8, 256), (16, 1 << 16), (32, 1 << 32), (32, -1)])
    def test_pattern_outside_width_rejected(self, m_bits, pattern):
        # such patterns once read as a zero count; -1 would index from the end
        table = table_of({0xFF: 9}, 9, m_bits)
        with pytest.raises(ValueError, match="not in"):
            z_score(table, pattern)

    def test_m32_word_scored_in_its_bucket(self):
        # words 0 .. 2^16 - 1 fill each fold bucket once: z = 0 everywhere,
        # where a per-word test at q = 2^-32 flags every word
        table = extract_mgrams(np.arange(1 << 16, dtype="<u4").tobytes(), MGramSpec(32))
        results = [z_score(table, w) for w in range(1 << 16)]
        assert not any(r.significant for r in results)
        assert all(r.z == 0.0 for r in results)


class TestChiSquare:
    def test_degenerate_single_value(self):
        # all N bytes equal: statistic is exactly 255 * N
        n = 4096
        table = extract_mgrams(b"\x42" * n, MGramSpec(8))
        stat, ok = chi_square(table)
        assert stat == pytest.approx(255 * n)
        assert not ok

    def test_uniform_baseline_passes(self):
        data = bytes(range(256)) * 64
        stat, ok = chi_square(extract_mgrams(data, MGramSpec(8)))
        assert stat == pytest.approx(0.0)
        assert ok

    def test_low_expected_count_warns(self):
        table = table_of({1: 2, 2: 1}, 3, 16)
        with pytest.warns(UserWarning, match="< 5"):
            chi_square(table)

    def test_m32_uses_fold_buckets(self):
        # 2^-32 cells are intractable; the fold collapses to 2^16 buckets
        words = np.arange(1 << 17, dtype="<u4")
        table = extract_mgrams(words.tobytes(), MGramSpec(32))
        # 2^17 words over 2^16 buckets expect 2 a cell: below the low-count limit
        with np.errstate(all="ignore"), pytest.warns(UserWarning, match="< 5"):
            stat, _ = chi_square(table)
        assert math.isfinite(stat)


class TestTopK:
    def test_ranking_and_ties(self):
        table = table_of({5: 3, 1: 7, 9: 3, 2: 1}, 14, 8)
        assert top_k(table, 3) == [(1, 7), (5, 3), (9, 3)]

    def test_k_validated(self):
        with pytest.raises(ValueError):
            top_k(table_of({1: 1}, 1, 8), 0)

    def test_ties_straddle_the_kth_count(self):
        # the 3rd largest count is 3, held by four values: two of them fit,
        # the smallest ones
        table = table_of({6: 3, 1: 5, 4: 3, 2: 3, 9: 1, 3: 3}, 18, 8)
        assert top_k(table, 3) == [(1, 5), (2, 3), (3, 3)]
        assert top_k(table, 5) == [(1, 5), (2, 3), (3, 3), (4, 3), (6, 3)]

    @pytest.mark.parametrize("k", [3, 4, 100])
    def test_k_at_least_the_distinct_values(self, k):
        table = table_of({7: 2, 3: 2, 9: 4}, 8, 8)
        assert top_k(table, k) == [(9, 4), (3, 2), (7, 2)]

    def test_all_counts_equal(self):
        # m = 32 over distinct words, as keystream nearly always is: every
        # count is 1, so the top k are the k smallest words
        words = np.random.default_rng(4).permutation(1 << 16).astype("<u4") * 65537
        table = extract_mgrams(words.tobytes(), MGramSpec(32))
        assert top_k(table, 10) == [(int(w), 1) for w in np.sort(words)[:10]]

    def test_unsigned_counts_rank_high_first(self):
        # a uint32 count of 0 negated in its own dtype stays 0 and would rank first
        counts = np.array([0, 5, 2], np.uint32)
        table = FrequencyTable(np.array([1, 2, 3], np.uint32), counts, 7, 32)
        assert top_k(table, 3) == [(2, 5), (3, 2), (1, 0)]


class TestScan:
    def test_planted_byte_detected(self):
        data = bytearray(bytes(range(256)) * 512)
        for i in range(0, len(data), 64):
            data[i] = 0x7F  # heavy excess of one byte value
        hits = scan_significant(extract_mgrams(bytes(data), MGramSpec(8)))
        assert any(h.pattern == 0x7F for h in hits)

    def test_keystream_baseline_clean_m8(self):
        # m=16/32 need the full campaign sample sizes for the normal
        # approximation to hold; at this scale only m=8 has expected cell
        # counts large enough to test
        cfg = DatasetConfig(mode="variable", n_blocks=512, rng_seed=99,
                            cipher=CipherConfig())
        data = dataset_bytes(generate_dataset(cfg))
        table = extract_mgrams(data, MGramSpec(8))
        assert scan_significant(table) == []
        _, ok = chi_square(table)
        assert ok

    def test_m32_scan_is_bucketed(self):
        # every distinct word repeats twice; per-pattern testing at q=2^-32
        # would flag all of them, the bucketed scan flags none
        words = np.repeat(np.arange(1 << 16, dtype="<u4"), 2)
        hits = scan_significant(extract_mgrams(words.tobytes(), MGramSpec(32)))
        assert all(h.pattern < FOLD_BUCKETS for h in hits)
