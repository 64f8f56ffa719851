"""m-gram frequency counting and significance testing over keystream bytes.

m=8 and m=16 grams slide byte-wise; m=32 grams are word-aligned, matching the
cipher's 32-bit internal operations.  Per-pattern z-scores use the binomial
model f ~ Bin(N, 2^-m); the chi-square test runs over the full cell table for
m=8/16 and over 2^16 XOR-fold buckets for m=32 (enumerating 2^32 cells is not
tractable, and the fold keeps sensitivity to word-level structure).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

FOLD_BUCKETS = 1 << 16
COUNT_CHUNK = 1 << 22  # grams per bincount call


@dataclass(frozen=True)
class MGramSpec:
    m_bits: int = 8
    overlapping: bool = True

    def __post_init__(self):
        if self.m_bits not in (8, 16, 32):
            raise ValueError("m_bits must be one of 8, 16, 32")


@dataclass
class FrequencyTable:
    """Distinct m-gram ``values`` (ascending) and their ``counts``, of ``n``."""

    values: np.ndarray
    counts: np.ndarray
    n: int
    m_bits: int

    def count(self, pattern: int) -> int:
        i = np.searchsorted(self.values, pattern)
        found = i < len(self.values) and self.values[i] == pattern
        return int(self.counts[i]) if found else 0


@dataclass(frozen=True)
class SignificanceConfig:
    alpha: float = 1e-6
    z_threshold: float = 4.89
    chi2_alpha: float = 0.001

    def __post_init__(self):
        quantile = stats.norm.ppf(1.0 - self.alpha / 2.0)
        if abs(quantile - self.z_threshold) > 0.01:
            raise ValueError(
                f"z_threshold {self.z_threshold} inconsistent with alpha "
                f"{self.alpha} (quantile {quantile:.4f})"
            )


@dataclass
class ZScoreResult:
    pattern: int
    z: float
    expected: float
    variance: float
    significant: bool


def _bincount(grams: np.ndarray, size: int) -> np.ndarray:
    # bincount widens its input to intp, so count in chunks to bound the copy
    cells = np.zeros(size, dtype=np.int64)
    for start in range(0, len(grams), COUNT_CHUNK):
        cells += np.bincount(grams[start: start + COUNT_CHUNK], minlength=size)
    return cells


def extract_mgrams(keystream: bytes, spec: MGramSpec) -> FrequencyTable:
    """Count m-grams; overlapping extraction slides one byte (one word for
    m=32)."""
    m_bytes = spec.m_bits // 8
    if len(keystream) < m_bytes:
        raise ValueError(f"input shorter than one {spec.m_bits}-bit gram")
    data = np.frombuffer(keystream, dtype=np.uint8)
    if spec.m_bits == 8:
        cells, n = _bincount(data, 256), len(data)
    elif spec.m_bits == 16:
        # big-endian pairs at even offsets, and at odd offsets when overlapping
        grams = [data[i: i + (len(data) - i) // 2 * 2].view(">u2")
                 for i in ((0, 1) if spec.overlapping else (0,))]
        cells, n = sum(_bincount(g, 1 << 16) for g in grams), sum(map(len, grams))
    else:
        # m=32 slides word-aligned regardless of the overlapping flag
        words = data[: len(data) // 4 * 4].view("<u4")
        values, counts = np.unique(words, return_counts=True)
        return FrequencyTable(values, counts, len(words), 32)
    values = np.flatnonzero(cells)
    return FrequencyTable(values.astype(np.uint32), cells[values], n, spec.m_bits)


def z_score(
    table: FrequencyTable, pattern: int, cfg: SignificanceConfig | None = None
) -> ZScoreResult:
    """Normalised deviation of a pattern's count from the uniform expectation."""
    if cfg is None:
        cfg = SignificanceConfig()
    if table.n <= 0:
        raise ValueError("empty table: N must be > 0")
    q = 2.0 ** (-table.m_bits)
    expected = table.n * q
    variance = table.n * q * (1.0 - q)
    z = (table.count(pattern) - expected) / math.sqrt(variance)
    return ZScoreResult(pattern, z, expected, variance, z > cfg.z_threshold)


def _fold32(words: np.ndarray) -> np.ndarray:
    return ((words >> np.uint32(16)) ^ (words & np.uint32(0xFFFF))).astype(np.int64)


def _cell_counts(table: FrequencyTable) -> np.ndarray:
    """Dense cell counts: full table for m=8/16, XOR-fold buckets for m=32."""
    if table.m_bits in (8, 16):
        cells = np.zeros(1 << table.m_bits, dtype=np.int64)
        cells[table.values] = table.counts
        return cells
    folded = np.bincount(_fold32(table.values), weights=table.counts,
                         minlength=FOLD_BUCKETS)
    return folded.astype(np.int64)


def chi_square(
    table: FrequencyTable, cfg: SignificanceConfig | None = None
) -> tuple[float, bool]:
    """Pearson chi-square against uniformity; pass iff below the quantile at
    ``chi2_alpha`` for the table's degrees of freedom."""
    if cfg is None:
        cfg = SignificanceConfig()
    cells = _cell_counts(table)
    expected = table.n / len(cells)
    if expected < 5:
        warnings.warn(
            f"expected cell count {expected:.3g} < 5; chi-square approximation "
            "is weak at this sample size",
            stacklevel=2,
        )
    statistic = float(((cells - expected) ** 2 / expected).sum())
    critical = stats.chi2.ppf(1.0 - cfg.chi2_alpha, df=len(cells) - 1)
    return statistic, statistic < critical


def top_k(table: FrequencyTable, k: int) -> list[tuple[int, int]]:
    """k most frequent patterns as (pattern, count); ties break on ascending
    pattern value."""
    if k < 1:
        raise ValueError("k must be >= 1")
    order = np.lexsort((table.values, -table.counts))[:k]
    return [(int(table.values[i]), int(table.counts[i])) for i in order]


def scan_significant(
    table: FrequencyTable, cfg: SignificanceConfig | None = None
) -> list[ZScoreResult]:
    """All cells whose z-score exceeds the threshold.

    For m=8/16 this scans every pattern value; for m=32 the scan runs over
    the 2^16 XOR-fold buckets (bucket probability 2^-16), since per-pattern
    expectations at 2^-32 are far below one count at any tractable N and a
    literal per-pattern test would flag every repeated word.
    """
    if cfg is None:
        cfg = SignificanceConfig()
    if table.n <= 0:
        raise ValueError("empty table: N must be > 0")
    cells = _cell_counts(table)
    q = 1.0 / len(cells)
    expected = table.n * q
    sd = math.sqrt(table.n * q * (1.0 - q))
    z = (cells - expected) / sd
    hits = np.nonzero(z > cfg.z_threshold)[0]
    return [
        ZScoreResult(int(i), float(z[i]), expected, sd * sd, True) for i in hits
    ]
